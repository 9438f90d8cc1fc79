"""Modified Frank-Wolfe gap: constants, plug-in estimator, exact evaluation.

For a problem with constrained blocks ``x`` and a free block ``y`` the
stationarity measure used throughout this package is

    G(x, y) = G_tilde(x) * sqrt(2 L / C) + ||grad_y F(x, y)||_*

where ``G_tilde`` is the classical Frank-Wolfe gap summed over blocks, ``L``
is the gradient Lipschitz constant, ``C`` the curvature-style constant that
also scales the step sizes, and ``||.||_*`` the dual of the norm on ``y``.
The same formula applied to sampled gradients gives a plug-in estimator
whose expectation dominates the true gap (the map from gradients to the gap
is convex, so Jensen's inequality points the right way).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import (
    FEASIBILITY_TOL,
    L1Ball,
    Norm,
    _fail_rows,
    blame_blocks,
    finite_rows,
    frank_wolfe_rows,
    group_layout,
    outside_rows,
    regroup,
)

#: magnitude up to which a negative Frank-Wolfe gap is cancellation, clamped to zero
G_TILDE_SLACK = 1e-12

#: relative slack of c_bar's floor 2 * l_nabla * diam**2, which callers round in their own order
C_BAR_FLOOR_SLACK = 1e-12


class InternalConsistencyError(RuntimeError):
    """A quantity that is nonnegative by construction came out negative.

    ``row`` is the offending row when the quantity was computed row-wise.
    """

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = row


def dual_norm(v: np.ndarray, norm: Norm) -> float:
    """Dual norm of ``v``: Euclidean for L2, max-magnitude for L1."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        return 0.0
    if not np.isfinite(v).all():
        raise ValueError("vector contains non-finite entries")
    if norm is Norm.L2:  # np.linalg.norm's sum of squares and root, without its dispatch
        flat = v.ravel(order="K")
        return math.sqrt(flat.dot(flat))
    return float(np.abs(v).max())


@dataclass(frozen=True)
class GapConstants:
    """Constants entering the gap definition.

    ``scale`` is ``sqrt(2 * l_nabla / c_bar_total)``. A run with no
    constrained blocks has ``c_bar_total == 0`` and the scale is unused;
    it is stored as 0 so the gap reduces to the dual norm of the free
    gradient.
    """

    l_nabla: float
    c_bar_total: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.l_nabla) or self.l_nabla <= 0.0:
            raise ValueError(f"l_nabla must be positive, got {self.l_nabla}")
        if self.c_bar_total < 0.0:
            raise ValueError(f"c_bar_total must be nonnegative, got {self.c_bar_total}")

    @property
    def scale(self) -> float:
        if self.c_bar_total == 0.0:
            return 0.0
        return math.sqrt(2.0 * self.l_nabla / self.c_bar_total)

    def gap(self, g_tilde: float, h_dual_norm: float) -> float:
        """The modified gap ``g_tilde * scale + h_dual_norm`` from its two pieces."""
        return g_tilde * self.scale + h_dual_norm

    @classmethod
    def from_blocks(
        cls, l_nabla: float, c_bar_per_block: Sequence[float], balls: Sequence[L1Ball]
    ) -> "GapConstants":
        """Build the totals from per-block constants, validating each one.

        Every block constant has to dominate the curvature proxy
        ``2 * l_nabla * diameter^2`` of its ball, otherwise the step sizes
        derived from it are too large for the descent argument.
        """
        if len(c_bar_per_block) != len(balls):
            raise ValueError("need one c_bar per ball")
        for i, (c_i, ball) in enumerate(zip(c_bar_per_block, balls)):
            floor = 2.0 * l_nabla * ball.diameter() ** 2
            if c_i < floor * (1.0 - C_BAR_FLOOR_SLACK):
                raise ValueError(
                    f"c_bar for block {i} is {c_i}, below the required 2*L*diam^2 = {floor}"
                )
        return cls(l_nabla=l_nabla, c_bar_total=float(sum(c_bar_per_block)))


@dataclass(frozen=True)
class GapEstimate:
    """Gap value together with the pieces it was assembled from."""

    g_tilde_blocks: tuple[float, ...]
    g_tilde: float
    h_dual_norm: float
    value: float


def _clamp_g_tilde(values, g):
    # per-block Frank-Wolfe gaps are nonnegative inside the ball, and a point
    # up to FEASIBILITY_TOL outside it (which callers accept) lowers them by
    # at most FEASIBILITY_TOL * max|g|, a bound only computed when needed;
    # below that plus cancellation noise is a bug. Scalar with 1-D ``g`` or
    # row-wise; -0.0 clamps to +0.0, which steps and traces depend on.
    values = np.asarray(values, dtype=np.float64)
    bad = values < -G_TILDE_SLACK
    if bad.any():
        bad &= values < -(G_TILDE_SLACK + FEASIBILITY_TOL * np.abs(g).max(axis=-1))
        if bad.any():
            row = int(np.argmax(bad))
            raise InternalConsistencyError(
                f"per-block Frank-Wolfe gap came out {float(values.flat[row])}, "
                "beyond cancellation slack",
                row,
            )
    return np.where(values > 0.0, values, 0.0)


def gap_estimate(
    x_blocks: Sequence[np.ndarray],
    g_hat_blocks: Sequence[np.ndarray],
    h_hat: np.ndarray,
    balls: Sequence[L1Ball],
    constants: GapConstants,
    norm_y: Norm = Norm.L2,
) -> GapEstimate:
    """Plug-in gap at feasible ``x_blocks`` from (possibly sampled) gradients, in any cuts.

    Per block, ``g_tilde_i = g_hat_i @ (x_i - v_i)`` with ``v_i`` the linear
    minimization oracle vertex for ``g_hat_i``, computed row-wise for each
    run of consecutive blocks sharing a ball. The total gap is
    ``sum_i g_tilde_i * scale + dual_norm(h_hat)``.
    """
    groups, heights, dims = group_layout(tuple(balls))
    with blame_blocks("gap_estimate", range(len(balls))):
        xs = regroup(x_blocks, heights, dims, "x")
        gs = regroup(g_hat_blocks, heights, dims, "g")
    g_tilde_blocks = []
    for (ball, idx), x, g in zip(groups, xs, gs):
        with blame_blocks("gap_estimate", idx):
            finite_rows(x, "x")  # before feasibility, which calls a NaN row outside
            _fail_rows(outside_rows(ball, x), "x block is infeasible")
            finite_rows(g, "g")
            g_tilde_blocks += _clamp_g_tilde(frank_wolfe_rows(ball, x, g)[1], g).tolist()
    g_tilde = float(sum(g_tilde_blocks))
    h_dual = dual_norm(h_hat, norm_y)
    return GapEstimate(
        g_tilde_blocks=tuple(g_tilde_blocks),
        g_tilde=g_tilde,
        h_dual_norm=h_dual,
        value=constants.gap(g_tilde, h_dual),
    )


def exact_gap(
    problem,
    x_blocks: Sequence[np.ndarray],
    y: np.ndarray,
    balls: Sequence[L1Ball],
    constants: GapConstants,
    norm_y: Norm = Norm.L2,
) -> float:
    """Gap evaluated at the exact gradient of ``problem``, with the blocks in any cut.

    Only available when the problem exposes ``exact_gradient``; sampled
    problems without one cannot be scored this way.
    """
    if not hasattr(problem, "exact_gradient"):
        raise NotImplementedError("problem does not expose exact gradients")
    g_blocks, h = problem.exact_gradient(x_blocks, y)
    return gap_estimate(x_blocks, g_blocks, h, balls, constants, norm_y).value
