"""Stochastic Frank-Wolfe / steepest-descent hybrid with in-face steps.

One iteration, starting from ``(x_k, y_k)``:

1. draw a batch, average per-scenario gradients into ``(g_hat, h_hat)``;
2. Frank-Wolfe step per constrained block: move toward the oracle vertex
   with step ``alpha_i = g_tilde_i / c_bar_i`` (optionally clamped at 1);
3. steepest-descent step on the free block with step
   ``||h_hat||_* / (2 l_nabla)``;
4. optionally, on a fresh batch evaluated at the post-step point, take an
   away step inside the minimal face of each block, capped so the step
   never leaves the face.

The returned iterate is drawn uniformly from all ``K + 1`` iterates, which
is what the sublinear guarantee on the squared gap applies to. All
randomness flows from a single root seed through three independent
counter-based streams (data batches, fresh away-step batches, the output
index draw), so runs are reproducible bit for bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .gap import GapConstants, _clamp_g_tilde, dual_norm
from .geometry import (
    L1Ball,
    Norm,
    away_rows,
    ball_groups,
    blame_blocks,
    face_rows,
    frank_wolfe_rows,
    in_face_step_cap_rows,
    nnz_rows,
    stack_rows,
)
from .problems import GradientEstimate


@dataclass(frozen=True)
class BatchSchedule:
    """Batch size as a function of the iteration counter.

    ``constant``: the same ``size`` every iteration. ``linear-in-total``:
    every batch as large as the total iteration count, which trades one
    epoch-sized variance for an O(1/K) rate. ``linear-in-iter``: batch
    ``k + 1`` at iteration ``k``, growing as the run proceeds.
    """

    kind: str
    size: int = 1

    KINDS = ("constant", "linear-in-total", "linear-in-iter")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown batch schedule kind {self.kind!r}")
        if self.kind == "constant" and self.size < 1:
            raise ValueError("constant batch size must be at least 1")

    @classmethod
    def constant(cls, size: int) -> "BatchSchedule":
        return cls(kind="constant", size=size)

    @classmethod
    def linear_in_total(cls) -> "BatchSchedule":
        return cls(kind="linear-in-total")

    @classmethod
    def linear_in_iter(cls) -> "BatchSchedule":
        return cls(kind="linear-in-iter")

    def batch_size(self, k: int, total: int) -> int:
        if self.kind == "constant":
            return self.size
        if self.kind == "linear-in-total":
            return max(total, 1)
        return k + 1


@dataclass(frozen=True)
class OptimizerConfig:
    """Everything a run needs besides the problem and the feasible sets.

    ``c_bar_per_block`` must dominate ``2 * l_nabla * diameter^2`` of the
    matching ball; this is validated when a run starts. ``alpha_clamp``
    caps the Frank-Wolfe step at 1 so the iterate stays a convex
    combination even when the gap estimate is large.
    """

    l_nabla: float
    c_bar_per_block: tuple[float, ...]
    iterations: int
    seed: int
    batch_schedule: BatchSchedule = BatchSchedule.constant(1)
    alternative_directions: bool = False
    norm_y: Norm = Norm.L2
    alpha_clamp: bool = True
    away_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not np.isfinite(self.l_nabla) or self.l_nabla <= 0.0:
            raise ValueError("l_nabla must be positive")
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if not all(0.0 < c < np.inf for c in self.c_bar_per_block):
            raise ValueError("all c_bar entries must be positive and finite")
        if not 0.0 <= self.away_tol < np.inf:
            raise ValueError("away_tol must be nonnegative and finite")


@dataclass(frozen=True, eq=False)
class Iterate:
    """Snapshot of the variables after ``k`` iterations."""

    x_blocks: tuple[np.ndarray, ...]
    y: np.ndarray
    k: int


@dataclass(frozen=True)
class AltStepInfo:
    """What happened to one block inside the away step."""

    taken: bool
    a_value: float
    alpha_stop: float
    beta_bar: float


@dataclass(frozen=True)
class TraceRecord:
    """Per-iteration log row; NNZ counts describe the post-step iterate."""

    k: int
    objective_estimate: float
    gap_hat: float
    alpha_bar_blocks: tuple[float, ...]
    alpha_sd: float
    beta_bar_blocks: tuple[float, ...] | None
    alt_taken_blocks: tuple[bool, ...] | None
    nnz_blocks: tuple[int, ...]


@dataclass(frozen=True)
class RngStreams:
    """Independent generators derived from one root seed."""

    data: np.random.Generator
    alt_batches: np.random.Generator
    output_draw: np.random.Generator


def derive_rng_streams(seed: int) -> RngStreams:
    """Spawn the three per-purpose streams from a root seed.

    Uses counter-based Philox generators behind independently spawned seed
    sequences, so consuming one stream never shifts another.
    """
    children = np.random.SeedSequence(seed).spawn(3)
    gens = [np.random.Generator(np.random.Philox(c)) for c in children]
    return RngStreams(data=gens[0], alt_batches=gens[1], output_draw=gens[2])


@dataclass(frozen=True, eq=False)
class RunResult:
    output_iterate: Iterate
    trace: list[TraceRecord]
    iterates_digest: str
    final_iterate: Iterate
    output_index: int


def iterates_digest(iterates: Iterable[Iterate]) -> str:
    """SHA-256 over the raw little-endian float64 bytes of every iterate."""
    h = hashlib.sha256()
    for it in iterates:
        _digest_update(h, it.x_blocks, it.y)
    return h.hexdigest()


def _digest_update(h, x_blocks, y) -> None:
    for xb in x_blocks:
        h.update(np.ascontiguousarray(xb, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(y, dtype=np.float64).tobytes())


def fw_step(
    x_blocks: Sequence[np.ndarray],
    g_hat_blocks: Sequence[np.ndarray],
    balls: Sequence[L1Ball],
    config: OptimizerConfig,
):
    """Frank-Wolfe step on every constrained block.

    Returns ``(x_bar_blocks, g_tilde_blocks, alpha_bar_blocks)`` where
    ``x_bar_i = x_i + alpha_i * (v_i - x_i)`` for the oracle vertex ``v_i``
    and ``alpha_i = g_tilde_i / c_bar_i`` (clamped at 1 when configured).
    Blocks sharing a ball are stacked and stepped together, row-wise.
    """
    c_bar = np.asarray(config.c_bar_per_block, dtype=np.float64)
    x_bar = [None] * len(balls)
    g_tildes = np.empty(len(balls))
    alphas = np.empty(len(balls))
    for ball, idx in ball_groups(balls):
        with blame_blocks("fw_step", idx):
            x = stack_rows(x_blocks, idx, ball.dim, "x")
            g = stack_rows(g_hat_blocks, idx, ball.dim, "g")
            v, gap = frank_wolfe_rows(ball, x, g)
            g_tilde = _clamp_g_tilde(gap, g)
        alpha = g_tilde / c_bar[idx]
        if config.alpha_clamp:
            alpha = np.where(alpha > 1.0, 1.0, alpha)
        stepped = x + alpha[:, None] * (v - x)
        for i, row in zip(idx.tolist(), stepped):
            x_bar[i] = row
        g_tildes[idx] = g_tilde
        alphas[idx] = alpha
    return tuple(x_bar), tuple(g_tildes.tolist()), tuple(alphas.tolist())


def sd_step(y: np.ndarray, h_hat: np.ndarray, config: OptimizerConfig):
    """Steepest-descent step on the free block.

    The direction maximizes ``h_hat @ u`` over the unit ball of the chosen
    norm (the normalized gradient for L2, a signed coordinate vector for
    L1) and the step size is ``||h_hat||_* / (2 * l_nabla)``.
    """
    y = np.asarray(y, dtype=np.float64)
    h_hat = np.asarray(h_hat, dtype=np.float64)
    h_norm = dual_norm(h_hat, config.norm_y)
    if h_norm == 0.0:
        return y.copy(), 0.0
    alpha = h_norm / (2.0 * config.l_nabla)
    if config.norm_y is Norm.L2:
        direction = h_hat / h_norm
        return y - alpha * direction, alpha
    j = int(np.argmax(np.abs(h_hat)))
    y_next = y.copy()
    y_next[j] = y_next[j] - alpha * np.sign(h_hat[j])
    return y_next, alpha


def alt_step(
    x_bar_blocks: Sequence[np.ndarray],
    g_check_blocks: Sequence[np.ndarray],
    balls: Sequence[L1Ball],
    config: OptimizerConfig,
):
    """Away step inside the minimal face of each block.

    Per block: classify the minimal face at ``FACE_TOL``, build the away
    direction from a fresh gradient, and if it is a strict descent direction
    (``g_check @ d < -away_tol``) step ``beta = min(a / c_bar, alpha_stop)``
    along it, where ``a = -g_check @ d`` and ``alpha_stop`` is the in-face
    cap. When the cap binds, the binding coordinates are set to exactly
    zero, so supports shrink exactly rather than to rounding dust. Blocks
    sharing a ball are stacked and stepped together, row-wise.
    """
    c_bar = np.asarray(config.c_bar_per_block, dtype=np.float64)
    n = len(balls)
    x_next = [None] * n
    taken = np.zeros(n, dtype=bool)
    a_values, alpha_stops, betas = np.zeros(n), np.zeros(n), np.zeros(n)
    for ball, idx in ball_groups(balls):
        with blame_blocks("alt_step", idx):
            x = stack_rows(x_bar_blocks, idx, ball.dim, "x_bar")
            g = stack_rows(g_check_blocks, idx, ball.dim, "g_check")
            sign, on_boundary = face_rows(ball, x)
            d, ok, gd = away_rows(ball, x, g, sign, on_boundary, config.away_tol)
        stepped = x.copy()
        if ok.any():
            moved = idx[ok]
            with blame_blocks("alt_step", moved):
                alpha_stop, binding = in_face_step_cap_rows(ball, x[ok], d[ok], sign[ok],
                                                            on_boundary[ok])
            a_value = -gd[ok]
            quotient = a_value / c_bar[moved]
            beta = np.where(alpha_stop < quotient, alpha_stop, quotient)
            rows = x[ok] + beta[:, None] * d[ok]
            rows[binding & (beta == alpha_stop)[:, None]] = 0.0
            stepped[ok] = rows
            taken[moved] = True
            a_values[moved], alpha_stops[moved], betas[moved] = a_value, alpha_stop, beta
        for i, row in zip(idx.tolist(), stepped):
            x_next[i] = row
    infos = tuple(
        AltStepInfo(taken=t, a_value=a, alpha_stop=s, beta_bar=b)
        for t, a, s, b in zip(taken.tolist(), a_values.tolist(), alpha_stops.tolist(),
                              betas.tolist())
    )
    return tuple(x_next), infos


def _mean_gradient(problem, x_blocks, y, batch) -> GradientEstimate:
    # a function of its own so that perfbench/tracer.py can time the gradient phase
    return problem.gradient_mean(x_blocks, y, batch)


def run(
    problem,
    balls: Sequence[L1Ball],
    y0: np.ndarray,
    x0_blocks: Sequence[np.ndarray],
    config: OptimizerConfig,
) -> RunResult:
    """Run the full hybrid method for ``config.iterations`` iterations.

    Validates feasibility of the start point and the per-block constants,
    then iterates: batch gradient, Frank-Wolfe step per block, steepest
    descent on the free block, and (when configured) an away step per block
    on a fresh batch evaluated at the freshly stepped point. The trace has
    one record per iteration; the output iterate is drawn uniformly from
    the ``K + 1`` iterates via the dedicated stream. A step's ``ValueError``
    or ``RuntimeError`` is re-raised as the same type, naming the iteration.
    """
    balls = tuple(balls)
    n_blocks = len(balls)
    if len(x0_blocks) != n_blocks or len(config.c_bar_per_block) != n_blocks:
        raise ValueError("balls, x0_blocks and c_bar_per_block must align")
    if tuple(problem.block_dims) != tuple(b.dim for b in balls):
        raise ValueError("ball dimensions do not match the problem's blocks")
    x = [np.array(b, dtype=np.float64) for b in x0_blocks]
    y = np.array(y0, dtype=np.float64)
    if y.shape != (problem.y_dim,):
        raise ValueError(f"y0 has shape {y.shape}, expected ({problem.y_dim},)")
    if not np.all(np.isfinite(y)):
        raise ValueError("y0 contains non-finite entries")
    for xb, ball in zip(x, balls):
        if not ball.contains(xb):
            raise ValueError("x0 block is infeasible")
    # validates c_bar_i >= 2 * l_nabla * diam^2 per block
    constants = GapConstants.from_blocks(config.l_nabla, config.c_bar_per_block, balls)
    groups = ball_groups(balls)

    streams = derive_rng_streams(config.seed)
    k_total = config.iterations
    output_index = int(streams.output_draw.integers(0, k_total + 1))

    digest = hashlib.sha256()
    _digest_update(digest, x, y)
    output = None
    if output_index == 0:
        output = Iterate(tuple(np.array(b) for b in x), y.copy(), 0)

    trace: list[TraceRecord] = []
    try:
        for k in range(k_total):
            b_k = config.batch_schedule.batch_size(k, k_total)
            batch = problem.draw(streams.data, b_k)
            est = _mean_gradient(problem, x, y, batch)
            objective = float(problem.objective_estimate(x, y, batch))

            x_bar, g_tildes, alphas = fw_step(x, est.g_blocks, balls, config)
            gap_hat = float(sum(g_tildes)) * constants.scale + dual_norm(est.h, config.norm_y)
            y_next, alpha_sd = sd_step(y, est.h, config)

            if config.alternative_directions and n_blocks > 0:
                fresh = problem.draw(streams.alt_batches, b_k)
                check = _mean_gradient(problem, x_bar, y_next, fresh)
                x_new, infos = alt_step(x_bar, check.g_blocks, balls, config)
                betas = tuple(i.beta_bar for i in infos)
                taken = tuple(i.taken for i in infos)
            else:
                x_new, betas, taken = tuple(x_bar), None, None

            x = [np.asarray(b) for b in x_new]
            y = y_next
            _digest_update(digest, x, y)
            nnz = np.empty(n_blocks, dtype=np.int64)
            for ball, idx in groups:
                nnz[idx] = nnz_rows(stack_rows(x, idx, ball.dim, "x"))
            trace.append(TraceRecord(
                k=k,
                objective_estimate=objective,
                gap_hat=gap_hat,
                alpha_bar_blocks=alphas,
                alpha_sd=alpha_sd,
                beta_bar_blocks=betas,
                alt_taken_blocks=taken,
                nnz_blocks=tuple(nnz.tolist()),
            ))
            if k + 1 == output_index:
                output = Iterate(tuple(np.array(b) for b in x), y.copy(), k + 1)
    except (ValueError, RuntimeError) as exc:
        raise type(exc)(f"{exc} at iteration {k}") from exc

    final = Iterate(tuple(np.array(b) for b in x), y.copy(), k_total)
    assert output is not None
    return RunResult(
        output_iterate=output,
        trace=trace,
        iterates_digest=digest.hexdigest(),
        final_iterate=final,
        output_index=output_index,
    )
