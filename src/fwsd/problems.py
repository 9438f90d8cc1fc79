"""Stochastic problem interface and synthetic quadratic instances.

A problem couples constrained blocks ``x = (x_1, ..., x_N)`` with a free
block ``y`` and exposes batch means of the gradients of a random objective
``f(x, y, z)`` whose expectation is the target ``F``; one scenario's gradient
is the mean over a batch of one. The optimizer only ever touches problems
through this interface; anything that can draw scenarios and average its
gradients over a batch of them can be trained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence, runtime_checkable

import numpy as np


@dataclass(frozen=True, eq=False)
class GradientEstimate:
    """Mean gradient of a batch: one array per constrained block, then the free block."""

    g_blocks: tuple[np.ndarray, ...]
    h: np.ndarray
    batch_size: int


@runtime_checkable
class StochasticProblem(Protocol):
    """Duck interface the optimizer consumes.

    ``draw`` produces ``n`` i.i.d. scenarios from the problem's own
    distribution (an empirical one samples indices with replacement).
    ``gradient_mean`` averages the per-scenario partial gradients over a
    batch from ``draw``, one array per constrained block plus one for the
    free block. ``objective_estimate`` averages the per-scenario objective
    over such a batch.

    Problems that know their expectation may additionally provide
    ``exact_gradient(x_blocks, y)`` and ``exact_objective(x_blocks, y)``;
    deterministic diagnostics refuse to run without them.
    """

    @property
    def block_dims(self) -> tuple[int, ...]: ...

    @property
    def y_dim(self) -> int: ...

    def draw(self, rng: np.random.Generator, n: int): ...

    def gradient_mean(self, x_blocks, y, batch) -> GradientEstimate: ...

    def objective_estimate(self, x_blocks, y, batch) -> float: ...


def _concat(x_blocks, y) -> np.ndarray:
    parts = [np.asarray(b, dtype=np.float64) for b in x_blocks]
    parts.append(np.asarray(y, dtype=np.float64))
    return np.concatenate(parts) if parts else np.zeros(0)


@dataclass(frozen=True)
class QuadraticInstance:
    """``F(x, y) = 0.5 * (v - v_star)' Q (v - v_star)`` with additive noise.

    ``v`` stacks the constrained blocks followed by the free block. ``Q`` is
    symmetric positive semidefinite with largest eigenvalue ``l_nabla``, so
    the gradient is ``l_nabla``-Lipschitz. A scenario is a Gaussian vector
    ``z`` with ``E||z||^2 = noise_sigma^2`` entering the per-scenario
    objective as ``z @ v``, which shifts the gradient by exactly ``z``.

    The unconstrained minimizer ``v_star`` is stored so tests can pick ball
    radii that keep it strictly feasible, making the optimal value 0.
    """

    q_matrix: np.ndarray = field(repr=False)
    minimizer: np.ndarray = field(repr=False)
    l_nabla: float
    noise_sigma: float
    block_dims: tuple[int, ...]
    y_dim: int

    @property
    def dim(self) -> int:
        return sum(self.block_dims) + self.y_dim

    def _split(self, v: np.ndarray):
        blocks = []
        at = 0
        for d in self.block_dims:
            blocks.append(v[at:at + d])
            at += d
        return blocks, v[at:]

    def x_star_blocks(self):
        """The x part of the unconstrained minimizer, split into blocks."""
        return self._split(self.minimizer)[0]

    def y_star(self) -> np.ndarray:
        return self._split(self.minimizer)[1]

    def exact_objective(self, x_blocks, y) -> float:
        r = _concat(x_blocks, y) - self.minimizer
        return 0.5 * float(r @ (self.q_matrix @ r))

    def exact_gradient(self, x_blocks, y):
        r = _concat(x_blocks, y) - self.minimizer
        return self._split(self.q_matrix @ r)

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        scale = self.noise_sigma / np.sqrt(self.dim)
        return rng.standard_normal((n, self.dim)) * scale

    def gradient_mean(self, x_blocks, y, batch) -> GradientEstimate:
        """Mean of ``Q r + z`` over the batch's rows, folded in row order."""
        n = len(batch)
        if n == 0:
            raise ValueError("empty batch")
        r = _concat(x_blocks, y) - self.minimizer
        g_blocks, h = self._split(np.cumsum((self.q_matrix @ r)[None, :] + batch, axis=0)[-1])
        return GradientEstimate(g_blocks=tuple(g / n for g in g_blocks), h=h / n, batch_size=n)

    def objective_estimate(self, x_blocks, y, batch) -> float:
        v = _concat(x_blocks, y)
        r = v - self.minimizer
        noise = float(np.mean(batch @ v)) if len(batch) else 0.0
        return 0.5 * float(r @ (self.q_matrix @ r)) + noise


def make_quadratic(
    seed: int,
    p: int | Sequence[int],
    q: int,
    l_nabla: float,
    noise_sigma: float = 0.0,
) -> QuadraticInstance:
    """Draw a random convex quadratic instance.

    ``p`` is either the dimension of a single constrained block or a
    sequence of per-block dimensions; ``q`` is the free dimension. The
    Hessian is ``A'A`` rescaled so its top eigenvalue equals ``l_nabla``,
    and the minimizer is drawn uniformly from ``[-0.5, 0.5]^dim``.
    """
    if isinstance(p, int):
        block_dims = () if p == 0 else (p,)
    else:
        block_dims = tuple(int(d) for d in p)
    if any(d < 1 for d in block_dims):
        raise ValueError("block dimensions must be positive")
    p_total = sum(block_dims)
    if q < 0:
        raise ValueError("free dimension must be nonnegative")
    if p_total == 0 and q == 0:
        raise ValueError("problem needs at least one variable")
    if not np.isfinite(l_nabla) or l_nabla <= 0.0:
        raise ValueError("l_nabla must be positive")
    if noise_sigma < 0.0:
        raise ValueError("noise_sigma must be nonnegative")
    n = p_total + q
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    q_mat = a.T @ a
    top = float(np.linalg.eigvalsh(q_mat)[-1])
    q_mat *= l_nabla / top
    minimizer = rng.uniform(-0.5, 0.5, size=n)
    return QuadraticInstance(
        q_matrix=q_mat,
        minimizer=minimizer,
        l_nabla=l_nabla,
        noise_sigma=noise_sigma,
        block_dims=block_dims,
        y_dim=q,
    )


def finite_difference_check(problem, x_blocks, y, epsilon: float = 1e-5) -> float:
    """Max mismatch between exact gradients and central differences.

    Every coordinate of every block (and of the free part) is perturbed by
    ``+-epsilon``; the returned figure is the worst
    ``|fd_i - g_i| / max(1, |g_i|)`` over all coordinates.
    """
    if not hasattr(problem, "exact_objective") or not hasattr(problem, "exact_gradient"):
        raise NotImplementedError("problem does not expose exact objective and gradient")
    x_blocks = [np.array(b, dtype=np.float64) for b in x_blocks]
    y = np.array(y, dtype=np.float64)
    g_blocks, h = problem.exact_gradient(x_blocks, y)
    worst = 0.0

    def central(vec, i, rebuild):
        old = vec[i]
        vec[i] = old + epsilon
        f_hi = problem.exact_objective(*rebuild())
        vec[i] = old - epsilon
        f_lo = problem.exact_objective(*rebuild())
        vec[i] = old
        return (f_hi - f_lo) / (2.0 * epsilon)

    for bi, block in enumerate(x_blocks):
        for i in range(block.size):
            fd = central(block, i, lambda: (x_blocks, y))
            g = float(g_blocks[bi][i])
            worst = max(worst, abs(fd - g) / max(1.0, abs(g)))
    for i in range(y.size):
        fd = central(y, i, lambda: (x_blocks, y))
        g = float(h[i])
        worst = max(worst, abs(fd - g) / max(1.0, abs(g)))
    return worst
