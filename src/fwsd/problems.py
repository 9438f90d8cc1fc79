"""Stochastic problem interface and synthetic quadratic instances.

A problem couples constrained blocks ``x = (x_1, ..., x_N)`` with a free
block ``y`` and exposes batch means of the gradients of a random objective
``f(x, y, z)`` whose expectation is the target ``F``, and the batch's mean
objective from the same pass. The optimizer only ever touches problems
through this interface; anything that can draw scenarios and average its
gradients and objective over a batch of them can be trained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from .geometry import batch_sum


@dataclass(frozen=True, eq=False)
class GradientEstimate:
    """Batch means: one gradient per constrained block, the free block's, and the objective."""

    g_blocks: tuple[np.ndarray, ...]
    h: np.ndarray
    objective: Callable[[], float]


@runtime_checkable
class StochasticProblem(Protocol):
    """Duck interface the optimizer consumes.

    ``draw`` produces ``n`` i.i.d. scenarios from the problem's own
    distribution (an empirical one samples indices with replacement).
    ``gradient_mean`` averages the per-scenario partial gradients over a
    batch from ``draw``, the blocks in any cut `fwsd.geometry.regroup` reads
    plus the free block; one scenario's gradient is the mean over a batch of one.
    ``GradientEstimate.objective()`` returns the batch's mean objective from
    that pass's own intermediates. It is lazy, so a caller that needs only
    the gradient does not pay for it.

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


def _concat(x_blocks, y) -> np.ndarray:
    return np.concatenate([*x_blocks, y], axis=None, dtype=np.float64)


def _shaped_like(x_blocks, v: np.ndarray):
    """``v`` cut into arrays shaped like those of ``x_blocks``, and the rest of it."""
    parts = []
    for b in x_blocks:
        n = np.size(b)
        parts.append(v[:n].reshape(np.shape(b)))
        v = v[n:]
    return parts, v


@dataclass(frozen=True)
class QuadraticInstance:
    """``F(x, y) = 0.5 * (v - v_star)' Q (v - v_star)`` with additive noise.

    ``v`` stacks the constrained blocks, in any cut, followed by the free block;
    gradients come back in the cut the blocks came in. ``Q`` is
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

    def x_star_blocks(self):
        """The x part of the unconstrained minimizer, split into blocks."""
        return np.split(self.minimizer, np.cumsum(self.block_dims))[:-1]

    def y_star(self) -> np.ndarray:
        return self.minimizer[sum(self.block_dims):]

    def exact_objective(self, x_blocks, y) -> float:
        r = _concat(x_blocks, y) - self.minimizer
        return 0.5 * float(r @ (self.q_matrix @ r))

    def exact_gradient(self, x_blocks, y):
        r = _concat(x_blocks, y) - self.minimizer
        return _shaped_like(x_blocks, self.q_matrix @ r)

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        scale = self.noise_sigma / np.sqrt(self.dim)
        return rng.standard_normal((n, self.dim)) * scale

    def gradient_mean(self, x_blocks, y, batch) -> GradientEstimate:
        """Mean of ``Q r + z`` over the batch by `batch_sum`; the objective reuses ``Q r``."""
        n = len(batch)
        if n == 0:
            raise ValueError("empty batch")
        v = _concat(x_blocks, y)
        r = v - self.minimizer
        qr = self.q_matrix @ r
        g_blocks, h = _shaped_like(x_blocks, batch_sum(qr[None, :] + batch) / n)
        return GradientEstimate(tuple(g_blocks), h,
                                lambda: 0.5 * float(r @ qr) + float(np.mean(batch @ v)))


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
    if not 0.0 <= noise_sigma < np.inf:  # NaN fails too
        raise ValueError("noise_sigma must be nonnegative and finite")
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
    ``+-epsilon``; the returned figure is the worst ``|fd_i - g_i| / max(1, |g_i|)``
    over all coordinates, walked flat, so blocks and gradients may differ in cut.
    """
    if not hasattr(problem, "exact_objective") or not hasattr(problem, "exact_gradient"):
        raise NotImplementedError("problem does not expose exact objective and gradient")
    x_blocks = [np.array(b, dtype=np.float64) for b in x_blocks]
    y = np.array(y, dtype=np.float64)
    g_blocks, h = problem.exact_gradient(x_blocks, y)
    grads = iter(np.concatenate([np.ravel(g) for g in g_blocks] + [np.ravel(h)]).tolist())
    worst = 0.0
    for vec in (*x_blocks, y):
        flat = vec.reshape(-1)  # a view: writes perturb the point itself
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + epsilon
            f_hi = problem.exact_objective(x_blocks, y)
            flat[i] = old - epsilon
            f_lo = problem.exact_objective(x_blocks, y)
            flat[i] = old
            fd = (f_hi - f_lo) / (2.0 * epsilon)
            g = next(grads)
            worst = max(worst, abs(fd - g) / max(1.0, abs(g)))
    return worst
