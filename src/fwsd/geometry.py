"""Exact linear oracles and facial geometry of scaled l1 balls.

The feasible sets handled here are cross-polytopes ``{x : ||x||_1 <= delta}``.
Everything a Frank-Wolfe style method needs from such a set is closed form:
the linear minimization oracle picks a signed vertex, the minimal face of a
boundary point is read off the signed support, and an away direction
``d = x - v`` from a signed vertex ``v`` moves one coordinate off the ray
``(1 + a) x``, so its step cap has at most one breakpoint. No numerical
solver is involved anywhere in this module, and its slacks are the ``*_TOL``
and ``NNZ_THRESHOLD`` constants below, which no function takes as an argument.

Every oracle is written once, row-wise, for an ``(n_rows, dim)`` matrix whose
rows are blocks sharing one ball (same ``dim`` and ``radius``);
`group_layout` cuts a tuple of blocks into runs of consecutive such blocks, and
`regroup` cuts whatever arrays hold the blocks' rows into the runs' matrices, as
views where it can; a single block is a one-row matrix (`lmo` is that case of
`lmo_rows`). The engine runs two oracles per group: `frank_wolfe_rows`, built on
`lmo_rows`, and `away_rows`, which returns the away direction and its step cap.
Each row of a row-wise result is bit for bit what the per-block formula gives, so
grouping blocks never moves an iterate digest. That rests on five rules:

- row dots are ``np.matmul(a[:, None, :], b[:, :, None])``, which rounds like
  the 1-D ``a @ b``; ``(a * b).sum(1)`` and ``einsum`` differ in the last bits;
- l1 norms are ``np.abs(m).sum(axis=1)``, the same pairwise sum per row as the
  1-D ``np.sum(np.abs(x))``;
- argmax along axis 1 breaks ties to the lowest index, as in 1-D;
- batch sums (`batch_sum`) are the left fold ``a[0] + a[1] + ...``: ``np.add.reduce``
  adds the rows of a C-contiguous ``(n, width)`` view in turn, except at width 1,
  which numpy sums pairwise and so keeps ``np.cumsum(..., axis=0)[-1]``; its
  ``initial=-0.0`` keeps a batch of one's ``-0.0`` from turning into ``+0.0``;
- the away cap keeps the expression order of the breakpoint scan along
  ``x + a d`` it replaced: ``d_k = x_k`` off ``j = index(v)``, so the one kink
  is ``t = -x_j / d_j`` (if finite and positive), and with ``start =
  min(||x||_1, r)`` and ``phi = ||x + t d||_1`` an interior row caps at
  ``(r - start) * t / (phi - start)`` if ``phi > r``, else ``t + (r - phi) /
  ||d||_1``, and at ``(r - start) / ||d||_1`` without a kink.

A boundary row (within ``FACE_TOL`` of the sphere, with a nonempty support; else the
face is the whole ball) caps at ``t`` where ``sign_j * d_j < 0`` (the cap binds:
``x_j`` lands on zero) and at ``inf`` otherwise; ``d`` never points out of the face.
``j`` is in the support, so ``sign_k * d_k = |x_k|`` off ``j`` and ``sign_j * d_j =
|x_j| - r``: the fold ``sum_k sign_k * d_k`` is ``||x||_1 - r`` less the mass within
``FACE_TOL`` of zero, at most ``FACE_TOL`` plus rounding, and its rounding reaches
``IN_FACE_TOL * max(1, ||d||_1)`` only at radii of order 1e5 or widths of order 1e6.

A failed row check raises `RowError`, which carries the offending row so a
caller that stacked the rows can name the block (see `blame_blocks`).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

#: magnitude below which a coordinate counts as zero in NNZ counts
NNZ_THRESHOLD = 1e-3

#: absolute slack on the l1 norm within which a point counts as feasible
FEASIBILITY_TOL = 1e-10

#: zero and boundary tolerance of minimal faces (coordinates and ||x||_1 - radius)
FACE_TOL = 1e-12

#: slack on ||x||_1 - radius within which a point gets a face and `run` accepts a step's iterate
IN_FACE_TOL = 1e-9

#: margin by which an away direction must descend: a row steps only if ``g @ d < -AWAY_TOL``
AWAY_TOL = 1e-12


class Norm(enum.Enum):
    """Norm of the free block ``y`` (`OptimizerConfig.norm_y`)."""

    L1 = "l1"
    L2 = "l2"


@dataclass(frozen=True)
class L1Ball:
    """A scaled l1 ball ``{x in R^dim : ||x||_1 <= radius}``."""

    dim: int
    radius: float

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"ball dimension must be positive, got {self.dim}")
        if not np.isfinite(self.radius) or self.radius <= 0.0:
            raise ValueError(f"ball radius must be positive and finite, got {self.radius}")

    def diameter(self) -> float:
        """Diameter of the ball in the l1 norm.

        The farthest pair is a vertex and its negation, at distance
        ``2 * radius`` in the l1 norm and in the l2 norm alike.
        """
        return 2.0 * self.radius

    def contains(self, x: np.ndarray) -> bool:
        """Feasibility check with an absolute slack of ``FEASIBILITY_TOL`` on the norm."""
        (m,) = regroup([x], [1], [self.dim], "x")
        finite_rows(m, "x")
        return not outside_rows(self, m)[0]


@dataclass(frozen=True, eq=False)
class Vertex:
    """A signed vertex ``sign * radius * e_index`` of an l1 ball."""

    index: int
    sign: int
    value: np.ndarray = field(repr=False)


class Face(NamedTuple):
    """`face_rows` of a matrix ``x``: sign masks in {-1, 0, 1}, boundary flags, ``l1_rows(x)``."""

    sign: np.ndarray
    on_boundary: np.ndarray
    norm1: np.ndarray


class RowError(ValueError):
    """A row-wise check failed; ``row`` is the first offending row, if known."""

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = row


def _fail_rows(bad: np.ndarray, message) -> None:
    # raise RowError at the first flagged row; ``message`` may be a callable
    # of that row (count_nonzero costs less per call than any)
    if np.count_nonzero(bad):
        r = int(np.argmax(bad))
        raise RowError(message(r) if callable(message) else message, r)


class blame_blocks:
    """Context manager that re-raises a failed row check naming the block and step.

    ``blocks[r]`` is the block index of row ``r`` of the stacked matrix. A rowless
    `RowError` names the step only; other rowless exceptions pass through unchanged.
    """

    def __init__(self, step: str, blocks: Sequence[int]) -> None:
        self.step = step
        self.blocks = blocks

    def __enter__(self) -> None:
        return None

    def __exit__(self, kind, exc, tb) -> bool:
        row = getattr(exc, "row", None)
        if not isinstance(exc, RowError if row is None else (ValueError, RuntimeError)):
            return False
        where = "" if row is None else f"block {self.blocks[row]}, "
        raise type(exc)(f"{exc} ({where}in {self.step})") from exc


@functools.lru_cache(maxsize=32)
def group_layout(balls: tuple[L1Ball, ...]):
    """Maximal runs of consecutive blocks with equal balls as ``(groups, heights, dims)``, memoized.

    A group is ``(ball, idx)``; ``idx`` is ascending and contiguous, so the runs' rows in turn
    are the blocks in order. ``heights`` and ``dims`` are the groups' row counts and widths.
    """
    keys = [(b.dim, b.radius) for b in balls]  # faster to compare than the dataclass
    starts = [i for i, key in enumerate(keys) if i == 0 or key != keys[i - 1]]
    groups = tuple((balls[s], np.arange(s, e)) for s, e in zip(starts, starts[1:] + [len(balls)]))
    return groups, tuple(len(idx) for _, idx in groups), tuple(b.dim for b, _ in groups)


def regroup(x: Sequence[np.ndarray], heights: Sequence[int], dims: Sequence[int],
            name: str) -> list[np.ndarray]:
    """Float64 ``(heights[t], dims[t])`` matrices of the blocks held in ``x``.

    ``x`` holds arrays whose rows, in turn, are the blocks (a 1-D array is one
    block). A matrix inside one array of ``x`` shares its memory, else a stack.
    `RowError` names the first block that does not convert to float64, else the first
    misshapen one, by its index; it has no row past the expected count or if the count is off.
    """
    runs, count = [], 0
    for a in x:
        try:
            a = np.asarray(a, dtype=np.float64)
        except (ValueError, TypeError) as exc:  # not numbers, or ragged
            row = count if count < sum(heights) else None
            raise RowError(f"{name} does not convert to float64: {exc}", row) from exc
        runs.append(a[None] if a.ndim < 2 else a)
        count += len(runs[-1])
    if count != sum(heights):
        raise RowError(f"{name} holds {count} blocks, expected {sum(heights)}")
    mats, block, rest = [], 0, runs[::-1]  # rest[-1] starts at block number ``block``
    for height, dim in zip(heights, dims):
        pieces = []
        while height > 0:
            run = rest.pop()
            if run.shape[1:] != (dim,):
                raise RowError(f"{name} has shape {run.shape[1:]}, expected ({dim},)", block)
            if len(run) > height:  # the rest of the run starts the next matrix
                rest.append(run[height:])
                run = run[:height]
            pieces.append(run)
            block, height = block + len(run), height - len(run)
        mats.append(pieces[0] if len(pieces) == 1 else np.concatenate(pieces))
    return mats


def finite_rows(m: np.ndarray, name: str) -> None:
    """Raise `RowError` at the first row of ``m`` with a non-finite entry."""
    if np.count_nonzero(np.isfinite(m)) < m.size:
        _fail_rows(~np.isfinite(m).all(axis=1), f"{name} contains non-finite entries")


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[r] @ b[r]`` for every row, rounded exactly like the 1-D product."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def l1_rows(m: np.ndarray) -> np.ndarray:
    """l1 norm of every row, summed exactly like the 1-D ``np.sum(np.abs(x))``."""
    return np.abs(m).sum(axis=1)


def batch_sum(a: np.ndarray) -> np.ndarray:
    """Sum of ``a`` over axis 0, rounded like the left fold ``a[0] + a[1] + ...``."""
    flat = np.ascontiguousarray(a).reshape(len(a), -1)
    if flat.shape[1] == 1:  # numpy sums a lone column pairwise
        return np.cumsum(flat, axis=0)[-1].reshape(a.shape[1:])
    return np.add.reduce(flat, axis=0, initial=-0.0).reshape(a.shape[1:])


def nnz_rows(m: np.ndarray) -> np.ndarray:
    """Count of entries with magnitude at least ``NNZ_THRESHOLD`` in every row."""
    return np.count_nonzero(np.abs(m) >= NNZ_THRESHOLD, axis=1)


def outside_rows(ball: L1Ball, x: np.ndarray) -> np.ndarray:
    """Rows more than ``FEASIBILITY_TOL`` outside the ball in the l1 norm; a NaN row is outside."""
    return ~(l1_rows(x) <= ball.radius + FEASIBILITY_TOL)


def _in_ball_rows(ball: L1Ball, x: np.ndarray) -> np.ndarray:
    # l1_rows(x); RowError at the first row more than IN_FACE_TOL outside the ball, or NaN
    norm1 = l1_rows(x)
    _fail_rows(~(norm1 <= ball.radius + IN_FACE_TOL),
               lambda r: f"point is infeasible: ||x||_1 = {float(norm1[r])} > {ball.radius}")
    return norm1


def _minus_vertex(ball: L1Ball, x: np.ndarray, index: np.ndarray, sign: np.ndarray) -> np.ndarray:
    # x - v for the vertices v = sign * radius * e_index, bit for bit: one coordinate per row moves
    d = x.copy()
    d[np.arange(len(x)), index] -= sign * ball.radius
    return d


def lmo_rows(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index and sign of the vertex ``argmin { g[r] @ x : ||x||_1 <= radius }`` per row.

    The vertex is ``-sign(g[r, j]) * radius * e_j`` at a maximal ``|g[r, j]|``;
    ties go to the lowest index, and ``g[r, j] == 0`` to the positive vertex.
    """
    index = np.abs(g).argmax(axis=1)
    return index, np.where(g[np.arange(len(g)), index] <= 0.0, 1, -1)


def frank_wolfe_rows(ball: L1Ball, x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Directions ``x[r] - v[r]`` to the `lmo_rows` vertices and gaps ``g[r] @ (x[r] - v[r])``."""
    fw = _minus_vertex(ball, x, *lmo_rows(g))
    return fw, row_dot(g, fw)


def face_rows(ball: L1Ball, x: np.ndarray) -> Face:
    """Minimal face of every row: sign masks in {-1, 0, 1}, boundary flags and l1 norms.

    At ``FACE_TOL``, a row with a nonempty support and its norm that near the radius is on the
    boundary, else its face is the whole ball. Rows over ``IN_FACE_TOL`` outside, or NaN, raise.
    """
    norm1 = _in_ball_rows(ball, x)
    sign = (x > FACE_TOL).astype(np.float64) - (x < -FACE_TOL)
    return Face(sign, (np.abs(norm1 - ball.radius) <= FACE_TOL) & sign.any(axis=1), norm1)


def away_rows(ball: L1Ball, x: np.ndarray, g: np.ndarray):
    """Away step geometry of every row: ``(d, ok, gd, index, cap, binds)``.

    ``d = x - v`` backs off the vertex ``v`` of the minimal face (`face_rows`) that maximizes
    ``g @ v``, the vertex at ``index``. A row is accepted (``ok``) when ``gd = g @ d < -AWAY_TOL``
    and ``||d||_1`` is at most the diameter. ``cap`` is the step cap along ``d`` (see the module
    docstring); ``binds`` flags the rows whose cap lands ``x_j`` on zero. A rejected row's cap is
    silent and meaningless.
    """
    face = face_rows(ball, x)
    on_boundary, rows = face.on_boundary, np.arange(len(x))
    sign = np.where(on_boundary[:, None], face.sign, np.where(g >= 0.0, 1.0, -1.0))
    index = np.where(sign != 0.0, sign * g, -np.inf).argmax(axis=1)
    d = _minus_vertex(ball, x, index, sign[rows, index])
    d_norm1, d_j = l1_rows(d), d[rows, index]
    gd = row_dot(g, d)
    ok = (gd < -AWAY_TOL) & (d_norm1 <= ball.diameter())
    delta, n_boundary = ball.radius, np.count_nonzero(on_boundary)
    cap, binds = np.zeros(len(x)), np.zeros(len(x), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -x[rows, index] / d_j
        if n_boundary < len(x):
            start = np.minimum(face.norm1, delta)
            cap = (delta - start) / d_norm1
            kink = (t > 0.0) & np.isfinite(t)
            if np.count_nonzero(kink):
                phi = l1_rows(x + np.where(kink, t, 0.0)[:, None] * d)
                cap = np.where(kink, np.where(phi > delta, (delta - start) * t / (phi - start),
                                              t + (delta - phi) / d_norm1), cap)
        if n_boundary:
            binds = on_boundary & (face.sign[rows, index] * d_j < 0.0)
            edge = np.where(binds, t, np.inf)
            cap = edge if n_boundary == len(x) else np.where(on_boundary, edge, cap)
    return d, ok, gd, index, cap, binds


def lmo(ball: L1Ball, g: np.ndarray) -> Vertex:
    """`lmo_rows` for one 1-D gradient: ``argmin { g @ x : ||x||_1 <= radius }``."""
    (m,) = regroup([g], [1], [ball.dim], "g")
    finite_rows(m, "g")
    (index,), (sign,) = lmo_rows(m)
    value = np.zeros(ball.dim)
    value[index] = sign * ball.radius
    return Vertex(index=int(index), sign=int(sign), value=value)
