"""Exact linear oracles and facial geometry of scaled l1 balls.

The feasible sets handled here are cross-polytopes ``{x : ||x||_1 <= delta}``.
Everything a Frank-Wolfe style method needs from such a set is closed form:
the linear minimization oracle picks a signed vertex, the minimal face of a
boundary point is read off the signed support, and line searches against the
constraint reduce to scanning the breakpoints of a piecewise linear function.
No numerical solver is involved anywhere in this module.

Every oracle is written once, row-wise, for an ``(n_rows, dim)`` matrix whose
rows are blocks sharing one ball (same ``dim``, ``radius`` and ``norm_x``);
`ball_groups` cuts a list of blocks into runs of consecutive such blocks, and
`regroup` cuts whatever arrays hold the blocks' rows into the runs' matrices, as
views where it can; a single block is a one-row matrix (`lmo` is that case of
`lmo_rows`).
Each row of a row-wise result is bit for bit what the per-block formula gives, so
grouping blocks never moves an iterate digest. That rests on five rules:

- row dots are ``np.matmul(a[:, None, :], b[:, :, None])``, which rounds like
  the 1-D ``a @ b``; ``(a * b).sum(1)`` and ``einsum`` differ in the last bits;
- l1 norms are ``np.abs(m).sum(axis=1)``, the same pairwise sum per row as the
  1-D ``np.sum(np.abs(x))``;
- the signed sum of the in-face cap is a sequential fold,
  ``np.cumsum(..., axis=1)[:, -1]``;
- argmax and argmin along axis 1 break ties to the lowest index, as in 1-D;
- batch sums (`batch_sum`) are the left fold ``a[0] + a[1] + ...``: ``np.add.reduce``
  adds the rows of a C-contiguous ``(n, width)`` view in turn, except at width 1,
  which numpy sums pairwise and so keeps ``np.cumsum(..., axis=0)[-1]``; its
  ``initial=-0.0`` keeps a batch of one's ``-0.0`` from turning into ``+0.0``.

A failed row check raises `RowError`, which carries the offending row so a
caller that stacked the rows can name the block (see `blame_blocks`).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

#: magnitude below which a coordinate counts as zero in NNZ counts
NNZ_THRESHOLD = 1e-3

#: absolute slack on the l1 norm within which a point counts as feasible
FEASIBILITY_TOL = 1e-10

#: zero and boundary tolerance of minimal faces (coordinates and ||x||_1 - radius)
FACE_TOL = 1e-12

#: slack of the in-face checks: feasibility of a face's point, an in-face
#: direction on the zero set, and the points-out test
IN_FACE_TOL = 1e-9


class Norm(enum.Enum):
    """Norm choice attached to a variable block."""

    L1 = "l1"
    L2 = "l2"


@dataclass(frozen=True)
class L1Ball:
    """A scaled l1 ball ``{x in R^dim : ||x||_1 <= radius}``.

    ``norm_x`` is the norm the ambient block is measured in when step sizes
    and diameters are computed; it does not change the feasible set itself.
    """

    dim: int
    radius: float
    norm_x: Norm = Norm.L1

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"ball dimension must be positive, got {self.dim}")
        if not np.isfinite(self.radius) or self.radius <= 0.0:
            raise ValueError(f"ball radius must be positive and finite, got {self.radius}")

    def diameter(self) -> float:
        """Diameter of the ball in ``norm_x``.

        The farthest pair is a vertex and its negation, at distance
        ``2 * radius`` in the l1 norm and in the l2 norm alike.
        """
        return 2.0 * self.radius

    def contains(self, x: np.ndarray, tol: float = FEASIBILITY_TOL) -> bool:
        """Feasibility check with an absolute slack of ``tol`` on the norm."""
        (m,) = regroup([x], [1], [self.dim], "x")
        finite_rows(m, "x")
        return not outside_rows(self, m, tol)[0]

    def norm(self, v: np.ndarray) -> float:
        """Length of ``v`` measured in this block's ``norm_x``."""
        (m,) = regroup([v], [1], [self.dim], "v")
        return float(self.norm_rows(m)[0])

    def norm_rows(self, m: np.ndarray) -> np.ndarray:
        """Length of every row of ``m`` in ``norm_x``."""
        if self.norm_x is Norm.L1:
            return l1_rows(m)
        return np.sqrt(row_dot(m, m))


@dataclass(frozen=True, eq=False)
class Vertex:
    """A signed vertex ``sign * radius * e_index`` of an l1 ball."""

    index: int
    sign: int
    value: np.ndarray = field(repr=False)


@dataclass(eq=False)
class Face:
    """`face_rows` of a matrix ``x``, indexable by rows; `away_rows` adds ``d_norm1``.

    Sign masks in {-1, 0, 1}, boundary flags, ``l1_rows(x)`` and ``l1_rows(d)``.
    """

    sign: np.ndarray
    on_boundary: np.ndarray
    norm1: np.ndarray
    d_norm1: np.ndarray | None = None

    def __getitem__(self, rows) -> "Face":
        d_norm1 = None if self.d_norm1 is None else self.d_norm1[rows]
        return Face(self.sign[rows], self.on_boundary[rows], self.norm1[rows], d_norm1)


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


def ball_groups(balls: Sequence[L1Ball]) -> list[tuple[L1Ball, np.ndarray]]:
    """Maximal runs of consecutive blocks with equal balls, as ``(ball, idx)``.

    ``idx`` is ascending and contiguous, so the runs' rows in turn are the blocks in order.
    """
    keys = [(b.dim, b.radius, b.norm_x) for b in balls]  # faster to compare than the dataclass
    starts = [i for i, key in enumerate(keys) if i == 0 or key != keys[i - 1]]
    return [(balls[s], np.arange(s, e)) for s, e in zip(starts, starts[1:] + [len(balls)])]


@functools.lru_cache(maxsize=32)
def group_layout(balls: tuple[L1Ball, ...]):
    """`ball_groups` of a tuple of balls with the groups' heights and widths, memoized."""
    groups = tuple(ball_groups(balls))
    return groups, tuple(len(idx) for _, idx in groups), tuple(b.dim for b, _ in groups)


def regroup(x: Sequence[np.ndarray], heights: Sequence[int], dims: Sequence[int],
            name: str) -> list[np.ndarray]:
    """Float64 ``(heights[t], dims[t])`` matrices of the blocks held in ``x``.

    ``x`` holds arrays whose rows, in turn, are the blocks (a 1-D array is one
    block). A matrix inside one array of ``x`` shares its memory, else a stack.
    `RowError` names the first block that does not convert to float64, else the
    first misshapen one, by its index; it has no row if the block count is off.
    """
    runs, count = [], 0
    for a in x:
        try:
            a = np.asarray(a, dtype=np.float64)
        except (ValueError, TypeError) as exc:  # not numbers, or ragged
            raise RowError(f"{name} does not convert to float64: {exc}", count) from exc
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


def nnz_rows(m: np.ndarray, threshold: float = NNZ_THRESHOLD) -> np.ndarray:
    """Count of entries with magnitude at least ``threshold`` in every row."""
    return np.count_nonzero(np.abs(m) >= threshold, axis=1)


def outside_rows(ball: L1Ball, x: np.ndarray, tol: float = FEASIBILITY_TOL) -> np.ndarray:
    """Rows outside the ball by more than ``tol`` in the l1 norm; a row with a NaN is outside."""
    return ~(l1_rows(x) <= ball.radius + tol)


def _minus_vertex(ball: L1Ball, x: np.ndarray, rows: np.ndarray, index: np.ndarray,
                  sign: np.ndarray) -> np.ndarray:
    # x - v for the vertices v = sign * radius * e_index, bit for bit: one coordinate per row moves
    d = x.copy()
    d[rows, index] -= sign * ball.radius
    return d


def lmo_rows(ball: L1Ball, g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index, sign and vertex of ``argmin { g[r] @ x : ||x||_1 <= radius }`` per row.

    The vertex is ``-sign(g[r, j]) * radius * e_j`` at a maximal ``|g[r, j]|``;
    ties go to the lowest index, and ``g[r, j] == 0`` to the positive vertex:
    `in_face_lmo_rows` over the face whose sign is ``-sign(g)`` (``+1`` at zeros).
    """
    return in_face_lmo_rows(ball, np.where(g <= 0.0, 1.0, -1.0), g)


def frank_wolfe_rows(ball: L1Ball, x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Directions ``x[r] - v[r]`` to the oracle vertices and gaps ``g[r] @ (x[r] - v[r])``."""
    rows, index = np.arange(len(g)), np.abs(g).argmax(axis=1)
    fw = _minus_vertex(ball, x, rows, index, np.where(g[rows, index] <= 0.0, 1, -1))
    return fw, row_dot(g, fw)


def face_rows(ball: L1Ball, x: np.ndarray) -> Face:
    """Minimal face of every row: sign masks in {-1, 0, 1}, boundary flags and l1 norms.

    Both are classified at ``FACE_TOL``; an interior row's face is the whole
    ball. Rows more than ``IN_FACE_TOL`` outside the ball, or with a NaN, raise.
    """
    norm1 = l1_rows(x)
    _fail_rows(~(norm1 <= ball.radius + IN_FACE_TOL),
               lambda r: f"point is infeasible: ||x||_1 = {float(norm1[r])} > {ball.radius}")
    sign = (x > FACE_TOL).astype(np.float64) - (x < -FACE_TOL)
    return Face(sign, np.abs(norm1 - ball.radius) <= FACE_TOL, norm1)


def in_face_lmo_rows(ball: L1Ball, sign: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimize ``c[r] @ x`` over the boundary face given by ``sign[r]``.

    The face's vertices are ``sign[r, j] * radius * e_j`` on its (nonempty)
    support; the smallest ``sign[r, j] * c[r, j]`` wins, ties to the lowest index.
    """
    rows = np.arange(len(sign))
    index = np.where(sign != 0.0, sign * c, np.inf).argmin(axis=1)
    s = sign[rows, index].astype(np.int64)
    value = np.zeros(sign.shape)
    value[rows, index] = s * ball.radius
    return index, s, value


def away_rows(ball: L1Ball, x: np.ndarray, g: np.ndarray, face: Face,
              tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Away directions ``d = x - argmax_face g @ x`` with acceptance and ``g @ d`` per row.

    A row is accepted when ``g @ d < -tol`` and ``d`` is no longer than the diameter;
    ``face`` is `face_rows` of ``x`` and gets ``d_norm1``. One argmax over signed
    vertices serves every row, as `lmo_rows` is `in_face_lmo_rows` on a full face.
    """
    in_face = face.on_boundary & face.sign.any(axis=1)
    sign = np.where(in_face[:, None], face.sign, np.where(g >= 0.0, 1.0, -1.0))
    rows, index = np.arange(len(x)), np.where(sign != 0.0, sign * g, -np.inf).argmax(axis=1)
    d = _minus_vertex(ball, x, rows, index, sign[rows, index])
    face.d_norm1 = l1_rows(d)
    gd = row_dot(g, d)
    norm = face.d_norm1 if ball.norm_x is Norm.L1 else ball.norm_rows(d)
    return d, (gd < -tol) & (norm <= ball.diameter()), gd


def ball_cap_rows(ball: L1Ball, x: np.ndarray, d: np.ndarray,
                  face: Face | None = None) -> np.ndarray:
    """Largest ``a`` with ``||x[r] + a d[r]||_1 <= radius``, per row.

    The norm along the ray is piecewise linear with kinks where coordinates
    cross zero. It is evaluated at every kink of every row at once, and the
    cap is interpolated exactly on the segment that crosses the radius;
    past the last kink every term grows with slope ``||d||_1``. Rows must be
    feasible within tolerance and ``d`` nonzero; ``face`` may hold both l1 norms.
    """
    delta = ball.radius
    if face is None:
        face = Face(None, None, l1_rows(x), l1_rows(d))
    # the start of the ray, feasible within tol by precondition
    start = np.minimum(face.norm1, delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -x / d
    valid = (t > 0.0) & np.isfinite(t)
    count = valid.sum(axis=1)
    width = int(count.max())
    if width == 0:  # no coordinate crosses zero on any ray
        return 0.0 + (delta - start) / face.d_norm1
    real = np.arange(width) < count[:, None]
    # column 0 of the padded arrays is the start of the ray
    kinks = np.zeros((len(x), width + 1))
    kinks[:, 1:] = np.where(real, np.sort(np.where(valid, t, np.inf), axis=1)[:, :width], 0.0)
    phi = np.empty(kinks.shape)
    phi[:, 0] = start
    phi[:, 1:] = l1_rows((x[:, None, :] + kinks[:, 1:, None] * d[:, None, :]).reshape(-1, ball.dim)
                         ).reshape(-1, width)
    over = (phi[:, 1:] > delta) & real
    crosses = over.any(axis=1)
    last = np.where(crosses, over.argmax(axis=1), count)
    rows = np.arange(len(x))
    nxt = np.minimum(last + 1, width)
    prev, phi_prev = kinks[rows, last], phi[rows, last]
    # on the crossing segment, or past the last kink with slope ||d||_1 (times 1.0, exactly)
    t_span = np.where(crosses, kinks[rows, nxt] - prev, 1.0)
    phi_span = np.where(crosses, phi[rows, nxt] - phi_prev, face.d_norm1)
    return prev + (delta - phi_prev) * t_span / phi_span


def in_face_step_cap_rows(ball: L1Ball, x: np.ndarray, d: np.ndarray,
                          face: Face) -> tuple[np.ndarray, np.ndarray]:
    """Cap and binding mask per row along in-face directions; ``face`` is `face_rows` of ``x``.

    A boundary row caps at its first sign crossing on the support and marks the
    coordinates that land on zero there, or at 0 if ``d`` points out of the ball
    (a positive fold ``sum_j sign_j d_j`` in index order); an interior row's cap is
    `ball_cap_rows`, with no binding coordinates. ``face`` may hold ``l1_rows(d)``.
    """
    if face.d_norm1 is None:
        face = Face(face.sign, face.on_boundary, face.norm1, l1_rows(d))
    _fail_rows(face.d_norm1 == 0.0, "direction is identically zero")
    on_boundary, sign = face.on_boundary, face.sign
    n_boundary = np.count_nonzero(on_boundary)
    # on every row; the boundary rows' values are replaced below
    alpha = ball_cap_rows(ball, x, d, face) if n_boundary < len(x) else np.empty(len(x))
    binding = np.zeros(x.shape, dtype=bool)
    if n_boundary:
        _fail_rows(on_boundary & ((np.abs(d) > IN_FACE_TOL) & (sign == 0.0)).any(axis=1),
                   "in-face direction must vanish on the zero set of x_bar")
        # every row at once: a supported coordinate moving against its sign has sign * d < 0
        signed = sign * d
        out = np.cumsum(signed, axis=1)[:, -1] > IN_FACE_TOL * np.maximum(1.0, face.d_norm1)
        toward = signed < 0.0
        caps = np.divide(-x, d, out=np.full(x.shape, np.inf), where=toward)
        cap = caps.min(axis=1)
        alpha = np.where(on_boundary, np.where(out, 0.0, cap), alpha)
        binding = toward & (caps == cap[:, None]) & (on_boundary & ~out)[:, None]
    return alpha, binding


def lmo(ball: L1Ball, g: np.ndarray) -> Vertex:
    """`lmo_rows` for one 1-D gradient: ``argmin { g @ x : ||x||_1 <= radius }``."""
    (m,) = regroup([g], [1], [ball.dim], "g")
    finite_rows(m, "g")
    index, sign, value = lmo_rows(ball, m)
    return Vertex(index=int(index[0]), sign=int(sign[0]), value=value[0])
