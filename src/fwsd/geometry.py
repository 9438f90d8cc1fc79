"""Exact linear oracles and facial geometry of scaled l1 balls.

The feasible sets handled here are cross-polytopes ``{x : ||x||_1 <= delta}``.
Everything a Frank-Wolfe style method needs from such a set is closed form:
the linear minimization oracle picks a signed vertex, the minimal face of a
boundary point is read off the signed support, and line searches against the
constraint reduce to scanning the breakpoints of a piecewise linear function.
No numerical solver is involved anywhere in this module.

Every oracle is written once, row-wise, for an ``(n_rows, dim)`` matrix whose
rows are blocks sharing one ball (same ``dim``, ``radius`` and ``norm_x``);
`ball_groups` and `stack_rows` build such matrices from a list of blocks, and
a single block is a one-row matrix (`lmo` is that case of `lmo_rows`). Each
row of a row-wise result is bit for bit what the per-block formula gives, so
grouping blocks never moves an iterate digest. That rests on four rules:

- row dots are ``np.matmul(a[:, None, :], b[:, :, None])``, which rounds like
  the 1-D ``a @ b``; ``(a * b).sum(1)`` and ``einsum`` differ in the last bits;
- l1 norms are ``np.abs(m).sum(axis=1)``, the same pairwise sum per row as the
  1-D ``np.sum(np.abs(x))``;
- the signed sum of the in-face cap is a sequential fold,
  ``np.cumsum(..., axis=1)[:, -1]``;
- argmax and argmin along axis 1 break ties to the lowest index, as in 1-D.

A failed row check raises `RowError`, which carries the offending row so a
caller that stacked the rows can name the block (see `blame_blocks`).
"""

from __future__ import annotations

import enum
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
        x = _check_vector(x, self.dim, "x")
        return not outside_rows(self, x[None, :], tol)[0]

    def norm(self, v: np.ndarray) -> float:
        """Length of ``v`` measured in this block's ``norm_x``."""
        return float(self.norm_rows(np.asarray(v, dtype=np.float64).reshape(1, -1))[0])

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


class RowError(ValueError):
    """A row-wise check failed; ``row`` is the first offending row, if known."""

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = row


def _fail_rows(bad: np.ndarray, message) -> None:
    # raise RowError at the first flagged row; ``message`` may be a callable
    # of that row
    if bad.any():
        r = int(np.argmax(bad))
        raise RowError(message(r) if callable(message) else message, r)


class blame_blocks:
    """Context manager that re-raises a failed row check naming the block and step.

    ``blocks[r]`` is the block index of row ``r`` of the stacked matrix.
    Exceptions that carry no ``row`` pass through unchanged.
    """

    def __init__(self, step: str, blocks: Sequence[int]) -> None:
        self.step = step
        self.blocks = blocks

    def __enter__(self) -> None:
        return None

    def __exit__(self, kind, exc, tb) -> bool:
        row = getattr(exc, "row", None)
        if row is None or not isinstance(exc, (ValueError, RuntimeError)):
            return False
        raise type(exc)(f"{exc} (block {self.blocks[row]}, in {self.step})") from exc


def _check_vector(v: np.ndarray, dim: int, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (dim,):
        raise ValueError(f"{name} has shape {v.shape}, expected ({dim},)")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def ball_groups(balls: Sequence[L1Ball]) -> list[tuple[L1Ball, np.ndarray]]:
    """Block indices grouped by equal ball, in order of first appearance."""
    groups: dict[tuple, tuple[L1Ball, list[int]]] = {}
    for i, ball in enumerate(balls):
        # the key spells out the fields: hashing a Norm member runs Python code
        key = (ball.dim, ball.radius, ball.norm_x is Norm.L1)
        group = groups.get(key)
        if group is None:
            groups[key] = group = (ball, [])
        group[1].append(i)
    return [(ball, np.array(idx)) for ball, idx in groups.values()]


def stack_rows(blocks: Sequence[np.ndarray], idx: np.ndarray, dim: int, name: str) -> np.ndarray:
    """Stack ``blocks[i]`` for ``i`` in ``idx`` into a float64 ``(len(idx), dim)`` matrix.

    Raises `RowError` at the first block of the wrong shape or with a
    non-finite entry.
    """
    rows = [blocks[i] for i in idx.tolist()]
    try:
        m = np.array(rows, dtype=np.float64)
    except ValueError:  # blocks of different shapes
        m = None
    if m is None or m.shape[1:] != (dim,):
        r = next(r for r, b in enumerate(rows) if np.shape(b) != (dim,))
        raise RowError(f"{name} has shape {np.shape(rows[r])}, expected ({dim},)", r)
    if not np.isfinite(m).all():
        _fail_rows(~np.isfinite(m).all(axis=1), f"{name} contains non-finite entries")
    return m


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[r] @ b[r]`` for every row, rounded exactly like the 1-D product."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def l1_rows(m: np.ndarray) -> np.ndarray:
    """l1 norm of every row, summed exactly like the 1-D ``np.sum(np.abs(x))``."""
    return np.abs(m).sum(axis=1)


def nnz_rows(m: np.ndarray, threshold: float = NNZ_THRESHOLD) -> np.ndarray:
    """Count of entries with magnitude at least ``threshold`` in every row."""
    return np.count_nonzero(np.abs(m) >= threshold, axis=1)


def outside_rows(ball: L1Ball, x: np.ndarray, tol: float = FEASIBILITY_TOL) -> np.ndarray:
    """Rows lying outside the ball by more than ``tol`` in the l1 norm."""
    return l1_rows(x) > ball.radius + tol


def _vertex_rows(ball: L1Ball, rows: np.ndarray, index: np.ndarray, sign: np.ndarray) -> np.ndarray:
    value = np.zeros((len(rows), ball.dim))
    value[rows, index] = sign * ball.radius
    return value


def lmo_rows(ball: L1Ball, g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index, sign and vertex of ``argmin { g[r] @ x : ||x||_1 <= radius }`` per row.

    The vertex is ``-sign(g[r, j]) * radius * e_j`` at a maximal ``|g[r, j]|``;
    ties go to the lowest index, and ``g[r, j] == 0`` to the positive vertex.
    """
    rows = np.arange(len(g))
    index = np.abs(g).argmax(axis=1)
    sign = np.where(g[rows, index] <= 0.0, 1, -1)
    return index, sign, _vertex_rows(ball, rows, index, sign)


def frank_wolfe_rows(ball: L1Ball, x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Oracle vertices ``v`` and Frank-Wolfe gaps ``g[r] @ (x[r] - v[r])``."""
    v = lmo_rows(ball, g)[2]
    return v, row_dot(g, x - v)


def face_rows(ball: L1Ball, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimal face of every row: sign masks in {-1, 0, 1} and boundary flags.

    Both are classified at ``FACE_TOL``; an interior row's face is the whole
    ball. Rows more than ``IN_FACE_TOL`` outside the ball raise.
    """
    norm1 = l1_rows(x)
    _fail_rows(norm1 > ball.radius + IN_FACE_TOL,
               lambda r: f"point is infeasible: ||x||_1 = {float(norm1[r])} > {ball.radius}")
    sign = (x > FACE_TOL).astype(np.float64) - (x < -FACE_TOL)
    return sign, np.abs(norm1 - ball.radius) <= FACE_TOL


def in_face_lmo_rows(ball: L1Ball, sign: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimize ``c[r] @ x`` over the boundary face given by ``sign[r]``.

    The face's vertices are ``sign[r, j] * radius * e_j`` on its (nonempty)
    support; the smallest ``sign[r, j] * c[r, j]`` wins, ties to the lowest index.
    """
    rows = np.arange(len(sign))
    index = np.where(sign != 0.0, sign * c, np.inf).argmin(axis=1)
    s = sign[rows, index]
    return index, s, _vertex_rows(ball, rows, index, s)


def away_rows(
    ball: L1Ball, x: np.ndarray, g: np.ndarray, sign: np.ndarray, on_boundary: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Away directions ``d = x - argmax_face g @ x`` with acceptance and ``g @ d`` per row.

    A row is accepted when ``g @ d < -tol`` and ``d`` is no longer than the
    diameter; the faces are the ones `face_rows` gave.
    """
    in_face = on_boundary & sign.any(axis=1)
    c = -g
    v = lmo_rows(ball, c)[2]
    if in_face.any():
        v[in_face] = in_face_lmo_rows(ball, sign[in_face], c[in_face])[2]
    d = x - v
    gd = row_dot(g, d)
    return d, (gd < -tol) & (ball.norm_rows(d) <= ball.diameter()), gd


def ball_cap_rows(ball: L1Ball, x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Largest ``a`` with ``||x[r] + a d[r]||_1 <= radius``, per row.

    The norm along the ray is piecewise linear with kinks where coordinates
    cross zero. It is evaluated at every kink of every row at once, and the
    cap is interpolated exactly on the segment that crosses the radius;
    past the last kink every term grows with slope ``||d||_1``. Rows must be
    feasible within tolerance and ``d`` nonzero.
    """
    delta = ball.radius
    # the start of the ray, feasible within tol by precondition
    start = np.minimum(l1_rows(x), delta)
    slope = l1_rows(d)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -x / d
    valid = (t > 0.0) & np.isfinite(t)
    count = valid.sum(axis=1)
    width = int(count.max())
    if width == 0:  # no coordinate crosses zero on any ray
        return 0.0 + (delta - start) / slope
    kinks = np.sort(np.where(valid, t, np.inf), axis=1)[:, :width]
    real = np.arange(width) < count[:, None]
    kinks = np.where(real, kinks, 0.0)
    phi = l1_rows((x[:, None, :] + kinks[:, :, None] * d[:, None, :]).reshape(-1, ball.dim))
    over = (phi.reshape(kinks.shape) > delta) & real
    # column 0 of the padded arrays is the start of the ray
    kinks = np.concatenate([np.zeros((len(x), 1)), kinks], axis=1)
    phi = np.concatenate([start[:, None], phi.reshape(-1, width)], axis=1)
    crosses = over.any(axis=1)
    last = np.where(crosses, over.argmax(axis=1), count)
    rows = np.arange(len(x))
    nxt = np.minimum(last + 1, width)
    prev, phi_prev = kinks[rows, last], phi[rows, last]
    with np.errstate(divide="ignore", invalid="ignore"):
        inside = prev + (delta - phi_prev) * (kinks[rows, nxt] - prev) / (phi[rows, nxt] - phi_prev)
    return np.where(crosses, inside, prev + (delta - phi_prev) / slope)


def sign_cap_rows(x: np.ndarray, d: np.ndarray, sign: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First step at which a supported coordinate moving against its sign reaches zero.

    Returns the step per row (``inf`` when nothing moves against its sign)
    and the mask of every coordinate binding there.
    """
    toward = (sign != 0.0) & (((x > 0.0) & (d < 0.0)) | ((x < 0.0) & (d > 0.0)))
    with np.errstate(divide="ignore", invalid="ignore"):
        caps = np.where(toward, -x / d, np.inf)
    alpha = caps.min(axis=1)
    return alpha, toward & (caps == alpha[:, None])


def points_out_rows(sign: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Rows whose in-face direction leaves the ball at once.

    The signed sum ``sum_j sign_j d_j`` is a sequential fold in index order.
    """
    signed = np.cumsum(sign * d, axis=1)[:, -1]
    return signed > IN_FACE_TOL * np.maximum(1.0, l1_rows(d))


def in_face_step_cap_rows(
    ball: L1Ball, x: np.ndarray, d: np.ndarray, sign: np.ndarray, on_boundary: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Cap and binding mask per row along in-face directions, faces from `face_rows`.

    A boundary row caps at its first sign crossing on the support and marks
    the coordinates that land on zero there (cap 0 if ``d`` points out);
    an interior row's cap is `ball_cap_rows`, with no binding coordinates.
    """
    _fail_rows(~d.any(axis=1), "direction is identically zero")
    _fail_rows(outside_rows(ball, x, IN_FACE_TOL), "x_bar is infeasible")
    _fail_rows(on_boundary & ((np.abs(d) > IN_FACE_TOL) & (sign == 0.0)).any(axis=1),
               "in-face direction must vanish on the zero set of x_bar")
    alpha = np.empty(len(x))
    binding = np.zeros(x.shape, dtype=bool)
    interior = ~on_boundary
    if interior.any():
        alpha[interior] = ball_cap_rows(ball, x[interior], d[interior])
    if on_boundary.any():
        xb, db, sb = x[on_boundary], d[on_boundary], sign[on_boundary]
        out = points_out_rows(sb, db)
        cap, bind = sign_cap_rows(xb, db, sb)
        alpha[on_boundary] = np.where(out, 0.0, cap)
        binding[on_boundary] = bind & ~out[:, None]
    return alpha, binding


def lmo(ball: L1Ball, g: np.ndarray) -> Vertex:
    """`lmo_rows` for one 1-D gradient: ``argmin { g @ x : ||x||_1 <= radius }``."""
    g = _check_vector(g, ball.dim, "g")
    index, sign, value = lmo_rows(ball, g[None, :])
    return Vertex(index=int(index[0]), sign=int(sign[0]), value=value[0])
