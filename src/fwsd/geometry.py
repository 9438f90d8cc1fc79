"""Exact linear oracles and facial geometry of scaled l1 balls.

The feasible sets handled here are cross-polytopes ``{x : ||x||_1 <= delta}``.
Everything a Frank-Wolfe style method needs from such a set is closed form:
the linear minimization oracle picks a signed vertex, the minimal face of a
boundary point is read off the signed support, and line searches against the
constraint reduce to scanning the breakpoints of a piecewise linear function.
No numerical solver is involved anywhere in this module.

Every oracle is written once, row-wise, for an ``(n_rows, dim)`` matrix whose
rows are blocks sharing one ball (same ``dim``, ``radius`` and ``norm_x``);
`ball_groups` and `stack_rows` build such matrices from a list of blocks. The
1-D functions (`lmo`, `minimal_face`, `in_face_lmo`, `away_direction`,
`in_face_step_cap`, `max_feasible_step`) are the one-row case. Each row of a
row-wise result is bit for bit what the per-block formula gives, so grouping
blocks never moves an iterate digest. That rests on four rules:

- row dots are ``np.matmul(a[:, None, :], b[:, :, None])``, which rounds like
  the 1-D ``a @ b``; ``(a * b).sum(1)`` and ``einsum`` differ in the last bits;
- l1 norms are ``np.abs(m).sum(axis=1)``, the same pairwise sum per row as the
  1-D ``np.sum(np.abs(x))``;
- the signed sum of the in-face cap is a sequential fold,
  ``np.cumsum(..., axis=1)[:, -1]``;
- argmax and argmin along axis 1 break ties to the lowest index, as the 1-D
  oracles do.

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


@dataclass(frozen=True)
class Face:
    """Minimal face of a point, encoded by its signed support.

    ``j_plus`` and ``j_minus`` hold the indices of strictly positive and
    strictly negative coordinates, ``j_zero`` the rest. When ``on_boundary``
    is false the minimal face is the whole ball and the index sets are
    informational only.
    """

    j_plus: tuple[int, ...]
    j_minus: tuple[int, ...]
    j_zero: tuple[int, ...]
    on_boundary: bool

    @property
    def support(self) -> tuple[int, ...]:
        """Indices carrying nonzero weight, ascending."""
        return tuple(sorted(self.j_plus + self.j_minus))

    def sign_of(self, j: int) -> int:
        if j in self.j_plus:
            return 1
        if j in self.j_minus:
            return -1
        return 0


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
    """Row-wise `lmo`: the index, sign and vertex matrix minimizing each ``g[r] @ x``."""
    rows = np.arange(len(g))
    index = np.abs(g).argmax(axis=1)
    sign = np.where(g[rows, index] <= 0.0, 1, -1)
    return index, sign, _vertex_rows(ball, rows, index, sign)


def frank_wolfe_rows(ball: L1Ball, x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Oracle vertices ``v`` and Frank-Wolfe gaps ``g[r] @ (x[r] - v[r])``."""
    v = lmo_rows(ball, g)[2]
    return v, row_dot(g, x - v)


def face_rows(ball: L1Ball, x: np.ndarray, tol: float = FACE_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise `minimal_face`: sign masks in {-1, 0, 1} and the boundary flags."""
    norm1 = l1_rows(x)
    _fail_rows(norm1 > ball.radius + max(tol, 1e-9),
               lambda r: f"point is infeasible: ||x||_1 = {float(norm1[r])} > {ball.radius}")
    sign = (x > tol).astype(np.float64) - (x < -tol)
    return sign, np.abs(norm1 - ball.radius) <= tol


def in_face_lmo_rows(ball: L1Ball, sign: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise `in_face_lmo` over the faces given by ``sign``; every support must be nonempty."""
    rows = np.arange(len(sign))
    index = np.where(sign != 0.0, sign * c, np.inf).argmin(axis=1)
    s = sign[rows, index]
    return index, s, _vertex_rows(ball, rows, index, s)


def away_rows(
    ball: L1Ball, x: np.ndarray, g: np.ndarray, sign: np.ndarray, on_boundary: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise `away_direction` over the faces of `face_rows`: ``d``, acceptance and ``g @ d``."""
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


def points_out_rows(sign: np.ndarray, d: np.ndarray, tol: float) -> np.ndarray:
    """Rows whose in-face direction leaves the ball at once.

    The signed sum ``sum_j sign_j d_j`` is a sequential fold in index order.
    """
    signed = np.cumsum(sign * d, axis=1)[:, -1]
    return signed > tol * np.maximum(1.0, l1_rows(d))


def in_face_step_cap_rows(
    ball: L1Ball, x: np.ndarray, d: np.ndarray, sign: np.ndarray, on_boundary: np.ndarray,
    tol: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise `in_face_step_cap` over the faces `face_rows` gave: cap and binding mask per row."""
    _fail_rows(~d.any(axis=1), "direction is identically zero")
    _fail_rows(outside_rows(ball, x, max(tol, FEASIBILITY_TOL)), "x_bar is infeasible")
    _fail_rows(on_boundary & ((np.abs(d) > tol) & (sign == 0.0)).any(axis=1),
               "in-face direction must vanish on the zero set of x_bar")
    alpha = np.empty(len(x))
    binding = np.zeros(x.shape, dtype=bool)
    interior = ~on_boundary
    if interior.any():
        alpha[interior] = ball_cap_rows(ball, x[interior], d[interior])
    if on_boundary.any():
        xb, db, sb = x[on_boundary], d[on_boundary], sign[on_boundary]
        out = points_out_rows(sb, db, tol)
        cap, bind = sign_cap_rows(xb, db, sb)
        alpha[on_boundary] = np.where(out, 0.0, cap)
        binding[on_boundary] = bind & ~out[:, None]
    return alpha, binding


def lmo(ball: L1Ball, g: np.ndarray) -> Vertex:
    """Linear minimization oracle: ``argmin { g @ x : ||x||_1 <= radius }``.

    The minimizer is the signed vertex ``-sign(g[j]) * radius * e_j`` at a
    coordinate of maximal ``|g[j]|``. Ties break to the lowest index, and a
    sign tie (``g[j] == 0``) resolves to the positive vertex.
    """
    g = _check_vector(g, ball.dim, "g")
    index, sign, value = lmo_rows(ball, g[None, :])
    return Vertex(index=int(index[0]), sign=int(sign[0]), value=value[0])


def minimal_face(ball: L1Ball, x: np.ndarray, tol: float = FACE_TOL) -> Face:
    """Classify the signed support of a feasible point.

    Coordinates within ``tol`` of zero are treated as zero, and the point
    counts as a boundary point when ``| ||x||_1 - radius | <= tol``.
    """
    x = _check_vector(x, ball.dim, "x")
    sign, on_boundary = face_rows(ball, x[None, :], tol)
    return Face(
        j_plus=tuple(np.flatnonzero(sign[0] > 0.0).tolist()),
        j_minus=tuple(np.flatnonzero(sign[0] < 0.0).tolist()),
        j_zero=tuple(np.flatnonzero(sign[0] == 0.0).tolist()),
        on_boundary=bool(on_boundary[0]),
    )


def in_face_lmo(ball: L1Ball, face: Face, c: np.ndarray) -> Vertex:
    """Minimize ``c @ x`` over a proper face of the ball.

    The extreme points of the face of a boundary point are the signed
    vertices ``sign(x[j]) * radius * e_j`` for ``j`` in the support, so the
    minimizer is the support index with the smallest ``sign(x[j]) * c[j]``.
    Ties break to the lowest index.
    """
    if not face.on_boundary:
        raise ValueError("in_face_lmo requires a boundary face; the face of an "
                         "interior point is the whole ball, use lmo instead")
    if not face.support:
        raise ValueError("boundary face has empty support")
    c = _check_vector(c, ball.dim, "c")
    sign = np.zeros((1, ball.dim))
    sign[0, list(face.j_plus)] = 1.0
    sign[0, list(face.j_minus)] = -1.0
    index, s, value = in_face_lmo_rows(ball, sign, c[None, :])
    return Vertex(index=int(index[0]), sign=int(s[0]), value=value[0])


def away_direction(
    ball: L1Ball, x_bar: np.ndarray, g_check: np.ndarray, tol: float = 1e-12
) -> tuple[np.ndarray, bool]:
    """Away direction ``d = x_bar - x_check`` over the minimal face of ``x_bar``.

    ``x_check`` maximizes ``g_check @ x`` over the face (over the whole ball
    when ``x_bar`` is interior); the face is classified at ``FACE_TOL``. The
    direction is accepted only when it is a strict descent direction,
    ``g_check @ d < -tol``, and no longer than the set diameter in the block
    norm. Rejected directions are returned anyway so the caller can log them.
    """
    x_bar = _check_vector(x_bar, ball.dim, "x_bar")[None, :]
    g_check = _check_vector(g_check, ball.dim, "g_check")[None, :]
    d, accepted, _ = away_rows(ball, x_bar, g_check, *face_rows(ball, x_bar), tol)
    return d[0], bool(accepted[0])


def in_face_step_cap(
    ball: L1Ball, x_bar: np.ndarray, d: np.ndarray, tol: float = 1e-9
) -> tuple[float, tuple[int, ...]]:
    """Step cap along an in-face direction, with the indices that bind.

    For a boundary point the cap is the first sign crossing on the support;
    the returned indices are the coordinates that land exactly on zero
    there, which lets a caller zero them out explicitly. For an interior
    point the minimal face is the whole ball and the cap is the plain
    feasibility cap (no binding indices).
    """
    x_bar = _check_vector(x_bar, ball.dim, "x_bar")[None, :]
    d = _check_vector(d, ball.dim, "d")[None, :]
    face = face_rows(ball, x_bar, min(tol, FACE_TOL))
    alpha, binding = in_face_step_cap_rows(ball, x_bar, d, *face, tol)
    return float(alpha[0]), tuple(np.flatnonzero(binding[0]).tolist())


def max_feasible_step(
    ball: L1Ball, x_bar: np.ndarray, d: np.ndarray, in_face: bool = False, tol: float = 1e-9
) -> float:
    """Largest step ``a`` keeping ``x_bar + a * d`` feasible.

    With ``in_face=False`` this is the exact breakpoint scan against the
    l1 constraint. With ``in_face=True`` the step is additionally capped so
    that no supported coordinate of a boundary point crosses zero and the
    zero coordinates stay zero (the direction must vanish there).
    """
    if in_face:
        return in_face_step_cap(ball, x_bar, d, tol=tol)[0]
    x_bar = _check_vector(x_bar, ball.dim, "x_bar")
    d = _check_vector(d, ball.dim, "d")
    if not np.any(d != 0.0):
        raise ValueError("direction is identically zero")
    if not ball.contains(x_bar, tol=max(tol, FEASIBILITY_TOL)):
        raise ValueError("x_bar is infeasible")
    return max(0.0, float(ball_cap_rows(ball, x_bar[None, :], d[None, :])[0]))
