"""The per-block engine the row-wise kernels replaced, kept as the reference.

Every function here is the loop form of a kernel in `fwsd.geometry` or a
step in `fwsd.optimizer`: one 1-D block at a time, and for faces and caps
one coordinate at a time. `Face` is the set form of a minimal face that
`face_rows` encodes as a sign row. The row-wise code has to match the loops
bit for bit, including tie-breaking and the sign of zero, which the property
tests in `test_rowwise.py` check.
"""

from dataclasses import dataclass

import numpy as np

from fwsd.geometry import AWAY_TOL, L1Ball, Vertex
from fwsd.optimizer import AltStepInfo

G_TILDE_SLACK = 1e-12
FEASIBILITY_TOL = 1e-10
FACE_TOL = 1e-12


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

    @classmethod
    def from_rows(cls, sign: np.ndarray, on_boundary) -> "Face":
        """The face of one row of `fwsd.geometry.face_rows`' output."""
        return cls(j_plus=tuple(np.flatnonzero(sign > 0.0).tolist()),
                   j_minus=tuple(np.flatnonzero(sign < 0.0).tolist()),
                   j_zero=tuple(np.flatnonzero(sign == 0.0).tolist()),
                   on_boundary=bool(on_boundary))


def groups_by_ball(balls):
    """``(ball, idx)`` per distinct ball, ``idx`` all its blocks, in order of first appearance.

    `fwsd.geometry.group_layout` cuts runs of consecutive blocks instead; a
    ball that recurs after a different one is one group here, so a kernel
    called per group sees the rows of blocks that are not adjacent.
    """
    found = {}
    for i, ball in enumerate(balls):
        found.setdefault(ball, []).append(i)
    return [(ball, np.array(idx)) for ball, idx in found.items()]


def _contains(ball: L1Ball, x, tol: float = FEASIBILITY_TOL) -> bool:
    x = _check_vector(x, ball.dim, "x")
    return float(np.sum(np.abs(x))) <= ball.radius + tol


def _clamp_g_tilde(value: float, g) -> float:
    # a point up to FEASIBILITY_TOL outside the ball can make g_tilde as low
    # as -FEASIBILITY_TOL * max|g|
    if value < -(G_TILDE_SLACK + FEASIBILITY_TOL * float(np.max(np.abs(g)))):
        raise RuntimeError(f"per-block Frank-Wolfe gap came out {value}")
    return max(0.0, value)


def _check_vector(v: np.ndarray, dim: int, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (dim,):
        raise ValueError(f"{name} has shape {v.shape}, expected ({dim},)")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def lmo(ball: L1Ball, g: np.ndarray) -> Vertex:
    """Linear minimization oracle: ``argmin { g @ x : ||x||_1 <= radius }``.

    The minimizer is the signed vertex ``-sign(g[j]) * radius * e_j`` at a
    coordinate of maximal ``|g[j]|``. Ties break to the lowest index, and a
    sign tie (``g[j] == 0``) resolves to the positive vertex.
    """
    g = _check_vector(g, ball.dim, "g")
    j = int(np.argmax(np.abs(g)))
    sign = 1 if g[j] <= 0.0 else -1
    value = np.zeros(ball.dim)
    value[j] = sign * ball.radius
    return Vertex(index=j, sign=sign, value=value)


def minimal_face(ball: L1Ball, x: np.ndarray, tol: float = FACE_TOL) -> Face:
    """Classify the signed support of a feasible point.

    Coordinates within ``tol`` of zero are treated as zero, and the point
    counts as a boundary point when ``| ||x||_1 - radius | <= tol``.
    """
    x = _check_vector(x, ball.dim, "x")
    norm1 = float(np.sum(np.abs(x)))
    if norm1 > ball.radius + max(tol, 1e-9):
        raise ValueError(f"point is infeasible: ||x||_1 = {norm1} > {ball.radius}")
    j_plus = tuple(int(j) for j in np.flatnonzero(x > tol))
    j_minus = tuple(int(j) for j in np.flatnonzero(x < -tol))
    on_support = set(j_plus) | set(j_minus)
    j_zero = tuple(j for j in range(ball.dim) if j not in on_support)
    on_boundary = abs(norm1 - ball.radius) <= tol
    return Face(j_plus=j_plus, j_minus=j_minus, j_zero=j_zero, on_boundary=on_boundary)


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
    support = face.support
    if not support:
        raise ValueError("boundary face has empty support")
    c = _check_vector(c, ball.dim, "c")
    best_j = support[0]
    best_val = face.sign_of(best_j) * c[best_j]
    for j in support[1:]:
        val = face.sign_of(j) * c[j]
        if val < best_val:
            best_j, best_val = j, val
    sign = face.sign_of(best_j)
    value = np.zeros(ball.dim)
    value[best_j] = sign * ball.radius
    return Vertex(index=best_j, sign=sign, value=value)


def away_direction(
    ball: L1Ball, x_bar: np.ndarray, g_check: np.ndarray, tol: float = 1e-12
) -> tuple[np.ndarray, bool]:
    """Away direction ``d = x_bar - x_check`` over the minimal face of ``x_bar``.

    ``x_check`` maximizes ``g_check @ x`` over the face (over the whole ball
    when ``x_bar`` is interior); the face is classified at ``FACE_TOL``. The
    direction is accepted only when it is a strict descent direction,
    ``g_check @ d < -tol``, and no longer than the set diameter in the l1
    norm. Rejected directions are returned anyway so the caller can log them.
    """
    x_bar = _check_vector(x_bar, ball.dim, "x_bar")
    g_check = _check_vector(g_check, ball.dim, "g_check")
    face = minimal_face(ball, x_bar, FACE_TOL)
    if face.on_boundary and face.support:
        x_check = in_face_lmo(ball, face, -g_check).value
    else:
        x_check = lmo(ball, -g_check).value
    d = x_bar - x_check
    descent = float(g_check @ d) < -tol
    accepted = descent and float(np.sum(np.abs(d))) <= ball.diameter()
    return d, accepted


def _ball_cap(ball: L1Ball, x: np.ndarray, d: np.ndarray) -> float:
    # Largest a >= 0 with ||x + a d||_1 <= radius. The norm along the ray is
    # piecewise linear with kinks where coordinates cross zero, so evaluate
    # it at each kink and interpolate exactly on the segment that crosses
    # the radius.
    delta = ball.radius
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(d != 0.0, -x / d, np.inf)
    kinks = np.unique(t[(t > 0.0) & np.isfinite(t)])
    prev = 0.0
    phi_prev = float(np.sum(np.abs(x)))
    if phi_prev > delta:
        phi_prev = delta  # feasible within tol by precondition
    for tk in kinks:
        phi_k = float(np.sum(np.abs(x + tk * d)))
        if phi_k <= delta:
            prev, phi_prev = float(tk), phi_k
            continue
        return prev + (delta - phi_prev) * (float(tk) - prev) / (phi_k - phi_prev)
    slope = float(np.sum(np.abs(d)))  # past the last kink every term grows
    return prev + (delta - phi_prev) / slope


def _sign_cap(x: np.ndarray, d: np.ndarray, support: tuple[int, ...]) -> tuple[float, tuple[int, ...]]:
    # First step length at which a supported coordinate moving against its
    # sign reaches zero, together with every index binding there.
    caps: list[tuple[float, int]] = []
    for j in support:
        if x[j] > 0.0 and d[j] < 0.0:
            caps.append((x[j] / -d[j], j))
        elif x[j] < 0.0 and d[j] > 0.0:
            caps.append((-x[j] / d[j], j))
    if not caps:
        return np.inf, ()
    alpha = min(c for c, _ in caps)
    binding = tuple(j for c, j in caps if c == alpha)
    return alpha, binding


def in_face_step_cap(
    ball: L1Ball, x_bar: np.ndarray, d: np.ndarray, tol: float = 1e-9
) -> tuple[float, tuple[int, ...]]:
    """Step cap along an in-face direction, with the indices that bind.

    For a boundary point the cap is the first sign crossing on the support
    (``inf`` if no supported coordinate moves against its sign); the returned
    indices are the coordinates that land exactly on zero there, which lets a
    caller zero them out explicitly. An away direction never points out of
    the face, so no outward test runs. For an interior point the minimal face
    is the whole ball and the cap is the plain feasibility cap (no binding
    indices).
    """
    x_bar = _check_vector(x_bar, ball.dim, "x_bar")
    d = _check_vector(d, ball.dim, "d")
    if not np.any(d != 0.0):
        raise ValueError("direction is identically zero")
    if not _contains(ball, x_bar, tol=max(tol, 1e-10)):
        raise ValueError("x_bar is infeasible")
    face = minimal_face(ball, x_bar, tol=min(tol, FACE_TOL))
    if not face.on_boundary or not face.support:
        return _ball_cap(ball, x_bar, d), ()
    if any(abs(d[j]) > tol for j in face.j_zero):
        raise ValueError("in-face direction must vanish on the zero set of x_bar")
    return _sign_cap(x_bar, d, face.support)


def fw_step(x_blocks, g_hat_blocks, balls, config):
    x_bar, g_tildes, alphas = [], [], []
    for x, g, ball, c_bar in zip(x_blocks, g_hat_blocks, balls, config.c_bar_per_block):
        v = lmo(ball, g)
        g_tilde = _clamp_g_tilde(float(np.asarray(g) @ (x - v.value)), g)
        alpha = min(g_tilde / c_bar, 1.0)
        x_bar.append(x + alpha * (v.value - x))
        g_tildes.append(g_tilde)
        alphas.append(alpha)
    return tuple(x_bar), tuple(g_tildes), tuple(alphas)


def alt_step(x_bar_blocks, g_check_blocks, balls, config):
    x_next, infos = [], []
    for x_bar, g, ball, c_bar in zip(x_bar_blocks, g_check_blocks, balls, config.c_bar_per_block):
        d, ok = away_direction(ball, x_bar, g, tol=AWAY_TOL)
        if not ok:
            x_next.append(np.array(x_bar, dtype=np.float64))
            infos.append(AltStepInfo(taken=False, a_value=0.0, alpha_stop=0.0, beta_bar=0.0))
            continue
        a_value = -float(np.asarray(g) @ d)
        alpha_stop, binding = in_face_step_cap(ball, x_bar, d)
        beta = min(a_value / c_bar, alpha_stop)
        stepped = x_bar + beta * d
        if beta == alpha_stop:
            for j in binding:
                stepped[j] = 0.0
        x_next.append(stepped)
        infos.append(AltStepInfo(taken=True, a_value=a_value, alpha_stop=alpha_stop, beta_bar=beta))
    return tuple(x_next), tuple(infos)


def gap_g_tildes(x_blocks, g_hat_blocks, balls):
    out = []
    for x, g, ball in zip(x_blocks, g_hat_blocks, balls):
        if not _contains(ball, np.asarray(x, dtype=np.float64)):
            raise ValueError("x block is infeasible")
        v = lmo(ball, g)
        out.append(_clamp_g_tilde(float(np.asarray(g) @ (x - v.value)), g))
    return tuple(out)
