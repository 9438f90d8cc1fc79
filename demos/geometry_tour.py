"""Tour of the l1-ball geometry kernels.

Runs through the closed-form pieces the optimizer is built from: the
linear minimization oracle, minimal faces, the in-face oracle, away
directions, and the step caps that keep a step inside the ball or inside
a face. Each kernel works on a matrix whose rows share one ball; a single
point is a one-row matrix. Everything is printed; nothing is plotted.
"""

import numpy as np

from fwsd.geometry import (
    L1Ball,
    away_rows,
    ball_cap_rows,
    face_rows,
    in_face_lmo_rows,
    in_face_step_cap_rows,
    lmo_rows,
)

rng = np.random.default_rng(0)
ball = L1Ball(dim=6, radius=2.0)
print(f"feasible set: ||x||_1 <= {ball.radius} in R^{ball.dim}")
print(f"diameter in the l1 norm: {ball.diameter()}")
print()

# --- the linear minimization oracle picks a signed vertex ------------------

g = rng.standard_normal(6)
(index,), (sign,), (vertex,) = lmo_rows(ball, g[None, :])
print("gradient        ", np.round(g, 3))
print(f"oracle vertex    {sign:+d} * {ball.radius} * e_{index}")
print(f"linear value     {g @ vertex:.4f}  (most negative over the ball)")
print()

# --- minimal faces are read off the signed support -------------------------

# both points go through face_rows at once, one row each
points = np.array([[0.3, -0.2, 0.0, 0.1, 0.0, 0.0],
                   [1.2, 0.0, -0.8, 0.0, 0.0, 0.0]])
signs, on_boundary = face_rows(ball, points)
for name, x, s, on in zip(("interior", "boundary"), points, signs, on_boundary):
    print(f"{name} point {x}")
    print(f"  ||x||_1 = {np.abs(x).sum():.2f}, on_boundary = {on}")
    print(f"  positive support {tuple(np.flatnonzero(s > 0).tolist())}, "
          f"negative support {tuple(np.flatnonzero(s < 0).tolist())}")
print()

# --- the in-face oracle only sees the extreme points of the face -----------

# the boundary point as a one-row matrix, with its sign mask and boundary flag
boundary, face = points[1:], (signs[1:], on_boundary[1:])
c = rng.standard_normal(6)
(index,), (sign,), _ = in_face_lmo_rows(ball, face[0], c[None, :])
print("in-face oracle on the boundary point above:")
print(f"  cost vector     {np.round(c, 3)}")
print(f"  face extreme pt {int(sign):+d} * {ball.radius} * e_{index}")
print()

# --- away directions back off the worst vertex of the face -----------------

g_check = rng.standard_normal(6)
# 1e-12 is the strict-descent threshold OptimizerConfig.away_tol defaults to
d, accepted, _ = away_rows(ball, boundary, g_check[None, :], *face, 1e-12)
print("away direction from the boundary point:")
print(f"  direction {np.round(d[0], 3)}")
print(f"  accepted as strict descent: {accepted[0]}")
print()

# --- step caps: plain feasibility vs staying inside the face ---------------

cap_ball = ball_cap_rows(ball, boundary, d)[0]
cap_face, binding = in_face_step_cap_rows(ball, boundary, d, *face)
binding = tuple(np.flatnonzero(binding[0]).tolist())
print(f"feasibility cap along d: {cap_ball:.4f}")
print(f"in-face cap along d:     {cap_face[0]:.4f} (binding coordinates {binding})")

# stepping exactly to the in-face cap zeroes the binding coordinate exactly
landed = boundary + cap_face[:, None] * d
landed[0, list(binding)] = 0.0
print(f"point at the cap        {np.round(landed[0], 6)}")
print(f"still on the boundary:  {face_rows(ball, landed)[1][0]}")
