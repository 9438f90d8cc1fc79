"""Tour of the l1-ball geometry kernels.

Runs through the closed-form pieces the optimizer is built from: the
linear minimization oracle, minimal faces, and the away step's geometry,
which backs off the worst vertex of a point's minimal face and caps the
step so it stays inside the ball or inside the face. The row kernels work
on a matrix whose rows share one ball; a single point is a one-row matrix.
Everything is printed; nothing is plotted.
"""

import numpy as np

from fwsd.geometry import L1Ball, away_rows, face_rows, lmo

rng = np.random.default_rng(0)
ball = L1Ball(dim=6, radius=2.0)
print(f"feasible set: ||x||_1 <= {ball.radius} in R^{ball.dim}")
print(f"diameter in the l1 norm: {ball.diameter()}")
print()

# --- the linear minimization oracle picks a signed vertex ------------------

g = rng.standard_normal(6)
vertex = lmo(ball, g)
print("gradient        ", np.round(g, 3))
print(f"oracle vertex    {vertex.sign:+d} * {ball.radius} * e_{vertex.index}")
print(f"linear value     {g @ vertex.value:.4f}  (most negative over the ball)")
print()

# --- minimal faces are read off the signed support -------------------------

# both points go through face_rows at once, one row each
points = np.array([[0.3, -0.2, 0.0, 0.1, 0.0, 0.0],
                   [1.2, 0.0, -0.8, 0.0, 0.0, 0.0]])
faces = face_rows(ball, points)
signs, on_boundary = faces.sign, faces.on_boundary
for name, x, s, on in zip(("interior", "boundary"), points, signs, on_boundary):
    print(f"{name} point {x}")
    print(f"  ||x||_1 = {np.abs(x).sum():.2f}, on_boundary = {on}")
    print(f"  positive support {tuple(np.flatnonzero(s > 0).tolist())}, "
          f"negative support {tuple(np.flatnonzero(s < 0).tolist())}")
print()

# --- away directions back off the worst vertex of the face -----------------

g_check = np.tile(rng.standard_normal(6), (2, 1))
# both points at once; a direction is accepted if g_check @ d < -fwsd.geometry.AWAY_TOL
d, accepted, _, index, cap, binds = away_rows(ball, points, g_check)
for name, x, row, j, ok in zip(("interior", "boundary"), points, d, index, accepted):
    # d = x - v moves only coordinate j, so x_j - d_j carries the vertex's sign
    print(f"away direction from the {name} point:")
    print(f"  away vertex {int(np.sign(x[j] - row[j])):+d} * {ball.radius} * e_{j}")
    print(f"  direction {np.round(row, 3)}")
    print(f"  accepted as strict descent: {ok}")
print()

# --- the away cap: only the away vertex's coordinate can cross zero --------

print(f"interior cap along d: {cap[0]:.4f} (where the ray leaves the ball)")
print(f"in-face cap along d:  {cap[1]:.4f} (coordinate {index[1]} binds: {binds[1]})")

# stepping exactly to the in-face cap zeroes the binding coordinate exactly
landed = points[1:] + cap[1] * d[1:]
landed[0, index[1]] = 0.0
print(f"point at the cap        {np.round(landed[0], 6)}")
print(f"still on the boundary:  {face_rows(ball, landed).on_boundary[0]}")
