"""Geometry kernels checked against brute-force enumeration.

Every closed-form kernel in fwsd.geometry has a slow counterpart here that
enumerates the 2*dim signed vertices (or the extreme points of a face)
explicitly. The kernels work on matrices whose rows share one ball: worked
examples go in as one-row matrices, and the random trials of a test are
stacked into one matrix and checked row by row. The fast path has to match
the slow path exactly, including tie-breaking order.
"""

import numpy as np
import pytest

from fwsd.geometry import (
    FACE_TOL,
    L1Ball,
    away_rows,
    face_rows,
    lmo,
    lmo_rows,
)

AWAY_TOL = 1e-12  # the strict-descent threshold OptimizerConfig.away_tol defaults to


def enumerate_vertices(ball):
    """Signed vertices in tie-break order: index ascending, + before -."""
    for j in range(ball.dim):
        for s in (1, -1):
            v = np.zeros(ball.dim)
            v[j] = s * ball.radius
            yield j, s, v


def brute_lmo(ball, g):
    best = None
    for j, s, v in enumerate_vertices(ball):
        val = float(g @ v)
        if best is None or val < best[0]:
            best = (val, j, s, v)
    return best


def brute_face_maximizer(ball, sign, g):
    best = None
    for j in np.flatnonzero(sign).tolist():
        s = int(sign[j])
        v = np.zeros(ball.dim)
        v[j] = s * ball.radius
        val = float(g @ v)
        if best is None or val > best[0]:
            best = (val, j, s, v)
    return best


def random_boundary_point(rng, ball, support_size):
    idx = rng.choice(ball.dim, size=support_size, replace=False)
    w = rng.uniform(0.2, 1.0, size=support_size)
    w = w / w.sum() * ball.radius
    signs = rng.choice([-1.0, 1.0], size=support_size)
    x = np.zeros(ball.dim)
    x[idx] = signs * w
    return x


def away(ball, x, g):
    """Away directions and acceptance of the rows of ``x``, as `alt_step` gets them."""
    d, ok, *_ = away_rows(ball, x, g, AWAY_TOL)
    return d, ok


def away_cap(ball, x, g):
    """Away directions, acceptance, caps and binding flags of the rows of ``x``, as in `alt_step`."""
    d, ok, _, _, cap, binds = away_rows(ball, x, g, AWAY_TOL)
    return d, ok, cap, binds


class TestL1Ball:
    def test_validation(self):
        with pytest.raises(ValueError):
            L1Ball(dim=0, radius=1.0)
        with pytest.raises(ValueError):
            L1Ball(dim=3, radius=0.0)
        with pytest.raises(ValueError):
            L1Ball(dim=3, radius=-2.0)

    def test_diameter_is_twice_radius_for_both_norms(self):
        # a vertex and its negation are 2 * radius apart in the l1 and l2 norms alike
        ball = L1Ball(3, 2.5)
        assert ball.diameter() == 5.0
        gap = np.array([2.5, 0.0, 0.0]) - np.array([-2.5, 0.0, 0.0])
        assert np.sum(np.abs(gap)) == np.linalg.norm(gap) == ball.diameter()

    def test_diameter_matches_vertex_enumeration(self):
        # farthest pair of vertices in the l1 norm
        ball = L1Ball(4, 1.75)
        verts = [v for _, _, v in enumerate_vertices(ball)]
        best = max(np.sum(np.abs(u - v)) for u in verts for v in verts)
        assert best == pytest.approx(ball.diameter(), abs=1e-14)

    def test_contains(self):
        ball = L1Ball(2, 1.0)
        assert ball.contains(np.array([0.5, -0.5]))
        assert ball.contains(np.array([0.5, -0.5 - 1e-12]))
        assert not ball.contains(np.array([0.8, -0.5]))


class TestLMO:
    def test_picks_largest_magnitude_coordinate(self):
        v = lmo(L1Ball(3, 1.0), np.array([3.0, -1.0, 2.0]))
        assert (v.index, v.sign) == (0, -1)
        np.testing.assert_array_equal(v.value, [-1.0, 0.0, 0.0])

    def test_radius_scales_vertex(self):
        v = lmo(L1Ball(2, 2.0), np.array([0.0, -5.0]))
        assert (v.index, v.sign) == (1, 1)
        np.testing.assert_array_equal(v.value, [0.0, 2.0])

    def test_zero_gradient_tie_breaks_positive_lowest_index(self):
        v = lmo(L1Ball(3, 1.0), np.zeros(3))
        assert (v.index, v.sign) == (0, 1)
        np.testing.assert_array_equal(v.value, [1.0, 0.0, 0.0])

    def test_magnitude_tie_breaks_to_lowest_index(self):
        v = lmo(L1Ball(4, 1.0), np.array([0.0, -2.0, 2.0, -2.0]))
        assert (v.index, v.sign) == (1, 1)

    def test_rejects_bad_input(self):
        ball = L1Ball(3, 1.0)
        with pytest.raises(ValueError):
            lmo(ball, np.zeros(4))
        with pytest.raises(ValueError):
            lmo(ball, np.array([1.0, np.nan, 0.0]))

    def test_matches_brute_force_on_random_gradients(self):
        rng = np.random.default_rng(7)
        for dim in range(1, 7):
            ball = L1Ball(dim, 1.5)
            g = np.array([rng.standard_normal(dim) for _ in range(200)])
            index, sign = lmo_rows(g)
            for r in range(len(g)):
                val, j, s, v = brute_lmo(ball, g[r])
                assert (index[r], sign[r]) == (j, s)
                assert float(g[r] @ lmo(ball, g[r]).value) == val

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(8)
        ball = L1Ball(5, 1.0)
        g = np.array([rng.integers(-2, 3, size=5).astype(float)  # many exact ties
                      for _ in range(300)])
        index, sign = lmo_rows(g)
        for r in range(len(g)):
            val, j, s, v = brute_lmo(ball, g[r])
            assert (index[r], sign[r]) == (j, s)


class TestMinimalFace:
    def test_boundary_point_classification(self):
        face = face_rows(L1Ball(3, 1.0), np.array([[0.5, -0.5, 0.0]]))
        sign, on_boundary = face.sign, face.on_boundary
        assert sign.tolist() == [[1.0, -1.0, 0.0]]
        assert on_boundary.tolist() == [True]
        assert np.flatnonzero(sign[0]).tolist() == [0, 1]

    def test_interior_point_is_whole_ball(self):
        on_boundary = face_rows(L1Ball(2, 1.0), np.array([[0.1, 0.1]])).on_boundary
        assert on_boundary.tolist() == [False]

    def test_vertex_face_has_single_support_index(self):
        face = face_rows(L1Ball(3, 2.0), np.array([[0.0, -2.0, 0.0]]))
        sign, on_boundary = face.sign, face.on_boundary
        assert on_boundary.tolist() == [True]
        assert np.flatnonzero(sign[0]).tolist() == [1]
        assert sign[0, 1] == -1.0

    def test_infeasible_point_raises(self):
        with pytest.raises(ValueError, match="point is infeasible"):
            face_rows(L1Ball(2, 1.0), np.array([[0.8, 0.5]]))

    def test_index_sets_partition(self):
        # every coordinate is positive, negative or zero in the sign mask,
        # exactly as it lies beyond FACE_TOL
        rng = np.random.default_rng(11)
        ball = L1Ball(6, 1.0)
        x = np.array([rng.uniform(-0.3, 0.3, size=6) for _ in range(200)])
        x = x[[ball.contains(row) for row in x]]
        sign = face_rows(ball, x).sign
        assert set(np.unique(sign).tolist()) <= {-1.0, 0.0, 1.0}
        np.testing.assert_array_equal(sign > 0.0, x > FACE_TOL)
        np.testing.assert_array_equal(sign < 0.0, x < -FACE_TOL)


class TestInFaceLMO:
    """The in-face oracle is the away vertex: ``argmax g @ v`` over the face's extreme points."""

    def test_picks_most_negative_signed_cost(self):
        # the largest g @ v over the face vertices e_0 and -e_1 is -e_1's 2
        ball = L1Ball(3, 1.0)
        x = np.array([[0.5, -0.5, 0.0]])
        d, _, _, index, _, _ = away_rows(ball, x, np.array([[1.0, -2.0, 0.0]]), AWAY_TOL)
        assert index.tolist() == [1]
        np.testing.assert_array_equal(x[0] - d[0], [0.0, -1.0, 0.0])

    def test_interior_face_rejected(self):
        # an interior point's face is the whole ball: its away vertex comes
        # from the global oracle, not from the in-face oracle over its support
        ball = L1Ball(2, 1.0)
        x = np.array([[0.1, 0.1]])
        face = face_rows(ball, x)
        sign, on_boundary = face.sign, face.on_boundary
        assert on_boundary.tolist() == [False] and sign.all()
        d, ok = away(ball, x, np.array([[-1.0, 0.0]]))
        np.testing.assert_array_equal(d[0], x[0] - [-1.0, 0.0])
        assert ok.tolist() == [True]

    def test_matches_brute_force_over_face_extreme_points(self):
        rng = np.random.default_rng(21)
        ball = L1Ball(8, 1.0)
        x, c = [], []
        for _ in range(300):
            k = int(rng.integers(1, 9))
            x.append(random_boundary_point(rng, ball, k))
            c.append(rng.standard_normal(8))
        x, c = np.array(x), np.array(c)
        face = face_rows(ball, x)
        sign, on_boundary = face.sign, face.on_boundary
        assert on_boundary.all()
        d, _, _, index, _, _ = away_rows(ball, x, c, AWAY_TOL)
        for r in range(len(c)):
            val, j, want_s, v = brute_face_maximizer(ball, sign[r], c[r])
            assert index[r] == j
            np.testing.assert_array_equal(d[r], x[r] - v)

    def test_face_vertex_result_stays_in_face(self):
        rng = np.random.default_rng(22)
        ball = L1Ball(6, 3.0)
        x, c = [], []
        for _ in range(200):
            x.append(random_boundary_point(rng, ball, int(rng.integers(1, 7))))
            c.append(rng.standard_normal(6))
        x = np.array(x)
        sign = face_rows(ball, x).sign
        d, _, _, index, _, _ = away_rows(ball, x, np.array(c), AWAY_TOL)
        rows = np.arange(len(x))
        assert (sign[rows, index] != 0.0).all()
        # v = x - d carries the face's sign at its one nonzero coordinate
        np.testing.assert_array_equal(np.sign((x - d)[rows, index]), sign[rows, index])

    def test_both_oracles_return_integer_signs(self):
        # the row oracle's signs are int64, the one-row oracle's a Python int
        c = np.array([[-1.0, 2.0, 0.0]])
        assert lmo_rows(c)[1].dtype == np.int64
        assert type(lmo(L1Ball(3, 1.0), c[0]).sign) is int


class TestAwayDirection:
    def test_two_coordinate_boundary_example(self):
        ball = L1Ball(3, 1.0)
        d, ok = away(ball, np.array([[0.5, -0.5, 0.0]]), np.array([[1.0, -2.0, 0.0]]))
        assert ok.tolist() == [True]
        np.testing.assert_allclose(d[0], [0.5, 0.5, 0.0])

    def test_vertex_with_outward_pull_is_rejected(self):
        ball = L1Ball(2, 1.0)
        d, ok = away(ball, np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]]))
        assert ok.tolist() == [False]
        np.testing.assert_array_equal(d[0], [0.0, 0.0])

    def test_interior_point_uses_global_oracle(self):
        ball = L1Ball(2, 1.0)
        d, ok = away(ball, np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
        assert ok.tolist() == [True]
        np.testing.assert_allclose(d[0], [-1.0, 0.0])

    def test_accepted_directions_descend_and_fit_the_ball(self):
        rng = np.random.default_rng(33)
        ball = L1Ball(7, 2.0)
        x, g = [], []
        for _ in range(500):
            if rng.uniform() < 0.5:
                x.append(random_boundary_point(rng, ball, int(rng.integers(1, 8))))
            else:
                x.append(rng.uniform(-0.2, 0.2, size=7))
            g.append(rng.standard_normal(7))
        g = np.array(g)
        d, ok = away(ball, np.array(x), g)
        for r in np.flatnonzero(ok):
            assert float(g[r] @ d[r]) < 0.0
            assert np.sum(np.abs(d[r])) <= ball.diameter() + 1e-12
        assert ok.sum() > 100  # the sweep exercises the accepted branch

    def test_away_point_maximizes_over_face(self):
        # d = x - v where v attains max g @ v over the face's extreme points
        rng = np.random.default_rng(34)
        ball = L1Ball(5, 1.0)
        x, g = [], []
        for _ in range(300):
            x.append(random_boundary_point(rng, ball, int(rng.integers(1, 6))))
            g.append(rng.standard_normal(5))
        x, g = np.array(x), np.array(g)
        sign = face_rows(ball, x).sign
        d, _ = away(ball, x, g)
        for r in range(len(x)):
            best = max(float(g[r] @ _face_vertex(ball, sign[r], j))
                       for j in np.flatnonzero(sign[r]))
            v = x[r] - d[r]
            assert float(g[r] @ v) == pytest.approx(best, rel=1e-12, abs=1e-12)


def _face_vertex(ball, sign, j):
    v = np.zeros(ball.dim)
    v[j] = sign[j] * ball.radius
    return v


class TestMaxFeasibleStep:
    """The away cap: only the vertex's coordinate of ``x + a d`` can cross zero."""

    def test_in_face_cap_stops_at_first_sign_crossing(self):
        # away from the face vertex -e_1: x_1 reaches zero at a = 1 and binds
        ball = L1Ball(3, 1.0)
        d, ok, alpha, binds = away_cap(ball, np.array([[0.5, -0.5, 0.0]]),
                                       np.array([[0.0, -1.0, 0.0]]))
        np.testing.assert_array_equal(d, [[0.5, 0.5, 0.0]])
        assert ok.tolist() == [True] and alpha.tolist() == [1.0] and binds.tolist() == [True]

    def test_crossing_the_ball_from_one_side_to_the_other(self):
        # away from e_0 an interior point passes zero at a = 1 and the far sphere at a = 3
        ball = L1Ball(2, 1.0)
        d, ok, alpha, binds = away_cap(ball, np.array([[0.5, 0.0]]), np.array([[1.0, 0.0]]))
        np.testing.assert_array_equal(d, [[-0.5, 0.0]])
        assert ok.tolist() == [True] and alpha.tolist() == [3.0] and binds.tolist() == [False]

    def test_zero_direction_rejected(self):
        # at a vertex whose away vertex is itself d is 0: rejected, and its cap
        # is computed without a float warning
        ball = L1Ball(2, 1.0)
        x = np.array([[1.0, 0.0], [0.1, 0.0]])  # the interior row makes the interior formulas run
        with np.errstate(all="raise"):
            d, ok, _, _ = away_cap(ball, x, np.array([[1.0, 0.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(d[0], [0.0, 0.0])
        assert ok.tolist() == [False, True]

    def test_direction_touching_zero_set_rejected_in_face(self):
        # a boundary point with every coordinate within FACE_TOL of zero has an
        # empty support; the whole-ball vertex it backs off moves a zero coordinate
        ball = L1Ball(2000, 2e-9)
        x = np.full((1, 2000), 0.9999e-12)
        assert face_rows(ball, x).on_boundary.tolist() == [True]
        with pytest.raises(ValueError, match="must vanish on the zero set"):
            away_cap(ball, x, -np.ones((1, 2000)))

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(44)
        ball = L1Ball(6, 1.5)
        x = rng.uniform(-0.25, 0.25, size=(400, 6))
        x = x[[ball.contains(row, tol=0.0) for row in x]]
        d, ok, alphas, _ = away_cap(ball, x, rng.standard_normal(x.shape))
        assert ok.sum() > 100
        for xr, dr, alpha in zip(x[ok], d[ok], alphas[ok]):
            # bisection on ||x + a d||_1 - radius
            lo, hi = 0.0, 1.0
            while np.sum(np.abs(xr + hi * dr)) <= ball.radius:
                hi *= 2.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if np.sum(np.abs(xr + mid * dr)) <= ball.radius:
                    lo = mid
                else:
                    hi = mid
            assert alpha == pytest.approx(lo, rel=1e-12, abs=1e-12)

    def test_step_is_maximal(self):
        # feasible at the cap, infeasible (or sign-violating) just beyond it,
        # from boundary points (in-face caps) and interior points alike
        rng = np.random.default_rng(45)
        ball = L1Ball(5, 1.0)
        for in_face in (True, False):
            if in_face:
                x = np.array([random_boundary_point(rng, ball, int(rng.integers(2, 6)))
                              for _ in range(200)])
            else:
                x = rng.uniform(-0.15, 0.15, size=(200, 5))
            d, ok, alphas, _ = away_cap(ball, x, rng.standard_normal((200, 5)))
            sign = face_rows(ball, x).sign
            assert ok.sum() > 50
            for r in np.flatnonzero(ok):
                alpha = alphas[r]
                assert np.isfinite(alpha) and alpha >= 0.0
                assert ball.contains(x[r] + alpha * d[r], tol=1e-10)
                beyond = x[r] + (alpha + 1e-6) * d[r]
                if in_face:
                    crossed = bool(np.any(beyond * sign[r] < 0.0))
                    assert crossed or not ball.contains(beyond, tol=1e-10)
                else:
                    assert not ball.contains(beyond, tol=1e-10)
