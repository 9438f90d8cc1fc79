"""Row-wise geometry against the per-block reference, bit for bit.

`fw_step` and `alt_step` step the rows of one group of blocks sharing a ball,
and `gap_estimate` regroups runs of consecutive such blocks itself; `_by_group`
calls a kernel once per set of blocks with an equal ball, wherever they sit,
so that the permuted layouts below still stack many rows per call.
`geometry_reference` keeps the per-block loop they replaced. Hypothesis
draws block sets of widths 1-600 and 1-50 rows per ball (at most 6000
coordinates per ball, so a 600-wide ball gets up to 10 rows), with mixed
radii, interleaved block order, interior points, boundary points,
points within 1e-12 of the sphere, exact vertices, -0.0 entries, gradients
with ties in |g|, and zero gradients (whose away directions are rejected).
Arrays must agree in their bytes and scalars in their hex form and Python
type.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import geometry_reference as ref
from fwsd.gap import GapConstants, InternalConsistencyError, gap_estimate
from fwsd.geometry import (
    FACE_TOL,
    IN_FACE_TOL,
    L1Ball,
    RowError,
    away_rows,
    ball_groups,
    blame_blocks,
    face_rows,
    lmo,
    regroup,
)
from fwsd.optimizer import OptimizerConfig, alt_step, fw_step, run
from fwsd.problems import GradientEstimate, make_quadratic

POINT_KINDS = ("interior", "boundary", "near", "vertex", "zero")
GRADIENT_KINDS = ("normal", "ties", "zero")

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def block_sets(draw):
    """Balls for every block, in interleaved order, plus a data seed."""
    balls = []
    dim = None
    for _ in range(draw(st.integers(1, 3))):
        if dim is None or draw(st.booleans()):
            dim = draw(st.integers(1, 600))
        rows = min(draw(st.integers(1, 50)), max(1, 6000 // dim))
        radius = draw(st.sampled_from([1.0, 0.5, 2.5, 1e-3, 37.0]))
        balls += [L1Ball(dim, radius)] * rows
    order = draw(st.permutations(range(len(balls))))
    return [balls[i] for i in order], draw(st.integers(0, 2**32 - 1))


def _point(rng, ball):
    dim, r = ball.dim, ball.radius
    kind = POINT_KINDS[rng.integers(len(POINT_KINDS))]
    x = np.zeros(dim)
    if kind == "vertex":
        x[rng.integers(dim)] = rng.choice([-1.0, 1.0]) * r
    elif kind in ("boundary", "near"):
        k = int(rng.integers(1, dim + 1))
        idx = rng.choice(dim, size=k, replace=False)
        w = rng.uniform(0.05, 1.0, size=k)
        x[idx] = rng.choice([-1.0, 1.0], size=k) * w / w.sum() * r
        if kind == "near":
            x *= (r + rng.uniform(-2e-12, 2e-12)) / r
    elif kind == "interior":
        x = rng.uniform(-1.0, 1.0, size=dim)
        x *= rng.uniform(0.05, 0.95) * r / max(np.sum(np.abs(x)), 1e-300)
    if rng.random() < 0.5:
        x[(x == 0.0) & (rng.random(dim) < 0.5)] = -0.0
    return x


def _gradient(rng, dim):
    kind = GRADIENT_KINDS[rng.integers(len(GRADIENT_KINDS))]
    if kind == "ties":
        g = rng.integers(-2, 3, size=dim).astype(np.float64)
    elif kind == "zero":
        g = np.zeros(dim)
    else:
        g = rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 2)
    if rng.random() < 0.5:
        g[(g == 0.0) & (rng.random(dim) < 0.5)] = -0.0
    return g


def _inputs(balls, seed):
    rng = np.random.default_rng(seed)
    x = [_point(rng, b) for b in balls]
    g = [_gradient(rng, b.dim) for b in balls]
    config = OptimizerConfig(
        l_nabla=1.0,
        c_bar_per_block=tuple(2.0 * b.diameter() ** 2 * rng.uniform(1.0, 50.0) for b in balls),
        iterations=1,
        seed=0,
        away_tol=float(rng.choice([1e-12, 1e-13, 1e-10])),
    )
    return x, g, config


def _bits(value):
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, bool):
        return value
    assert type(value) is float, f"{value!r} is not a Python float"
    return value.hex()


def _ref_bits(value):
    # the reference returns some scalars as np.float64
    if isinstance(value, (np.floating, float)) and not isinstance(value, bool):
        return float(value).hex()
    return _bits(value)


def _by_group(kernel, x, g, balls, config):
    """Call ``kernel`` once per distinct ball on all its blocks; per-block results in block order.

    ``x`` and ``g`` are stacked without a check, so the kernel's own checks run.
    """
    c_bar = np.asarray(config.c_bar_per_block)
    out = [None] * len(balls)
    for ball, idx in ref.groups_by_ball(balls):
        with blame_blocks(kernel.__name__, idx):
            x_m, g_m = (np.array([v[i] for i in idx.tolist()], dtype=np.float64) for v in (x, g))
            result = kernel(x_m, g_m, ball, c_bar[idx], config)
        for r, i in enumerate(idx.tolist()):
            out[i] = [part[r].item() if isinstance(part, np.ndarray) and part.ndim == 1
                      else part[r] for part in result]
    return tuple(zip(*out))


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except (ValueError, RuntimeError) as exc:
        return None, str(exc)


def _assert_same_failure(err, ref_err):
    assert (err is None) == (ref_err is None), (err, ref_err)
    if err is not None:
        assert err.startswith(ref_err.split(" came out")[0]), (err, ref_err)


@SETTINGS
@given(block_sets())
def test_fw_step_matches_reference(case):
    balls, seed = case
    x, g, config = _inputs(balls, seed)
    got, err = _outcome(_by_group, fw_step, x, g, balls, config)
    want, ref_err = _outcome(ref.fw_step, x, g, balls, config)
    _assert_same_failure(err, ref_err)
    if err is not None:
        return
    for got_part, want_part in zip(got, want):
        assert [_bits(v) for v in got_part] == [_ref_bits(v) for v in want_part]


@SETTINGS
@given(block_sets())
def test_alt_step_matches_reference(case):
    balls, seed = case
    x, g, config = _inputs(balls, seed)
    got, err = _outcome(_by_group, alt_step, x, g, balls, config)
    want, ref_err = _outcome(ref.alt_step, x, g, balls, config)
    _assert_same_failure(err, ref_err)
    if err is not None:
        return
    assert [_bits(v) for v in got[0]] == [_ref_bits(v) for v in want[0]]
    for info, want_info in zip(got[1], want[1]):
        fields = (info.taken, info.a_value, info.alpha_stop, info.beta_bar)
        want_fields = (want_info.taken, want_info.a_value, want_info.alpha_stop,
                       want_info.beta_bar)
        assert [_bits(v) for v in fields] == [_ref_bits(v) for v in want_fields]


@SETTINGS
@given(block_sets())
def test_gap_estimate_matches_reference(case):
    balls, seed = case
    x, g, _ = _inputs(balls, seed)
    constants = GapConstants(l_nabla=1.0, c_bar_total=float(len(balls)))
    est, err = _outcome(gap_estimate, x, g, np.zeros(2), balls, constants)
    want, ref_err = _outcome(ref.gap_g_tildes, x, g, balls)
    _assert_same_failure(err, ref_err)
    if err is None:
        assert [_bits(v) for v in est.g_tilde_blocks] == [_ref_bits(v) for v in want]


@SETTINGS
@given(block_sets())
def test_one_row_api_matches_reference(case):
    # each kernel on a one-row matrix is the per-block loop on that block
    balls, seed = case
    x, g, config = _inputs(balls, seed)
    for ball, xb, gb in list(zip(balls, x, g))[:8]:
        got, want = lmo(ball, gb), ref.lmo(ball, gb)
        assert (got.index, got.sign, _bits(got.value)) == (want.index, want.sign,
                                                           _bits(want.value))
        face = face_rows(ball, xb[None, :])
        assert ref.Face.from_rows(face.sign[0], face.on_boundary[0]) == ref.minimal_face(ball, xb)
        d, ok, _, index, (alpha,), (binds,) = away_rows(ball, xb[None, :], gb[None, :],
                                                      config.away_tol)
        want_d, want_ok = ref.away_direction(ball, xb, gb, config.away_tol)
        assert (_bits(d[0]), bool(ok[0])) == (_bits(want_d), want_ok)
        if ok[0]:
            want_alpha, want_binding = ref.in_face_step_cap(ball, xb, d[0])
            assert ((_bits(float(alpha)), (int(index[0]),) if binds else ())
                    == (_ref_bits(want_alpha), want_binding))


@SETTINGS
@given(block_sets())
def test_away_rows_cap_matches_reference_on_stacked_rows(case):
    # the closed form against the per-block breakpoint scan on every accepted
    # row of a stack; about a quarter of the rows are first pushed between
    # FACE_TOL and IN_FACE_TOL outside the sphere, where an interior row's ray
    # starts past the radius
    balls, seed = case
    x, g, config = _inputs(balls, seed)
    rng = np.random.default_rng(seed + 2)
    for i, ball in enumerate(balls):
        norm1 = np.sum(np.abs(x[i]))
        if norm1 > 0.0 and rng.random() < 0.25:
            x[i] = x[i] * ((ball.radius + rng.uniform(2.0 * FACE_TOL, 0.9 * IN_FACE_TOL)) / norm1)
    for ball, idx in ref.groups_by_ball(balls):
        x_m, g_m = (np.array([v[i] for i in idx.tolist()]) for v in (x, g))
        d, ok, _, index, caps, binds = away_rows(ball, x_m, g_m, config.away_tol)
        got = [(_bits(float(caps[r])), (int(index[r]),) if binds[r] else ())
               for r in np.flatnonzero(ok).tolist()]
        want = [ref.in_face_step_cap(ball, x_m[r], d[r]) for r in np.flatnonzero(ok).tolist()]
        assert got == [(_ref_bits(cap), binding) for cap, binding in want]


def test_sampler_reaches_every_branch():
    # rejected away steps, steps to a binding cap, steps short of the cap and
    # steps from interior rows all occur in the property tests' inputs
    seen = {"rejected": 0, "binding": 0, "interior": 0, "quotient": 0}
    rng = np.random.default_rng(0)
    for seed in rng.integers(0, 2**32 - 1, size=30):
        balls = [L1Ball(int(rng.integers(1, 40)), 1.0)] * 20
        x, g, config = _inputs(balls, int(seed))
        _, infos = alt_step(np.array(x), np.array(g), balls[0],
                            np.array(config.c_bar_per_block), replace(config, away_tol=1e-12))
        for xb, info in zip(x, infos):
            seen["rejected"] += not info.taken
            seen["binding"] += info.taken and info.beta_bar == info.alpha_stop
            seen["quotient"] += info.taken and info.beta_bar < info.alpha_stop
            seen["interior"] += info.taken and abs(np.sum(np.abs(xb)) - 1.0) > 1e-12
    assert min(seen.values()) > 0, seen


def test_alt_step_mixes_rejected_vertex_rows_silently():
    # row 0 is a vertex whose away vertex is itself (d == 0, rejected), row 1
    # an interior point and row 2 a boundary point whose cap binds; the cap runs
    # on every row without a float warning, and the vertex keeps its bytes
    ball = L1Ball(3, 1.0)
    x = np.array([[-0.0, 1.0, -0.0], [0.1, -0.2, 0.0], [0.5, -0.5, 0.0]])
    g = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    config = OptimizerConfig(l_nabla=1.0, c_bar_per_block=(1.0,) * 3, iterations=1, seed=0)
    with np.errstate(all="raise"):
        x_next, infos = alt_step(x, g, ball, np.full(3, 0.1), config)
    assert infos.taken.tolist() == [False, True, True]
    assert x_next[0].tobytes() == x[0].tobytes()
    assert infos.beta_bar[2] == infos.alpha_stop[2] == 1.0 and x_next[2, 1] == 0.0
    assert [infos.a_value[0], infos.alpha_stop[0], infos.beta_bar[0]] == [0.0, 0.0, 0.0]


# ------------------------------------------------------- loud failures


def _two_groups():
    balls = [L1Ball(3, 1.0), L1Ball(2, 1.0), L1Ball(3, 1.0), L1Ball(3, 1.0)]
    x = [np.zeros(b.dim) for b in balls]
    g = [np.ones(b.dim) for b in balls]
    config = OptimizerConfig(l_nabla=1.0, c_bar_per_block=(8.0,) * 4, iterations=1, seed=0)
    return balls, x, g, config


class _BadGradientCall:
    """Gradients of ones, except that pass ``bad_call`` (counted from 0) has a bad block.

    With away steps every iteration makes two passes, `fw_step`'s and then
    `alt_step`'s, so pass 2 is `fw_step`'s at iteration 1 and pass 3 `alt_step`'s.
    """

    def __init__(self, balls, bad_call, block, value):
        self.block_dims, self.y_dim = tuple(b.dim for b in balls), 1
        self.bad_call, self.block, self.value, self.calls = bad_call, block, value, 0

    def draw(self, rng, n):
        return n

    def gradient_mean(self, x_blocks, y, batch):
        g = [np.ones(d) for d in self.block_dims]
        if self.calls == self.bad_call:
            g[self.block] = self.value
        self.calls += 1
        return GradientEstimate(tuple(g), np.zeros(1), lambda: 0.0)


def _run_with_bad_gradient(bad_call, block, value):
    # blocks 0, 2 and 3 share a ball and block 1 has its own, so the groups
    # are the runs [0], [1] and [2, 3], and block 3 is the third group's row 1
    balls, x, _, config = _two_groups()
    config = replace(config, iterations=3, alternative_directions=True)
    run(_BadGradientCall(balls, bad_call, block, value), balls, np.zeros(1), x, config)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fw_step_names_block_with_non_finite_gradient(bad):
    with pytest.raises(ValueError, match=r"^g contains non-finite entries "
                                         r"\(block 3, in fw_step\) at iteration 1$"):
        _run_with_bad_gradient(2, 3, np.array([0.0, bad, 1.0]))


def test_alt_step_names_block_with_non_finite_input():
    balls, x, g, config = _two_groups()
    x_m = np.array([x[0], [0.1, np.nan, 0.0], x[3]])  # the group of blocks 0, 2 and 3
    with pytest.raises(ValueError,
                       match=r"^x_bar contains non-finite entries \(block 2, in alt_step\)$"):
        with blame_blocks("alt_step", [0, 2, 3]):
            alt_step(x_m, np.ones((3, 3)), balls[0], np.full(3, 8.0), config)
    with pytest.raises(ValueError, match=r"^g_check contains non-finite entries "
                                         r"\(block 1, in alt_step\) at iteration 1$"):
        _run_with_bad_gradient(3, 1, np.array([np.inf, 0.0]))


@pytest.mark.parametrize("kernel", [fw_step, alt_step])
def test_kernels_name_the_row_with_non_finite_gradient(kernel):
    # called directly, each kernel checks its gradient matrix itself
    _, _, _, config = _two_groups()
    g = np.ones((3, 3))
    g[2, 1] = np.nan
    name = "g" if kernel is fw_step else "g_check"
    with pytest.raises(RowError, match=rf"^{name} contains non-finite entries$") as info:
        kernel(np.zeros((3, 3)), g, L1Ball(3, 1.0), np.full(3, 8.0), config)
    assert info.value.row == 2
    with pytest.raises(RowError, match=rf"\(block 3, in {kernel.__name__}\)$"):
        with blame_blocks(kernel.__name__, [0, 2, 3]):
            kernel(np.zeros((3, 3)), g, L1Ball(3, 1.0), np.full(3, 8.0), config)


def test_in_face_cap_failure_names_the_group_row():
    # row 1 is a boundary point with every coordinate within FACE_TOL of zero:
    # its accepted away direction moves a zero coordinate, and the error names
    # the group row, which blame_blocks turns into the block
    ball = L1Ball(2000, 2e-9)
    x = np.zeros((2, 2000))
    x[1] = 0.9999e-12
    config = OptimizerConfig(l_nabla=1.0, c_bar_per_block=(8.0, 8.0), iterations=1, seed=0)
    with pytest.raises(RowError, match=r"^in-face direction must vanish on the zero set of "
                                       r"x_bar \(block 7, in alt_step\)$"):
        with blame_blocks("alt_step", [5, 7]):
            alt_step(x, -np.ones((2, 2000)), ball, np.array(config.c_bar_per_block), config)


def test_negative_gap_names_block():
    balls, x, g, config = _two_groups()
    x[2] = np.array([-5.0, 0.0, 0.0])  # infeasible, so g @ (x - v) < 0
    with pytest.raises(InternalConsistencyError, match=r"\(block 2, in fw_step\)"):
        _by_group(fw_step, x, g, balls, config)


def test_shape_error_names_block():
    with pytest.raises(ValueError, match=r"^g has shape \(4,\), expected \(3,\) "
                                         r"\(block 2, in fw_step\) at iteration 1$"):
        _run_with_bad_gradient(2, 2, np.ones(4))
    with pytest.raises(ValueError, match=r"^g_check has shape \(3,\), expected \(2,\) "
                                         r"\(block 1, in alt_step\) at iteration 1$"):
        _run_with_bad_gradient(3, 1, np.ones(3))


class _BlockCount:
    """Gradients of ones for blocks of width 3, ``count`` of them whatever the balls."""

    block_dims, y_dim = (3, 3), 1

    def __init__(self, count):
        self.count = count

    def draw(self, rng, n):
        return n

    def gradient_mean(self, x_blocks, y, batch):
        return GradientEstimate((np.ones(3),) * self.count, np.zeros(1), lambda: 0.0)


@pytest.mark.parametrize("count", [1, 3])
def test_wrong_gradient_block_count_names_step_and_iteration(count):
    balls = [L1Ball(3, 1.0)] * 2
    config = OptimizerConfig(l_nabla=1.0, c_bar_per_block=(8.0, 8.0), iterations=1, seed=0)
    with pytest.raises(ValueError, match=rf"^g holds {count} blocks, expected 2 "
                                         r"\(in fw_step\) at iteration 0$"):
        run(_BlockCount(count), balls, np.zeros(1), [np.zeros(3)] * 2, config)


def test_non_numeric_gradient_names_block():
    with pytest.raises(RowError, match=r"^x does not convert to float64: ") as info:
        regroup([np.array(["a", "b"])], [1], [2], "x")
    assert info.value.row == 0
    with pytest.raises(ValueError, match=r"^g does not convert to float64: .*"
                                         r"\(block 2, in fw_step\) at iteration 0$"):
        _run_with_bad_gradient(0, 2, np.array(["a", "b", "c"]))


def test_ball_groups_are_runs_of_equal_balls():
    a, b = L1Ball(3, 1.0), L1Ball(3, 2.0)
    groups = ball_groups([a, a, b, a])
    assert [(ball, idx.tolist()) for ball, idx in groups] == [(a, [0, 1]), (b, [2]), (a, [3])]
    # equal balls built separately are one run when adjacent
    assert [idx.tolist() for _, idx in ball_groups([L1Ball(2, 0.5), L1Ball(2, 0.5)])] == [[0, 1]]
    assert ball_groups([]) == []


def test_run_with_non_finite_gradient_fails_loudly():
    inst = make_quadratic(seed=0, p=(3, 2), q=1, l_nabla=1.0)
    inst.minimizer[1] = np.nan
    balls = [L1Ball(3, 1.0), L1Ball(2, 1.0)]
    config = OptimizerConfig(l_nabla=1.0, c_bar_per_block=(8.0, 8.0), iterations=2, seed=0)
    with pytest.raises(ValueError, match=r"non-finite entries \(block 0, in fw_step\)"):
        run(inst, balls, np.zeros(1), [np.zeros(3), np.zeros(2)], config)
