"""Row-wise geometry against the per-block reference, bit for bit.

`fw_step`, `alt_step` and `gap_estimate` stack the blocks that share a ball
and call one row-wise kernel per group. `geometry_reference` keeps the loop
they replaced. Hypothesis draws block sets of widths 1-600 and 1-50 rows
per ball (at most 6000 coordinates per ball, so a 600-wide ball gets up to
10 rows), with mixed radii and norms, interleaved block order, interior
points, boundary points, points within 1e-12 of the sphere, exact vertices,
-0.0 entries, gradients with ties in |g|, and zero gradients (whose away
directions are rejected). Arrays must agree in their bytes and scalars in
their hex form and Python type.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import geometry_reference as ref
from fwsd.gap import GapConstants, InternalConsistencyError, gap_estimate
from fwsd.geometry import (
    L1Ball,
    Norm,
    away_rows,
    ball_cap_rows,
    ball_groups,
    face_rows,
    in_face_step_cap_rows,
    lmo_rows,
    stack_rows,
)
from fwsd.optimizer import OptimizerConfig, alt_step, fw_step, run
from fwsd.problems import make_quadratic

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
        balls += [L1Ball(dim, radius, draw(st.sampled_from(list(Norm))))] * rows
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
        alpha_clamp=bool(rng.random() < 0.7),
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
    got, err = _outcome(fw_step, x, g, balls, config)
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
    got, err = _outcome(alt_step, x, g, balls, config)
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
    rng = np.random.default_rng(seed + 1)
    for ball, xb, gb in list(zip(balls, x, g))[:8]:
        index, sign, value = lmo_rows(ball, gb[None, :])
        want = ref.lmo(ball, gb)
        assert (index[0], sign[0], _bits(value[0])) == (want.index, want.sign,
                                                        _bits(want.value))
        face = face_rows(ball, xb[None, :])
        assert ref.Face.from_rows(face[0][0], face[1][0]) == ref.minimal_face(ball, xb)
        d, ok, _ = away_rows(ball, xb[None, :], gb[None, :], *face, config.away_tol)
        want_d, want_ok = ref.away_direction(ball, xb, gb, config.away_tol)
        assert (_bits(d[0]), bool(ok[0])) == (_bits(want_d), want_ok)
        if ok[0]:
            cap = _outcome(in_face_step_cap_rows, ball, xb[None, :], d, *face)
            want_cap = _outcome(ref.in_face_step_cap, ball, xb, d[0])
            _assert_same_failure(cap[1], want_cap[1])
            if cap[1] is None:
                (alpha,), (binding,) = cap[0]
                assert ((_bits(float(alpha)), tuple(np.flatnonzero(binding).tolist()))
                        == (_ref_bits(want_cap[0][0]), want_cap[0][1]))
        # a general direction: many kinks for the interior breakpoint scan
        direction = _gradient(rng, ball.dim)
        if np.any(direction != 0.0):
            got = ball_cap_rows(ball, xb[None, :], direction[None, :])[0]
            assert _bits(float(got)) == _ref_bits(ref._ball_cap(ball, xb, direction))


@SETTINGS
@given(block_sets())
def test_ball_cap_rows_matches_reference_on_stacked_rows(case):
    # general directions cross zero at a different number of kinks in each
    # row, so rows of one stack pad their kink columns differently, and a
    # row whose norm never passes the radius at a kink extrapolates from
    # its own last kink
    balls, seed = case
    x, _, _ = _inputs(balls, seed)
    rng = np.random.default_rng(seed + 2)
    d = [_gradient(rng, b.dim) for b in balls]
    for ball, idx in ball_groups(balls):
        idx = np.array([i for i in idx.tolist() if np.any(d[i] != 0.0)], dtype=np.int64)
        if idx.size == 0:
            continue
        caps = ball_cap_rows(ball, stack_rows(x, idx, ball.dim, "x"),
                             stack_rows(d, idx, ball.dim, "d"))
        assert ([_bits(float(c)) for c in caps]
                == [_ref_bits(ref._ball_cap(ball, x[i], d[i])) for i in idx.tolist()])


def test_sampler_reaches_every_branch():
    # rejected and accepted away steps, binding caps, interior caps and
    # clamped Frank-Wolfe steps all occur in the property tests' inputs
    seen = {"rejected": 0, "binding": 0, "interior": 0, "quotient": 0}
    rng = np.random.default_rng(0)
    for seed in rng.integers(0, 2**32 - 1, size=30):
        balls = [L1Ball(int(rng.integers(1, 40)), 1.0)] * 20
        x, g, config = _inputs(balls, int(seed))
        _, infos = alt_step(x, g, balls, replace(config, away_tol=1e-12))
        for xb, info in zip(x, infos):
            seen["rejected"] += not info.taken
            seen["binding"] += info.taken and info.beta_bar == info.alpha_stop
            seen["quotient"] += info.taken and info.beta_bar < info.alpha_stop
            seen["interior"] += info.taken and abs(np.sum(np.abs(xb)) - 1.0) > 1e-12
    assert min(seen.values()) > 0, seen


# ------------------------------------------------------- loud failures


def _two_groups():
    balls = [L1Ball(3, 1.0), L1Ball(2, 1.0), L1Ball(3, 1.0), L1Ball(3, 1.0)]
    x = [np.zeros(b.dim) for b in balls]
    g = [np.ones(b.dim) for b in balls]
    config = OptimizerConfig(l_nabla=1.0, c_bar_per_block=(8.0,) * 4, iterations=1, seed=0)
    return balls, x, g, config


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fw_step_names_block_with_non_finite_gradient(bad):
    balls, x, g, config = _two_groups()
    g[3] = np.array([0.0, bad, 1.0])
    with pytest.raises(ValueError, match=r"g contains non-finite entries \(block 3, in fw_step\)"):
        fw_step(x, g, balls, config)


def test_alt_step_names_block_with_non_finite_input():
    balls, x, g, config = _two_groups()
    x[2] = np.array([0.1, np.nan, 0.0])
    with pytest.raises(ValueError,
                       match=r"x_bar contains non-finite entries \(block 2, in alt_step\)"):
        alt_step(x, g, balls, config)
    balls, x, g, config = _two_groups()
    g[1] = np.array([np.inf, 0.0])
    with pytest.raises(ValueError,
                       match=r"g_check contains non-finite entries \(block 1, in alt_step\)"):
        alt_step(x, g, balls, config)


def test_negative_gap_names_block():
    balls, x, g, config = _two_groups()
    x[2] = np.array([-5.0, 0.0, 0.0])  # infeasible, so g @ (x - v) < 0
    with pytest.raises(InternalConsistencyError, match=r"\(block 2, in fw_step\)"):
        fw_step(x, g, balls, config)


def test_shape_error_names_block():
    balls, x, g, config = _two_groups()
    g[2] = np.ones(4)
    with pytest.raises(ValueError, match=r"g has shape \(4,\), expected \(3,\) \(block 2, in fw_step\)"):
        fw_step(x, g, balls, config)


def test_run_with_non_finite_gradient_fails_loudly():
    inst = make_quadratic(seed=0, p=(3, 2), q=1, l_nabla=1.0)
    inst.minimizer[1] = np.nan
    balls = [L1Ball(3, 1.0), L1Ball(2, 1.0)]
    config = OptimizerConfig(l_nabla=1.0, c_bar_per_block=(8.0, 8.0), iterations=2, seed=0)
    with pytest.raises(ValueError, match=r"non-finite entries \(block 0, in fw_step\)"):
        run(inst, balls, np.zeros(1), [np.zeros(3), np.zeros(2)], config)
