"""`batch_sum` against a Python left fold, byte for byte.

Both gradient paths (`QuadraticInstance.gradient_mean` and `sparse_net._backprop`)
sum a batch with `fwsd.geometry.batch_sum`, and every gradient digest rests on that
sum being the sequential fold ``a[0] + a[1] + ...``. Hypothesis draws batches of
1-40 rows of widths 1-50 (and row shapes of two axes), with signed zeros,
subnormals and values near the float64 maximum (so partial sums overflow), in C
order, in Fortran order and as strided views.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fwsd.geometry import batch_sum

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1.7e308, -1.7e308, 1.0, -1.0])


@st.composite
def batches(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    shape = (n, draw(st.integers(1, 50)))
    if draw(st.booleans()):
        shape += (draw(st.integers(1, 4)),)
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    special = rng.random(shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    a[special] = rng.choice(SPECIAL, size=int(special.sum()))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        a = np.asfortranarray(a)
    elif layout == "strided":  # every other row and column of a larger array
        big = np.zeros((2 * n,) + tuple(2 * s for s in shape[1:]))
        big[(slice(None, None, 2),) * len(shape)] = a
        a = big[(slice(None, None, 2),) * len(shape)]
    return a


def _left_fold(a):
    acc = a[0].copy()
    for row in a[1:]:
        acc = acc + row
    return acc


@SETTINGS
@given(batches())
def test_batch_sum_is_the_left_fold(a):
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = batch_sum(a), _left_fold(a)
    assert got.shape == want.shape == a.shape[1:]
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def test_batch_of_one_keeps_negative_zero():
    # np.add.reduce without initial=-0.0 returns +0.0 here
    got = batch_sum(np.array([[-0.0, 1.0, -0.0]]))
    assert np.signbit(got).tolist() == [True, False, True]
