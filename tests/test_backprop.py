"""Batched backprop against the single-sample reference, bit for bit.

`MLPProblem.gradient_mean` runs one forward and backward pass over the rows
of a batch, in chunks of `_CHUNK_ROWS`. `backprop_reference` keeps the
per-sample pass and in-order accumulation it replaced. Hypothesis draws
networks of 2-4 layers of width 1-40, both activations, both losses, bias on
and off, and batches of 1, 16, one chunk plus one and three chunks, drawn
with replacement from at most 40 rows so indices repeat. Gradients must agree
in their bytes.
"""

import tracemalloc

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import backprop_reference as ref
from fwsd.sparse_net import (
    _CHUNK_ROWS,
    Activation,
    Dataset,
    LayerParams,
    Loss,
    MLPProblem,
    MLPSpec,
    ParamLayout,
)

BATCH_SIZES = (1, 16, _CHUNK_ROWS + 1, 3 * _CHUNK_ROWS)

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def problems(draw):
    """A network, its layout, a small dataset and a parameter point."""
    n_layers = draw(st.integers(2, 4))
    sizes = tuple(draw(st.integers(1, 40)) for _ in range(n_layers + 1))
    fw_layers = tuple(l for l in range(n_layers) if draw(st.booleans()))
    spec = MLPSpec(layer_sizes=sizes,
                   activation=draw(st.sampled_from(list(Activation))),
                   loss=draw(st.sampled_from(list(Loss))),
                   fw_layers=fw_layers, deltas=(1.5,) * len(fw_layers),
                   bias=draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.7, 4.0]))  # 4.0 saturates sigmoids
    n = draw(st.integers(1, 40))
    features = rng.standard_normal((n, sizes[0]))
    features[0] = 0.0  # with bias off, relu pre-activations hit the kink exactly
    targets = rng.standard_normal((n, sizes[-1]))
    if spec.loss is Loss.SOFTMAX_CE:
        targets = np.abs(targets)
    problem = MLPProblem(spec=spec, layout=ParamLayout(spec), data=Dataset(features, targets))
    return problem, uniform_params(spec, rng, scale), rng


def uniform_params(spec, rng, scale=1.0):
    return [LayerParams(w=rng.uniform(-scale, scale, (spec.fan_out(l), spec.fan_in(l))),
                        b=rng.uniform(-scale, scale, spec.fan_out(l)) if spec.bias
                        else np.zeros(spec.fan_out(l)))
            for l in range(spec.n_layers)]


def assert_same_bytes(got_blocks, got_h, want_blocks, want_h):
    assert len(got_blocks) == len(want_blocks)
    for got, want in zip(got_blocks, want_blocks):
        assert got.tobytes() == want.tobytes()
    assert got_h.tobytes() == want_h.tobytes()


def reference_mean(problem, params, batch):
    data = problem.data
    return problem.layout.pack(
        ref.mean_gradient(problem.spec, params, data.features, data.targets, batch))


@SETTINGS
@given(problems(), st.sampled_from(BATCH_SIZES))
def test_gradient_mean_matches_reference(drawn, batch_size):
    problem, params, rng = drawn
    batch = rng.integers(0, problem.n_samples, size=batch_size)
    x_blocks, y = problem.layout.pack(params)
    est = problem.gradient_mean(x_blocks, y, batch)
    assert est.batch_size == batch_size
    assert_same_bytes(est.g_blocks, est.h, *reference_mean(problem, params, batch))


@SETTINGS
@given(problems())
def test_single_sample_is_batch_one(drawn):
    problem, params, rng = drawn
    i = int(rng.integers(problem.n_samples))
    x_blocks, y = problem.layout.pack(params)
    want = problem.layout.pack(ref.backprop(problem.spec, params, problem.data.features[i],
                                            problem.data.targets[i]))
    one = problem.gradient_mean(x_blocks, y, np.array([i]))
    assert one.batch_size == 1
    assert_same_bytes(one.g_blocks, one.h, *want)


def test_exact_gradient_matches_reference_over_full_dataset():
    rng = np.random.default_rng(6)
    spec = MLPSpec(layer_sizes=(9, 12, 8, 1), fw_layers=(0, 1), deltas=(1.0, 2.0))
    n = 3 * _CHUNK_ROWS + 5
    data = Dataset(rng.standard_normal((n, 9)), rng.standard_normal((n, 1)))
    problem = MLPProblem(spec=spec, layout=ParamLayout(spec), data=data)
    params = uniform_params(spec, rng)
    g_blocks, h = problem.exact_gradient(*problem.layout.pack(params))
    assert_same_bytes(g_blocks, h, *reference_mean(problem, params, np.arange(n)))


def test_exact_gradient_memory_is_bounded():
    # an unchunked pass over 20,000 rows holds ~200 MB of per-sample gradients
    rng = np.random.default_rng(7)
    spec = MLPSpec(layer_sizes=(20, 20, 20, 1), fw_layers=(0, 1), deltas=(1.0, 1.0))
    data = Dataset(rng.standard_normal((20_000, 20)), rng.standard_normal((20_000, 1)))
    problem = MLPProblem(spec=spec, layout=ParamLayout(spec), data=data)
    params = uniform_params(spec, rng)
    x_blocks, y = problem.layout.pack(params)
    tracemalloc.start()
    try:
        problem.exact_gradient(x_blocks, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"exact_gradient peaked at {peak / 2**20:.1f} MB"
