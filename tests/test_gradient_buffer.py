"""The network gradient is one buffer, answered in the caller's cut.

`sparse_net._backprop` writes each sample's whole gradient as one row of a
buffer whose columns follow `ParamLayout.pack` order and folds the rows in
one reduction; `MLPProblem.gradient_mean` returns views of the mean cut like
the ``x_blocks`` it was given. The gradient must equal the single-sample
reference of `backprop_reference` in its bytes whether the blocks come as
`pack` cuts them (one matrix per constrained layer) or as `run` holds them
(one matrix per group), and `run`'s regrouped gradient must be the problem's
own memory, not a copy.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import fwsd.optimizer
from fwsd.geometry import group_layout, regroup
from fwsd.optimizer import OptimizerConfig, run
from fwsd.sparse_net import Dataset, MLPProblem, MLPSpec, ParamLayout, init_params
from test_backprop import BATCH_SIZES, SETTINGS, problems, reference_mean


def _flat_bytes(blocks, h):
    return np.concatenate([np.ravel(b) for b in blocks] + [h]).tobytes()


@SETTINGS
@given(problems(), st.sampled_from(BATCH_SIZES))
def test_gradient_matches_reference_in_layer_and_group_cuts(drawn, batch_size):
    problem, params, rng = drawn
    batch = rng.integers(0, problem.n_samples, size=batch_size)
    layers, y = problem.layout.pack(params)
    _, heights, dims = group_layout(problem.layout.balls())
    want = _flat_bytes(*reference_mean(problem, params, batch))
    for x in (layers, regroup(layers, heights, dims, "x")):
        est = problem.gradient_mean(x, y, batch)
        assert [g.shape for g in est.g_blocks] == [m.shape for m in x]
        assert _flat_bytes(est.g_blocks, est.h) == want


class _Recording:
    """An `MLPProblem` that keeps every `GradientEstimate` it returns."""

    def __init__(self, problem):
        self.problem, self.answers = problem, []
        self.block_dims, self.y_dim, self.draw = problem.block_dims, problem.y_dim, problem.draw

    def gradient_mean(self, x_blocks, y, batch):
        self.answers.append(self.problem.gradient_mean(x_blocks, y, batch))
        return self.answers[-1]


def test_run_regroups_the_network_gradient_without_a_copy(monkeypatch):
    # layers 0 and 1 share one 40-row group, so a gradient cut per layer is copied
    spec = MLPSpec(layer_sizes=(20, 20, 20, 1), fw_layers=(0, 1), deltas=(1.0, 1.0))
    rng = np.random.default_rng(3)
    layout = ParamLayout(spec)
    problem = _Recording(MLPProblem(spec, Dataset(rng.standard_normal((50, 20)),
                                                  rng.standard_normal((50, 1)))))
    regrouped = []

    def recording_regroup(x, heights, dims, name):
        out = regroup(x, heights, dims, name)
        if name in ("g", "g_check"):
            regrouped.append(out)
        return out

    monkeypatch.setattr(fwsd.optimizer, "regroup", recording_regroup)
    balls = layout.balls()
    config = OptimizerConfig(l_nabla=1.0, c_bar_per_block=(8.0,) * len(balls), iterations=3,
                             seed=0, alternative_directions=True)
    x0, y0 = layout.pack(init_params(spec, 0))
    run(problem, balls, y0, x0, config)
    assert len(problem.answers) == len(regrouped) == 6
    for est, (g,) in zip(problem.answers, regrouped):
        assert np.shares_memory(g, est.g_blocks[0])
        assert est.h.base is g.base, "the blocks and the free part are one buffer"
