"""Blocks in any cut give the same bytes, and `regroup` cuts without copying where it can.

A cut is how the blocks' rows sit in arrays: one 1-D array per block, one
matrix per run of consecutive blocks sharing a ball (what `run` holds), or,
for a network, one weight matrix per constrained layer (what
`ParamLayout.pack` returns). Hypothesis draws quadratic and network layouts;
every cut of one point must give byte-identical gradients, objectives and
gaps, and for networks byte-identical unpacked parameters. `regroup` must
return a view exactly when a target matrix lies inside one input array.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fwsd.gap import GapConstants, gap_estimate
from fwsd.geometry import L1Ball, ball_groups, regroup
from fwsd.problems import make_quadratic
from fwsd.sparse_net import Dataset, LayerParams, MLPProblem, MLPSpec, ParamLayout

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _runs(blocks, balls):
    """The blocks as `run` holds them: one stacked matrix per run of equal balls."""
    return [np.array([blocks[i] for i in idx.tolist()]) for _, idx in ball_groups(balls)]


def _outcome(problem, x, y, batch, balls):
    """Every result a cut can change, as bytes and hex, in block order."""
    def flat(est_blocks, h):
        return np.concatenate([np.ravel(g) for g in est_blocks] + [h]).tobytes()

    est = problem.gradient_mean(x, y, batch)
    exact = problem.exact_gradient(x, y)
    constants = GapConstants(l_nabla=1.0, c_bar_total=float(len(balls)) + 1.0)
    gap = gap_estimate(x, est.g_blocks, est.h, balls, constants)
    return (flat(est.g_blocks, est.h), float(est.objective()).hex(), flat(*exact),
            float(problem.exact_objective(x, y)).hex(),
            [v.hex() for v in gap.g_tilde_blocks], gap.value.hex())


@SETTINGS
@given(st.integers(0, 2**32 - 1))
def test_quadratic_results_do_not_depend_on_the_cut(seed):
    rng = np.random.default_rng(seed)
    palette = [L1Ball(int(rng.integers(1, 6)), float(rng.choice([1.0, 0.3])))
               for _ in range(rng.integers(1, 4))]
    balls = [palette[i] for i in rng.integers(0, len(palette), size=rng.integers(1, 7))]
    blocks = [rng.uniform(-1.0, 1.0, b.dim) * b.radius / b.dim for b in balls]
    q = int(rng.integers(1, 4))
    inst = make_quadratic(seed=seed % 10_000, p=tuple(b.dim for b in balls), q=q,
                          l_nabla=1.0, noise_sigma=1.0)
    y = rng.uniform(-1.0, 1.0, q)
    batch = inst.draw(rng, int(rng.integers(1, 5)))
    runs = _runs(blocks, balls)
    assert _outcome(inst, runs, y, batch, balls) == _outcome(inst, blocks, y, batch, balls)
    # the quadratic returns its gradient in the cut it was given
    assert ([g.shape for g in inst.gradient_mean(runs, y, batch).g_blocks]
            == [m.shape for m in runs])


@SETTINGS
@given(st.integers(0, 2**32 - 1))
def test_network_results_do_not_depend_on_the_cut(seed):
    rng = np.random.default_rng(seed)
    sizes = tuple(int(s) for s in rng.integers(1, 6, size=rng.integers(3, 6)))
    n_layers = len(sizes) - 1
    fw_layers = tuple(l for l in range(n_layers) if rng.random() < 0.6)
    spec = MLPSpec(layer_sizes=sizes, fw_layers=fw_layers,
                   deltas=tuple(float(rng.choice([1.0, 1.5])) for _ in fw_layers),
                   bias=bool(rng.random() < 0.5))
    layout = ParamLayout(spec)
    params = []
    for l in range(n_layers):
        w = rng.uniform(-1.0, 1.0, (spec.fan_out(l), spec.fan_in(l)))
        if l in fw_layers:  # feasible rows, so the gap is defined
            w *= 0.9 * spec.delta_for(l) / np.abs(w).sum(axis=1).max()
        params.append(LayerParams(w, rng.uniform(-1.0, 1.0, spec.fan_out(l))))
    data = Dataset(rng.standard_normal((5, sizes[0])), rng.standard_normal((5, sizes[-1])))
    problem = MLPProblem(spec=spec, data=data)
    layers, y = layout.pack(params)
    balls = layout.balls()
    blocks = [row for w in layers for row in w]
    batch = rng.integers(0, 5, size=4)
    cuts = [blocks, _runs(blocks, balls), layers]
    outcomes = [_outcome(problem, x, y, batch, balls) for x in cuts]
    assert outcomes[1:] == outcomes[:1] * 2
    unpacked = [[(p.w.tobytes(), p.b.tobytes()) for p in layout.unpack(x, y)] for x in cuts]
    assert unpacked[1:] == unpacked[:1] * 2


@SETTINGS
@given(st.integers(0, 2**32 - 1))
def test_regroup_views_exactly_the_matrices_inside_one_array(seed):
    rng = np.random.default_rng(seed)
    heights = [int(h) for h in rng.integers(1, 5, size=rng.integers(1, 5))]
    dims = [int(d) for d in rng.integers(1, 4, size=len(heights))]
    widths = [d for h, d in zip(heights, dims) for _ in range(h)]
    # cut the blocks into input arrays: runs of equal width, each a matrix
    # or, for a single block, sometimes a 1-D array
    inputs, spans, at = [], [], 0
    while at < len(widths):
        end = at + 1
        while end < len(widths) and widths[end] == widths[at] and rng.random() < 0.7:
            end += 1
        a = rng.standard_normal((end - at, widths[at]))
        inputs.append(a[0] if end - at == 1 and rng.random() < 0.5 else a)
        spans.append((at, end))
        at = end
    blocks = [row for a in inputs for row in np.atleast_2d(a)]
    mats = regroup(inputs, heights, dims, "x")
    start = 0
    for m, h, d in zip(mats, heights, dims):
        assert m.dtype == np.float64 and m.shape == (h, d)
        assert m.tobytes() == np.array(blocks[start:start + h]).tobytes()
        inside = any(s <= start and start + h <= e for s, e in spans)
        assert any(np.shares_memory(m, a) for a in inputs) == inside
        start += h
