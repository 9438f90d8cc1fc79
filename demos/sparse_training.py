"""Sparsity comparison on a synthetic teacher network.

Trains the same small network three ways: constrained hybrid with away
steps, constrained hybrid without them, and unconstrained steepest
descent. Prints the percentage of per-node incoming weights above the
reporting threshold for the two constrained layers, the test loss, and a
hard-threshold sweep of the sparsest model. The run matches one seed of
the acceptance study; note the sweep can cut the away-step model to one
percent of its weights without hurting the test loss.
"""

from fwsd.geometry import Norm
from fwsd.optimizer import BatchSchedule, OptimizerConfig, run
from fwsd.sparse_net import (
    Activation,
    Loss,
    MLPProblem,
    MLPSpec,
    SynthSpec,
    evaluate,
    generate_synthetic,
    hard_threshold,
    init_params,
    nnz_metrics,
)

SIZES = (20, 20, 20, 1)
DELTA = 1.0
ITERS = 2000
BATCH = 16
SEED = 0

synth = SynthSpec(layer_sizes=SIZES, m=5, snr=10.0,
                  activation=Activation.SIGMOID, train_size=2000,
                  val_size=200, test_size=2000, seed=SEED)
train, _, test, _ = generate_synthetic(synth)
print(f"teacher: {SIZES} sigmoid net, 5 incoming edges per node, snr 10")
print(f"data: {train.features.shape[0]} train / {test.features.shape[0]} test rows")
print()

# step constants per method, picked by validation loss on a small grid
methods = (("sfw-if", 0.7), ("sfw", 1.0), ("sgd", 1.0))
metric_spec = MLPSpec(layer_sizes=SIZES, activation=Activation.SIGMOID,
                      loss=Loss.MSE, fw_layers=(0, 1),
                      deltas=(DELTA, DELTA), bias=True)

results = {}
print(f"{'method':8s} {'nnz layer 0':>12s} {'nnz layer 1':>12s} {'test mse':>10s}")
for method, l_nabla in methods:
    constrained = method != "sgd"
    spec = MLPSpec(layer_sizes=SIZES, activation=Activation.SIGMOID,
                   loss=Loss.MSE,
                   fw_layers=(0, 1) if constrained else (),
                   deltas=(DELTA, DELTA) if constrained else (),
                   bias=True)
    problem = MLPProblem(spec=spec, data=train)
    layout = problem.layout
    balls = layout.balls()
    x0, y0 = layout.pack(init_params(spec, SEED))
    config = OptimizerConfig(
        l_nabla=l_nabla,
        c_bar_per_block=tuple(2.0 * l_nabla * b.diameter() ** 2 for b in balls),
        iterations=ITERS,
        seed=SEED,
        batch_schedule=BatchSchedule.constant(BATCH),
        alternative_directions=(method == "sfw-if"),
        norm_y=Norm.L2,
    )
    res = run(problem, balls, y0, list(x0), config)
    final = res.final_iterate
    params = layout.unpack(list(final.x_blocks), final.y)
    nnz = nnz_metrics(params, metric_spec)
    mse = evaluate(metric_spec, params, test)["loss"]
    results[method] = params
    print(f"{method:8s} {nnz[0]:11.1f}% {nnz[1]:11.1f}% {mse:10.4f}")

print()
print("hard-threshold sweep of the away-step model (keep top theta% weights):")
print(f"{'theta':>6s} {'test mse':>12s}")
for theta in (100.0, 25.0, 10.0, 5.0, 2.0, 1.0):
    cut = hard_threshold(results["sfw-if"], metric_spec, theta)
    mse = evaluate(metric_spec, cut, test)["loss"]
    print(f"{theta:6.0f} {mse:12.6f}")
