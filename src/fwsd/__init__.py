"""Stochastic Frank-Wolfe / steepest-descent hybrid over l1-ball blocks.

The optimizer treats some coordinate blocks with projection-free
Frank-Wolfe steps on l1 balls (plus optional in-face away steps that
drive coordinates exactly to zero) and the remaining variables with
normalized steepest descent, all from one shared stochastic gradient
batch per iteration. A certified duality-gap estimator drives the
convergence diagnostics.
"""

from .gap import (
    GapConstants,
    GapEstimate,
    InternalConsistencyError,
    dual_norm,
    exact_gap,
    gap_estimate,
)
from .geometry import (
    L1Ball,
    Norm,
    Vertex,
    lmo,
)
from .optimizer import (
    AltStepInfo,
    BatchSchedule,
    Iterate,
    OptimizerConfig,
    RngStreams,
    RunResult,
    TraceRecord,
    alt_step,
    derive_rng_streams,
    fw_step,
    iterates_digest,
    run,
    sd_step,
)
from .problems import (
    GradientEstimate,
    QuadraticInstance,
    StochasticProblem,
    finite_difference_check,
    make_quadratic,
)
from .sparse_net import (
    Activation,
    Dataset,
    LayerParams,
    Loss,
    MLPProblem,
    MLPSpec,
    ParamLayout,
    SynthSpec,
    evaluate,
    forward,
    generate_synthetic,
    hard_threshold,
    init_params,
    load_dataset_bin,
    load_dataset_csv,
    loss_value,
    nnz_metrics,
    save_dataset_bin,
    save_dataset_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Activation",
    "AltStepInfo",
    "BatchSchedule",
    "Dataset",
    "GapConstants",
    "GapEstimate",
    "GradientEstimate",
    "InternalConsistencyError",
    "Iterate",
    "L1Ball",
    "LayerParams",
    "Loss",
    "MLPProblem",
    "MLPSpec",
    "Norm",
    "OptimizerConfig",
    "ParamLayout",
    "QuadraticInstance",
    "RngStreams",
    "RunResult",
    "StochasticProblem",
    "SynthSpec",
    "TraceRecord",
    "Vertex",
    "alt_step",
    "derive_rng_streams",
    "dual_norm",
    "evaluate",
    "exact_gap",
    "finite_difference_check",
    "forward",
    "fw_step",
    "gap_estimate",
    "generate_synthetic",
    "hard_threshold",
    "init_params",
    "iterates_digest",
    "lmo",
    "load_dataset_bin",
    "load_dataset_csv",
    "loss_value",
    "make_quadratic",
    "nnz_metrics",
    "run",
    "save_dataset_bin",
    "save_dataset_csv",
    "sd_step",
    "__version__",
]
