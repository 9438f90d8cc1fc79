"""Command-line harness: config, orchestration, trace CSVs and reports.

Subcommands
-----------
``train``            optimize a quadratic, a synthetic teacher net, or a
                     dataset file; writes a trace CSV, a checkpoint, and a
                     key-value report.
``threshold-eval``   load a checkpoint, hard-threshold the constrained
                     layers at several percentages, evaluate each.
``synth``            sample a sparse teacher network and write train /
                     validation / test splits plus the teacher itself.
``gap-trace``        recompute the trailing moving average of ``gap_hat``
                     from an existing trace CSV.
``grid``             cross-validate over curvature and radius grids.

Configuration is a flat ``key = value`` text file with a typed schema;
every key is mirrored by a ``--key`` flag that overrides the file. Exit
codes: 0 success, 1 config error, 2 runtime error. File formats and epoch
sampling live in `fwsd.sparse_net`; calls to them go through this module's
names, which perfbench/tracer.py patches and perfbench/worker.py calls.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import sys
import time
from dataclasses import dataclass, fields, replace
from typing import Callable, Sequence

import numpy as np

from .geometry import L1Ball, Norm, nnz_rows
from .optimizer import BatchSchedule, OptimizerConfig, RunResult, TraceRecord, run
from .problems import make_quadratic
from .sparse_net import (
    Activation,
    _DATASET_MAGIC,
    Dataset,
    EpochSampling,
    Loss,
    MLPProblem,
    MLPSpec,
    SynthSpec,
    _check_widths,
    _nnz_percentages,
    evaluate,
    generate_synthetic,
    hard_threshold,
    init_params,
    load_dataset_bin,
    load_dataset_csv,
    load_net_checkpoint,
    nnz_metrics,
    save_checkpoint,
    save_dataset_bin,
    save_dataset_csv,
    save_net_checkpoint,
)

#: thresholding percentages reported after every network training run
REPORT_THETAS = (100.0, 50.0, 25.0, 10.0, 5.0)


class ConfigError(ValueError):
    """Bad configuration: unknown keys, type errors, inconsistent values, unopenable inputs."""


@contextlib.contextmanager
def _reading(what: str):
    """An input file the block cannot open or read is a ConfigError; the OSError names it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from None


# --------------------------------------------------------------------------
# configuration schema


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, schema-checked experiment description.

    ``iterations`` is the gradient-batch budget: methods that spend two
    batches per iteration run half as many iterations.
    """

    problem: str = "synthetic-net"
    method: str = "sfw"
    seed: int = 0
    iterations: int = 0
    batch_schedule: str = OptimizerConfig.batch_schedule.kind
    batch_size: int = OptimizerConfig.batch_schedule.size
    l_nabla: float = 1.0
    norm_y: str = OptimizerConfig.norm_y.value
    smoothing_window: int = 50
    epoch_sampling: bool = False
    layer_sizes: tuple[int, ...] = (20, 20, 20, 1)
    activation: str = MLPSpec.activation.value
    loss: str = MLPSpec.loss.value
    fw_layers: tuple[int, ...] = (0, 1)
    deltas: tuple[float, ...] = (1.0, 1.0)
    bias: bool = MLPSpec.bias
    dataset: str = ""
    val_dataset: str = ""
    test_dataset: str = ""
    dataset_format: str = "bin"
    synth_m: int = SynthSpec.m
    snr: float = SynthSpec.snr
    train_size: int = 2000
    val_size: int = 500
    test_size: int = 2000
    quad_blocks: tuple[int, ...] = (4, 4)
    quad_y: int = 4
    quad_sigma: float = 0.0
    grid_l_nabla: tuple[float, ...] = ()
    grid_delta: tuple[float, ...] = ()
    out_prefix: str = "run"


_CHOICES = {
    "problem": ("quadratic", "synthetic-net", "dataset"),
    "method": ("sfw", "sfw-if", "sgd"),
    "batch_schedule": BatchSchedule.KINDS,
    "norm_y": tuple(n.value for n in Norm),
    "activation": tuple(a.value for a in Activation),
    "loss": tuple(loss.value for loss in Loss),
    "dataset_format": ("bin", "csv"),
}

#: config key -> annotation string, on which ``_coerce`` dispatches
_KINDS = {f.name: f.type for f in fields(ExperimentConfig)}


def _fmt(value) -> str:
    """Render a config or metric value the way config files spell it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _coerce(key: str, raw: str):
    kind = _KINDS[key]
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw not in ("true", "false"):
                raise ValueError("expected true or false")
            return raw == "true"
        if kind == "tuple[int, ...]":
            return tuple(int(p) for p in raw.split(",") if p.strip())
        if kind == "tuple[float, ...]":
            return tuple(float(p) for p in raw.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"config key '{key}': {exc}") from None
    if key in _CHOICES and raw not in _CHOICES[key]:
        raise ConfigError(f"config key '{key}' must be one of {', '.join(_CHOICES[key])}")
    return raw


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment."""
    pairs: dict[str, str] = {}
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {number}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in pairs:
            raise ConfigError(f"line {number}: duplicate key '{key}'")
        pairs[key] = value.strip()
    return pairs


def load_config(path: str | None, overrides: dict[str, str]) -> ExperimentConfig:
    pairs: dict[str, str] = {}
    if path:
        with _reading("config file"), open(path, "r", encoding="utf-8") as fh:
            pairs = parse_config_text(fh.read())
    pairs.update({k: v for k, v in overrides.items() if v is not None})
    values = {}
    for key, raw in pairs.items():
        if key not in _KINDS:
            raise ConfigError(f"unknown config key '{key}'")
        values[key] = _coerce(key, raw)
    config = ExperimentConfig(**values)
    _validate_config(config)
    return config


def _validate_config(c: ExperimentConfig) -> None:
    for key, kind in _KINDS.items():
        if kind in ("float", "tuple[float, ...]") and np.isnan(getattr(c, key)).any():
            raise ConfigError(f"{key} must not be NaN")
    # snr = inf is legal: noiseless targets
    for key in ("l_nabla", "deltas", "quad_sigma"):
        if np.isinf(getattr(c, key)).any():
            raise ConfigError(f"{key} must be finite")
    if c.iterations < 0:
        raise ConfigError("iterations must be nonnegative")
    if c.batch_size < 1:
        raise ConfigError("batch_size must be at least 1")
    if c.l_nabla <= 0.0:
        raise ConfigError("l_nabla must be positive")
    if c.smoothing_window < 1:
        raise ConfigError("smoothing_window must be at least 1")
    if any(s < 1 for s in c.layer_sizes) or len(c.layer_sizes) < 2:
        raise ConfigError("layer_sizes needs at least two positive entries")
    if any(d <= 0.0 for d in c.deltas):
        raise ConfigError("deltas must be positive")
    if c.snr <= 0.0:
        raise ConfigError("snr must be positive")
    if c.synth_m < 1:
        raise ConfigError("synth_m must be at least 1")
    if min(c.train_size, c.val_size, c.test_size) < 2:
        raise ConfigError("train_size, val_size and test_size must be at least 2")
    if any(d < 1 for d in c.quad_blocks) or c.quad_y < 0:
        raise ConfigError("quad_blocks must be positive and quad_y nonnegative")
    if c.quad_sigma < 0.0:
        raise ConfigError("quad_sigma must be nonnegative")
    for key in ("grid_l_nabla", "grid_delta"):
        if not all(0.0 < v < float("inf") for v in getattr(c, key)):
            raise ConfigError(f"{key} values must be positive and finite")
        if len(set(getattr(c, key))) < len(getattr(c, key)):
            raise ConfigError(f"{key} values must not repeat")


def config_echo_lines(config: ExperimentConfig) -> list[str]:
    return [f"config.{key} = {_fmt(getattr(config, key))}" for key in _KINDS]


# --------------------------------------------------------------------------
# trace CSV


def smoothed_series(values: Sequence[float], window: int) -> list[float]:
    """Trailing moving average; entry k averages the last ``window`` values."""
    if window < 1:
        raise ConfigError("window must be at least 1")
    out = []
    acc = 0.0
    for k, v in enumerate(values):
        acc += v
        if k >= window:
            acc -= values[k - window]
        out.append(acc / min(k + 1, window))
    return out


def write_trace_csv(path, trace: Sequence[TraceRecord], window: int,
                    nnz_names: Sequence[str], nnz_rows: Sequence[Sequence[float]]) -> None:
    n_blocks = len(trace[0].alpha_bar_blocks)
    smoothed = smoothed_series([r.gap_hat for r in trace], window)
    header = ["k", "objective_estimate", "gap_hat", "gap_hat_smoothed",
              *(f"alpha_bar_{i}" for i in range(n_blocks)), "alpha_sd", *nnz_names]
    # one %-format per row: numbers need no CSV quoting, and rows end in the csv module's \r\n
    line = ",".join(["%d"] + ["%.17g"] * (len(header) - 1)) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(line % (record.k, record.objective_estimate, record.gap_hat, smooth,
                              *record.alpha_bar_blocks, record.alpha_sd, *nnz)
                      for record, smooth, nnz in zip(trace, smoothed, nnz_rows))


# --------------------------------------------------------------------------
# problems, sampling, training


def _load_dataset_any(path: str, spec: MLPSpec) -> Dataset:
    """Read a binary or CSV dataset whose widths fit the network ``spec``."""
    with _reading("dataset"), open(path, "rb") as fh:
        magic = fh.read(len(_DATASET_MAGIC))
    data = load_dataset_bin(path) if magic == _DATASET_MAGIC else load_dataset_csv(path)
    _check_widths(spec, data, path)
    return data


def _owned(owner, config: ExperimentConfig, **keys: str):
    """``owner`` from each field's config key (``keys`` renames); a broken rule is a ConfigError."""
    try:
        return owner(**{f.name: getattr(config, keys.get(f.name, f.name)) for f in fields(owner)})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _synth_spec(config: ExperimentConfig) -> SynthSpec:
    return _owned(SynthSpec, config, m="synth_m")


def _constrained(config: ExperimentConfig) -> tuple[int, ...]:
    """The entries ``deltas`` gives radii to: quadratic blocks or net layers; sgd frees them all."""
    blocks = config.quad_blocks if config.problem == "quadratic" else config.fw_layers
    return blocks if config.method != "sgd" else ()


def _net_spec(config: ExperimentConfig) -> MLPSpec:
    """The configured network; sgd reads no radius, so ``deltas`` that do not fit are unit radii."""
    if not _constrained(config) and len(config.deltas) != len(config.fw_layers):
        config = replace(config, deltas=(1.0,) * len(config.fw_layers))
    return _owned(MLPSpec, config)


def _budget_iterations(config: ExperimentConfig) -> tuple[int, int]:
    """The batch budget ``iterations`` as ``(iterations run, batches per iteration)``."""
    # run() draws a second (away-step) batch only when there is a constrained block
    per_iteration = 2 if config.method == "sfw-if" and _constrained(config) else 1
    if config.iterations < 1:
        raise ConfigError("a positive iteration budget is required")
    if config.iterations < per_iteration:
        raise ConfigError("sfw-if spends two gradient batches per iteration")
    return config.iterations // per_iteration, per_iteration


def _inputs(config: ExperimentConfig):
    """``(budget, data)``: the `_budget_iterations` pair and the quadratic instance or the (train,
    val, test) splits. The budget is checked before any data is made or read."""
    budget = _budget_iterations(config)
    if config.problem == "quadratic":
        if config.epoch_sampling:
            raise ConfigError("epoch_sampling needs a dataset problem")
        if not config.quad_blocks and config.quad_y == 0:
            raise ConfigError("quad_blocks and quad_y leave the quadratic no variable")
        blocks = _constrained(config)
        if blocks and len(config.deltas) != len(blocks):
            raise ConfigError("quadratic problems need one delta per block in deltas")
        return budget, make_quadratic(
            config.seed, blocks, sum(config.quad_blocks) - sum(blocks) + config.quad_y,
            l_nabla=config.l_nabla, noise_sigma=config.quad_sigma)
    spec = _net_spec(config)
    if config.problem == "synthetic-net":
        if config.loss != "mse":
            raise ConfigError("the synthetic teacher produces regression targets; use loss = mse")
        return budget, generate_synthetic(_synth_spec(config))[:3]
    if not config.dataset:
        raise ConfigError("problem = dataset requires a dataset path")
    return budget, tuple(_load_dataset_any(path, spec) if path else None for path in
                         (config.dataset, config.val_dataset, config.test_dataset))


@dataclass(frozen=True, eq=False)
class TrainOutcome:
    """Everything a caller needs after one training run.

    ``save(path, meta)`` writes the run's checkpoint with ``meta`` in its header.
    """

    result: RunResult
    metrics: list[tuple[str, object]]
    nnz_names: list[str]
    nnz_rows: list[Sequence[float]]
    save: Callable[[str, dict], None]
    val_loss: float


def _run_budgeted(config: ExperimentConfig, problem, balls, y0, x0_blocks,
                  budget: tuple[int, int]) -> tuple[RunResult, list[tuple[str, object]]]:
    """Run the configured method; returns the result and the metrics every run reports."""
    iterations, per_iteration = budget
    opt = OptimizerConfig(
        l_nabla=config.l_nabla,
        c_bar_per_block=tuple(2.0 * config.l_nabla * b.diameter() ** 2 for b in balls),
        iterations=iterations,
        seed=config.seed,
        batch_schedule=BatchSchedule(config.batch_schedule, config.batch_size),
        alternative_directions=config.method == "sfw-if",
        norm_y=Norm(config.norm_y),
    )
    result = run(problem, balls, y0, x0_blocks, opt)
    metrics: list[tuple[str, object]] = [
        ("iterations_run", iterations),
        ("gradient_batches", iterations * per_iteration),
        ("output_index", result.output_index),
        ("iterates_digest", result.iterates_digest),
        ("final_objective_estimate", result.trace[-1].objective_estimate),
        ("final_gap_hat", result.trace[-1].gap_hat),
    ]
    return result, metrics


def _train_net(config: ExperimentConfig, budget, splits) -> TrainOutcome:
    spec_full = _net_spec(config)
    train, val, test = splits
    # the run trains the layers it constrains; metrics describe the configured ones
    train_spec = spec_full if _constrained(config) else replace(spec_full, fw_layers=(), deltas=())
    problem = MLPProblem(spec=train_spec, data=train)
    layout = problem.layout
    balls = layout.balls()
    if config.epoch_sampling:
        problem = EpochSampling(problem)

    params0 = init_params(train_spec, config.seed)
    x0_blocks, y0 = layout.pack(params0)
    result, metrics = _run_budgeted(config, problem, balls, y0, x0_blocks, budget)

    out = result.output_iterate
    params = layout.unpack(out.x, out.y)
    metrics += [(f"nnz_layer_{l}", v) for l, v in nnz_metrics(params, spec_full).items()]

    eval_split, eval_data = ("test", test) if test is not None else (
        ("val", val) if val is not None else ("train", train))
    cut_scores = _threshold_scores(spec_full, params, eval_data, REPORT_THETAS)
    # REPORT_THETAS starts at 100, the cut that keeps every weight: the eval score
    metrics.append(("eval_split", eval_split))
    metrics += [(f"eval_{name}", value) for name, value in cut_scores[0].items()]
    for theta, scores in zip(REPORT_THETAS, cut_scores):
        metrics += [(f"threshold_{theta:g}_{name}", value) for name, value in scores.items()]

    val_scores = cut_scores[0]  # the eval split's, unless val is a split of its own
    if val is not None and eval_data is not val:
        (val_scores,) = _threshold_scores(spec_full, params, val, (100.0,))
    # the trace counts the trained blocks only, and sgd trains none
    return TrainOutcome(
        result=result,
        metrics=metrics,
        nnz_names=[f"nnz_layer_{l}" for l in layout.spec.fw_layers],
        nnz_rows=_nnz_percentages(layout, [record.nnz_blocks for record in result.trace]),
        save=lambda path, meta: save_net_checkpoint(path, spec_full, params, meta),
        val_loss=float(val_scores["loss"]),
    )


def _threshold_scores(spec: MLPSpec, params, data: Dataset,
                      thetas: Sequence[float]) -> list[dict[str, float]]:
    """`evaluate` the trained network cut by `hard_threshold` at each theta, in order.

    Both are this module's names, looked up on every call, so a tracer that
    patches them here sees every cut and every pass.
    """
    return [evaluate(spec, hard_threshold(params, spec, theta), data) for theta in thetas]


def _train_quadratic(config: ExperimentConfig, budget, problem) -> TrainOutcome:
    blocks, y_dim = problem.block_dims, problem.y_dim
    balls = tuple(L1Ball(dim=d, radius=r) for d, r in zip(blocks, config.deltas))
    x0_blocks = [np.zeros(d) for d in blocks]
    result, metrics = _run_budgeted(config, problem, balls, np.zeros(y_dim), x0_blocks, budget)
    out = result.output_iterate
    final_objective = problem.exact_objective(out.x, out.y)
    metrics.append(("final_objective_exact", final_objective))
    for i, count in enumerate([c for m in out.x for c in nnz_rows(m).tolist()]):
        metrics.append((f"nnz_block_{i}", count))
    arrays = [(f"x{i}", x) for i, x in enumerate(out.x_blocks)] + [("y", out.y)]
    return TrainOutcome(
        result=result,
        metrics=metrics,
        nnz_names=[f"nnz_block_{i}" for i in range(len(blocks))],
        nnz_rows=[record.nnz_blocks for record in result.trace],
        save=lambda path, meta: save_checkpoint(
            path, "quadratic", {"block_dims": list(blocks), "y_dim": y_dim}, meta, arrays),
        val_loss=float(final_objective),
    )


def train_once(config: ExperimentConfig, inputs) -> TrainOutcome:
    """Train on `_inputs`' budget and data with ``config``'s method, seed and constants."""
    train = _train_quadratic if config.problem == "quadratic" else _train_net
    return train(config, *inputs)


# --------------------------------------------------------------------------
# reports


def report_lines(command: str, config: ExperimentConfig,
                 metrics: Sequence[tuple[str, object]],
                 paths: Sequence[tuple[str, str]]) -> list[str]:
    lines = [f"command = {command}"]
    lines += config_echo_lines(config)
    lines += [f"seed = {config.seed}"]
    for key, value in metrics:
        lines.append(f"{key} = {_fmt(value)}")
    for key, value in paths:
        lines.append(f"{key} = {value}")
    return lines


def _emit(path, lines: Sequence[str]) -> None:
    """Write ``lines`` to ``path`` when one is given, then print them."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)


# --------------------------------------------------------------------------
# subcommands


def cmd_train(config: ExperimentConfig) -> int:
    started = time.perf_counter()
    outcome = train_once(config, _inputs(config))
    wall = time.perf_counter() - started

    trace_path = f"{config.out_prefix}.trace.csv"
    ckpt_path = f"{config.out_prefix}.ckpt"
    report_path = f"{config.out_prefix}.report.txt"
    write_trace_csv(trace_path, outcome.result.trace, config.smoothing_window,
                    outcome.nnz_names, outcome.nnz_rows)

    meta = {
        "method": config.method,
        "seed": config.seed,
        "output_index": outcome.result.output_index,
        "iterations": len(outcome.result.trace),
    }
    outcome.save(ckpt_path, meta)

    paths = [("trace_csv", trace_path), ("checkpoint", ckpt_path)]
    lines = report_lines("train", config, outcome.metrics, paths)
    # the report file stays byte-reproducible; timing goes to stdout only
    _emit(report_path, lines)
    print(f"wall_clock_seconds = {wall:.17g}")
    print(f"report = {report_path}")
    return 0


def cmd_threshold_eval(ckpt_path: str, dataset_path: str,
                       thetas: Sequence[float], out_path: str | None) -> int:
    with _reading("checkpoint"):
        spec, params, _ = load_net_checkpoint(ckpt_path)
    data = _load_dataset_any(dataset_path, spec)
    scores = _threshold_scores(spec, params, data, thetas)
    header = ["theta", *scores[0]]
    lines = [",".join(header)] + [",".join(f"{v:.17g}" for v in (theta, *s.values()))
                                  for theta, s in zip(thetas, scores)]
    _emit(out_path, lines)
    return 0


def cmd_synth(config: ExperimentConfig) -> int:
    synth = _synth_spec(config)
    train, val, test, teacher = generate_synthetic(synth)
    save = save_dataset_bin if config.dataset_format == "bin" else save_dataset_csv
    ext = config.dataset_format
    paths = {}
    for name, data in (("train", train), ("val", val), ("test", test)):
        path = f"{config.out_prefix}.{name}.{ext}"
        save(path, data)
        paths[name] = path
    teacher_path = f"{config.out_prefix}.teacher.ckpt"
    save_net_checkpoint(teacher_path, synth.teacher, teacher,
                        {"m": synth.m, "snr": synth.snr, "seed": synth.seed})
    for name, path in paths.items():
        print(f"{name} = {path}")
    print(f"teacher = {teacher_path}")
    return 0


def cmd_gap_trace(trace_path: str, window: int, out_path: str | None) -> int:
    if window < 1:
        raise ConfigError("window must be at least 1")
    with _reading("trace"), open(trace_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            k_col = header.index("k")
            gap_col = header.index("gap_hat")
            body = [(row[k_col], float(row[gap_col])) for row in reader]
        except (StopIteration, ValueError, IndexError):
            raise ValueError(f"malformed trace CSV: {trace_path}") from None
    smoothed = smoothed_series([g for _, g in body], window)
    lines = ["k,gap_hat,gap_hat_smoothed"]
    lines += [f"{k},{g:.17g},{s:.17g}" for (k, g), s in zip(body, smoothed)]
    _emit(out_path, lines)
    return 0


def cmd_grid(config: ExperimentConfig) -> int:
    if not config.grid_l_nabla or not config.grid_delta:
        raise ConfigError("grid needs nonempty grid_l_nabla and grid_delta")
    constrained = _constrained(config)
    if not constrained and len(config.grid_delta) != 1:
        raise ConfigError("grid_delta must hold one value: the run constrains no block")
    if config.problem == "dataset" and not config.val_dataset:
        raise ConfigError("grid selection on datasets needs val_dataset")

    # a cell is the command's run with l_nabla and, if it constrains a block, deltas replaced,
    # on one budget and data built with a cell's deltas (the command's need not fit fw_layers)
    deltas = {dl: (dl,) * len(constrained) or config.deltas for dl in config.grid_delta}
    inputs = _inputs(replace(config, deltas=deltas[config.grid_delta[0]]))
    results = {(ln, dl): train_once(replace(config, l_nabla=ln, deltas=deltas[dl]), inputs).val_loss
               for ln in config.grid_l_nabla for dl in config.grid_delta}

    ordered = sorted(results.items())
    best_key = min(ordered, key=lambda kv: (kv[1], kv[0]))[0]
    metrics: list[tuple[str, object]] = []
    for (ln, dl), loss in ordered:
        metrics.append((f"grid.l_nabla_{_fmt(ln)}.delta_{_fmt(dl)}.val_loss", loss))
    metrics.append(("selected_l_nabla", best_key[0]))
    metrics.append(("selected_delta", best_key[1]))
    metrics.append(("selected_val_loss", results[best_key]))

    report_path = f"{config.out_prefix}.grid.txt"
    lines = report_lines("grid", config, metrics, [])
    _emit(report_path, lines)
    print(f"report = {report_path}")
    return 0


# --------------------------------------------------------------------------
# argument parsing


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default=None, help="key = value config file")
    for key in _KINDS:
        sub.add_argument(f"--{key.replace('_', '-')}", dest=f"cfg_{key}",
                         default=None, metavar="VALUE",
                         help=f"override config key {key}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing reads it and never changes it."""
    parser = argparse.ArgumentParser(prog="fwsd",
                                     description="Constrained stochastic hybrid optimizer")
    commands = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "synth", "grid"):
        _add_config_flags(commands.add_parser(name))
    te = commands.add_parser("threshold-eval")
    te.add_argument("--checkpoint", required=True)
    te.add_argument("--dataset", required=True)
    te.add_argument("--thetas", default=",".join(f"{t:g}" for t in REPORT_THETAS))
    te.add_argument("--out", default=None)
    gt = commands.add_parser("gap-trace")
    gt.add_argument("--trace", required=True)
    gt.add_argument("--window", type=int, default=ExperimentConfig.smoothing_window)
    gt.add_argument("--out", default=None)
    return parser


def _overrides_from(args: argparse.Namespace) -> dict[str, str]:
    return {key: getattr(args, f"cfg_{key}") for key in _KINDS}


def _dispatch(args: argparse.Namespace) -> int:
    if args.command in ("train", "synth", "grid"):
        config = load_config(args.config, _overrides_from(args))
        if args.command == "train":
            return cmd_train(config)
        if args.command == "synth":
            return cmd_synth(config)
        return cmd_grid(config)
    if args.command == "threshold-eval":
        try:
            thetas = tuple(float(p) for p in args.thetas.split(",") if p.strip())
        except ValueError:
            raise ConfigError("--thetas expects comma-separated numbers") from None
        if not thetas:
            raise ConfigError("--thetas expects at least one value")
        if not all(0.0 <= t <= 100.0 for t in thetas):  # NaN fails too
            raise ConfigError("--thetas values must be within [0, 100]")
        return cmd_threshold_eval(args.checkpoint, args.dataset, thetas, args.out)
    return cmd_gap_trace(args.trace, args.window, args.out)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - boundary between CLI and library
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
