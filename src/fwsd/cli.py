"""Command-line harness: config files, trainers, grids, trace tooling.

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
codes: 0 success, 1 config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import json
import struct
import sys
import time
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from .geometry import L1Ball, Norm, nnz_rows
from .optimizer import BatchSchedule, OptimizerConfig, RunResult, TraceRecord, run
from .problems import make_quadratic
from .sparse_net import (
    Activation,
    _DATASET_MAGIC,
    BinaryReader,
    Dataset,
    LayerParams,
    Loss,
    MLPProblem,
    MLPSpec,
    ParamLayout,
    SynthSpec,
    evaluate,
    generate_synthetic,
    hard_threshold,
    init_params,
    load_dataset_bin,
    load_dataset_csv,
    nnz_metrics,
    save_dataset_bin,
    save_dataset_csv,
)

_CKPT_MAGIC = b"FWSDCKPT"
_CKPT_VERSION = 1

#: thresholding percentages reported after every network training run
REPORT_THETAS = (100.0, 50.0, 25.0, 10.0, 5.0)


class ConfigError(ValueError):
    """Bad configuration: unknown keys, type errors, inconsistent values."""


# --------------------------------------------------------------------------
# configuration schema


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, schema-checked experiment description.

    ``iterations`` is a gradient-batch budget: methods that spend two
    batches per iteration run half as many iterations. ``epochs`` is an
    alternative way to state the budget for dataset problems.
    """

    problem: str = "synthetic-net"
    method: str = "sfw"
    seed: int = 0
    iterations: int = 0
    epochs: int = 0
    batch_schedule: str = OptimizerConfig.batch_schedule.kind
    batch_size: int = OptimizerConfig.batch_schedule.size
    l_nabla: float = 1.0
    c_bar_scale: float = 1.0
    norm_y: str = OptimizerConfig.norm_y.value
    away_tol: float = OptimizerConfig.away_tol
    smoothing_window: int = 50
    epoch_sampling: bool = False
    layer_sizes: tuple[int, ...] = (20, 20, 20, 1)
    activation: str = "sigmoid"
    loss: str = "mse"
    fw_layers: tuple[int, ...] = (0, 1)
    deltas: tuple[float, ...] = (1.0, 1.0)
    bias: bool = True
    dataset: str = ""
    val_dataset: str = ""
    test_dataset: str = ""
    dataset_format: str = "bin"
    synth_m: int = 5
    snr: float = 10.0
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
        try:
            with open(path, "r", encoding="utf-8") as fh:
                pairs = parse_config_text(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
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
    for key in ("l_nabla", "c_bar_scale", "away_tol", "deltas", "quad_sigma"):
        if np.isinf(getattr(c, key)).any():
            raise ConfigError(f"{key} must be finite")
    if c.away_tol < 0.0:
        raise ConfigError("away_tol must be nonnegative")
    if c.iterations < 0 or c.epochs < 0:
        raise ConfigError("iterations and epochs must be nonnegative")
    if c.iterations > 0 and c.epochs > 0:
        raise ConfigError("set either iterations or epochs, not both")
    if c.batch_size < 1:
        raise ConfigError("batch_size must be at least 1")
    if c.l_nabla <= 0.0:
        raise ConfigError("l_nabla must be positive")
    if c.c_bar_scale < 1.0:
        raise ConfigError("c_bar_scale below 1 would violate the curvature floor")
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
        raise ConfigError("dataset split sizes must be at least 2")
    if any(d < 1 for d in c.quad_blocks) or c.quad_y < 0:
        raise ConfigError("quadratic dimensions must be positive")
    if c.quad_sigma < 0.0:
        raise ConfigError("quad_sigma must be nonnegative")
    for key in ("grid_l_nabla", "grid_delta"):
        if not all(0.0 < v < float("inf") for v in getattr(c, key)):
            raise ConfigError(f"{key} values must be positive and finite")


def config_echo_lines(config: ExperimentConfig) -> list[str]:
    return [f"config.{key} = {_fmt(getattr(config, key))}" for key in _KINDS]


# --------------------------------------------------------------------------
# checkpoint format


def save_checkpoint(path, kind: str, spec_meta: dict, meta: dict,
                    arrays: Sequence[tuple[str, np.ndarray]]) -> None:
    """Binary checkpoint: magic, version byte, JSON header, float64 payload.

    Layout: 8-byte magic ``FWSDCKPT``, 1-byte version, little-endian uint32
    header length, the UTF-8 JSON header (kind, spec, meta, array names and
    shapes), then each array as row-major little-endian float64 in header
    order.
    """
    header = {
        "kind": kind,
        "spec": spec_meta,
        "meta": meta,
        "arrays": [{"name": name, "shape": list(a.shape)} for name, a in arrays],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<B", _CKPT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint; returns ``(header, {name: array})``.

    A stored in-degree (teacher networks) is re-validated against the
    arrays so corrupted or mislabeled files fail loudly.
    """
    reader = BinaryReader(path, _CKPT_MAGIC, _CKPT_VERSION, "checkpoint")
    (length,) = reader.unpack("<I", "header length")
    try:
        header = json.loads(bytes(reader.read(length, "header")).decode("utf-8"))
        entries = [(e["name"], tuple(e["shape"])) for e in header["arrays"]]
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError):
        raise ValueError(f"{path}: malformed checkpoint header") from None
    arrays = {name: reader.floats(shape, name) for name, shape in entries}
    reader.finish()
    m = header.get("meta", {}).get("m")
    if header["kind"] == "net" and m is not None:
        try:
            sizes = header["spec"]["layer_sizes"]
            weights = [arrays[f"layer{l}_w"] for l in range(len(sizes) - 2)]
        except KeyError as exc:
            raise ValueError(f"{path}: checkpoint lacks {exc.args[0]!r}") from None
        for l, w in enumerate(weights):
            if not np.all(np.count_nonzero(w, axis=1) == m):
                raise ValueError(f"{path}: layer {l} does not have in-degree {m} per node")
    return header, arrays


def _net_spec_meta(spec: MLPSpec) -> dict:
    return {
        "layer_sizes": list(spec.layer_sizes),
        "activation": spec.activation.value,
        "loss": spec.loss.value,
        "fw_layers": list(spec.fw_layers),
        "deltas": list(spec.deltas),
        "bias": spec.bias,
    }


def _spec_from_meta(meta: dict) -> MLPSpec:
    return MLPSpec(
        layer_sizes=tuple(meta["layer_sizes"]),
        activation=Activation(meta["activation"]),
        loss=Loss(meta["loss"]),
        fw_layers=tuple(meta["fw_layers"]),
        deltas=tuple(meta["deltas"]),
        bias=bool(meta["bias"]),
    )


def _net_arrays(params) -> list[tuple[str, np.ndarray]]:
    return [(f"layer{l}_{part}", getattr(layer, part))
            for l, layer in enumerate(params) for part in ("w", "b")]


def save_net_checkpoint(path, spec: MLPSpec, params, meta: dict) -> None:
    save_checkpoint(path, "net", _net_spec_meta(spec), meta, _net_arrays(params))


def load_net_checkpoint(path):
    header, arrays = load_checkpoint(path)
    if header["kind"] != "net":
        raise ValueError(f"{path}: expected a network checkpoint, found kind {header['kind']!r}")
    try:
        spec = _spec_from_meta(header["spec"])
        params = [
            LayerParams(w=arrays[f"layer{l}_w"], b=arrays[f"layer{l}_b"])
            for l in range(spec.n_layers)
        ]
        return spec, params, header["meta"]
    except KeyError as exc:
        raise ValueError(f"{path}: checkpoint lacks {exc.args[0]!r}") from None


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
    n_blocks = len(trace[0].alpha_bar_blocks) if trace else 0
    smoothed = smoothed_series([r.gap_hat for r in trace], window)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "objective_estimate", "gap_hat", "gap_hat_smoothed",
                         *(f"alpha_bar_{i}" for i in range(n_blocks)), "alpha_sd", *nnz_names])
        for record, smooth, nnz in zip(trace, smoothed, nnz_rows):
            row = [str(record.k),
                   f"{record.objective_estimate:.17g}",
                   f"{record.gap_hat:.17g}",
                   f"{smooth:.17g}"]
            row += [f"{a:.17g}" for a in record.alpha_bar_blocks]
            row.append(f"{record.alpha_sd:.17g}")
            row += [f"{v:.17g}" for v in nnz]
            writer.writerow(row)


def _net_nnz_columns(layout: ParamLayout, trace: Sequence[TraceRecord]):
    """Per-layer NNZ percentages derived from the per-block counts."""
    names = [f"nnz_layer_{l}" for l in layout.spec.fw_layers]
    rows = []
    groups = [(l, layout.blocks_for_layer(l)) for l in layout.spec.fw_layers]
    for record in trace:
        row = []
        for l, blocks in groups:
            fan_in = layout.spec.fan_in(l)
            counts = [record.nnz_blocks[b] for b in blocks]
            row.append(100.0 * float(np.mean([c / fan_in for c in counts])))
        rows.append(row)
    return names, rows


def _block_nnz_columns(n_blocks: int, trace: Sequence[TraceRecord]):
    names = [f"nnz_block_{i}" for i in range(n_blocks)]
    rows = [[float(c) for c in record.nnz_blocks] for record in trace]
    return names, rows


# --------------------------------------------------------------------------
# problems, sampling, training


class EpochSampling:
    """Shuffled-pass sampling over a dataset problem.

    Off the i.i.d. model the optimizer assumes: instead of drawing with
    replacement, walk a random permutation and reshuffle when exhausted.
    Each generator walks its own permutation with its own cursor, so
    drawing from one stream never shifts another. Everything except
    ``draw`` delegates to the wrapped problem.
    """

    def __init__(self, problem):
        self._problem = problem
        self._cursors: dict[np.random.Generator, tuple[np.ndarray, int]] = {}

    def __getattr__(self, name):
        return getattr(self._problem, name)

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        order, at = self._cursors.get(rng, (np.empty(0, dtype=np.int64), 0))
        out = np.empty(n, dtype=np.int64)
        filled = 0
        while filled < n:
            if at >= order.size:
                order, at = rng.permutation(self._problem.n_samples), 0
            take = min(n - filled, order.size - at)
            out[filled:filled + take] = order[at:at + take]
            at += take
            filled += take
        self._cursors[rng] = (order, at)
        return out


def _load_dataset_any(path: str) -> Dataset:
    try:
        with open(path, "rb") as fh:
            magic = fh.read(len(_DATASET_MAGIC))
    except OSError as exc:
        raise ConfigError(f"cannot read dataset: {exc}") from None
    if magic == _DATASET_MAGIC:
        return load_dataset_bin(path)
    return load_dataset_csv(path)


def _synth_spec(config: ExperimentConfig) -> SynthSpec:
    return SynthSpec(
        layer_sizes=config.layer_sizes,
        m=config.synth_m,
        snr=config.snr,
        activation=Activation(config.activation),
        train_size=config.train_size,
        val_size=config.val_size,
        test_size=config.test_size,
        seed=config.seed,
    )


def _budget_iterations(config: ExperimentConfig, n_samples: int | None) -> int:
    """Turn the gradient-batch budget into an iteration count per method."""
    budget = config.iterations
    if config.epochs > 0:
        if n_samples is None:
            raise ConfigError("epochs require a dataset problem")
        if config.batch_schedule != "constant":
            raise ConfigError("epochs only make sense with the constant batch schedule")
        budget = config.epochs * max(1, n_samples // config.batch_size)
    if budget < 1:
        raise ConfigError("a positive iteration or epoch budget is required")
    if config.method == "sfw-if":
        if budget < 2:
            raise ConfigError("sfw-if spends two gradient batches per iteration")
        return budget // 2
    return budget


@dataclass(frozen=True, eq=False)
class TrainOutcome:
    """Everything a caller needs after one training run.

    ``checkpoint`` is the ``(kind, spec_meta, arrays)`` to save.
    """

    result: RunResult
    metrics: list[tuple[str, object]]
    nnz_names: list[str]
    nnz_rows: list[list[float]]
    checkpoint: tuple[str, dict, list[tuple[str, np.ndarray]]]
    val_loss: float


def _run_budgeted(config: ExperimentConfig, problem, balls, y0, x0_blocks,
                  n_samples: int | None) -> tuple[RunResult, list[tuple[str, object]]]:
    """Run the configured method; returns the result and the metrics every run reports."""
    iterations = _budget_iterations(config, n_samples)
    opt = OptimizerConfig(
        l_nabla=config.l_nabla,
        c_bar_per_block=tuple(config.c_bar_scale * 2.0 * config.l_nabla * b.diameter() ** 2
                              for b in balls),
        iterations=iterations,
        seed=config.seed,
        batch_schedule=BatchSchedule(config.batch_schedule, config.batch_size),
        alternative_directions=config.method == "sfw-if",
        norm_y=Norm(config.norm_y),
        away_tol=config.away_tol,
    )
    result = run(problem, balls, y0, x0_blocks, opt)
    metrics: list[tuple[str, object]] = [
        ("iterations_run", iterations),
        ("gradient_batches", iterations * (2 if config.method == "sfw-if" else 1)),
        ("output_index", result.output_index),
        ("iterates_digest", result.iterates_digest),
        ("final_objective_estimate", result.trace[-1].objective_estimate),
        ("final_gap_hat", result.trace[-1].gap_hat),
    ]
    return result, metrics


def _train_net(config: ExperimentConfig) -> TrainOutcome:
    try:
        spec_full = MLPSpec(
            layer_sizes=config.layer_sizes,
            activation=Activation(config.activation),
            loss=Loss(config.loss),
            fw_layers=config.fw_layers,
            deltas=config.deltas,
            bias=config.bias,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    if config.problem == "synthetic-net":
        if config.loss != "mse":
            raise ConfigError("the synthetic teacher produces regression targets; use loss = mse")
        train, val, test, _ = generate_synthetic(_synth_spec(config))
    else:
        if not config.dataset:
            raise ConfigError("problem = dataset requires a dataset path")
        train = _load_dataset_any(config.dataset)
        val = _load_dataset_any(config.val_dataset) if config.val_dataset else None
        test = _load_dataset_any(config.test_dataset) if config.test_dataset else None

    # sgd trains every weight as a free variable; metrics still describe
    # the configured constrained layers
    train_spec = spec_full if config.method != "sgd" else replace(
        spec_full, fw_layers=(), deltas=())
    layout = ParamLayout(train_spec)
    metrics_layout = ParamLayout(spec_full)
    balls = layout.balls()
    problem = MLPProblem(spec=train_spec, layout=layout, data=train)
    if config.epoch_sampling:
        problem = EpochSampling(problem)

    params0 = init_params(train_spec, config.seed)
    x0_blocks, y0 = layout.pack(params0)
    result, metrics = _run_budgeted(config, problem, balls, y0, x0_blocks,
                                    train.features.shape[0])

    out = result.output_iterate
    params = layout.unpack(out.x, out.y)
    nnz = nnz_metrics(params, metrics_layout)
    for l in spec_full.fw_layers:
        metrics.append((f"nnz_layer_{l}", nnz[l]))

    eval_spec = replace(spec_full, fw_layers=(), deltas=())
    if config.problem == "synthetic-net":
        eval_split, eval_data = "test", test
    else:
        eval_split, eval_data = ("test", test) if test is not None else (
            ("val", val) if val is not None else ("train", train))
    scores = evaluate(eval_spec, params, eval_data)
    metrics.append(("eval_split", eval_split))
    metrics.append(("eval_loss", scores["loss"]))
    if "accuracy" in scores:
        metrics.append(("eval_accuracy", scores["accuracy"]))
    for theta in REPORT_THETAS:
        cut = hard_threshold(params, metrics_layout, theta)
        cut_scores = evaluate(eval_spec, cut, eval_data)
        tag = f"{theta:g}"
        metrics.append((f"threshold_{tag}_loss", cut_scores["loss"]))
        if "accuracy" in cut_scores:
            metrics.append((f"threshold_{tag}_accuracy", cut_scores["accuracy"]))

    val_scores = evaluate(eval_spec, params, val) if val is not None else scores
    # the trace counts the trained blocks only, and sgd trains none
    nnz_names, nnz_rows = _net_nnz_columns(layout, result.trace)
    return TrainOutcome(
        result=result,
        metrics=metrics,
        nnz_names=nnz_names,
        nnz_rows=nnz_rows,
        checkpoint=("net", _net_spec_meta(spec_full), _net_arrays(params)),
        val_loss=float(val_scores["loss"]),
    )


def _train_quadratic(config: ExperimentConfig) -> TrainOutcome:
    blocks = config.quad_blocks if config.method != "sgd" else ()
    y_dim = config.quad_y if config.method != "sgd" else (
        sum(config.quad_blocks) + config.quad_y)
    if config.method != "sgd" and len(config.deltas) != len(blocks):
        raise ConfigError("quadratic problems need one delta per block")
    problem = make_quadratic(config.seed, blocks, y_dim,
                             l_nabla=config.l_nabla, noise_sigma=config.quad_sigma)
    balls = tuple(L1Ball(dim=d, radius=r) for d, r in zip(blocks, config.deltas))
    x0_blocks = [np.zeros(d) for d in blocks]
    result, metrics = _run_budgeted(config, problem, balls, np.zeros(y_dim), x0_blocks, None)
    out = result.output_iterate
    final_objective = problem.exact_objective(out.x, out.y)
    metrics.append(("final_objective_exact", final_objective))
    for i, count in enumerate([c for m in out.x for c in nnz_rows(m).tolist()]):
        metrics.append((f"nnz_block_{i}", count))
    nnz_names, nnz_trace = _block_nnz_columns(len(blocks), result.trace)
    arrays = [(f"x{i}", x) for i, x in enumerate(out.x_blocks)] + [("y", out.y)]
    return TrainOutcome(
        result=result,
        metrics=metrics,
        nnz_names=nnz_names,
        nnz_rows=nnz_trace,
        checkpoint=("quadratic", {"block_dims": list(blocks), "y_dim": y_dim}, arrays),
        val_loss=float(final_objective),
    )


def train_once(config: ExperimentConfig) -> TrainOutcome:
    if config.epoch_sampling and config.problem == "quadratic":
        raise ConfigError("epoch_sampling needs a dataset problem")
    if config.problem == "quadratic":
        return _train_quadratic(config)
    return _train_net(config)


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
    outcome = train_once(config)
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
    kind, spec_meta, arrays = outcome.checkpoint
    save_checkpoint(ckpt_path, kind, spec_meta, meta, arrays)

    paths = [("trace_csv", trace_path), ("checkpoint", ckpt_path)]
    lines = report_lines("train", config, outcome.metrics, paths)
    # the report file stays byte-reproducible; timing goes to stdout only
    _emit(report_path, lines)
    print(f"wall_clock_seconds = {wall:.17g}")
    print(f"report = {report_path}")
    return 0


def cmd_threshold_eval(ckpt_path: str, dataset_path: str,
                       thetas: Sequence[float], out_path: str | None) -> int:
    spec, params, _ = load_net_checkpoint(ckpt_path)
    data = _load_dataset_any(dataset_path)
    if data.features.shape[1] != spec.layer_sizes[0]:
        raise ValueError("dataset width does not match the checkpoint's input layer")
    layout = ParamLayout(spec)
    eval_spec = replace(spec, fw_layers=(), deltas=())
    with_accuracy = spec.loss is Loss.SOFTMAX_CE
    rows = []
    for theta in thetas:
        cut = hard_threshold(params, layout, theta)
        scores = evaluate(eval_spec, cut, data)
        row = [f"{theta:.17g}", f"{scores['loss']:.17g}"]
        if with_accuracy:
            row.append(f"{scores['accuracy']:.17g}")
        rows.append(row)
    header = ["theta", "loss"] + (["accuracy"] if with_accuracy else [])
    lines = [",".join(header)] + [",".join(r) for r in rows]
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
    teacher_spec = MLPSpec(layer_sizes=synth.layer_sizes, activation=synth.activation,
                           loss=Loss.MSE, bias=False)
    teacher_path = f"{config.out_prefix}.teacher.ckpt"
    save_net_checkpoint(teacher_path, teacher_spec, teacher,
                        {"m": synth.m, "snr": synth.snr, "seed": synth.seed})
    for name, path in paths.items():
        print(f"{name} = {path}")
    print(f"teacher = {teacher_path}")
    return 0


def cmd_gap_trace(trace_path: str, window: int, out_path: str | None) -> int:
    if window < 1:
        raise ConfigError("window must be at least 1")
    with open(trace_path, "r", encoding="utf-8", newline="") as fh:
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


def _grid_cell_seed(seed: int, i: int, j: int) -> int:
    state = np.random.SeedSequence([seed, i, j]).generate_state(1, np.uint64)
    return int(state[0])


def cmd_grid(config: ExperimentConfig) -> int:
    if not config.grid_l_nabla or not config.grid_delta:
        raise ConfigError("grid needs nonempty grid_l_nabla and grid_delta")
    n_deltas = len(config.quad_blocks) if config.problem == "quadratic" \
        else len(config.fw_layers)
    if config.problem != "quadratic" and not config.fw_layers:
        raise ConfigError("grid over delta needs at least one constrained layer")
    if config.problem == "dataset" and not config.val_dataset:
        raise ConfigError("grid selection on datasets needs val_dataset")

    results: dict[tuple[float, float], float] = {}
    for i, ln in enumerate(config.grid_l_nabla):
        for j, dl in enumerate(config.grid_delta):
            sub = replace(config, l_nabla=ln, deltas=(dl,) * n_deltas,
                          seed=_grid_cell_seed(config.seed, i, j))
            results[(ln, dl)] = train_once(sub).val_loss

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


def build_parser() -> argparse.ArgumentParser:
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
