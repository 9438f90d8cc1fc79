"""fwsd benchmark: closed-loop training runs, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                     # every workload, both modes

Run from the root of a checkout. The package is imported from `src/`; there
is nothing to build. Each run starts fresh worker processes (see
`worker.py`) with one BLAS thread, so the load is one process with at most
two threads. The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`. Earlier lines give
the machine facts and every metric as `name value unit`. BENCHMARK.md
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("net-sfw-if", "net-sgd-b256", "quad-wide-sfw-if")

# fixed BLAS thread count; it must stay at or below nproc
BLAS_THREADS = 1

# Set-up is measured in this many fresh processes besides the measuring
# worker. One more process runs before them to fill the bytecode cache and
# is not counted.
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170.0

# (name, unit) in the order printed
END_TO_END = (
    ("train_s", "s"),
    ("grad_samples_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (metric, span) whose value is the span's self time; together they add up
# to trace.train_s
SELF_TIME_SPANS = (
    ("cli.self_s", "cli.main"),
    ("cli.write_trace_csv_s", "cli.write_trace_csv"),
    ("cli.save_checkpoint_s", "cli.save_checkpoint"),
    ("sparse_net.gradient_mean_s", "sparse_net.gradient_mean"),
    ("sparse_net.objective_estimate_s", "sparse_net.objective_estimate"),
    ("sparse_net.draw_s", "sparse_net.draw"),
    ("sparse_net.layout_pack_s", "sparse_net.layout_pack"),
    ("sparse_net.layout_unpack_s", "sparse_net.layout_unpack"),
    ("sparse_net.evaluate_s", "sparse_net.evaluate"),
    ("sparse_net.hard_threshold_s", "sparse_net.hard_threshold"),
    ("sparse_net.load_dataset_bin_s", "sparse_net.load_dataset_bin"),
    ("problems.gradient_at_s", "problems.gradient_at"),
    ("problems.objective_estimate_s", "problems.objective_estimate"),
    ("problems.draw_s", "problems.draw"),
    ("optimizer.bookkeeping_s", "optimizer.run"),
    ("optimizer.gradient_batch_s", "optimizer.gradient_batch"),
    ("optimizer.fw_step_s", "optimizer.fw_step"),
    ("optimizer.sd_step_s", "optimizer.sd_step"),
    ("optimizer.alt_step_s", "optimizer.alt_step"),
    ("geometry.lmo_s", "geometry.lmo"),
    ("geometry.away_direction_s", "geometry.away_direction"),
    ("geometry.in_face_step_cap_s", "geometry.in_face_step_cap"),
    ("geometry.minimal_face_s", "geometry.minimal_face"),
    ("geometry.in_face_lmo_s", "geometry.in_face_lmo"),
    ("gap.dual_norm_s", "gap.dual_norm"),
)

# (metric, span) whose value is calls per repetition
CALL_COUNTS = (
    ("sparse_net.gradient_mean.calls", "sparse_net.gradient_mean"),
    ("problems.gradient_at.calls", "problems.gradient_at"),
    ("geometry.lmo.calls", "geometry.lmo"),
    ("geometry.away_direction.calls", "geometry.away_direction"),
    ("geometry.minimal_face.calls", "geometry.minimal_face"),
    ("gap.dual_norm.calls", "gap.dual_norm"),
)

# (metric, span) whose value is the span's mean duration in microseconds
US_PER_CALL = (
    ("problems.gradient_at.us_per_call", "problems.gradient_at"),
    ("geometry.lmo.us_per_call", "geometry.lmo"),
    ("geometry.in_face_step_cap.us_per_call", "geometry.in_face_step_cap"),
)

PER_LAYER = (
    tuple((name, "s") for name, _ in SELF_TIME_SPANS)
    + (("optimizer.run_s", "s"), ("problems.make_quadratic_s", "s"),
       ("cli.trace_csv_bytes", "bytes"))
    + tuple((name, "count") for name, _ in CALL_COUNTS)
    + tuple((name, "us") for name, _ in US_PER_CALL)
    + (("sparse_net.gradient_mean.us_per_sample", "us"),
       ("optimizer.iterations", "count"),
       ("optimizer.gradient_batches", "count"),
       ("optimizer.away.accept_ratio", "ratio"),
       ("optimizer.away.drop_steps", "count"),
       ("optimizer.away.zeroed_coords", "count"),
       ("trace.train_s", "s"),
       ("trace.attributed_ratio", "ratio"),
       ("trace.overhead_ratio", "ratio"),
       ("trace.hooks_missing", "count"))
)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _worker(mode: str, args, workdir: str, extra=()) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir, *extra]
    if args.iterations:
        cmd += ["--iterations", str(args.iterations)]
    try:
        proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {mode} timed out after {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {mode} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _instance_mean(raw: dict, value) -> float:
    # Every instance weighs the same, however many repetitions it got, so
    # counts repeat exactly from run to run at a given seed.
    return _mean([value(inst) for inst in raw["instances"]])


def _train_s(raw: dict, traced: bool) -> float:
    # Mean, not median, over each instance's repetitions. On a shared
    # 2-vCPU cloud machine the CPU has slow phases of 5-20 s that stretch
    # every repetition in them by up to 1.8x. A median jumps between the
    # fast and the slow mode, while the mean moves with the share of slow
    # time, which halves the run-to-run spread (0.08 against 0.17, IQR over
    # median of 30 s windows).
    if traced:
        return _instance_mean(raw, lambda inst: _mean(inst["traced"]["train_s"]))
    return _instance_mean(raw, lambda inst: _mean(inst["train_s"]))


def end_to_end_metrics(raw: dict, setup_samples) -> dict:
    train_s = _train_s(raw, traced=False)
    samples = _instance_mean(raw, lambda inst: inst["gradient_batches"]) * raw["batch_size"]
    return {
        "train_s": train_s,
        "grad_samples_per_s": samples / train_s if train_s > 0 else 0.0,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def _span(inst: dict, name: str):
    return inst["traced"]["spans"].get(name, [0.0, 0.0, 0])


def _per_rep(raw: dict, value) -> float:
    """Mean over instances of `value(instance)` per traced repetition."""
    return _instance_mean(raw, lambda inst: value(inst) / max(len(inst["traced"]["train_s"]), 1))


def _per_call_us(raw: dict, name: str, per=None) -> float:
    total = sum(_span(inst, name)[0] for inst in raw["instances"])
    count = sum(per(inst) if per else _span(inst, name)[2] for inst in raw["instances"])
    return 1e6 * total / count if count else 0.0


def per_layer_metrics(raw: dict) -> dict:
    out = {metric: _per_rep(raw, lambda inst, n=name: _span(inst, n)[1])
           for metric, name in SELF_TIME_SPANS}
    out["optimizer.run_s"] = _per_rep(raw, lambda inst: _span(inst, "optimizer.run")[0])
    out["problems.make_quadratic_s"] = raw["setup_spans"].get("problems.make_quadratic", [0.0])[0]
    out["cli.trace_csv_bytes"] = _instance_mean(raw, lambda inst: inst["trace_csv_bytes"])
    for metric, name in CALL_COUNTS:
        out[metric] = _per_rep(raw, lambda inst, n=name: _span(inst, n)[2])
    for metric, name in US_PER_CALL:
        out[metric] = _per_call_us(raw, name)
    out["sparse_net.gradient_mean.us_per_sample"] = _per_call_us(
        raw, "sparse_net.gradient_mean", per=lambda inst: inst["traced"]["gradient_mean_samples"])
    out["optimizer.iterations"] = _per_rep(raw, lambda inst: inst["traced"]["iterations"])
    out["optimizer.gradient_batches"] = _per_rep(raw, lambda inst: inst["traced"]["gradient_batches"])

    def accept_ratio(inst):
        away = inst["traced"]["away"]
        return away["accepted"] / away["attempted"] if away["attempted"] else 0.0

    out["optimizer.away.accept_ratio"] = _instance_mean(raw, accept_ratio)
    for key in ("drop_steps", "zeroed_coords"):
        out[f"optimizer.away.{key}"] = _per_rep(raw, lambda inst, k=key: inst["traced"]["away"][k])
    out["trace.train_s"] = _train_s(raw, traced=True)
    self_sum = sum(out[metric] for metric, _ in SELF_TIME_SPANS)
    out["trace.attributed_ratio"] = self_sum / out["trace.train_s"] if out["trace.train_s"] else 0.0
    plain = _train_s(raw, traced=False)
    out["trace.overhead_ratio"] = out["trace.train_s"] / plain if plain else 0.0
    out["trace.hooks_missing"] = len(raw["hooks_missing"])
    return out


def run_one(args) -> dict:
    """Set up and measure one workload; returns the result object."""
    if not os.path.isfile(os.path.join(ROOT, "src", "fwsd", "__init__.py")):
        raise BenchError(f"fwsd sources not found under {os.path.join(ROOT, 'src')}")
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    try:
        setup_samples = [_worker("setup", args, os.path.join(workdir, f"setup{i}"))["setup_s"]
                         for i in range(SETUP_PROBES + 1)][1:]
        extra = ["--seconds", repr(args.seconds), "--trace", str(args.trace),
                 "--golden", args.golden]
        raw = _worker("measure", args, os.path.join(workdir, "measure"), extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it, or it is already gone
    setup_samples.append(raw["setup_s"])

    facts = {"nproc": _nproc(), "cpu": _cpu_model(), "python": platform.python_version(),
             "blas_threads_requested": BLAS_THREADS, **raw["machine"]}
    print("machine " + json.dumps(facts, sort_keys=True))
    for inst in raw["instances"]:
        print("fingerprint " + json.dumps({"workload": args.workload, "seed": inst["seed"],
                                           "golden_checked": inst["golden_checked"],
                                           **(inst["fingerprint"] or {})}, sort_keys=True))
    if args.trace:
        metrics, units = per_layer_metrics(raw), dict(PER_LAYER)
        if raw["hooks_missing"]:
            print("hooks missing: " + ", ".join(raw["hooks_missing"]))
    else:
        metrics, units = end_to_end_metrics(raw, setup_samples), dict(END_TO_END)
    failed = [r for r in raw["reps"] if not r["ok"]]
    for rep in failed[:5]:
        print(f"failed repetition (instance seed {rep['seed']}): {rep['why']}")
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value!r} {units[name]}")
    return {
        "correct": not failed,
        "attempted": len(raw["reps"]),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fwsd benchmark")
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    parser.add_argument("--iterations", type=int, default=None,
                        help="override the workload length; golden values then do not apply")
    parser.add_argument("--golden", default=os.path.join(HERE, "golden.json"))
    args = parser.parse_args(argv)

    workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    modes = (0, 1) if args.trace is None else (args.trace,)
    results = {}
    try:
        for workload in workloads:
            for mode in modes:
                one = argparse.Namespace(**{**vars(args), "workload": workload, "trace": mode})
                results[(workload, mode)] = run_one(one)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": m for (w, _), r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
