"""One workload in one fresh process: set-up, timed repetitions, checks.

`run.py` starts this file with the BLAS thread count fixed in the
environment and reads the single JSON line it prints. Nothing from numpy or
fwsd is imported before the set-up clock starts, so `setup_s` includes the
import.

    python3 perfbench/worker.py setup   --workload NAME --seed N --workdir DIR
    python3 perfbench/worker.py measure --workload NAME --seed N --workdir DIR \
        --seconds S --trace 0|1 --golden FILE [--iterations N]

A run sets up INSTANCES problem instances, with seeds `seed * INSTANCES + i`,
and cycles its repetitions through them. The cost of a training run depends
on its trajectory: one instance of `net-sfw-if` costs up to 1.4 times
another. Averaging over several instances keeps that out of the
run-to-run spread.

Every repetition is checked: the program must succeed, its iterates digest,
trace and output fingerprints must equal those of the instance's first
repetition (and the golden values, for a golden instance seed and length),
and every output block must lie in its l1 ball. A repetition that fails a
check is counted, not raised.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402

INSTANCES = 4

# The measurement loop makes at least one repetition of each kind per
# instance, and starts no new one after HARD_STOP_S, so a run ends in time
# even on a machine far slower than expected.
HARD_STOP_S = 150.0

LAYER_SIZES = "20,20,20,1"


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class NetWorkload:
    """`fwsd train` on criterion-09 style teacher data, run in-process."""

    def __init__(self, seed, workdir, method, l_nabla, batch_size, budget):
        self.seed = seed
        self.method = method
        self.l_nabla = l_nabla
        self.batch_size = batch_size
        self.budget = budget
        self.data = os.path.join(workdir, "data")
        self.prefix = os.path.join(workdir, "run")

    def setup(self) -> None:
        import fwsd.cli

        self.cli = fwsd.cli
        argv = ["synth", "--layer-sizes", LAYER_SIZES, "--synth-m", "5", "--snr", "10",
                "--train-size", "2000", "--val-size", "200", "--test-size", "2000",
                "--seed", str(self.seed), "--out-prefix", self.data]
        with contextlib.redirect_stdout(io.StringIO()):
            if fwsd.cli.main(argv) != 0:
                raise RuntimeError("fwsd synth failed")
        self.argv = [
            "train", "--problem", "dataset",
            "--dataset", f"{self.data}.train.bin",
            "--val-dataset", f"{self.data}.val.bin",
            "--test-dataset", f"{self.data}.test.bin",
            "--method", self.method, "--layer-sizes", LAYER_SIZES,
            "--fw-layers", "0,1", "--deltas", "1,1", "--l-nabla", repr(self.l_nabla),
            "--batch-size", str(self.batch_size), "--iterations", str(self.budget),
            "--seed", str(self.seed), "--out-prefix", self.prefix,
        ]

    def step(self):
        # the attribute is looked up on every call, so the tracer's patch applies
        return self.cli.main(self.argv)

    def check(self, rc) -> dict:
        if rc != 0:
            raise RuntimeError(f"fwsd train exited with {rc}")
        report = {}
        with open(f"{self.prefix}.report.txt", "r", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(" = ")
                report[key] = value.strip()
        trace_path = f"{self.prefix}.trace.csv"
        ckpt_path = f"{self.prefix}.ckpt"
        spec, params, _ = self.cli.load_net_checkpoint(ckpt_path)
        # sgd trains no constrained block; its checkpoint rows are unconstrained
        if self.method != "sgd":
            from fwsd import L1Ball

            for layer, delta in zip(spec.fw_layers, spec.deltas):
                w = params[layer].w
                ball = L1Ball(w.shape[1], delta)
                if not all(ball.contains(row) for row in w):
                    raise RuntimeError(f"layer {layer} has a row outside its l1 ball")
        return {
            "fingerprint": {
                "iterates_digest": report["iterates_digest"],
                "trace_sha256": _sha256_file(trace_path),
                "output_sha256": _sha256_file(ckpt_path),
            },
            "gradient_batches": int(report["gradient_batches"]),
            "trace_csv_bytes": os.path.getsize(trace_path),
        }


def _hex_tree(value):
    # exact, platform-independent text for floats nested in trace records
    if value is None or isinstance(value, (bool, int)):
        return value
    if isinstance(value, float):
        return float(value).hex()
    return [_hex_tree(v) for v in value]


class QuadWorkload:
    """`fwsd.run` on one wide l1 block of a noisy quadratic (README path)."""

    P, Q, RADIUS, BATCH = 500, 50, 2.0, 4

    def __init__(self, seed, budget):
        self.seed = seed
        self.iterations = budget
        self.batch_size = self.BATCH

    def setup(self) -> None:
        import numpy as np
        import fwsd

        self.fwsd = fwsd
        self.np = np
        self.inst = fwsd.make_quadratic(seed=self.seed, p=self.P, q=self.Q,
                                        l_nabla=1.0, noise_sigma=1.0)
        self.ball = fwsd.L1Ball(self.P, self.RADIUS)
        self.config = fwsd.OptimizerConfig(
            l_nabla=1.0,
            c_bar_per_block=(2.0 * 1.0 * self.ball.diameter() ** 2,),
            iterations=self.iterations,
            seed=self.seed,
            batch_schedule=fwsd.BatchSchedule.constant(self.BATCH),
            alternative_directions=True,
        )
        self.y0 = np.zeros(self.Q)
        self.x0 = [np.zeros(self.P)]

    def step(self):
        return self.fwsd.run(self.inst, [self.ball], self.y0, self.x0, self.config)

    def check(self, result) -> dict:
        np = self.np
        for it in (result.output_iterate, result.final_iterate):
            if not self.ball.contains(it.x_blocks[0]):
                raise RuntimeError(f"iterate {it.k} is outside its l1 ball")
        records = [[r.k, r.objective_estimate, r.gap_hat, r.alpha_bar_blocks, r.alpha_sd,
                    r.beta_bar_blocks, r.alt_taken_blocks, r.nnz_blocks] for r in result.trace]
        trace_text = json.dumps(_hex_tree(records)).encode()
        out = hashlib.sha256(str(result.output_index).encode())
        for block in (*result.output_iterate.x_blocks, result.output_iterate.y):
            out.update(np.ascontiguousarray(block, dtype="<f8").tobytes())
        return {
            "fingerprint": {
                "iterates_digest": result.iterates_digest,
                "trace_sha256": hashlib.sha256(trace_text).hexdigest(),
                "output_sha256": out.hexdigest(),
            },
            "gradient_batches": len(result.trace) * 2,
            "trace_csv_bytes": 0,
        }


# name -> (factory, default length). The length is the CLI's gradient-batch
# budget for the net workloads and the iteration count for the quadratic.
WORKLOADS = {
    "net-sfw-if": (lambda seed, wd, n: NetWorkload(seed, wd, "sfw-if", 0.7, 16, n), 300),
    "net-sgd-b256": (lambda seed, wd, n: NetWorkload(seed, wd, "sgd", 1.0, 256, n), 60),
    "quad-wide-sfw-if": (lambda seed, wd, n: QuadWorkload(seed, n), 600),
}


class Observed:
    """Inputs and outputs the tracer's observers collect during traced steps."""

    def __init__(self) -> None:
        self.iterations = 0
        self.gradient_batches = 0
        self.gradient_mean_samples = 0
        self.alt_calls = []
        self.away = {"attempted": 0, "accepted": 0, "drop_steps": 0, "zeroed_coords": 0}

    def observers(self) -> dict:
        def on_run(args, kwargs, result):
            config = args[4] if len(args) > 4 else kwargs["config"]
            n_blocks = len(args[1]) if len(args) > 1 else len(kwargs["balls"])
            self.iterations += len(result.trace)
            per_iteration = 2 if config.alternative_directions and n_blocks else 1
            self.gradient_batches += len(result.trace) * per_iteration

        def on_gradient_mean(args, kwargs, out):
            self.gradient_mean_samples += len(args[3] if len(args) > 3 else kwargs["batch"])

        def on_alt_step(args, kwargs, out):
            self.alt_calls.append((args[0] if args else kwargs["x_bar_blocks"], out))

        return {"optimizer.run": on_run, "sparse_net.gradient_mean": on_gradient_mean,
                "optimizer.alt_step": on_alt_step}

    def count_away_steps(self) -> None:
        """Fold the collected `alt_step` calls into `away`; call after a step."""
        import numpy as np

        away = self.away
        for x_bar_blocks, (x_next, infos) in self.alt_calls:
            for x_bar, x_new, info in zip(x_bar_blocks, x_next, infos):
                away["attempted"] += 1
                if not info.taken:
                    continue
                away["accepted"] += 1
                if info.beta_bar == info.alpha_stop:
                    away["drop_steps"] += 1
                dropped = (np.asarray(x_bar) != 0.0) & (np.asarray(x_new) == 0.0)
                away["zeroed_coords"] += int(np.count_nonzero(dropped))
        self.alt_calls.clear()


def _machine_facts() -> dict:
    import numpy as np

    facts = {"numpy": np.__version__, "blas": "unknown", "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    facts["blas_threads"] = _blas_threads(np)
    return facts


def _blas_threads(np):
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _golden_for(path, workload: str, seed: int, length: int):
    if not path:
        return None
    with open(path, "r", encoding="utf-8") as fh:
        entry = json.load(fh).get(workload)
    if entry and entry["length"] == length:
        return entry["fingerprints"].get(str(seed))
    return None


class Instance:
    """One problem instance of a run, with its own checks and trace."""

    def __init__(self, workload, golden) -> None:
        self.workload = workload
        self.golden = golden
        self.first = None
        self.times = {False: [], True: []}
        self.observed = Observed()
        self.tracer = Tracer(observers=self.observed.observers())

    def rep(self, traced: bool, sink) -> dict:
        """Time one step; returns the repetition record."""
        gc.collect()
        sink.seek(0)
        sink.truncate()
        why = ""
        result = None
        hooks = self.tracer.installed() if traced else contextlib.nullcontext()
        with contextlib.redirect_stdout(sink), hooks:
            start = time.perf_counter()
            try:
                result = self.workload.step()
            except Exception as exc:  # noqa: BLE001 - a failing step is a failed repetition
                why = f"step raised {type(exc).__name__}: {exc}"
            finally:
                train_s = time.perf_counter() - start
        self.observed.count_away_steps()
        info = None
        if not why:
            try:
                info = self.workload.check(result)
            except Exception as exc:  # noqa: BLE001 - a failing check is a failed repetition
                why = f"check failed: {type(exc).__name__}: {exc}"
        if info is not None:
            if self.first is None:
                self.first = info
            if self.golden is not None and info["fingerprint"] != self.golden:
                why = f"fingerprint {info['fingerprint']} differs from golden {self.golden}"
            elif info["fingerprint"] != self.first["fingerprint"]:
                why = "fingerprint differs from the instance's first repetition"
        return {"traced": traced, "train_s": train_s, "ok": not why, "why": why,
                "seed": self.workload.seed}

    def summary(self, traced: bool) -> dict:
        first = self.first or {}
        out = {
            "seed": self.workload.seed,
            "golden_checked": self.golden is not None,
            "fingerprint": first.get("fingerprint"),
            "gradient_batches": first.get("gradient_batches", 0),
            "trace_csv_bytes": first.get("trace_csv_bytes", 0),
            "train_s": self.times[False],
        }
        if traced:
            stats = self.tracer.stats
            out["traced"] = {
                "train_s": self.times[True],
                "spans": {name: [s.total_s, s.self_s, s.calls] for name, s in stats.items()},
                "iterations": self.observed.iterations,
                "gradient_batches": self.observed.gradient_batches,
                "gradient_mean_samples": self.observed.gradient_mean_samples,
                "away": self.observed.away,
            }
        return out


def measure(args, workloads, length, setup_s) -> dict:
    instances = [Instance(w, _golden_for(args.golden, args.workload, w.seed, length))
                 for w in workloads]
    kinds = (False, True) if args.trace else (False,)
    sink = io.StringIO()
    reps = []
    started = time.perf_counter()
    # warm-up: fills caches and lazy set-up; checked, not timed
    reps.append({**instances[0].rep(False, sink), "warmup": True})
    deadline = started + args.seconds
    turn = 0
    while True:
        now = time.perf_counter()
        enough = all(inst.times[kind] for inst in instances for kind in kinds)
        if (now >= deadline and enough) or now - started > HARD_STOP_S:
            break
        inst = instances[turn % len(instances)]
        turn += 1
        for kind in kinds:
            rep = inst.rep(kind, sink)
            inst.times[kind].append(rep["train_s"])
            reps.append({**rep, "warmup": False})

    out = {
        "setup_s": setup_s,
        "reps": reps,
        "batch_size": workloads[0].batch_size,
        "instances": [inst.summary(bool(args.trace)) for inst in instances],
        "machine": _machine_facts(),
    }
    if args.trace:
        setup_tracer = Tracer()
        with setup_tracer.installed():
            workloads[0].setup()
        out["setup_spans"] = {name: [s.total_s, s.self_s, s.calls]
                              for name, s in setup_tracer.stats.items()}
        out["hooks_missing"] = instances[0].tracer.missing
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", default=None)
    parser.add_argument("--iterations", type=int, default=None)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    factory, default_length = WORKLOADS[args.workload]
    length = args.iterations or default_length
    workloads = []
    for i in range(INSTANCES):
        workdir = os.path.join(args.workdir, f"instance{i}")
        os.makedirs(workdir, exist_ok=True)
        workloads.append(factory(args.seed * INSTANCES + i, workdir, length))
        workloads[-1].setup()
    setup_s = time.perf_counter() - start
    if args.mode == "setup":
        result = {"setup_s": setup_s}
    else:
        result = measure(args, workloads, length, setup_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
