"""Time the paper-width run, or a perfbench workload, on two checkouts in alternating pairs.

    python tests/run_paper_width.py PARENT [CHANGE] [--pairs N]
    python tests/run_paper_width.py PARENT [CHANGE] --workload NAME [--seconds S] [--pairs N]

``PARENT`` and ``CHANGE`` are checkouts (``CHANGE`` defaults to this one). Pairs
alternate which side runs first: the parent in even pairs, the change in odd.

Without ``--workload`` each side runs `PAPER_WIDTH`, ``fwsd train`` at the
paper's widths (784-300-100-1, batch 256, 40 gradient batches), from its own
``src/`` in a fresh process with one BLAS thread, in a temporary directory. A
run records its process wall time, the ``wall_clock_seconds`` line that
``fwsd train`` prints, its peak RSS, its ``iterates_digest`` and the SHA-256 of
its report, trace and checkpoint. Every run must give the same digest and the
same files, on both sides; at one BLAS thread the digest starts ``f88ceaac``.

With ``--workload`` each side runs ``perfbench/run.py --workload NAME --trace 0
--seconds S`` from its own root and keeps the JSON result of its last line and
a SHA-256 over the instance fingerprints it prints, which must match across runs.

Prints one JSON object with every run and, per side, the median and inclusive
quartiles of each timing, and exits 1 if any two runs' outputs differ or a
perfbench run is not ``correct``. Not part of the tier-1 suite: a paper-width
run takes 2-9 s.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAPER_WIDTH = ["train", "--problem", "synthetic-net", "--layer-sizes", "784,300,100,1",
               "--fw-layers", "0,1", "--deltas", "1,1.5", "--train-size", "400",
               "--synth-m", "3", "--method", "sfw-if", "--iterations", "40",
               "--batch-size", "256", "--l-nabla", "0.7", "--seed", "3", "--out-prefix", "p"]
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _timed(argv: list[str], cwd: Path, env: dict) -> tuple[float, float, str]:
    """Run ``argv``; returns its wall seconds, peak RSS in MB and standard output."""
    started = time.perf_counter()
    with subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, text=True) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)  # reaped here for its own rusage
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}")
    return wall, usage.ru_maxrss / 1024.0, out


def paper_width_run(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **ONE_THREAD)
    with tempfile.TemporaryDirectory() as tmp:
        wall, rss, out = _timed([sys.executable, "-m", "fwsd", *PAPER_WIDTH], Path(tmp), env)
        printed = dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line)
        files = {name: hashlib.sha256((Path(tmp) / f"p.{name}").read_bytes()).hexdigest()
                 for name in ("report.txt", "trace.csv", "ckpt")}
    return {"process_wall_s": wall, "train_wall_s": float(printed["wall_clock_seconds"]),
            "peak_rss_mb": rss, "iterates_digest": printed["iterates_digest"], "sha256": files}


def perfbench_run(checkout: Path, workload: str, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "0",
            "--seconds", str(seconds)]
    _, _, out = _timed(argv, checkout, dict(os.environ))
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    fingerprints = [json.loads(line.split(" ", 1)[1]) for line in lines
                    if line.startswith("fingerprint ")]
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            **{name: metric["value"] for name, metric in result["metrics"].items()},
            "fingerprints": hashlib.sha256(json.dumps(fingerprints).encode()).hexdigest()}


def summary(runs: list[dict]) -> dict:
    """Median and inclusive quartiles of every numeric field the runs share."""
    out = {}
    for key, value in runs[0].items():
        if isinstance(value, float):
            q1, median, q3 = statistics.quantiles([run[key] for run in runs], n=4,
                                                  method="inclusive")
            out[key] = {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path, nargs="?", default=ROOT)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", default=None, help="a perfbench workload")
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("quartiles need --pairs 2 or more")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for pair in range(args.pairs):
        for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            run = (perfbench_run(sides[side], args.workload, args.seconds) if args.workload
                   else paper_width_run(sides[side]))
            runs[side].append({"pair": pair, **run})
            print(f"pair {pair} {side}: {json.dumps(run)}", file=sys.stderr, flush=True)
    everything = runs["parent"] + runs["change"]
    if args.workload:
        outputs = {run["fingerprints"] for run in everything}
        ok = len(outputs) == 1 and all(run["correct"] and not run["failed"] for run in everything)
    else:
        outputs = {(run["iterates_digest"], *run["sha256"].values()) for run in everything}
        ok = len(outputs) == 1
    print(json.dumps({"command": args.workload or " ".join(["fwsd", *PAPER_WIDTH]),
                      "same_outputs_and_correct": ok,
                      "summary": {side: summary(r) for side, r in runs.items()},
                      "runs": runs}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
