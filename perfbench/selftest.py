"""Self-test of the benchmark itself; run it after changing any file here.

    python3 perfbench/selftest.py

Checks, each at a tiny length so the whole test takes well under a minute:

1. every workload, untraced and traced, ends with exit code 0 and a last
   line that names exactly the metrics of BENCHMARK.json, each with its unit,
   with zero failed repetitions;
2. the traced run's self times add up to its traced train time;
3. a deliberately wrong golden digest is counted as failed repetitions,
   not a crash;
4. the tracer restores every patched attribute, also when the traced code
   raises;
5. in a directory holding only BENCHMARK.json and the benchmark, the
   benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
TINY = {"net-sfw-if": 4, "net-sgd-b256": 2, "quad-wide-sfw-if": 3}


def _scratch_dir():
    os.makedirs(WORK, exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="selftest-", dir=WORK)


def _bench(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170, check=False)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def _last_json(lines):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    return result


def check_metric_names(spec) -> None:
    for workload, length in TINY.items():
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            args = ["--workload", workload, "--seed", "3", "--seconds", "0.5",
                    "--trace", str(trace), "--iterations", str(length)]
            code, lines, err = _bench(args)
            assert code == 0, (workload, trace, err)
            result = _last_json(lines)
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            assert result["correct"] and result["failed"] == 0, (workload, trace, lines[-8:])
            assert result["attempted"] >= 1
            if trace:
                ratio = result["metrics"]["trace.attributed_ratio"]["value"]
                assert abs(ratio - 1.0) < 0.01, (workload, ratio)
            print(f"ok   {workload} --trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} repetitions")


def check_wrong_golden() -> None:
    workload, length = "net-sgd-b256", TINY["net-sgd-b256"]
    bad = {"iterates_digest": "0" * 64, "trace_sha256": "0" * 64, "output_sha256": "0" * 64}
    # --seed 0 runs instance seeds 0 to 3
    wrong = {workload: {"length": length, "fingerprints": {str(i): bad for i in range(4)}}}
    with _scratch_dir() as tmp:
        golden = os.path.join(tmp, "golden.json")
        with open(golden, "w", encoding="utf-8") as fh:
            json.dump(wrong, fh)
        code, lines, err = _bench(["--workload", workload, "--seed", "0", "--seconds", "0.5",
                                   "--trace", "0", "--iterations", str(length),
                                   "--golden", golden])
    assert code == 0, err
    result = _last_json(lines)
    assert not result["correct"], result
    assert result["failed"] == result["attempted"] >= 1, result
    print(f"ok   wrong golden digest: {result['failed']} of {result['attempted']} "
          "repetitions failed, no crash")


def check_restore() -> None:
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import numpy as np
    import fwsd
    from tracer import HOOKS, Tracer, _resolve

    def snapshot():
        out = {}
        for module_name, class_name, attr, _ in HOOKS:
            owner = _resolve(module_name, class_name)
            out[(module_name, class_name, attr)] = vars(owner).get(attr)
        return out

    before = snapshot()
    tracer = Tracer()
    try:
        with tracer.installed():
            assert snapshot() != before
            fwsd.geometry.lmo(fwsd.L1Ball(3, 1.0), np.array([1.0, np.nan, 0.0]))
    except ValueError:
        pass
    else:
        raise AssertionError("lmo accepted a non-finite gradient")
    after = snapshot()
    assert all(after[k] is before[k] for k in before), "a patched attribute was not restored"
    assert tracer.stats["geometry.lmo"].calls == 1, "the failing call left no span"
    print(f"ok   tracer restored {len(before)} attributes after an exception")


def check_bare_directory() -> None:
    with _scratch_dir() as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = _bench(["--workload", "quad-wide-sfw-if", "--seed", "0",
                                 "--seconds", "1", "--trace", "0"], cwd=tmp)
    assert code != 0, code
    assert not any(line.startswith("{") for line in lines), lines
    print(f"ok   bare directory: exit code {code}, no result printed")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    check_metric_names(spec)
    check_wrong_golden()
    check_restore()
    check_bare_directory()
    try:
        os.rmdir(WORK)
    except OSError:
        pass  # a benchmark run is using it
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
