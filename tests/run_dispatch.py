"""Replay the byte goldens under other kernel choices, one row per setting.

    python tests/run_dispatch.py [SETTING ...]

A setting is a few environment variables of one child ``pytest`` process:
the BLAS thread count, the OpenBLAS core type, or the numpy SIMD features
(`SETTINGS`). Nothing else on the machine changes. Each child runs `TESTS`,
the golden, demo, engine and byte-reference tests, one child at a time, and
holds OpenBLAS and OpenMP to one thread unless its setting says otherwise.
The script prints one row per setting with the ids of the tests that failed
under it and exits 1 if any setting had a failure. It is not part of the
tier-1 suite: each setting costs a pytest process (about 10-20 s).
``tests/test_dispatch_settings.py`` checks the setting list and the output
parse in tier-1.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time

from run_mutations import ROOT, failed_ids

TESTS = ("tests/test_golden.py", "tests/test_demos.py", "tests/test_engine.py",
         "tests/test_backprop.py", "tests/test_gradient_buffer.py")

ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
_NO_AVX512 = "AVX512_SPR,AVX512_ICL,X86_V4"

SETTINGS = {
    "threads-1": {},
    "threads-2": {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"},
    "coretype-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "coretype-sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "coretype-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "simd-no-avx512": {"NPY_DISABLE_CPU_FEATURES": _NO_AVX512},
    "simd-no-avx2": {"NPY_DISABLE_CPU_FEATURES": _NO_AVX512 + ",X86_V3"},
}


def child_env(setting: str) -> dict[str, str]:
    """The caller's environment with one thread, then the setting's variables on top.

    A dispatch variable the caller set itself is dropped, so each row shows
    only its own setting.
    """
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    return {**env, **ONE_THREAD, **SETTINGS[setting], "PYTHONPATH": str(ROOT / "src")}


def replay(setting: str) -> tuple[int, str]:
    """Run `TESTS` under the setting; returns pytest's exit status and its stdout."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *TESTS],
        cwd=ROOT, env=child_env(setting), capture_output=True, text=True, timeout=1800)
    return proc.returncode, proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("settings", nargs="*", help="settings to replay (default: all)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.settings) - set(SETTINGS))
    if unknown:
        parser.error(f"no setting named {', '.join(unknown)}; known: {', '.join(SETTINGS)}")
    bad = 0
    for setting in args.settings or SETTINGS:
        started = time.perf_counter()
        status, stdout = replay(setting)
        failed = failed_ids(stdout)
        if status not in (0, 1) and not failed:  # pytest did not get to run the tests
            failed = [f"pytest exited {status}: " + (stdout.strip().splitlines() or [""])[-1]]
        print(f"{setting:<22} {len(failed):>3} failed ({time.perf_counter() - started:.0f} s)"
              + "".join(f" {test}" for test in failed), flush=True)
        bad += bool(failed)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
