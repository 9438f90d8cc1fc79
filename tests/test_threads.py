"""Results do not depend on the BLAS thread count.

The net and quadratic goldens of `test_golden.py` run in two subprocesses,
one with OpenBLAS and OpenMP held to one thread and one with two, and each
must reproduce the pinned iterate digests, trace, checkpoint and report
hashes. Row slices of group matrices reach BLAS at other offsets than fresh
copies did, so a product whose rounding followed the thread count or the
memory layout would show here.
"""

import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).with_name("test_golden.py")


def test_goldens_hold_at_one_and_two_blas_threads(tmp_path):
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"--basetemp={tmp_path / threads}", str(GOLDEN)],
            cwd=GOLDEN.parents[1], env=env, capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, f"{threads} BLAS threads:\n{done.stdout[-3000:]}"
