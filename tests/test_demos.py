"""The narrative demos still run against the package and print what they printed.

Each demo's stdout is pinned by its SHA-256, so a change to the library or to
a demo that alters a single printed character fails here. `sparse_training.py`
is left out: it takes several seconds.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

STDOUT_SHA256 = {
    "geometry_tour.py": "dc74c740314c74526f60a4ff88ecbc9d6322a7fbf04031eb1e227ede3afd3386",
    "quadratic_convergence.py": "f866e84a0bbbb9df0a415845e5f30d60da482488017f3652d0037234629fb71e",
}


@pytest.mark.parametrize("demo", sorted(STDOUT_SHA256))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[demo], done.stdout.decode()
