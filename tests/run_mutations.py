"""Replay the mutation catalogue: every mutant must fail the tests it names.

    python tests/run_mutations.py [NAME ...] [--workdir DIR]

Each entry of ``tests/mutations.json`` has a ``name``, a ``file`` under the
repository, an exact ``old`` text that occurs once in that file, the ``new``
text that replaces it, ``why``, what the mutant breaks, and ``fails``, the
pytest ids that must fail under the change. For each entry this copies the
repository (without ``.git`` and caches) into a temporary directory, applies
the one patch there and runs only the named tests; the working tree is never
written. It prints one line per entry and exits 1 if any named test passed
under its mutant. It is not part of the tier-1 suite: each entry costs a copy
and a pytest process (1-15 s).
``tests/test_mutations.py`` checks in tier-1 that every patch still applies.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CATALOGUE = ROOT / "tests" / "mutations.json"
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                               ".perfbench_work", "*.egg-info")


def load_catalogue() -> list[dict]:
    return json.loads(CATALOGUE.read_text(encoding="utf-8"))


def apply(copy: Path, entry: dict) -> None:
    """Write the entry's one patch into the copy; the ``old`` text must occur exactly once."""
    target = copy / entry["file"]
    text = target.read_text(encoding="utf-8")
    count = text.count(entry["old"])
    if count != 1:
        raise ValueError(f"{entry['name']}: old text occurs {count} times in {entry['file']}")
    target.write_text(text.replace(entry["old"], entry["new"]), encoding="utf-8")


def survivors(entry: dict, workdir: str | None = None) -> list[str]:
    """The named tests that do not fail under the entry's mutation."""
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_SKIP)
        apply(copy, entry)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             *entry["fails"]],
            cwd=copy, env=env, capture_output=True, text=True, timeout=600)
    caught = failed_ids(proc.stdout)
    return [test for test in entry["fails"] if test not in caught]


def failed_ids(stdout: str) -> list[str]:
    """The test ids of a ``pytest -rfE`` run's short summary, in the order printed."""
    # the short summary prints "FAILED <id> - <message>" or "ERROR <id> ..." per test
    return [line.split(" ")[1] for line in stdout.splitlines()
            if line.startswith(("FAILED ", "ERROR "))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="entries to replay (default: all)")
    parser.add_argument("--workdir", default=None, help="directory for the temporary copies")
    args = parser.parse_args(argv)
    entries = load_catalogue()
    unknown = sorted(set(args.names) - {entry["name"] for entry in entries})
    if unknown:
        parser.error(f"no catalogue entry named {', '.join(unknown)}")
    missed = 0
    for entry in entries:
        if args.names and entry["name"] not in args.names:
            continue
        started = time.perf_counter()
        left = survivors(entry, args.workdir)
        status = "caught" if not left else "SURVIVED by " + " ".join(left)
        print(f"{entry['name']}: {status} ({time.perf_counter() - started:.1f} s)", flush=True)
        missed += bool(left)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
