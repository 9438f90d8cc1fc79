"""No function or config in ``src/fwsd`` takes a numerical tolerance.

Next to the dead-code check: fwsd's slacks (``fwsd.geometry``'s ``*_TOL``
constants and ``NNZ_THRESHOLD``, ``fwsd.gap``'s ``*_SLACK`` constants) are
module constants read where they are used, never arguments. Under
``src/fwsd`` this flags a function parameter named ``tol``, ``threshold`` or
``slack``, or ending in ``_tol``, ``_threshold`` or ``_slack`` (in any case); a
parameter whose default is a name or attribute named that way, such as
``FEASIBILITY_TOL``; and a dataclass field named that way.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fwsd"

SUFFIXES = ("_TOL", "_THRESHOLD", "_SLACK")


def _knob(name: str) -> bool:
    upper = name.upper()
    return upper.endswith(SUFFIXES) or upper in {s[1:] for s in SUFFIXES}


def _leaf(node) -> str:
    """The last name of a name, attribute or call expression, else ``""``."""
    if isinstance(node, ast.Call):
        return _leaf(node.func)
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")


def tolerance_knobs(sources: dict[str, str]) -> list[str]:
    """``path: what (line n)`` for every tolerance a function or dataclass takes."""
    found = []
    for path, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a, name = node.args, getattr(node, "name", "lambda")
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                          *filter(None, (a.vararg, a.kwarg))]
                found += [f"{path}: {name} parameter {p.arg} (line {p.lineno})"
                          for p in params if _knob(p.arg)]
                defaults = [d for d in (*a.defaults, *a.kw_defaults) if d is not None]
                found += [f"{path}: {name} default {ast.unparse(d)} (line {d.lineno})"
                          for d in defaults if _knob(_leaf(d))]
            elif (isinstance(node, ast.ClassDef)
                  and any(_leaf(dec) == "dataclass" for dec in node.decorator_list)):
                found += [f"{path}: {node.name} field {s.target.id} (line {s.lineno})"
                          for s in node.body if isinstance(s, ast.AnnAssign)
                          and isinstance(s.target, ast.Name) and _knob(s.target.id)]
    return found


def test_checker_flags_planted_tolerances():
    source = (
        "from dataclasses import dataclass\n"
        "import geometry\n"
        "\n"
        "def contains(x, radius=geometry.FEASIBILITY_TOL):\n"
        "    return x <= radius\n"
        "\n"
        "def away(x, tol):\n"
        "    return x < -tol\n"
        "\n"
        "@dataclass(frozen=True)\n"
        "class Config:\n"
        "    seed: int\n"
        "    away_tol: float = 1e-12\n"
        "\n"
        "count = lambda m, cut=NNZ_THRESHOLD: m >= cut\n"
    )
    assert tolerance_knobs({"a.py": source}) == [
        "a.py: contains default geometry.FEASIBILITY_TOL (line 4)",
        "a.py: away parameter tol (line 7)",
        "a.py: Config field away_tol (line 13)",
        "a.py: lambda default NNZ_THRESHOLD (line 15)",
    ]
    reads = ("from dataclasses import dataclass\nFACE_TOL = 1e-12\n\n"
             "def face(x, scale=2.0):\n    return abs(x) > FACE_TOL * scale\n\n"
             "class Plain:\n    slack_tol: float = 1.0\n")
    assert tolerance_knobs({"b.py": reads}) == []


def test_no_function_or_config_takes_a_tolerance():
    sources = {str(p.relative_to(SRC.parent)): p.read_text(encoding="utf-8")
               for p in sorted(SRC.rglob("*.py"))}
    assert tolerance_knobs(sources) == []
