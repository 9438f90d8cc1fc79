"""No top-level function or class in ``src/fwsd`` goes unused.

Next to the unused-imports check: a name defined at the top level of a
module under ``src/fwsd`` must be exported in ``fwsd.__all__`` or be
referenced, as an ``ast.Name`` or an ``ast.Attribute``, somewhere in
``src/fwsd`` outside its own definition. Tests, demos and the benchmark do
not count as users: code only they call is dead weight in the package.
"""

import ast
from pathlib import Path

import fwsd

SRC = Path(__file__).resolve().parents[1] / "src" / "fwsd"


def unreferenced_definitions(sources: dict[str, str], exported) -> list[str]:
    """``path: name (line n)`` for every top-level def or class nobody references."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    refs: dict[str, list[ast.AST]] = {}  # name -> the nodes that reference it
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, (ast.Name, ast.Attribute)):
                refs.setdefault(n.id if isinstance(n, ast.Name) else n.attr, []).append(n)
    found = []
    for path, tree in trees.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    or node.name in exported):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if all(id(n) in inside for n in refs.get(node.name, ())):
                found.append(f"{path}: {node.name} (line {node.lineno})")
    return found


def test_checker_flags_an_unreferenced_definition():
    sources = {
        "a.py": "def used():\n    pass\n\ndef lonely():\n    return lonely\n\nclass Shown:\n    pass\n",
        "b.py": "from a import used\nused()\n",
    }
    assert unreferenced_definitions(sources, {"Shown"}) == ["a.py: lonely (line 4)"]
    assert unreferenced_definitions({"c.py": "import m\n\ndef f():\n    pass\n\nm.f\n"}, ()) == []


def test_every_definition_is_exported_or_referenced():
    sources = {str(p.relative_to(SRC.parent)): p.read_text(encoding="utf-8")
               for p in sorted(SRC.rglob("*.py"))}
    assert unreferenced_definitions(sources, set(fwsd.__all__)) == []
