"""No module imports a name it never uses.

The project has no linter, so this walks the syntax tree of every Python
file under ``src/``, ``tests/`` and ``demos/`` and lists each imported name
that the file never references. ``__future__`` imports are exempt, and a
name listed in the module's ``__all__`` counts as used (a re-export).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_checker_flags_an_unused_name():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nnp.zeros(1)\n"
    assert unused_imports(source) == ["os (line 2)"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


def test_no_unused_imports():
    found = []
    for folder in ("src", "tests", "demos"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            found += [f"{path.relative_to(ROOT)}: {name}"
                      for name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []
