"""The mutation catalogue keeps applying to the code as it stands.

`run_mutations.py` replays ``mutations.json`` outside the tier-1 suite. This
checks that every entry's ``old`` text occurs exactly once under ``src/``, in
the entry's own file, and that every test it names still exists, so an edit
that moves the code under a mutant fails here instead of silently.
"""

import re

import pytest

from run_mutations import ROOT, load_catalogue

ENTRIES = load_catalogue()
SOURCES = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
           for p in sorted((ROOT / "src").rglob("*.py"))}


def test_entry_names_are_unique():
    names = [entry["name"] for entry in ENTRIES]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("entry", ENTRIES, ids=[entry["name"] for entry in ENTRIES])
def test_old_text_occurs_once_under_src(entry):
    found = {path: text.count(entry["old"]) for path, text in SOURCES.items()
             if entry["old"] in text}
    assert found == {entry["file"]: 1}
    assert entry["new"] != entry["old"]
    assert entry["fails"], "an entry names the tests that must fail"
    for test in entry["fails"]:
        path, *names = re.sub(r"\[.*\]$", "", test).split("::")
        text = (ROOT / path).read_text(encoding="utf-8")
        assert all(re.search(rf"\b(def|class) {name}\b", text) for name in names), test
