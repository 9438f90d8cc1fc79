"""The README's lists agree with the code they document.

The public API list sits between "The public API is what" and "Narrative
walkthroughs": a header giving the count ("48 names") and then bullets whose
backticked words are the exported names, `fwsd.__all__` name for name. The
"Configuration keys" table lists `ExperimentConfig`'s fields in field order,
each with its default as a config file spells it.
"""

import re
from dataclasses import fields
from pathlib import Path

import fwsd
from fwsd.cli import ExperimentConfig, _coerce

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_public_api_list_matches_all():
    text = README.read_text(encoding="utf-8")
    start = text.index("The public API is what")
    section = text[start:text.index("Narrative walkthroughs", start)]
    header, bullets = section.split("):", 1)
    count = int(re.search(r"(\d+) names", header).group(1))
    listed = re.findall(r"`(\w+)`", bullets)
    assert len(listed) == len(set(listed)), sorted(n for n in listed if listed.count(n) > 1)
    assert sorted(listed) == sorted(fwsd.__all__)
    assert count == len(fwsd.__all__)


def test_readme_config_table_matches_experiment_config():
    text = README.read_text(encoding="utf-8")
    start = text.index("### Configuration keys")
    table = text[start:text.index("\n#", start + 1)]
    rows = re.findall(r"^\| `(\w+)` \| `?([^`|]*?)`? *\|", table, flags=re.MULTILINE)
    assert [key for key, _ in rows] == [f.name for f in fields(ExperimentConfig)]
    for (key, default), field in zip(rows, fields(ExperimentConfig)):
        assert _coerce(key, default) == field.default, key
