"""The README's list of the public API is `fwsd.__all__`, name for name.

The list sits between "The public API is what" and "Narrative walkthroughs":
a header giving the count ("48 names") and then bullets whose backticked
words are the exported names.
"""

import re
from pathlib import Path

import fwsd

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
