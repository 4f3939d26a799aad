"""The README's list of key entry points names only what graphent exports."""

import re
from pathlib import Path

import graphent

README = Path(__file__).parent.parent / "README.md"


def key_entry_points() -> list[str]:
    text = README.read_text()
    start = text.index("Key entry points:")
    paragraph = text[start:text.index("\n\n", start)]
    return [name for span in re.findall(r"`([^`]+)`", paragraph)
            for name in span.split("/")]


def test_every_key_entry_point_resolves():
    names = key_entry_points()
    assert "optimize" in names and "classify" in names
    for name in names:
        obj = graphent
        for part in name.split("."):
            assert hasattr(obj, part), f"README names {name!r}, graphent lacks it"
            obj = getattr(obj, part)
