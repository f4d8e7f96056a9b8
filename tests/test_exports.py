"""Every public name of the package has a caller outside the unit tests."""

import inspect
import pathlib
import re

import pfspectra

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _words(text: str) -> set:
    return set(re.findall(r"\w+", text))


def test_every_exported_name_is_used_outside_the_unit_tests():
    # A name counts as used when a package module other than __init__
    # names it beyond its own def or class line (code or docs), or when the
    # benchmark or the acceptance tests name it.
    used = set()
    for path in (REPO_ROOT / "src" / "pfspectra").glob("*.py"):
        if path.name != "__init__.py":
            used |= _words(re.sub(r"\b(?:def|class)\s+\w+", "", path.read_text()))
    for path in (REPO_ROOT / "perfbench").rglob("*.py"):
        used |= _words(path.read_text())
    used |= _words((REPO_ROOT / "tests" / "test_acceptance.py").read_text())
    names = [name for name in pfspectra.__all__
             if not inspect.ismodule(getattr(pfspectra, name))]
    assert [name for name in names if name not in used] == []
