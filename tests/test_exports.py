"""Every public name of the package, and every public member of an exported
class, has a caller outside the unit tests; every module attribute the docs
name exists, with the value they give it."""

import ast
import importlib
import inspect
import io
import pathlib
import re
import tokenize

import pfspectra

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _code(path: pathlib.Path) -> str:
    """A file's tokens, space-separated, without its comments and docstrings
    (string literals that stand alone as a statement)."""
    text = path.read_text()
    bare = {(node.lineno, node.col_offset) for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)}
    return " ".join(tok.string for tok in tokenize.generate_tokens(io.StringIO(text).readline)
                    if tok.type != tokenize.COMMENT and tok.start not in bare)


def _words(text: str) -> set:
    return set(re.findall(r"\w+", text))


PACKAGE = REPO_ROOT / "src" / "pfspectra"
# Files outside the package whose use of a name counts: the benchmark and
# the acceptance tests.
OUTSIDE = [*(REPO_ROOT / "perfbench").rglob("*.py"), REPO_ROOT / "tests" / "test_acceptance.py"]


def test_every_exported_name_is_used_outside_the_unit_tests():
    # A name counts as used when the code of a package module other than
    # __init__ names it beyond its own def or class line, or when the code of
    # the benchmark or the acceptance tests names it.  Comments and
    # docstrings do not count.
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= _words(re.sub(r"\b(?:def|class)\s+\w+", "", _code(path)))
    for path in OUTSIDE:
        used |= _words(_code(path))
    names = [name for name in pfspectra.__all__
             if not inspect.ismodule(getattr(pfspectra, name))]
    assert [name for name in names if name not in used] == []


def test_every_public_member_of_an_exported_class_is_used_outside_the_unit_tests():
    # The same rule for the methods, classmethods and properties of the
    # exported classes: a member counts as used when ".name" appears in the
    # code of a package module, the benchmark or the acceptance tests.
    used = set()
    for path in [*PACKAGE.glob("*.py"), *OUTSIDE]:
        used |= set(re.findall(r"\.\s*(\w+)", _code(path)))
    members = [
        f"{name}.{attr}"
        for name in pfspectra.__all__ if inspect.isclass(cls := getattr(pfspectra, name))
        for attr, value in vars(cls).items()
        if not attr.startswith("_") and (inspect.isfunction(value)
                                         or isinstance(value, (property, classmethod, staticmethod)))
    ]
    assert [m for m in members if m.split(".")[1] not in used] == []


DOCS = [REPO_ROOT / "README.md", REPO_ROOT / "docs" / "formats.md"]
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
NUMBER = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
# `module.NAME` or `pfspectra.module.NAME`, maybe followed by "= value",
# where the value is a number or a bracketed list of numbers.
DOC_REF = re.compile(rf"`((?:pfspectra\.)?\w+(?:\.\w+)+)`(?:\s*=\s*(\[{NUMBER}(?:,\s*{NUMBER})*\]|{NUMBER}))?")


def test_every_module_attribute_the_docs_name_exists_with_its_value():
    # A backticked dotted name counts when it starts with "pfspectra." or
    # with the name of a package module, so file names such as `data.json`
    # are skipped.  Deleted or re-valued limits cannot stay in the text.
    stale = []
    for doc in DOCS:
        for match in DOC_REF.finditer(doc.read_text()):
            ref, value = match.groups()
            parts = ref.removeprefix("pfspectra.").split(".")
            if not ref.startswith("pfspectra.") and parts[0] not in MODULES:
                continue
            try:
                obj = importlib.import_module(f"pfspectra.{parts[0]}")
                for attr in parts[1:]:
                    obj = getattr(obj, attr)
            except (ImportError, AttributeError):
                stale.append(f"{doc.name}: `{ref}` does not exist")
                continue
            if value is not None:
                stated = ast.literal_eval(value)
                actual = list(obj) if isinstance(obj, tuple) else obj
                if stated != actual:
                    stale.append(f"{doc.name}: `{ref}` = {value}, but it is {obj!r}")
    assert stale == []
