"""Every source file parses under the oldest supported Python's grammar.

``pyproject.toml`` declares ``requires-python = ">=3.10"``.  Parsing with
``ast.parse(..., feature_version=(3, 10))`` catches 3.11-and-later syntax
(``except*``, PEP 695 generics, ``type`` aliases) on any newer interpreter.
``feature_version`` lets two things through, so ``parse_as_3_10`` also walks
the tree and refuses them: a starred subscript ``a[*b]`` and an import of a
standard-library module that first shipped in 3.11 (``NEW_IN_3_11``).

The raw-triple constructor ``scalars._normalized`` builds a
``ComplexRational`` from integers it trusts to be a valid ``(a, b, d)``.
Only the scalar arithmetic and the one product kernel may call it, so
``OWNERS`` names the two files that may refer to it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIRS = ("src", "tests", "perfbench", "demos")
SOURCES = sorted(path for name in SOURCE_DIRS for path in (ROOT / name).rglob("*.py"))

NEW_IN_3_11 = frozenset({"tomllib", "wsgiref.types"})

PRIVATE = "_normalized"
OWNERS = frozenset({"src/geobracket/scalars.py", "src/geobracket/functions.py"})


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
    return []


def parse_as_3_10(source, filename="<source>"):
    """``ast.parse`` under the 3.10 grammar, plus what that grammar lets through."""
    tree = ast.parse(source, filename=filename, feature_version=(3, 10))
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple):
            if any(isinstance(item, ast.Starred) for item in node.slice.elts):
                raise SyntaxError(f"{filename}:{node.lineno}: starred subscript needs 3.11")
        for module in _imported_modules(node):
            if any(module == new or module.startswith(new + ".") for new in NEW_IN_3_11):
                raise SyntaxError(f"{filename}:{node.lineno}: {module} needs 3.11")
    return tree


def refers_to(tree, name):
    """True when ``tree`` names ``name``: as a name, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == name:
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        if isinstance(node, ast.alias) and name in node.name.split("."):
            return True
    return False


def test_every_source_directory_has_files():
    for name in SOURCE_DIRS:
        assert any(path.is_relative_to(ROOT / name) for path in SOURCES), name


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_source_parses_as_python_3_10(path):
    parse_as_3_10(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize(
    "source",
    [
        "try:\n    pass\nexcept* ValueError:\n    pass\n",
        "def first[T](items: list[T]) -> T:\n    return items[0]\n",
        "class Box[T]:\n    pass\n",
        "type Pair = tuple[int, int]\n",
        "first = items[*indices]\n",
        "import tomllib\n",
        "from tomllib import loads\n",
        "from wsgiref import types\n",
        "import wsgiref.types as wsgi_types\n",
    ],
    ids=[
        "except-star", "generic-function", "generic-class", "type-alias",
        "starred-subscript", "tomllib", "from-tomllib", "wsgiref-types", "import-wsgiref-types",
    ],
)
def test_newer_syntax_is_refused(source):
    with pytest.raises(SyntaxError):
        parse_as_3_10(source)



def test_raw_triple_constructor_stays_in_the_kernel():
    users = {
        str(path.relative_to(ROOT))
        for path in SOURCES
        if refers_to(ast.parse(path.read_text(encoding="utf-8")), PRIVATE)
    }
    assert users == OWNERS


@pytest.mark.parametrize(
    "source, found",
    [
        ("from geobracket.scalars import _normalized\n", True),
        ("import geobracket.scalars as s\nz = s._normalized(1, 0, 1)\n", True),
        ("z = _normalized(1, 0, 1)\n", True),
        ("text = '_normalized'\n", False),
        ("z = normalized(1, 0, 1)\n", False),
    ],
    ids=["import", "attribute", "name", "string", "other-name"],
)
def test_reference_detector(source, found):
    assert refers_to(ast.parse(source), PRIVATE) is found
