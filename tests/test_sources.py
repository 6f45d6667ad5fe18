"""Every source file parses under the oldest supported Python's grammar.

``pyproject.toml`` declares ``requires-python = ">=3.10"``.  Parsing with
``ast.parse(..., feature_version=(3, 10))`` catches 3.11-and-later syntax
(``except*``, PEP 695 generics, ``type`` aliases) on any newer interpreter.
``feature_version`` lets two things through, so ``parse_as_3_10`` also walks
the tree and refuses them: a starred subscript ``a[*b]``, an import of a
standard-library module that first shipped in 3.11 (``NEW_IN_3_11``), and a
name that 3.11 added to an older module (``NEW_NAMES_IN_3_11``), imported
with ``from m import n`` or read as ``m.n`` through ``import m [as k]``.

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

NEW_NAMES_IN_3_11 = {
    "asyncio": frozenset({"Barrier", "Runner", "TaskGroup", "Timeout", "timeout", "timeout_at"}),
    "contextlib": frozenset({"chdir"}),
    "datetime": frozenset({"UTC"}),
    "enum": frozenset({"ReprEnum", "StrEnum", "member", "nonmember", "verify"}),
    "hashlib": frozenset({"file_digest"}),
    "logging": frozenset({"getLevelNamesMapping"}),
    "math": frozenset({"cbrt", "exp2"}),
    "operator": frozenset({"call"}),
    "re": frozenset({"NOFLAG"}),
    "sys": frozenset({"exception"}),
    "typing": frozenset({
        "LiteralString", "Never", "NotRequired", "Required", "Self", "TypeVarTuple", "Unpack",
        "assert_never", "assert_type", "dataclass_transform", "reveal_type",
    }),
}

PRIVATE = "_normalized"
OWNERS = frozenset({"src/geobracket/scalars.py", "src/geobracket/functions.py"})


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
    return []


def _new_names_used(tree):
    """``(line, "m.n")`` for every name of ``NEW_NAMES_IN_3_11`` that ``tree``
    imports from its module or reads as an attribute of the imported module."""
    modules = {}  # local name -> module, from ``import m`` and ``import m as k``
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    modules[alias.asname] = alias.name
                elif "." not in alias.name:
                    modules[alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level:
            new = NEW_NAMES_IN_3_11.get(node.module, ())
            for alias in node.names:
                if alias.name in new:
                    yield node.lineno, f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = modules.get(node.value.id)
            if node.attr in NEW_NAMES_IN_3_11.get(module, ()):
                yield node.lineno, f"{module}.{node.attr}"


def parse_as_3_10(source, filename="<source>"):
    """``ast.parse`` under the 3.10 grammar, plus what that grammar lets through."""
    tree = ast.parse(source, filename=filename, feature_version=(3, 10))
    for line, name in _new_names_used(tree):
        raise SyntaxError(f"{filename}:{line}: {name} needs 3.11")
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
        "from typing import Self\n",
        "import math\nroot = math.cbrt(8)\n",
    ],
    ids=[
        "except-star", "generic-function", "generic-class", "type-alias",
        "starred-subscript", "tomllib", "from-tomllib", "wsgiref-types", "import-wsgiref-types",
        "from-typing-self", "math-cbrt",
    ],
)
def test_newer_syntax_is_refused(source):
    with pytest.raises(SyntaxError):
        parse_as_3_10(source)


@pytest.mark.parametrize(
    "module, name",
    sorted((module, name) for module, names in NEW_NAMES_IN_3_11.items() for name in names),
)
def test_every_newer_name_is_refused_in_both_forms(module, name):
    for source in (
        f"from {module} import {name}\n",
        f"from {module} import {name} as renamed\n",
        f"import {module}\nvalue = {module}.{name}\n",
        f"import {module} as m\nvalue = m.{name}\n",
    ):
        with pytest.raises(SyntaxError, match=f"{module}.{name} needs 3.11"):
            parse_as_3_10(source)


@pytest.mark.parametrize(
    "source",
    [
        "from typing import Optional\n",
        "import math\nroot = math.sqrt(8)\n",
        "from datetime import datetime\nnow = datetime.UTC\n",
        "cbrt = 2\nmath = object()\nvalue = math.cbrt\n",
    ],
    ids=["older-name", "older-attribute", "class-not-module", "not-imported"],
)
def test_older_names_pass(source):
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
