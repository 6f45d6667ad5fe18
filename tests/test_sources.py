"""Every source file parses under the oldest supported Python's grammar.

``pyproject.toml`` declares ``requires-python = ">=3.10"``.  Parsing with
``ast.parse(..., feature_version=(3, 10))`` catches 3.11-and-later syntax
(``except*``, PEP 695 generics, ``type`` aliases) on any newer interpreter.
It checks syntax only: a 3.11-only standard-library API (``tomllib``) is
not caught, and neither is a starred subscript ``a[*b]``, which
``feature_version`` does not police.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIRS = ("src", "tests", "perfbench", "demos")
SOURCES = sorted(path for name in SOURCE_DIRS for path in (ROOT / name).rglob("*.py"))


def test_every_source_directory_has_files():
    for name in SOURCE_DIRS:
        assert any(path.is_relative_to(ROOT / name) for path in SOURCES), name


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize(
    "source",
    [
        "try:\n    pass\nexcept* ValueError:\n    pass\n",
        "def first[T](items: list[T]) -> T:\n    return items[0]\n",
        "class Box[T]:\n    pass\n",
        "type Pair = tuple[int, int]\n",
    ],
    ids=["except-star", "generic-function", "generic-class", "type-alias"],
)
def test_newer_syntax_is_refused(source):
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
