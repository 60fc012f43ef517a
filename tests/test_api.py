"""The public name list, and no definition left behind without a use."""

import ast
import re
from pathlib import Path

import pytest

import ionramsey

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "ionramsey").glob("*.py"))
SEARCHED = ("src", "tests", "demos", "perfbench")


def test_all_is_sorted_unique_and_resolves():
    names = ionramsey.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(ionramsey, name, None) is not None, name


def _top_level_definitions():
    """(module path, name, first line, last line) of every top-level function
    and class in the package."""
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield path, node.name, node.lineno, node.end_lineno


def _corpus() -> dict[Path, list[str]]:
    return {
        path: path.read_text().splitlines()
        for folder in SEARCHED
        for path in sorted((ROOT / folder).rglob("*.py"))
    }


CORPUS = _corpus()


@pytest.mark.parametrize(
    "path,name,first,last",
    [pytest.param(*d, id=f"{d[0].stem}.{d[1]}") for d in _top_level_definitions()],
)
def test_every_definition_is_named_outside_itself(path, name, first, last):
    word = re.compile(rf"\b{re.escape(name)}\b")
    for other, lines in CORPUS.items():
        for lineno, line in enumerate(lines, start=1):
            inside = other == path and first <= lineno <= last
            if not inside and word.search(line):
                return
    pytest.fail(f"{path.name}: {name} is named nowhere but in its own definition")
