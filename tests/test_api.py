"""The public name list, no definition left behind without a use, and no
cache that a caller's floats can grow without bound."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import ionramsey
from ionramsey import cli

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


def test_cli_looks_up_only_schema_keys():
    """Each ``values["k"]`` in a ``cli.cmd_<section>`` names a key of that
    section: a misspelled key raises KeyError, which ``cli.main`` does not
    turn into an exit code."""
    text = (ROOT / "src" / "ionramsey" / "cli.py").read_text()
    looked_up = []
    for node in ast.parse(text).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_"):
            table = cli._SCHEMA[node.name.removeprefix("cmd_")]
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name)
                        and sub.value.id == "values" and isinstance(sub.slice, ast.Constant)):
                    looked_up.append(sub.slice.value)
                    assert sub.slice.value in table, f"{node.name}: {sub.slice.value!r}"
    assert looked_up and len(looked_up) == text.count('values["')


def _caches():
    """(qualified name, wrapper) of every ``functools`` cache at the top level
    of a package module."""
    for path in SOURCES:
        module = importlib.import_module(f"ionramsey.{path.stem}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == module.__name__:
                yield f"{path.stem}.{name}", obj


def test_float_keyed_caches_are_bounded():
    """A cache keyed by a caller's float (a phase, say) holds a bounded
    number of entries: a scan over that float must not grow it without end."""
    checked = []
    for name, cache in _caches():
        params = inspect.signature(cache.__wrapped__).parameters.values()
        if any("float" in str(p.annotation) for p in params):
            assert cache.cache_info().maxsize is not None, name
            checked.append(name)
    assert "protocols._pure_state" in checked and "protocols._reversed_close" in checked
    state, close = ionramsey.protocols._pure_state, ionramsey.protocols._reversed_close
    for phi0 in np.linspace(0.0, 1.0, 1000):
        state("ghz", 2, float(phi0))
        close(float(phi0))
    for cache in (state, close):
        assert cache.cache_info().currsize <= cache.cache_info().maxsize
