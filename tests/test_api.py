"""The public name list, no definition left behind without a use, no
cache that a caller's floats can grow without bound, and the layering that
keeps the gate-level circuits off the Ramsey pipeline."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
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


# The README's words for the runs a key is read by, by its schema column.
RUNS = {"sampled runs only": cli._SAMPLED, "`--expectation-mode` only": cli._EXPECTATION}


def test_readme_lists_the_schema_keys():
    """README's "Section keys per command" list names each schema key once,
    in schema order, and marks with RUNS exactly the keys that only one mode
    reads."""
    text = (ROOT / "README.md").read_text().split("Section keys per command")[1]
    listed: dict[str, dict[str, str]] = {}
    bullet = None
    for line in text.split("\n\n", 2)[1].splitlines():
        if match := re.match(r"- `\[(\w+)\]`", line):
            section, bullet = listed.setdefault(match[1], {}), None
        elif match := re.match(r"  - `(\w+)`", line):
            bullet = match[1]
            section[bullet] = line
        elif bullet is not None:
            section[bullet] += " " + line.strip()
    assert {name: list(keys) for name, keys in listed.items()} == {
        name: list(table) for name, table in cli._SCHEMA.items()
    }
    for name, keys in listed.items():
        for key, words in keys.items():
            said = {runs for phrase, runs in RUNS.items() if phrase in words}
            assert said == {cli._SCHEMA[name][key][3]} - {None}, (name, key)


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


def _imported(node: ast.AST) -> set[str]:
    """The absolute names an import statement of a package module loads."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    if not isinstance(node, ast.ImportFrom):
        return set()
    base = node.module if node.level == 0 else ".".join(filter(None, ("ionramsey", node.module)))
    return {base} | {f"{base}.{alias.name}" for alias in node.names}


def test_only_gates_holds_the_dense_register():
    """The Ramsey pipeline runs in the Dicke subspace of ``register``: no
    package module but ``gates`` itself imports from ``gates``."""
    importers = [path.stem for path in SOURCES if path.stem != "gates" and any(
        "ionramsey.gates" in _imported(node) for node in ast.walk(ast.parse(path.read_text())))]
    assert importers == []
    for statement, loads in (("from .gates import Rot", True), ("from . import gates", True),
                             ("import ionramsey.gates", True), ("from .register import MAX_IONS", False)):
        assert ("ionramsey.gates" in _imported(ast.parse(statement).body[0])) is loads


def test_cli_import_leaves_gates_unloaded():
    probe = "import sys, ionramsey.cli; print('ionramsey.gates' in sys.modules)"
    fresh = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )
    assert fresh.stdout.strip() == "False"
