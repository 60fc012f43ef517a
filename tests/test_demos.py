"""Smoke tests for the narrative scripts in ``demos/`` and the README's
library tour.

Each quick demo runs its ``main()`` with its output directory redirected to
a temporary path. ``dephasing_optimum`` is only imported: its sampled check
takes tens of seconds and repeats acceptance criterion 7's workload.
"""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ionramsey

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def load_demo(name):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_table(path):
    """(comment lines, header, float rows) of a ``write_table_csv`` file."""
    lines = Path(path).read_text().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    rows = np.array([[float(v) for v in line.split(",")] for line in body[1:]])
    return comments, body[0], rows


@pytest.mark.parametrize(
    "name", ["bus_ghz", "calibration_bias", "fringe_multiplication", "scaling_laws"]
)
def test_demo_writes_its_table(tmp_path, monkeypatch, capsys, name):
    demo = load_demo(name)
    monkeypatch.setattr(demo, "OUT", tmp_path)
    demo.main()
    lines = (tmp_path / f"{name}.csv").read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    assert len(lines) > header + 1
    assert "wrote" in capsys.readouterr().out


def test_imperfect_ghz_fourier_regenerates_dataset(tmp_path, monkeypatch, capsys):
    demo = load_demo("imperfect_ghz_fourier")
    committed = demo.DATASET
    monkeypatch.setattr(demo, "DATA", tmp_path / "data")
    monkeypatch.setattr(demo, "DATASET", tmp_path / "data" / committed.name)
    demo.main()
    got_comments, got_header, got = read_table(demo.DATASET)
    want_comments, want_header, want = read_table(committed)
    assert (got_comments, got_header) == (want_comments, want_header)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert "C_3 = 1/(1+eps^2)" in capsys.readouterr().out


def test_dephasing_optimum_imports():
    demo = load_demo("dephasing_optimum")
    assert callable(demo.main)


def test_readme_library_tour_runs():
    # The tour's one Python block, run as a reader runs it, in a fresh
    # interpreter: it recovers omega_0 = 2.0 from 2,000 dephased shots.
    readme = (ROOT / "README.md").read_text()
    tour = re.search(r"^## Library tour\n.*?^```python\n(.*?)^```", readme, re.M | re.S)
    done = subprocess.run(
        [sys.executable, "-c", tour.group(1)], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(ionramsey.__file__).parents[1])},
    )
    assert done.returncode == 0, done.stderr
    assert abs(float(done.stdout.split()[-1]) - 2.0) < 0.05
