"""Schema-driven fuzzing of the command-line exit-code contract.

Every config starts from a valid one of its command (``test_cli.MINIMAL``;
for ``ramsey`` also a dephased and an expectation-mode one, whose 8 s scan
spans several fringes) and changes up
to three keys of ``cli._SCHEMA``: a key is dropped or set
to a value drawn from its parser's type. Besides ordinary values that
includes the edges every range is tested at: 0, 1, 2, -1, 1e-300, 1e300
and their negatives, non-finite and malformed text. The keys that set a
run's cost (ion numbers, shots, trials, grid sizes, iterations) draw
ordinary values from a small range, so a dense register stays tiny.

Each run goes in-process through :func:`ionramsey.cli.main` and must keep
the contract:

* the exit code is 0, 2, 3 or 4;
* a non-zero exit writes one JSON line to stderr and no ``--out``;
* a zero exit writes only finite values, in the table and the summary;
* a zero-exit ``ramsey --expectation-mode`` scan without ``epsilon`` (whose
  harmonics the one-frequency fit does not model) fits the expected fringe
  frequency to 1e-6 relative.

Hypothesis runs derandomized, so the examples are the same on every run.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ionramsey import MAX_IONS, cli
from test_cli import MINIMAL, SIGNAL_FILE

fuzz = settings(derandomize=True, deadline=None, max_examples=40, database=None)

EDGES = ["0", "1", "2", "-1", "1e-300", "-1e-300", "1e300", "-1e300", "nan", "inf", "x", ""]

# Ordinary values of the keys that set a run's cost stay below these caps.
COST_CAPS = {
    "n_ions": 5, "shots": 60, "trials": 30, "grid_points": 24, "max_iter": 5,
    "scan_points": 96, "l_values": 4,
}
# The valid configs a drawn config starts from.
BASES = {
    **{command: [values] for command, values in MINIMAL.items()},
    "ramsey": [
        MINIMAL["ramsey"],
        {**MINIMAL["ramsey"], "gamma": "0.2"},
        {**{k: v for k, v in MINIMAL["ramsey"].items() if k != "shots"}, "scan_t_max": "8"},
    ],
    "run": [{}],
}
# The values of the free-text keys the commands read.
CHOICES = {
    "protocol": ["ghz", "standard"],
    "readout": ["final_pulse", "time_reversed"],
    "noise_mode": ["independent", "common"],
    "mode": ["sampled", "analytic"],
    "input": [str(SIGNAL_FILE), "no/such/file.csv"],
}


def _number(key, parse):
    """Raw text of one int or float value of ``key``: ordinary or an edge."""
    edges = st.sampled_from(EDGES + ([str(MAX_IONS + 1)] if key == "n_ions" else []))
    if parse is int:
        return st.one_of(st.integers(1, COST_CAPS.get(key, 50)).map(str), edges)
    return st.one_of(st.floats(-3.0, 3.0, allow_nan=False).map(repr), edges)


def _raw_value(key, parse):
    """Raw text of a value of ``key``, from its schema parser's type."""
    if parse in (int, cli._float):
        return _number(key, parse)
    if parse is cli._bool:
        return st.sampled_from(["true", "false", "maybe"])
    if parse is cli._ints:
        return st.lists(_number("l_values", int), max_size=4).map(" ".join)
    if parse is cli._floats:
        return st.lists(_number(key, cli._float), max_size=4).map(" ".join)
    if parse is cli._epsilon:
        item = st.tuples(st.integers(-1, 5), _number(key, cli._float))
        return st.one_of(
            st.lists(item.map("{0[0]}:{0[1]}".format), min_size=1, max_size=3).map(" ".join),
            st.sampled_from(["1:0.1:1e300", "1", "a:b"]),
        )
    return st.sampled_from(CHOICES.get(key, []) + ["bogus"])


def _config(section):
    """A valid config of ``section`` with up to three schema keys dropped
    (None) or set to a drawn value."""
    table = cli._SCHEMA[section]
    change = st.sampled_from(list(table)).flatmap(
        lambda key: st.tuples(st.just(key), st.none() | _raw_value(key, table[key][0]))
    )

    def apply(drawn):
        base, changes = drawn
        values = dict(base)
        for key, raw in changes:
            values.pop(key, None)
            if raw is not None:
                values[key] = raw
        return values

    changes = st.lists(change, max_size=3, unique_by=lambda c: c[0])
    return st.tuples(st.sampled_from(BASES[section]), changes).map(apply)


def _flags():
    return st.tuples(
        st.booleans(), st.sampled_from(["csv", "json"]), st.integers(0, 3)
    ).map(lambda f: (*(("--expectation-mode",) if f[0] else ()), "--format", f[1],
                     "--seed", str(f[2])))


def _ini(command, values, run=None):
    text = f"[{command}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
    if run:
        text += "[run]\n" + "".join(f"{k} = {v}\n" for k, v in run.items())
    return text


def _assert_finite_json(path):
    def reject(token):
        raise AssertionError(f"{path.name} holds the non-finite value {token}")

    json.loads(path.read_text(), parse_constant=reject)


def _assert_finite_csv(path):
    rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    for row in csv.reader(rows):
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value), f"{path.name} holds the non-finite cell {cell!r}"


def check_contract(command, values, flags, run=None):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "fuzz.ini"
        config.write_text(_ini(command, values, run))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(config), "--out", str(out), *flags])
        assert code in (0, 2, 3, 4), (code, err.getvalue())
        if code != 0:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1, lines
            assert set(json.loads(lines[0])) == {"error", "message"}
            assert not out.exists()
            return
        files = sorted(out.iterdir())
        assert [f.name for f in files if f.name.endswith("_summary.json")] == [
            f"{command}_summary.json"
        ]
        for path in files:
            (_assert_finite_csv if path.suffix == ".csv" else _assert_finite_json)(path)
        if command == "ramsey" and "--expectation-mode" in flags and "epsilon" not in values:
            summary = json.loads((out / "ramsey_summary.json").read_text())
            assert summary["fitted_fringe_frequency"] == pytest.approx(
                summary["expected_fringe_frequency"], rel=1e-6
            )


NYQUIST = {  # a fringe at the scan's Nyquist frequency once fitted an amplitude of 3079.8
    "protocol": "ghz", "n_ions": "16", "t_ramsey": "3.0", "omega_0": "0.1",
    "omega_r": "4.28879020478639", "scan_points": "64", "final_phase": "0.3", "phi0": "0.6",
    "epsilon": "1:0.08 15:0.05:1.1",
}


@fuzz
@given(_config("ramsey"), _flags(), _config("run"))
@example(NYQUIST, ("--expectation-mode",), {})
def test_ramsey_keeps_the_exit_contract(values, flags, run):
    check_contract("ramsey", values, flags, run)


@pytest.mark.parametrize("command", ["scaling", "dephasing", "calibrate", "fourier"])
@fuzz
@given(data=st.data())
def test_command_keeps_the_exit_contract(command, data):
    check_contract(command, data.draw(_config(command)), data.draw(_flags()),
                   data.draw(_config("run")))
