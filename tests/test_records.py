"""Serialization contract: stable, comment-headed CSV and canonical JSON."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionramsey import cli
from ionramsey.protocols import Estimate, Protocol, RamseyConfig, Trials, run_ramsey
from ionramsey.records import CSV_COLUMNS, trial_rows, write_json, write_table_csv


def make_trials(outcomes=(1.0,), seed_label="7/0/0"):
    outcomes = np.array(outcomes, dtype=np.float64)
    cfg = RamseyConfig(
        n_ions=3,
        t_ramsey=1.0,
        omega_r=0.5235987755982988,
        omega_0=0.0,
        protocol=Protocol.GHZ_PARITY,
    )
    return Trials(cfg=cfg, outcomes=outcomes, seed_label=seed_label)


class TestCsvWriters:
    def test_records_csv_layout(self, tmp_path):
        path = tmp_path / "out.csv"
        rows, index = trial_rows(make_trials([1.0, -1.0]))
        write_table_csv(path, CSV_COLUMNS, rows, {"seed": 7, "b": "x"}, index)
        lines = path.read_text().splitlines()
        # Comment header: sorted key=value pairs, then the column row.
        assert lines[0] == "# b=x"
        assert lines[1] == "# seed=7"
        assert lines[2] == ",".join(CSV_COLUMNS)
        assert lines[3] == "ghz_parity,3,1.0,0.5235987755982988,7/0/0,1.0,,"
        assert lines[4] == "ghz_parity,3,1.0,0.5235987755982988,7/0/0,-1.0,,"
        assert len(lines) == 5

    def test_floats_round_trip_exactly(self, tmp_path):
        # repr-format floats must parse back bit-identically.
        value = 0.1 + 0.2  # classic non-representable sum
        path = tmp_path / "r.csv"
        rows, index = trial_rows(make_trials([value]))
        write_table_csv(path, CSV_COLUMNS, rows, {}, index)
        data_line = path.read_text().splitlines()[-1]
        assert float(data_line.split(",")[5]) == value

    def test_estimate_record_row_shape(self):
        trials = make_trials([1.0, -1.0, 1.0], seed_label="1/0/0")
        rows, index = trial_rows(trials, Estimate(estimate=0.05, sigma=0.002))
        assert index == [1, 0, 1, 2]
        rows = [rows[k] for k in index]
        assert [row[4] for row in rows] == ["1/0/0"] * 4
        assert all(len(row) == len(CSV_COLUMNS) for row in rows)
        assert rows[-1][5:] == ["", "0.05", "0.002"]
        assert all(isinstance(cell, str) for row in rows for cell in row)

    def test_table_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table_csv(path, ("a", "b"), [(1, 2.5), (3, np.float64(4.25))], {"k": 1})
        assert path.read_text() == "# k=1\na,b\n1,2.5\n3,4.25\n"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), np.float64(-np.inf)])
    def test_non_finite_cell_is_refused(self, tmp_path, value):
        with pytest.raises(ValueError, match="non-finite"):
            write_table_csv(tmp_path / "t.csv", ("a", "b"), [("x", 1.0), ("y", value)])

    def test_transient_rows_are_each_written(self, tmp_path):
        # zip hands out one recycled tuple, so every row has the same id():
        # nothing may be keyed on a row's identity.
        path = tmp_path / "t.csv"
        names, values = ["x", "y", "z", "x"], [1.0, 0.5, -2.0, 1.0]
        write_table_csv(path, ("a", "b"), (row for row in zip(names, values)))
        write_table_csv(tmp_path / "s.csv", ("a", "b"), zip(names, map(repr, values)))
        expected = "a,b\nx,1.0\ny,0.5\nz,-2.0\nx,1.0\n"
        assert path.read_text() == (tmp_path / "s.csv").read_text() == expected

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_outcome_is_refused(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            trial_rows(make_trials([1.0, value, -1.0]))

    def test_non_finite_outcome_writes_nothing(self, tmp_path, monkeypatch, capsys):
        def nan_run(cfg, rng, seed_label=""):
            return Trials(cfg, np.array([1.0, np.nan, -1.0]), seed_label)

        monkeypatch.setattr(cli, "run_ramsey", nan_run)
        cfg = tmp_path / "r.ini"
        cfg.write_text("[ramsey]\nn_ions = 2\nt_ramsey = 1.0\nomega_r = 0.3\nshots = 3\n")
        out = tmp_path / "out"
        assert cli.main(["ramsey", "--config", str(cfg), "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "non-finite" in err["message"]
        assert not out.exists() and not list(tmp_path.rglob("*.partial"))

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "1.csv", tmp_path / "2.csv"
        rows, index = trial_rows(make_trials([float(x) for x in range(5)]))
        write_table_csv(p1, CSV_COLUMNS, rows, {"seed": 3}, index)
        write_table_csv(p2, CSV_COLUMNS, rows, {"seed": 3}, index)
        assert p1.read_bytes() == p2.read_bytes()


def reference_rows(trials, estimate):
    """The table as it was written before rows were formatted by class: one
    row per shot, each outcome through ``repr``."""
    cfg = trials.cfg
    config = [cfg.protocol.value, str(cfg.n_ions), repr(float(cfg.t_ramsey)),
              repr(float(cfg.omega_r)), trials.seed_label]
    rows = [[*config, repr(v), "", ""] for v in trials.outcomes.tolist()]
    if estimate is not None:
        rows.append([*config, "", repr(estimate.estimate), repr(estimate.sigma)])
    return rows


def reference_files(meta, rows):
    """(CSV text, JSON text) of a table, joined and encoded row by row."""
    lines = [f"# {key}={meta[key]}" for key in sorted(meta)]
    csv = "\n".join([*lines, ",".join(CSV_COLUMNS), *(",".join(row) for row in rows)]) + "\n"
    payload = {"meta": meta, "rows": [dict(zip(CSV_COLUMNS, row)) for row in rows]}
    return csv, json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


class TestClassIndexedTables:
    """Tables written by readout class match the per-shot formula byte for byte."""

    @pytest.mark.parametrize("protocol", list(Protocol))
    @pytest.mark.parametrize("n_ions", [1, 2, 6, 20])
    @pytest.mark.parametrize("shots", [1, 300, 2500])
    @pytest.mark.parametrize("estimate", [None, Estimate(0.1 + 0.2, 1e-3 / 3)])
    def test_bytes_match_the_per_shot_formula(self, tmp_path, protocol, n_ions, shots, estimate):
        cfg = RamseyConfig(n_ions=n_ions, t_ramsey=0.7, omega_r=0.9 / n_ions, omega_0=0.05,
                           protocol=protocol, final_phase=0.3, shots=shots)
        trials = run_ramsey(cfg, np.random.default_rng([n_ions, shots]), "5/0/0")
        rows, index = trial_rows(trials, estimate)
        assert len(rows) <= 2 * n_ions + 1
        for fmt in ("csv", "json"):
            manifest = cli.RunManifest("ramsey", "", 5, str(tmp_path / fmt), fmt, False)
            paths = cli._output_paths(manifest)
            cli._write_outputs(manifest, paths, CSV_COLUMNS, rows, {}, index)
            expected = reference_files(manifest.meta(), reference_rows(trials, estimate))
            assert paths[0].read_text() == expected[fmt == "json"]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from([1.0, -1.0, 0.5, -0.5, 0.0, -0.0, 3.0, 5e-324]), min_size=1)
        | st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1),
        st.booleans(),
    )
    def test_table_rows_match_the_per_shot_formula(self, outcomes, with_estimate):
        trials = make_trials(outcomes)
        estimate = Estimate(-0.25, 2.5e-3) if with_estimate else None
        rows, index = trial_rows(trials, estimate)
        assert [rows[k] for k in index] == reference_rows(trials, estimate)


class TestJsonWriter:
    def test_sorted_keys_and_trailing_newline(self, tmp_path):
        path = tmp_path / "s.json"
        write_json(path, {"zeta": 1, "alpha": {"y": 2, "x": 3}})
        text = path.read_text()
        assert text.endswith("\n")
        assert text.index('"alpha"') < text.index('"zeta"')
        assert json.loads(text) == {"zeta": 1, "alpha": {"y": 2, "x": 3}}

    def test_numpy_scalars_serializable(self, tmp_path):
        path = tmp_path / "n.json"
        write_json(path, {"v": float(np.float64(1.5)), "n": int(np.int64(3))})
        assert json.loads(path.read_text()) == {"v": 1.5, "n": 3}

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_value_is_refused(self, tmp_path, value):
        with pytest.raises(ValueError):
            write_json(tmp_path / "s.json", {"slopes": {"ghz": value}})
