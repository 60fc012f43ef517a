"""Serialization contract: stable, comment-headed CSV and canonical JSON."""

import json

import numpy as np
import pytest

from ionramsey.protocols import Estimate, Protocol, RamseyConfig, Trials
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
        rows = trial_rows(make_trials([1.0, -1.0]))
        write_table_csv(path, CSV_COLUMNS, rows, {"seed": 7, "b": "x"})
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
        write_table_csv(path, CSV_COLUMNS, trial_rows(make_trials([value])), {})
        data_line = path.read_text().splitlines()[-1]
        assert float(data_line.split(",")[5]) == value

    def test_estimate_record_row_shape(self):
        trials = make_trials([1.0, -1.0, 1.0], seed_label="1/0/0")
        rows = trial_rows(trials, Estimate(estimate=0.05, sigma=0.002))
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

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "1.csv", tmp_path / "2.csv"
        rows = trial_rows(make_trials([float(x) for x in range(5)]))
        write_table_csv(p1, CSV_COLUMNS, rows, {"seed": 3})
        write_table_csv(p2, CSV_COLUMNS, rows, {"seed": 3})
        assert p1.read_bytes() == p2.read_bytes()


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
