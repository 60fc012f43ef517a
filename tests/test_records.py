"""Serialization contract: stable, comment-headed CSV and canonical JSON."""

import json

import numpy as np

from ionramsey.records import (
    CSV_COLUMNS,
    EstimateRecord,
    TrialRecord,
    record_row,
    write_json,
    write_table_csv,
)


def make_trial(outcome=1.0):
    return TrialRecord(
        protocol="ghz_parity",
        n_ions=3,
        t_ramsey=1.0,
        omega_r=0.5235987755982988,
        seed="7/0/0",
        outcome=outcome,
    )


class TestCsvWriters:
    def test_records_csv_layout(self, tmp_path):
        path = tmp_path / "out.csv"
        rows = [record_row(make_trial()), record_row(make_trial(-1.0))]
        write_table_csv(path, CSV_COLUMNS, rows, {"seed": 7, "b": "x"})
        lines = path.read_text().splitlines()
        # Comment header: sorted key=value pairs, then the column row.
        assert lines[0] == "# b=x"
        assert lines[1] == "# seed=7"
        assert lines[2] == ",".join(CSV_COLUMNS)
        assert lines[3].startswith("ghz_parity,3,1.0,0.5235987755982988,7/0/0,1.0")
        assert len(lines) == 5

    def test_floats_round_trip_exactly(self, tmp_path):
        # repr-format floats must parse back bit-identically.
        value = 0.1 + 0.2  # classic non-representable sum
        rec = make_trial(outcome=value)
        path = tmp_path / "r.csv"
        write_table_csv(path, CSV_COLUMNS, [record_row(rec)], {})
        data_line = path.read_text().splitlines()[-1]
        assert float(data_line.split(",")[5]) == value

    def test_estimate_record_row_shape(self):
        est = EstimateRecord(
            protocol="standard",
            n_ions=2,
            t_ramsey=1.0,
            omega_r=0.3,
            seed="1/0",
            estimate=0.05,
            sigma=0.002,
            n_trials=100,
            method="single_fringe",
        )
        row = record_row(est)
        assert len(row) == len(CSV_COLUMNS)
        assert row[-2:] == ["0.05", "0.002"]

    def test_table_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table_csv(path, ("a", "b"), [(1, 2.5), (3, np.float64(4.25))], {"k": 1})
        assert path.read_text() == "# k=1\na,b\n1,2.5\n3,4.25\n"

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "1.csv", tmp_path / "2.csv"
        rows = [record_row(make_trial(float(x))) for x in range(5)]
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
