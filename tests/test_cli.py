"""End-to-end command-line checks (in-process via cli.main)."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ionramsey import cli
from ionramsey.cli import main
from ionramsey.protocols import synthesize_signal


def write_config(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


RAMSEY_INI = """
[run]
seed = 42

[ramsey]
protocol = ghz
n_ions = 3
t_ramsey = 1.0
omega_0 = 0.1
omega_r = 0.62359877559829887
shots = 1500
"""


# One valid config per command, as key -> raw value.
MINIMAL = {
    "ramsey": {"n_ions": "2", "t_ramsey": "1.0", "omega_r": "0.4", "shots": "100"},
    "scaling": {"l_values": "1 2", "trials": "100"},
    "dephasing": {
        "gamma": "0.5", "n_ions": "2", "t_min": "0.05", "t_max": "3.0", "mode": "analytic",
    },
    "calibrate": {
        "n_ions": "4", "omega_0": "0.61803", "omega_r1": "0.50", "omega_r2": "0.70",
        "t_r1": "0.02", "t_r2": "2.0",
    },
    "fourier": {"n_ions": "2", "delta_omega": "1.0", "c": "0.5 0.5"},
}



# A signal file that exists wherever the tests run.
SIGNAL_FILE = Path(__file__).resolve().parents[1] / "demos" / "data" / "imperfect_ghz_fringe.csv"


def _ini(section, values):
    return f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())


class TestRamseyCommand:
    def test_sampled_run_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "r.ini", RAMSEY_INI)
        out = tmp_path / "out"
        assert main(["ramsey", "--config", cfg, "--out", str(out)]) == 0
        csv_text = (out / "ramsey.csv").read_text()
        assert csv_text.startswith("# command=ramsey\n# manifest_sha256=")
        summary = json.loads((out / "ramsey_summary.json").read_text())
        assert summary["meta"]["seed"] == 42
        assert summary["shots"] == 1500
        # half-fringe setup: estimate should sit near the true detuning
        assert summary["estimate_delta_omega"] == pytest.approx(
            summary["delta_omega"], abs=5 * summary["estimate_sigma"]
        )

    def test_thread_invariance_and_force(self, tmp_path):
        cfg = write_config(tmp_path, "r.ini", RAMSEY_INI)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["ramsey", "--config", cfg, "--out", str(a), "--threads", "1"]) == 0
        assert main(["ramsey", "--config", cfg, "--out", str(b), "--threads", "4"]) == 0
        assert (a / "ramsey.csv").read_bytes() == (b / "ramsey.csv").read_bytes()
        assert (a / "ramsey_summary.json").read_bytes() == (
            b / "ramsey_summary.json"
        ).read_bytes()
        # Re-running into the same directory requires --force.
        assert main(["ramsey", "--config", cfg, "--out", str(a)]) == 2
        assert main(["ramsey", "--config", cfg, "--out", str(a), "--force"]) == 0

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, "r.ini", RAMSEY_INI)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["ramsey", "--config", cfg, "--out", str(a), "--seed", "7"])
        main(["ramsey", "--config", cfg, "--out", str(b)])
        sa = json.loads((a / "ramsey_summary.json").read_text())
        sb = json.loads((b / "ramsey_summary.json").read_text())
        assert sa["meta"]["seed"] == 7
        assert sb["meta"]["seed"] == 42
        assert sa["mean_outcome"] != sb["mean_outcome"]

    def test_expectation_mode_scan(self, tmp_path):
        ini = """
[ramsey]
protocol = ghz
n_ions = 4
t_ramsey = 1.0
omega_0 = 0.0
omega_r = 0.4
scan_points = 96
scan_t_max = 3.9269908169872414
"""
        cfg = write_config(tmp_path, "e.ini", ini)
        out = tmp_path / "out"
        code = main(
            ["ramsey", "--config", cfg, "--out", str(out), "--expectation-mode"]
        )
        assert code == 0
        summary = json.loads((out / "ramsey_summary.json").read_text())
        assert summary["fitted_fringe_frequency"] == pytest.approx(
            4 * 0.4, rel=1e-6
        )

    @pytest.mark.parametrize(
        "below_bins,code", [(1.5, 0), (1.01, 0), (0.99, 2), (0.1, 2), (-1, 2), (-32, 2)]
    )
    def test_expectation_scan_nyquist_margin(self, tmp_path, capsys, below_bins, code):
        # The fringe may come up to half a frequency bin, pi / scan_t_max,
        # below the grid's Nyquist frequency pi * scan_points / scan_t_max.
        # Above it (below_bins < 0) the scan aliases: at -32 the fringe is 1.5
        # times Nyquist and the fit alone finds its alias at half Nyquist.
        n_ions, t_max, points = 4, 3.0, 64
        fringe = np.pi * (points - below_bins) / t_max
        ini = (
            f"[ramsey]\nprotocol = ghz\nn_ions = {n_ions}\nt_ramsey = 1.0\n"
            f"omega_r = {fringe / n_ions!r}\nscan_points = {points}\nscan_t_max = {t_max}\n"
        )
        out = tmp_path / "out"
        argv = ["ramsey", "--config", write_config(tmp_path, "e.ini", ini), "--out", str(out)]
        assert main([*argv, "--expectation-mode"]) == code
        if code == 2:
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "ConfigError" and "Nyquist" in err["message"]
        if code == 0:
            summary = json.loads((out / "ramsey_summary.json").read_text())
            assert summary["fitted_fringe_frequency"] == pytest.approx(fringe, rel=1e-9)

    @pytest.mark.parametrize(
        "protocol,readout,omega_r,tag",
        [
            ("standard", "final_pulse", 1.6707963267948966, "standard"),
            ("ghz", "final_pulse", 0.6235987755982989, "ghz_parity"),
            ("ghz", "time_reversed", 0.6235987755982989, "ghz_reversed"),
        ],
    )
    def test_record_table_layout(self, tmp_path, protocol, readout, omega_r, tag):
        # 2,300 shots run as two batches: 2,000 from stream 42/0/0, 300 from 42/0/1.
        cfg = write_config(
            tmp_path,
            "r.ini",
            f"[run]\nseed = 42\n[ramsey]\nprotocol = {protocol}\nreadout = {readout}\n"
            f"n_ions = 3\nt_ramsey = 1.0\nomega_0 = 0.1\nomega_r = {omega_r}\nshots = 2300\n",
        )
        out = tmp_path / "out"
        assert main(["ramsey", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "ramsey.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if not line.startswith("#")]
        assert rows[0] == [
            "protocol", "L", "T_R", "omega_R", "seed", "outcome", "estimate", "sigma",
        ]
        shots, estimate = rows[1:-1], rows[-1]
        assert len(shots) == 2300
        assert {row[0] for row in rows[1:]} == {tag}
        assert [row[4] for row in shots] == ["42/0/0"] * 2000 + ["42/0/1"] * 300
        assert all(row[5] and row[6:] == ["", ""] for row in shots)
        assert estimate[4:6] == ["42/0/0", ""]
        assert estimate[6] and estimate[7]

        json_out = tmp_path / "json"
        argv = ["ramsey", "--config", cfg, "--out", str(json_out), "--format", "json"]
        assert main([*argv, "--threads", "2"]) == 0
        json_rows = json.loads((json_out / "ramsey.json").read_text())["rows"]
        assert len(json_rows) == 2301
        assert all(isinstance(v, str) for row in json_rows for v in row.values())
        assert [row["seed"] for row in json_rows] == [row[4] for row in rows[1:]]

    def test_json_format(self, tmp_path):
        cfg = write_config(tmp_path, "r.ini", RAMSEY_INI)
        out = tmp_path / "out"
        main(["ramsey", "--config", cfg, "--out", str(out), "--format", "json"])
        rows = json.loads((out / "ramsey.json").read_text())["rows"]
        assert rows[0]["protocol"] == "ghz_parity"
        assert set(rows[0]) == {
            "protocol", "L", "T_R", "omega_R", "seed", "outcome", "estimate", "sigma",
        }


class TestErrorPaths:
    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "bad.ini", "[ramsey]\nprotocol = ghz\nn_ions = 2\nt_ramsey = 1\nomega_r = 0.1\nbogus = 1\n"
        )
        assert main(["ramsey", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "bogus" in err["message"]

    def test_unknown_section_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "bad.ini", "[ramsey]\nn_ions = 2\n[mystery]\nx = 1\n")
        assert main(["ramsey", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert (
            main(["ramsey", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)])
            == 2
        )

    def test_capacity_exits_3(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "big.ini",
            "[ramsey]\nprotocol = ghz\nn_ions = 30\nt_ramsey = 1.0\nomega_r = 0.1\n",
        )
        assert main(["ramsey", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "CapacityError"

    def test_non_convergence_exits_4(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "cal.ini",
            "[calibrate]\nn_ions = 4\nomega_0 = 0.61803\nomega_r1 = 0.50\n"
            "omega_r2 = 0.70\nt_r1 = 0.02\nt_r2 = 2.0\nmax_iter = 1\n",
        )
        assert main(["calibrate", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
        assert json.loads(capsys.readouterr().err)["error"] == "ConvergenceError"

    def test_ambiguous_fringe_exits_4(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "wrap.ini",
            "[ramsey]\nprotocol = ghz\nn_ions = 4\nt_ramsey = 1.0\nomega_0 = 0.0\n"
            "omega_r = 2.0\nshots = 10\n",
        )
        assert main(["ramsey", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
        assert json.loads(capsys.readouterr().err)["error"] == "AmbiguousFringeError"

    def test_bad_threads_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "r.ini", RAMSEY_INI)
        assert main(["ramsey", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "0"]) == 2

    @pytest.mark.parametrize(
        "command,text,flags,needle",
        [
            pytest.param(
                "ramsey",
                "[ramsey]\nprotocol = ghz\nn_ions = 2\nt_ramsey = 1.0\nomega_r = 0.1\n"
                "gamma = 0.2\nnoise_mode = bogus\n",
                (),
                "mode",
                id="bogus_noise_mode",
            ),
            pytest.param(
                "calibrate",
                "[calibrate]\nn_ions = 4\nomega_0 = 0.61803\nomega_r1 = 0.50\n"
                "omega_r2 = 0.70\nt_r1 = 0.4\nt_r2 = 2.0\n",
                (),
                "t_r2/t_r1",
                id="calibrate_time_ratio_5",
            ),
            pytest.param(
                "ramsey",
                "[ramsey]\nprotocol = ghz\nn_ions = 2\nt_ramsey = 1.0\nomega_r = 0.1\n"
                "gamma = -5\n",
                (),
                "gamma",
                id="negative_gamma",
            ),
            # Keys the standard protocol would silently ignore.
            pytest.param(
                "ramsey",
                "[ramsey]\nprotocol = standard\nreadout = time_reversed\nn_ions = 2\n"
                "t_ramsey = 1.0\nomega_r = 0.1\n",
                (),
                "time_reversed",
                id="standard_time_reversed",
            ),
            pytest.param(
                "ramsey",
                "[ramsey]\nprotocol = standard\nepsilon = 1:0.3\nn_ions = 2\n"
                "t_ramsey = 1.0\nomega_r = 0.1\n",
                (),
                "epsilon",
                id="standard_epsilon",
            ),
            pytest.param(
                "ramsey",
                "[ramsey]\nprotocol = standard\nphi0 = 0.5\nn_ions = 2\n"
                "t_ramsey = 1.0\nomega_r = 0.1\n",
                (),
                "phi0",
                id="standard_phi0",
            ),
            # Range checks at parse time.
            pytest.param(
                "scaling",
                "[scaling]\nl_values = 1 2\ntrials = 0\n",
                ("--expectation-mode",),
                "trials",
                id="scaling_zero_trials_expectation",
            ),
            pytest.param(
                "scaling",
                "[scaling]\nl_values = 1 2\ntrials = -3\n",
                (),
                "trials",
                id="scaling_negative_trials",
            ),
            pytest.param(
                "calibrate",
                "[calibrate]\nn_ions = 4\nomega_0 = 0.61803\nomega_r1 = 0.50\n"
                "omega_r2 = 0.70\nt_r1 = 0.02\nt_r2 = 2.0\nmax_iter = 0\n",
                (),
                "max_iter",
                id="calibrate_zero_max_iter",
            ),
            pytest.param(
                "dephasing",
                "[dephasing]\ngamma = 0.5\nn_ions = 3\nt_min = 0.05\nt_max = 3.0\n"
                "trials = -2\nmode = analytic\n",
                (),
                "trials",
                id="dephasing_negative_trials_analytic",
            ),
            pytest.param(
                "dephasing",
                "[dephasing]\ngamma = 0.5\nn_ions = 3\nt_min = 0.05\nt_max = 3.0\n"
                "trials = 0\n",
                (),
                "trials",
                id="dephasing_zero_trials",
            ),
            pytest.param(
                "fourier",
                "[fourier]\nn_ions = 2\ndelta_omega = 0\nc = 0.5 0.5\n",
                (),
                "delta_omega",
                id="fourier_zero_delta_omega_c",
            ),
            pytest.param(
                "fourier",
                "[fourier]\nn_ions = 2\ndelta_omega = 0\nepsilon = 1:0.1\n",
                (),
                "delta_omega",
                id="fourier_zero_delta_omega_epsilon",
            ),
            # Non-finite numbers.
            pytest.param(
                "dephasing",
                "[dephasing]\ngamma = nan\nn_ions = 3\nt_min = 0.05\nt_max = 3.0\n"
                "mode = analytic\n",
                (),
                "gamma",
                id="dephasing_nan_gamma_analytic",
            ),
            pytest.param(
                "dephasing",
                "[dephasing]\ngamma = 0.5\nn_ions = 3\nt_min = 0.05\nt_max = inf\n"
                "mode = analytic\n",
                (),
                "t_max",
                id="dephasing_inf_t_max_analytic",
            ),
            pytest.param(
                "ramsey",
                "[ramsey]\nprotocol = ghz\nn_ions = 2\nt_ramsey = nan\nomega_r = 0.1\n",
                (),
                "t_ramsey",
                id="ramsey_nan_t_ramsey",
            ),
            pytest.param(
                "fourier",
                "[fourier]\nn_ions = 2\ndelta_omega = 1.0\nc = 0.5 nan\n",
                (),
                "'c'",
                id="fourier_nan_in_c",
            ),
            pytest.param(
                "fourier",
                "[fourier]\nn_ions = 2\ndelta_omega = 1.0\nepsilon = 1:-inf\n",
                (),
                "epsilon",
                id="fourier_inf_epsilon_amplitude",
            ),
            # [scaling] l_values: at least two distinct values, each >= 1.
            pytest.param(
                "scaling",
                "[scaling]\nl_values =\ntrials = 100\n",
                ("--expectation-mode",),
                "l_values",
                id="scaling_empty_l_values",
            ),
            pytest.param(
                "scaling",
                "[scaling]\nl_values = 0 1\ntrials = 100\n",
                ("--expectation-mode",),
                "l_values",
                id="scaling_zero_in_l_values",
            ),
            pytest.param(
                "scaling",
                "[scaling]\nl_values = 2\ntrials = 100\n",
                ("--expectation-mode",),
                "l_values",
                id="scaling_single_l_value",
            ),
            pytest.param(
                "scaling",
                "[scaling]\nl_values = 2 2\ntrials = 100\n",
                (),
                "l_values",
                id="scaling_repeated_l_value",
            ),
            # Keys that would be silently ignored.
            pytest.param(
                "ramsey",
                "[ramsey]\nprotocol = ghz\nn_ions = 2\nt_ramsey = 1.0\nomega_r = 0.4\n"
                "gamma = 0.2\n",
                ("--expectation-mode",),
                "gamma",
                id="ramsey_gamma_expectation",
            ),
            pytest.param(
                "fourier",
                "[fourier]\nn_ions = 2\ndelta_omega = 1.0\nc = 0.5 0.5\nepsilon = 1:0.1\n",
                (),
                "epsilon",
                id="fourier_two_sources",
            ),
            pytest.param(
                "fourier",
                "[fourier]\nn_ions = 2\ndelta_omega = 1.0\nepsilon = 1:0.1\nxi = 0 0\n",
                (),
                "xi",
                id="fourier_xi_without_c",
            ),
            pytest.param(
                "ramsey",
                "[ramsey]\nprotocol = ghz\nn_ions = 3\nt_ramsey = 1.0\nomega_r = 0.1\n"
                "epsilon = 1:0.1 1:0.2\n",
                (),
                "epsilon",
                id="ramsey_repeated_epsilon_p",
            ),
            pytest.param(
                "ramsey",
                "[ramsey]\nprotocol = ghz\nn_ions = 2\nt_ramsey = 1.0\nomega_r = 0.4\n"
                "noise_mode = common\nshots = 100\n",
                (),
                "noise_mode",
                id="ramsey_noise_mode_without_gamma",
            ),
            pytest.param(
                "ramsey",
                "[ramsey]\nprotocol = ghz\nn_ions = 2\nt_ramsey = 1.0\nomega_r = 0.4\n"
                "shots = 100\n",
                ("--expectation-mode",),
                "shots",
                id="ramsey_shots_expectation",
            ),
            pytest.param(
                "ramsey",
                "[ramsey]\nprotocol = ghz\nn_ions = 2\nt_ramsey = 1.0\nomega_r = 0.4\n"
                "scan_points = 32\n",
                (),
                "scan_points",
                id="ramsey_scan_points_sampled",
            ),
            pytest.param(
                "ramsey",
                "[ramsey]\nprotocol = ghz\nn_ions = 2\nt_ramsey = 1.0\nomega_r = 0.4\n"
                "scan_t_max = 2.0\n",
                (),
                "scan_t_max",
                id="ramsey_scan_t_max_sampled",
            ),
            pytest.param(
                "fourier",
                f"[fourier]\ninput = {SIGNAL_FILE}\nn_ions = 3\ndelta_omega = 1.0\n"
                "grid_points = 64\n",
                (),
                "grid_points",
                id="fourier_grid_points_with_input",
            ),
            # A negative tolerance can never be met: it is a config error,
            # not a calibration that failed to converge.
            pytest.param(
                "calibrate",
                _ini("calibrate", {**MINIMAL["calibrate"], "tol": "-1"}),
                (),
                "tol",
                id="calibrate_negative_tol",
            ),
            # One trial has no standard error: the summary would hold NaN.
            pytest.param(
                "ramsey",
                "[ramsey]\nprotocol = standard\nn_ions = 3\nt_ramsey = 1.0\nomega_r = 0.4\n"
                "shots = 1\n",
                (),
                "shots",
                id="ramsey_one_shot",
            ),
            # A fringe at the scan's Nyquist frequency: the fit returned an
            # amplitude of 3079.8 for a signal bounded by 1, and exit 0.
            pytest.param(
                "ramsey",
                "[ramsey]\nprotocol = ghz\nn_ions = 16\nt_ramsey = 3.0\nomega_0 = 0.1\n"
                "omega_r = 4.28879020478639\nscan_points = 64\nfinal_phase = 0.3\n"
                "phi0 = 0.6\nepsilon = 1:0.08 15:0.05:1.1\n",
                ("--expectation-mode",),
                "Nyquist",
                id="ramsey_scan_at_nyquist",
            ),
            # Fringes below pi/scan_t_max, under half a fringe over the scan:
            # the fit skipped their bins and exited 0, fitting 1.178 rad/s
            # for 0.8, and 2.06 rad/s at amplitude 1.2e-16 for no fringe.
            pytest.param(
                "ramsey",
                "[ramsey]\nprotocol = ghz\nn_ions = 2\nt_ramsey = 1.0\nomega_r = 0.4\n",
                ("--expectation-mode",),
                "[pi/scan_t_max,",
                id="ramsey_scan_under_half_a_fringe",
            ),
            pytest.param(
                "ramsey",
                "[ramsey]\nprotocol = ghz\nn_ions = 3\nt_ramsey = 2\nomega_0 = 0.5\n"
                "omega_r = 0.5\n",
                ("--expectation-mode",),
                "[pi/scan_t_max,",
                id="ramsey_scan_at_zero_detuning",
            ),
            pytest.param(
                "scaling",
                "[scaling]\nl_values = 1 2\ntrials = 1\n",
                (),
                "trials",
                id="scaling_one_trial",
            ),
            pytest.param(
                "dephasing",
                "[dephasing]\ngamma = 0.5\nn_ions = 2\nt_min = 0.05\nt_max = 3.0\ntrials = 1\n",
                (),
                "trials",
                id="dephasing_one_trial",
            ),
        ],
    )
    def test_rejected_value_exits_2(self, tmp_path, capsys, command, text, flags, needle):
        cfg = write_config(tmp_path, "bad.ini", text)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        err = json.loads(err[0])
        assert err["error"] == "ConfigError"
        assert needle in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("section", list(MINIMAL))
    def test_minimal_config_runs(self, tmp_path, section):
        cfg = write_config(tmp_path, "ok.ini", _ini(section, MINIMAL[section]))
        assert main([section, "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize(
        "section,key",
        [
            (section, key)
            for section, table in cli._SCHEMA.items()
            for key, (_, _, valid) in table.items()
            if valid is not None
        ],
    )
    def test_each_declared_range_rejects_zero(self, tmp_path, capsys, section, key):
        # 0 lies outside every range the schema declares.
        cfg = write_config(tmp_path, "bad.ini", _ini(section, {**MINIMAL[section], key: "0"}))
        out = tmp_path / "o"
        assert main([section, "--config", cfg, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert f"{key!r} in [{section}]" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,text,flags,error",
        [
            # Two trials whose parity outcomes agree: a zero sigma reached
            # the log-log fit, and the summary held NaN.
            pytest.param(
                "scaling",
                "[scaling]\nl_values = 1 2 3\ntrials = 2\nt_ramsey = 3\nomega_0 = -1\n",
                ("--seed", "1"),
                "DegenerateSlopeError",
                id="scaling_zero_sigma",
            ),
            # n T tau underflows to 0 in the uncertainty limit.
            pytest.param(
                "scaling",
                "[scaling]\nl_values = 1 2\ntrials = 20\nt_ramsey = 1e-300\n",
                ("--expectation-mode",),
                "ConfigError",
                id="scaling_theory_underflow",
            ),
            # Both shots of a grid point agree: its sigma is 0, min_ratio divided by it.
            pytest.param(
                "dephasing",
                "[dephasing]\ngamma = 1e-300\nn_ions = 2\nt_min = 100\nt_max = 1e300\n"
                "grid_points = 3\ntrials = 2\nrefine = false\n",
                (),
                "DegenerateSlopeError",
                id="dephasing_zero_sigma",
            ),
            # exp(-3 gamma T) underflows to 0 at T = 1000: the analytic curve divided by it.
            pytest.param(
                "dephasing",
                "[dephasing]\ngamma = 1\nn_ions = 3\nt_min = 0.5\nt_max = 1000\nmode = analytic\n",
                (),
                "ConfigError",
                id="dephasing_contrast_underflow",
            ),
            # sigma * sqrt(trials * T_R) overflows at T_R = 1e307.
            pytest.param(
                "dephasing",
                "[dephasing]\ngamma = 1e-320\nn_ions = 2\nt_min = 1\nt_max = 1e307\n"
                "grid_points = 3\ntrials = 50\nrefine = false\n",
                (),
                "ConfigError",
                id="dephasing_sigma_tau_overflow",
            ),
        ],
    )
    def test_degenerate_result_exits_2(self, tmp_path, capsys, command, text, flags, error):
        cfg = write_config(tmp_path, "bad.ini", text)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == error
        assert not out.exists()

    def test_failed_run_writes_nothing(self, tmp_path, capsys):
        # Too few scan points: the fringe fit fails after the scan was computed.
        cfg = write_config(
            tmp_path,
            "e.ini",
            "[ramsey]\nprotocol = ghz\nn_ions = 2\nt_ramsey = 1.0\nomega_r = 2.0\n"
            "scan_points = 4\n",
        )
        out = tmp_path / "out"
        argv = ["ramsey", "--config", cfg, "--out", str(out), "--expectation-mode"]
        assert main(argv) == 2
        assert not (out / "ramsey.csv").exists()
        capsys.readouterr()
        # Nothing was left behind, so a rerun is not refused as an overwrite.
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "FitError"


    def test_failed_summary_write_leaves_no_table(self, tmp_path, monkeypatch, capsys):
        # The table is complete before the summary writer fails; neither
        # file may be left behind, staged or in place.
        def failing_summary(path, payload):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_json", failing_summary)
        cfg = write_config(tmp_path, "r.ini", RAMSEY_INI)
        out = tmp_path / "out"
        assert main(["ramsey", "--config", cfg, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "disk full" in err["message"]
        assert not out.exists()

    def test_failed_write_keeps_an_existing_out_directory(self, tmp_path, monkeypatch, capsys):
        def failing_summary(path, payload):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_json", failing_summary)
        cfg = write_config(tmp_path, "r.ini", RAMSEY_INI)
        out = tmp_path / "out"
        (out / "mine").mkdir(parents=True)
        assert main(["ramsey", "--config", cfg, "--out", str(out / "new" / "deeper")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert [p.name for p in out.iterdir()] == ["mine"]
        assert main(["ramsey", "--config", cfg, "--out", str(out)]) == 2
        assert [p.name for p in out.iterdir()] == ["mine"]

    def test_out_below_a_regular_file_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "r.ini", RAMSEY_INI)
        (tmp_path / "afile").write_text("not a directory\n")
        out = tmp_path / "afile" / "sub"
        assert main(["ramsey", "--config", cfg, "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError"
        assert f"--out {out}" in err["message"]
        assert not list(tmp_path.rglob("*.partial"))


class TestOtherCommands:
    def test_argparser_is_built_once_and_not_at_import(self, tmp_path):
        cfg = write_config(tmp_path, "r.ini", _ini("ramsey", MINIMAL["ramsey"]))
        assert main(["ramsey", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        built = cli._build_argparser()
        assert main(["ramsey", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        assert cli._build_argparser() is built
        probe = "import ionramsey.cli as c; print(c._build_argparser.cache_info().currsize)"
        fresh = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )
        assert fresh.stdout.strip() == "0"

    def test_stand_in_command_writes_nothing(self, tmp_path, monkeypatch):
        # perfbench's set-up probe replaces a command with a stub returning 0.
        monkeypatch.setitem(cli._COMMANDS, "ramsey", lambda manifest, parser: 0)
        cfg = write_config(tmp_path, "r.ini", RAMSEY_INI)
        out = tmp_path / "out"
        assert main(["ramsey", "--config", cfg, "--out", str(out)]) == 0
        assert not out.exists()

    def test_scaling_expectation(self, tmp_path):
        cfg = write_config(
            tmp_path, "s.ini", "[scaling]\nl_values = 1, 2, 4, 8\ntrials = 100\n"
        )
        out = tmp_path / "out"
        code = main(
            ["scaling", "--config", cfg, "--out", str(out), "--expectation-mode"]
        )
        assert code == 0
        summary = json.loads((out / "scaling_summary.json").read_text())
        assert summary["slopes"]["standard"] == pytest.approx(-0.5, abs=1e-12)
        assert summary["slopes"]["ghz"] == pytest.approx(-1.0, abs=1e-12)

    def test_scaling_sampled_determinism(self, tmp_path):
        cfg = write_config(
            tmp_path, "s.ini", "[scaling]\nl_values = 1, 2\ntrials = 1200\n"
        )
        a, b = tmp_path / "a", tmp_path / "b"
        main(["scaling", "--config", cfg, "--out", str(a), "--seed", "3"])
        main(["scaling", "--config", cfg, "--out", str(b), "--seed", "3", "--threads", "3"])
        assert (a / "scaling.csv").read_bytes() == (b / "scaling.csv").read_bytes()

    def test_dephasing_analytic(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "d.ini",
            "[dephasing]\ngamma = 0.5\nn_ions = 3\nt_min = 0.05\nt_max = 3.0\n"
            "grid_points = 9\ntrials = 50\n",
        )
        out = tmp_path / "out"
        code = main(
            ["dephasing", "--config", cfg, "--out", str(out), "--expectation-mode"]
        )
        assert code == 0
        summary = json.loads((out / "dephasing_summary.json").read_text())
        assert summary["mode"] == "analytic"
        assert summary["t_opt"]["standard"] == pytest.approx(1.0, rel=1e-2)
        assert summary["t_opt"]["ghz"] == pytest.approx(1 / 3, rel=1e-2)
        assert summary["min_ratio"] == pytest.approx(1.0, abs=1e-2)

    def test_calibrate_biased(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.ini",
            "[calibrate]\nn_ions = 4\nomega_0 = 0.61803\nomega_r1 = 0.50\n"
            "omega_r2 = 0.70\nt_r1 = 0.02\nt_r2 = 2.0\nbias_tc = 5.0\n",
        )
        out = tmp_path / "out"
        assert main(["calibrate", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "calibrate_summary.json").read_text())
        assert summary["error_in_fringe_widths"] < 1e-3
        assert summary["naive_offset"] > 0.01
        lines = (out / "calibrate.csv").read_text().splitlines()
        assert "iteration,omega_r1,omega_r2,phi_f,omega0_estimate" in lines

    def test_fourier_from_file(self, tmp_path):
        # Round-trip an externally supplied signal file at 1e-6.
        rng = np.random.default_rng(12)
        n_ions, dw = 5, 1.1
        c = rng.uniform(0.05, 0.35, size=n_ions)
        xi = rng.uniform(-np.pi, np.pi, size=n_ions)
        t = 2 * np.pi / dw * np.arange(128) / 128
        sig = synthesize_signal(t, dw, c, xi)
        data = tmp_path / "sig.csv"
        data.write_text(
            "# synthetic multi-harmonic fringe\nt,signal\n"
            + "".join(f"{float(tt)!r},{float(ss)!r}\n" for tt, ss in zip(t, sig))
        )
        cfg = write_config(
            tmp_path,
            "f.ini",
            f"[fourier]\ninput = {data}\nn_ions = {n_ions}\ndelta_omega = {dw}\n",
        )
        out = tmp_path / "out"
        assert main(["fourier", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "fourier.csv").read_text().splitlines()
        got = {}
        for line in rows:
            if line.startswith("#") or line.startswith("p,"):
                continue
            p, cp, xip = line.split(",")
            got[int(p)] = (float(cp), float(xip))
        for p in range(1, n_ions + 1):
            assert got[p][0] == pytest.approx(c[p - 1], abs=1e-6)

    def test_fourier_manifest_covers_input(self, tmp_path):
        # Same config text, different data behind input=: different manifests.
        data = tmp_path / "sig.csv"
        cfg = write_config(
            tmp_path, "f.ini", f"[fourier]\ninput = {data}\nn_ions = 1\ndelta_omega = 1.0\n"
        )
        t = 2 * np.pi * np.arange(16) / 16
        hashes = []
        for amp in (1.0, 0.5):
            rows = zip(t.tolist(), (amp * np.cos(t)).tolist())
            data.write_text("".join(f"{tt!r},{ss!r}\n" for tt, ss in rows))
            out = tmp_path / f"out{amp}"
            assert main(["fourier", "--config", cfg, "--out", str(out)]) == 0
            summary = json.loads((out / "fourier_summary.json").read_text())
            hashes.append(summary["meta"]["manifest_sha256"])
        assert hashes[0] != hashes[1]

    def test_fourier_needs_a_source(self, tmp_path):
        cfg = write_config(
            tmp_path, "f.ini", "[fourier]\nn_ions = 3\ndelta_omega = 1.0\n"
        )
        assert main(["fourier", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_fourier_accepts_any_header_name(self, tmp_path):
        dw = 1.0
        t = 2 * np.pi * np.arange(16) / 16
        data = tmp_path / "sig.csv"
        data.write_text(
            "# provenance comment\nt_ramsey,signal\n"
            + "".join(f"{float(tt)!r},{float(np.cos(tt))!r}\n" for tt in t)
        )
        cfg = write_config(
            tmp_path,
            "f.ini",
            f"[fourier]\ninput = {data}\nn_ions = 1\ndelta_omega = {dw}\n",
        )
        assert main(["fourier", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_fourier_rejects_malformed_first_sample(self, tmp_path, capsys):
        # Only the first row may be a header; a typo in the next one is an error.
        t = 2 * np.pi * np.arange(1, 40) / 39
        data = tmp_path / "sig.csv"
        data.write_text(
            "t,signal\n0.0,1.O\n"
            + "".join(f"{float(tt)!r},{float(np.cos(tt))!r}\n" for tt in t)
        )
        cfg = write_config(
            tmp_path,
            "f.ini",
            f"[fourier]\ninput = {data}\nn_ions = 1\ndelta_omega = 1.0\n",
        )
        out = tmp_path / "o"
        assert main(["fourier", "--config", cfg, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "line 2" in err["message"]
        assert not out.exists()

    def test_fourier_input_and_c_exits_2(self, tmp_path, capsys):
        data = tmp_path / "sig.csv"
        t = 2 * np.pi * np.arange(16) / 16
        data.write_text("".join(f"{tt!r},{np.cos(tt)!r}\n" for tt in t.tolist()))
        cfg = write_config(
            tmp_path,
            "f.ini",
            f"[fourier]\ninput = {data}\nn_ions = 1\ndelta_omega = 1.0\nc = 1.0\n",
        )
        assert main(["fourier", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "input" in err["message"] and "'c'" in err["message"]

    def test_fourier_rejects_malformed_row(self, tmp_path, capsys):
        data = tmp_path / "sig.csv"
        data.write_text("t,signal\n0.1,0.5\noops,not-a-number\n")
        cfg = write_config(
            tmp_path,
            "f.ini",
            f"[fourier]\ninput = {data}\nn_ions = 1\ndelta_omega = 1.0\n",
        )
        assert main(["fourier", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "line 3" in err["message"]


def test_readme_lists_the_schema_keys():
    """README's "Section keys per command" list names each schema key once."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text().split("Section keys per command")[1]
    listed: dict[str, list[str]] = {}
    for line in text.split("\n\n", 2)[1].splitlines():
        if match := re.match(r"- `\[(\w+)\]`", line):
            section = listed.setdefault(match[1], [])
        elif match := re.match(r"  - `(\w+)`", line):
            section.append(match[1])
    assert listed == {name: list(table) for name, table in cli._SCHEMA.items()}
