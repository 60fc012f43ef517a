"""End-to-end command-line checks (in-process via cli.main)."""

import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from functools import lru_cache
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



# 2,500 noiseless GHZ shots at L = 20 on the half fringe.
WIDE_JSON_INI = (
    "[run]\nseed = 7\n[ramsey]\nn_ions = 20\nt_ramsey = 1.0\nomega_0 = 0.1\n"
    "omega_r = 0.17853981633974483\nshots = 2500\n"
)

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
        # All 2,300 shots and the estimate row come from the one stream 42/0/0.
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
        assert [row[4] for row in shots] == ["42/0/0"] * 2300
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

    @pytest.mark.parametrize("spelling", ["--seed", "[run] seed"])
    @pytest.mark.parametrize("command", list(MINIMAL))
    def test_negative_seed_exits_2(self, tmp_path, capsys, command, spelling):
        # Refused before the command runs, whether or not it draws from a
        # stream; the message names the spelling that set it.
        text, flags = _ini(command, MINIMAL[command]), ["--seed", "-5"]
        if spelling == "[run] seed":
            text, flags = text + "[run]\nseed = -3\n", []
        cfg = write_config(tmp_path, "neg.ini", text)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out), *flags]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        named = "--seed must be >= 0" if flags else "'seed' in [run]: '-3' (must be >= 0)"
        assert named in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["ramsey", "--config", "CFG", "--threads", "abc"], id="bad_threads"),
            pytest.param(["ramsey", "--out", "o"], id="missing_config"),
            pytest.param(["ramsey", "--config", "CFG", "--bogus"], id="unknown_flag"),
            pytest.param([], id="no_subcommand"),
        ],
    )
    def test_bad_flag_exits_2_with_one_json_line(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path, "r.ini", RAMSEY_INI)
        assert main([cfg if arg == "CFG" else arg for arg in argv]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ConfigError"

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["ramsey", "--help"])
        assert exit_info.value.code == 0
        assert "--config" in capsys.readouterr().out

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
            # The scan never checks the fringe for wrapping: the key was
            # silently ignored and the run exited 0.
            pytest.param(
                "ramsey",
                "[ramsey]\nprotocol = ghz\nn_ions = 2\nt_ramsey = 1.0\nomega_r = 4.0\n"
                "allow_wrap = true\n",
                ("--expectation-mode",),
                "allow_wrap has no effect with --expectation-mode",
                id="ramsey_allow_wrap_expectation",
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
            # Keys that one mode reads, refused in the other even at 0 or
            # their default: each wrote what the run without it writes.
            pytest.param(
                "ramsey",
                "[ramsey]\nprotocol = ghz\nn_ions = 2\nt_ramsey = 1.0\nomega_r = 4.0\n"
                "gamma = 0\n",
                ("--expectation-mode",),
                "gamma has no effect with --expectation-mode",
                id="ramsey_zero_gamma_expectation",
            ),
            pytest.param(
                "ramsey",
                "[ramsey]\nprotocol = ghz\nn_ions = 2\nt_ramsey = 1.0\nomega_r = 4.0\n"
                "noise_mode = common\n",
                ("--expectation-mode",),
                "noise_mode has no effect with --expectation-mode",
                id="ramsey_noise_mode_expectation",
            ),
            pytest.param(
                "dephasing",
                "[dephasing]\ngamma = 0.5\nn_ions = 2\nt_min = 0.05\nt_max = 3.0\n"
                "trials = 50\n",
                ("--expectation-mode",),
                "trials has no effect with --expectation-mode",
                id="dephasing_trials_expectation",
            ),
            pytest.param(
                "dephasing",
                "[dephasing]\ngamma = 0.5\nn_ions = 2\nt_min = 0.05\nt_max = 3.0\n"
                "mode = sampled\n",
                ("--expectation-mode",),
                "mode has no effect with --expectation-mode",
                id="dephasing_mode_expectation",
            ),
            pytest.param(
                "dephasing",
                "[dephasing]\ngamma = 0.5\nn_ions = 2\nt_min = 0.05\nt_max = 3.0\n"
                "trials = 50\nmode = analytic\n",
                (),
                "trials has no effect with mode = analytic",
                id="dephasing_trials_analytic",
            ),
            # The calibration's state has no admixture, so phi0 was a gauge.
            pytest.param(
                "calibrate",
                _ini("calibrate", {**MINIMAL["calibrate"], "phi0": "0.9"}),
                (),
                "unknown key 'phi0' in [calibrate]",
                id="calibrate_phi0",
            ),
            # A key set to its default still counts as set.
            pytest.param(
                "ramsey",
                "[ramsey]\nprotocol = ghz\nn_ions = 2\nt_ramsey = 1.0\nomega_r = 4.0\n"
                "shots = 1000\n",
                ("--expectation-mode",),
                "shots has no effect with --expectation-mode",
                id="ramsey_default_shots_expectation",
            ),
            pytest.param(
                "ramsey",
                "[ramsey]\nprotocol = ghz\nn_ions = 2\nt_ramsey = 1.0\nomega_r = 4.0\n"
                "allow_wrap = false\n",
                ("--expectation-mode",),
                "allow_wrap has no effect with --expectation-mode",
                id="ramsey_default_allow_wrap_expectation",
            ),
            pytest.param(
                "ramsey",
                "[ramsey]\nprotocol = ghz\nn_ions = 2\nt_ramsey = 1.0\nomega_r = 0.4\n"
                "shots = 100\nscan_points = 64\n",
                (),
                "scan_points has no effect without --expectation-mode",
                id="ramsey_default_scan_points_sampled",
            ),
            pytest.param(
                "ramsey",
                "[ramsey]\nprotocol = ghz\nn_ions = 2\nt_ramsey = 1.0\nomega_r = 0.4\n"
                "shots = 100\nnoise_mode = independent\n",
                (),
                "noise_mode needs gamma",
                id="ramsey_default_noise_mode_without_gamma",
            ),
            pytest.param(
                "fourier",
                f"[fourier]\ninput = {SIGNAL_FILE}\nn_ions = 3\ndelta_omega = 1.0\n"
                "grid_points = 128\n",
                (),
                "grid_points has no effect with input=",
                id="fourier_default_grid_points_with_input",
            ),
            # The time-reversed readout cancels every preparation phase:
            # runs at final_phase 0.0 and 0.9 wrote the same table and exited 0.
            pytest.param(
                "ramsey",
                "[ramsey]\nprotocol = ghz\nreadout = time_reversed\nn_ions = 2\n"
                "t_ramsey = 1.0\nomega_r = 0.4\nshots = 100\nfinal_phase = 0.9\n",
                (),
                "final_phase has no effect with readout = time_reversed",
                id="ramsey_final_phase_time_reversed",
            ),
            pytest.param(
                "ramsey",
                "[ramsey]\nprotocol = ghz\nreadout = time_reversed\nn_ions = 2\n"
                "t_ramsey = 1.0\nomega_r = 4.0\nfinal_phase = 0.9\n",
                ("--expectation-mode",),
                "final_phase has no effect with readout = time_reversed",
                id="ramsey_final_phase_time_reversed_expectation",
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
        "section,key,bad",
        [
            pytest.param(section, key, "-1" if valid is cli._AT_LEAST_0 else "0",
                         id=f"{section}-{key}")
            for section, table in cli._SCHEMA.items()
            for key, (_, _, valid, _) in table.items()
            if valid is not None and section != "run"
        ],
    )
    def test_each_declared_range_rejects_its_first_outside_value(
        self, tmp_path, capsys, section, key, bad
    ):
        # The first value outside each range a command's section declares: -1
        # for ">= 0", else 0. [run] seed's is test_negative_seed_exits_2's.
        cfg = write_config(tmp_path, "bad.ini", _ini(section, {**MINIMAL[section], key: bad}))
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
            # exp(-gamma T) underflows to 0 at T = 1000: the analytic estimator divides by it.
            pytest.param(
                "dephasing",
                "[dephasing]\ngamma = 1\nn_ions = 3\nt_min = 0.5\nt_max = 1000\nmode = analytic\n",
                (),
                "ConfigError",
                id="dephasing_contrast_underflow",
            ),
            # exp(-gamma T) underflows to 0 past T = 7.5: the sampled estimator divides by it.
            pytest.param(
                "dephasing",
                "[dephasing]\ngamma = 100\nn_ions = 3\nt_min = 0.5\nt_max = 25\n",
                (),
                "ConfigError",
                id="dephasing_sampled_contrast_underflow",
            ),
            # exp(-3 gamma T) is subnormal at T = 241: sigma overflows to inf, with no
            # numpy warning on stderr before the error line.
            *(
                pytest.param(
                    "dephasing",
                    "[dephasing]\ngamma = 1\nn_ions = 3\nt_min = 236\nt_max = 246\n"
                    f"grid_points = 3\nrefine = false\n{extra}",
                    (),
                    "DegenerateSlopeError",
                    id=f"dephasing_{mode}_sigma_overflow",
                )
                for mode, extra in (("sampled", "trials = 50\n"), ("analytic", "mode = analytic\n"))
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
        report = json.loads(err[0])
        assert report["error"] == error
        assert "np." not in report["message"]  # T_R prints as a float, not a numpy repr
        assert not out.exists()

    def test_underflowed_contrast_exits_2(self, tmp_path, capsys):
        # exp(-3 gamma T) underflows to 0: the estimator refuses to divide by it.
        text = "[ramsey]\nn_ions = 3\nt_ramsey = 1.0\nomega_r = 0.4\ngamma = 400\n"
        cfg = write_config(tmp_path, "u.ini", text)
        out = tmp_path / "o"
        assert main(["ramsey", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            '{"error": "ConfigError", "message": "the ghz contrast exp(-gamma T_R ...) '
            'underflows to 0 at L = 3, gamma = 400.0, T_R = 1.0"}\n'
        )
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

    def test_failed_write_removes_a_relative_out_directory(self, tmp_path, monkeypatch, capsys):
        def failing_summary(path, payload):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_json", failing_summary)
        cfg = write_config(tmp_path, "r.ini", RAMSEY_INI)
        monkeypatch.chdir(tmp_path)
        assert main(["ramsey", "--config", cfg, "--out", "o/x"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert [p.name for p in tmp_path.iterdir()] == ["r.ini"]

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

    def test_solver_runs_leave_scipy_unimported(self, tmp_path):
        # Importing scipy.optimize took most of every start-up; the root
        # finder and the fringe fit's minimiser are in-house.
        ramsey = "[ramsey]\nprotocol = ghz\nn_ions = 2\nt_ramsey = 1.0\nomega_r = 4.0\n"
        runs = [
            ["calibrate", "--config", write_config(tmp_path, "c.ini", _ini("calibrate",
             MINIMAL["calibrate"])), "--out", str(tmp_path / "c")],
            ["ramsey", "--config", write_config(tmp_path, "r.ini", ramsey),
             "--out", str(tmp_path / "r"), "--expectation-mode"],
        ]
        probe = (
            "import json, sys\nfrom ionramsey.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith('scipy'))]))"
        )
        fresh = subprocess.run(
            [sys.executable, "-c", probe, json.dumps(runs)], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )
        assert json.loads(fresh.stdout) == [[0, 0], []]

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
            "grid_points = 9\n",
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

    @pytest.mark.parametrize(
        "head,line",
        [("t,signal\n0.0,1.O\n", 2), ("t,signal\n0.0,nan\n", 2), ("0.0,nan\n", 1),
         ("inf,1\n", 1)],
        ids=["typo_after_header", "nan_after_header", "nan_first", "inf_first"],
    )
    def test_fourier_rejects_malformed_first_sample(self, tmp_path, capsys, head, line):
        # Only the first row may be a header; a typo in the next one is an
        # error. A first row that reads as numbers is a sample, not a header:
        # a first row 0.0,nan was skipped as one, and the run exited 0.
        t = 2 * np.pi * np.arange(1, 40) / 39
        data = tmp_path / "sig.csv"
        data.write_text(head + "".join(f"{float(tt)!r},{float(np.cos(tt))!r}\n" for tt in t))
        cfg = write_config(
            tmp_path,
            "f.ini",
            f"[fourier]\ninput = {data}\nn_ions = 1\ndelta_omega = 1.0\n",
        )
        out = tmp_path / "o"
        assert main(["fourier", "--config", cfg, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert f"line {line}" in err["message"]
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


class TestPinnedOutputs:
    """Runs of at most 2,000 shots or trials draw every shot from the stream
    ``seed/.../0``, as they always have, so their outputs keep their bytes.
    The digests were taken from these runs before the 2,000-shot batches were
    folded into one stream; they move with the library version, which the
    outputs embed. The sampled ``scaling`` and ``dephasing`` digests were
    retaken when a scan point began to draw its readout-class counts, one
    multinomial on that stream, instead of one uniform a shot; the
    expectation-mode ``scaling`` summary moved then too, through the last bits
    of its closed-form log-log slopes. The ``common_parity`` digests were
    retaken when a ``ramsey`` estimate began to take its moments from the
    shots' readout-class counts: its estimate row and summary moved through
    the last bits of ``sigma``. Every per-shot line and ``mean_outcome`` kept
    its bytes. The expectation-mode ``scaling`` digests were retaken, and the
    analytic ``dephasing`` ones first taken, when both scans began to invert
    their Born tables' class masses instead of evaluating closed forms: their
    sigma cells and slopes moved by at most 2 ulp (4.4e-16 relative). The
    writer-path digests, of a JSON table, the expectation scans and the
    fourier fits, were first taken before the estimator became the one
    function of a config and its class weights; every pin kept its bytes."""

    DEPHASING_INI = (
        "[run]\nseed = 7\n[dephasing]\ngamma = 0.5\nn_ions = 2\nt_min = 0.05\n"
        "t_max = 3.0\ngrid_points = 5\ntrials = 500\n"
    )
    PINNED = {
        "ramsey.csv": "0f3960ab4719b9665ef68321fc885592350f9d0c3760b04862a98d6a0d14ec6a",
        "ramsey_summary.json": "33e051e9b55eef2f90087488e78e875b96309ede7ba22bf8570b88d700c83c71",
        "dephasing.csv": "74d323867e2bd9beadd22b65014ac8b3f565d34919fc1001c92e3eecfd9dd409",
    }

    def test_short_sampled_runs_keep_their_bytes(self, tmp_path):
        configs = {
            "ramsey": RAMSEY_INI + "gamma = 0.2\n",  # 1,500 dephased shots
            "dephasing": self.DEPHASING_INI,  # 500 sampled trials a point
        }
        out = tmp_path / "out"
        for command, text in configs.items():
            cfg = write_config(tmp_path, f"{command}.ini", text)
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in self.PINNED}
        assert got == self.PINNED

    # Each dephased table off the half fringe, where the contrast moves it
    # (the ramsey pin above sits on it): common noise on a collective pulse,
    # independent noise on one and the time-reversed readout's cross term.
    DEPHASED = {
        "independent_parity": (
            "final_phase = 0.3\ngamma = 0.2\nepsilon = 2:0.1\n",
            "2ae98cb5f88fbf4a57d1d855a3a9fa0d5792055bbf20484094d0af1001c2d915",
            "0b65511efd0a6a90ed424664a9c9089fea3891c4ff93f7914eed026afc548cfc",
        ),
        "common_parity": (
            "final_phase = 0.3\ngamma = 0.1\nnoise_mode = common\nphi0 = 0.4\nepsilon = 1:0.1\n",
            "3351707392ab89ccf61b92ce19df23e61966892499a1ec26b8ef96c1709f75f0",
            "1c56318ef77b43a8cb1a124465ab9e1a4dcade4a558c45f2b0f6c25c5a256ccb",
        ),
        "time_reversed": (
            "readout = time_reversed\ngamma = 0.2\nphi0 = 0.4\n",
            "5f8ebbc6fad4eb4350c02275b14a08c807b23aeddac334c4ae6050e6a0d8baed",
            "4df3926688f38999eb05f609b08e1fd74babf29e818afc8809cda7c7586fc25b",
        ),
    }

    @pytest.mark.parametrize("case", DEPHASED)
    def test_dephased_runs_keep_their_bytes(self, tmp_path, case):
        extra, table, summary = self.DEPHASED[case]
        text = RAMSEY_INI.replace("0.62359877559829887", "0.45") + extra  # 1,500 shots
        cfg = write_config(tmp_path, "ramsey.ini", text)
        out = tmp_path / "out"
        assert main(["ramsey", "--config", cfg, "--out", str(out)]) == 0
        got = [hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("ramsey.csv", "ramsey_summary.json")]
        assert got == [table, summary]

    # Commands whose library calls take explicit values, not a RamseyConfig
    # copy: sampled scaling off the default T_R and resonance, the
    # infinite-trial scaling and dephasing scans, which invert their Born
    # tables' class masses, and a calibration against a biased contrast.
    LIBRARY_CALLS = {
        "scaling_sampled": (
            "scaling",
            "[run]\nseed = 5\n[scaling]\nl_values = 1 2 3\ntrials = 400\n"
            "t_ramsey = 0.8\nomega_0 = 0.2\n",
            (),
            "68319160a80386a94678e5914ef986a7c74f3bfc833db08e6a05fbd7b72eb3ba",
            "8e41c53f34cee73353ebc3498b31dc70a97c0e1221527390dc8d7fd4b05da112",
        ),
        "scaling_expectation": (
            "scaling",
            "[scaling]\nl_values = 1 2 4 8\ntrials = 100\nt_ramsey = 0.7\nomega_0 = 0.3\n",
            ("--expectation-mode",),
            "0651fb5769d74ab3dbe098543e3214e3183c66721d7164214b02ecb83d72feef",
            "468094e18a47b48849f6ecd57bbad388cfef7473d4fe1fd1c4eba83dae228339",
        ),
        "dephasing_expectation": (
            "dephasing",
            "[dephasing]\ngamma = 0.4\nn_ions = 3\nt_min = 0.1\nt_max = 4.0\ngrid_points = 8\n",
            ("--expectation-mode",),
            "94a1e320ca5b31fdecec1f6d6cce643448a6d2e2ce7b414438fc081cd69ffe9a",
            "6a38c0d394382e47b1dff2f281b992174008675cc5582ec4b16c10d31b0e8c2e",
        ),
        "calibrate_biased": (
            "calibrate",
            _ini("calibrate", {**MINIMAL["calibrate"], "bias_tc": "5.0"}),
            (),
            "508cf556c77b28930adc5f34f74d995367202adf394b6ec6261eeca4bc553f07",
            "cf1444fcbe09d8316add344fa6cc2cd86e54f08b78fc00637bb47fc8f784d999",
        ),
    }

    @pytest.mark.parametrize("case", LIBRARY_CALLS)
    def test_library_call_outputs_keep_their_bytes(self, tmp_path, case):
        command, text, flags, table, summary = self.LIBRARY_CALLS[case]
        cfg = write_config(tmp_path, f"{command}.ini", text)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out), *flags]) == 0
        got = [hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in (f"{command}.csv", f"{command}_summary.json")]
        assert got == [table, summary]

    # Writer paths the pins above miss: the JSON table of the dephased ramsey
    # pin, the expectation scans' repr rows of both readout families, the
    # fourier fits of a simulated GHZ scan and of given harmonics, and the
    # JSON table of 2,500 shots at L = 20, one dict per line in 40 classes.
    WRITER_PATHS = {
        "ramsey_json": (
            "ramsey",
            RAMSEY_INI + "gamma = 0.2\n",
            ("--format", "json"),
            "311abddb4215f125bd38714b81b325a8f5330356fccb2895f8053009ab3b251d",
            "61f0493f51bd8fd2a2c4940ced88d9567572a987364a32aa27fe721d2f3788ba",
        ),
        "ghz_expectation_scan": (
            "ramsey",
            "[ramsey]\nn_ions = 4\nt_ramsey = 1.0\nomega_0 = 0.1\nomega_r = 0.5\n"
            "phi0 = 0.3\nepsilon = 2:0.1\nscan_points = 48\nscan_t_max = 3.0\n",
            ("--expectation-mode",),
            "6413487fd19ef7a30204c7494abb97d94049877685f712999df3355811caaecd",
            "4ae624f3503f151e1c745bd0b1fffd298bed0a7c59915051eeb20cedf54f900f",
        ),
        "standard_expectation_scan": (
            "ramsey",
            "[ramsey]\nprotocol = standard\nn_ions = 3\nt_ramsey = 1.0\nomega_r = 1.2\n"
            "final_phase = 0.3\nscan_points = 40\nscan_t_max = 6.0\n",
            ("--expectation-mode",),
            "d9a8431690a2813683c71f24c3e639f413f75a14a39d0ca5233a6c1cee41f42e",
            "11d3fa85761ba934c53320847f2cc34014f45697ffb10d17ba724baf999095f7",
        ),
        "fourier_epsilon": (
            "fourier",
            "[fourier]\nn_ions = 3\ndelta_omega = 1.0\nepsilon = 1:0.2 2:0.1:0.5\n"
            "grid_points = 64\n",
            (),
            "63e89000c4f68da4cf38286bcd06b606f1acae1b82bb9263401c12ded2c2dce3",
            "d8a47f61b7d644a489d1e96c4f3622fea26c29e28075337fb0d4786dcc40a968",
        ),
        "fourier_c": (
            "fourier",
            "[fourier]\nn_ions = 2\ndelta_omega = 1.5\nc = 0.5 0.3\nxi = 0.1 -0.2\n",
            (),
            "f61d306c748e426f1646d59ca895f29103389e9d8b2f1b4032195845af5d6e19",
            "76452cc70288eba77778d3c4146629f2ebaffa0fcc98fdbff7f1d2499ade85ca",
        ),
        "ramsey_json_wide": (
            "ramsey",
            WIDE_JSON_INI,
            ("--format", "json"),
            "f49ddc1bffc59de1d13384f05360924763a585711a51903460f7319cd574c4c5",
            "ffa2c1ee972e73ba88712552b8064f385a3bba8ea3dd5eb2d7e1cc8e30bab25e",
        ),
    }

    @pytest.mark.parametrize("case", WRITER_PATHS)
    def test_writer_paths_keep_their_bytes(self, tmp_path, case):
        command, text, flags, table, summary = self.WRITER_PATHS[case]
        cfg = write_config(tmp_path, f"{command}.ini", text)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out), *flags]) == 0
        ext = "json" if "json" in flags else "csv"
        got = [hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in (f"{command}.{ext}", f"{command}_summary.json")]
        assert got == [table, summary]

    # Scans the size of the benchmark's threaded_scan jobs: 6,000 trials a
    # scaling point, and a sampled dephasing scan whose refinement runs.
    WORKLOAD_SIZED = {
        "scaling": (
            "[run]\nseed = 5\n[scaling]\nl_values = 1 2 3 4\ntrials = 6000\n"
            "t_ramsey = 0.8\nomega_0 = 0.2\n",
            "80d9bac5085840f629cf3b376c39a833701d2825b0b6de2292b5005d548c43bb",
            "3ef6b68fbb18c03ce665867395520689ba99b20a6e58e3839e64d6ee96c145e5",
        ),
        "dephasing": (
            "[run]\nseed = 11\n[dephasing]\ngamma = 0.2\nn_ions = 2\nt_min = 0.4\n"
            "t_max = 12.5\ngrid_points = 5\ntrials = 500\nmode = sampled\nrefine = true\n",
            "242194a1d119c96f28f6db5e469332c63300d2eea77c7c9ace5d8c95ef4d29fb",
            "7b5c0f0516e636350a277dfccf5834186cdb67016a58270bbe79f07ea63be51e",
        ),
    }

    @pytest.mark.parametrize("command", WORKLOAD_SIZED)
    def test_workload_sized_scans_keep_their_bytes(self, tmp_path, command):
        text, table, summary = self.WORKLOAD_SIZED[command]
        cfg = write_config(tmp_path, f"{command}.ini", text)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        got = [hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in (f"{command}.csv", f"{command}_summary.json")]
        assert got == [table, summary]


# Each schema key whose default is a constant: (section, key, default).
CONSTANT_DEFAULTS = [
    (section, key, default)
    for section, table in cli._SCHEMA.items()
    for key, (_, default, _, _) in table.items()
    if default is not None and default is not cli._REQUIRED
]


@pytest.mark.parametrize("flags", [(), ("--expectation-mode",)], ids=["sampled", "expectation"])
@pytest.mark.parametrize(
    "section,key,default", CONSTANT_DEFAULTS, ids=[f"{s}-{k}" for s, k, _ in CONSTANT_DEFAULTS]
)
def test_schema_default_is_the_real_default(tmp_path, capsys, section, key, default, flags):
    """Setting a key to its schema default, as INI text, writes what the run
    without the key writes, or is refused as a key that has no effect."""
    command = "ramsey" if section == "run" else section
    base = dict(MINIMAL[command])
    if command == "ramsey" and flags:  # no shots, and a fringe inside the scan
        del base["shots"]
        base["omega_r"] = "4.0"
    if command == "dephasing" and flags:  # the flag picks the analytic mode
        del base["mode"]
    base.pop(key, None)
    raw = str(default).lower() if isinstance(default, bool) else str(default)
    without = _ini(command, base)
    if section == "run":
        with_key = f"{without}[run]\n{key} = {raw}\n"
    else:
        with_key = _ini(command, {**base, key: raw})

    def run(name, text):
        cfg = write_config(tmp_path, f"{name}.ini", text)
        code = main([command, "--config", cfg, "--out", str(tmp_path / name), *flags])
        return code, capsys.readouterr().err

    assert run("without", without) == (0, "")
    code, err = run("with", with_key)
    if code == 2:
        message = json.loads(err)["message"]
        assert "has no effect" in message or "needs" in message
        return
    assert (code, err) == (0, "")
    for name in (f"{command}.csv", f"{command}_summary.json"):
        got, want = (
            [line for line in (tmp_path / out / name).read_text().splitlines()
             if "manifest_sha256" not in line]
            for out in ("with", "without")
        )
        assert got == want


# ---------------------------------------------------------------------------
# Every key changes its run
# ---------------------------------------------------------------------------

# The config each pair of sweep runs starts from, by command and by whether
# --expectation-mode is given: MINIMAL, less what the mode refuses. A ramsey
# scan takes no shots and needs a fringe inside the scan; a dephasing run
# without the flag samples (at four grid points), so that it reads trials.
SWEEP_BASES = {
    **{(command, flag): values for command, values in MINIMAL.items() for flag in (False, True)},
    ("ramsey", True): {"n_ions": "2", "t_ramsey": "1.0", "omega_r": "4.0"},
    ("dephasing", False): {
        "gamma": "0.5", "n_ions": "2", "t_min": "0.05", "t_max": "3.0", "grid_points": "4",
    },
    ("dephasing", True): {"gamma": "0.5", "n_ions": "2", "t_min": "0.05", "t_max": "3.0"},
    # The fringe file is the only source that delta_omega moves: c and
    # epsilon signals are synthesized on a grid of the fringe's own period.
    **{("fourier", flag): {"input": str(SIGNAL_FILE), "n_ions": "3", "delta_omega": "0.5"}
       for flag in (False, True)},
}

# The value the sweep sets each key to, away from its default and its base;
# a pair is (sampled, --expectation-mode).
SWEEP_VALUES = {
    "run": {"seed": "3"},
    "ramsey": {
        "protocol": "standard", "n_ions": "3", "t_ramsey": "1.5", "omega_0": "0.1",
        "omega_r": ("0.5", "4.2"), "readout": "time_reversed", "final_phase": "0.3", "phi0": "0.6",
        "shots": "50", "gamma": "0.2", "noise_mode": "common", "epsilon": "1:0.1",
        "allow_wrap": "true", "scan_points": "32", "scan_t_max": "2.0",
    },
    "scaling": {"l_values": "1 3", "trials": "150", "t_ramsey": "0.5", "omega_0": "0.3"},
    "dephasing": {
        "gamma": "0.4", "n_ions": "3", "t_min": "0.1", "t_max": "2.5", "grid_points": "5",
        "trials": "60", "mode": "analytic", "refine": "false",
    },
    "calibrate": {
        "n_ions": "3", "omega_0": "0.62", "omega_r1": "0.52", "omega_r2": "0.68",
        "t_r1": "0.03", "t_r2": "2.5", "bias_tc": "5.0", "tol": "1e-9", "max_iter": "40",
    },
    "fourier": {
        "input": str(SIGNAL_FILE), "n_ions": "4", "delta_omega": "0.6", "grid_points": "64",
        "c": "0.5 0.3 0.2", "xi": "0.1 0.2 0.3", "epsilon": "1:0.1", "threshold": "0.5",
    },
}

# Keys both runs of a pair set besides the base, by (section, key, flag);
# None drops a base key. The expected signals of the two readouts agree
# unless an admixture's phase is set against a nonzero phi0. The c source,
# whose phases xi are, replaces the file.
_C_SOURCE = {"input": None, "c": "0.5 0.3 0.2"}
SWEEP_CONTEXT = {
    ("ramsey", "noise_mode", False): {"gamma": "0.2"},
    ("ramsey", "readout", True): {"epsilon": "1:0.1", "phi0": "0.6"},
    **{("fourier", key, flag): _C_SOURCE for key in ("input", "xi") for flag in (False, True)},
}

# Keys that leave their run still when set alone, and why. The sweep checks
# that each stays still, so the list cannot outlive its reason, and
# KEYS_THAT_BITE holds a case in which each but [scaling] omega_0 moves.
STILL_KEYS = {
    ("run", "seed", True): "an expectation run draws nothing; it only records the seed",
    **{("ramsey", "phi0", flag): "a gauge without epsilon: every GHZ readout tracks it"
       for flag in (False, True)},
    ("ramsey", "allow_wrap", False): "a limit: the base fringe does not wrap",
    **{("scaling", "omega_0", flag): "dead in both modes beyond rounding, as every point sits "
       "at the half fringe above it; perfbench/workloads.py scaling() writes it"
       for flag in (False, True)},
    **{("calibrate", "max_iter", flag): "a limit: the base calibration settles sooner"
       for flag in (False, True)},
    **{("fourier", "threshold", flag): "a limit: the fitted admixtures lie on one side of both"
       for flag in (False, True)},
}

# (command, base, flag, key, value): a case in which a still key moves its run.
KEYS_THAT_BITE = [
    ("ramsey", {**MINIMAL["ramsey"], "omega_r": "4.0"}, False, "allow_wrap", "true"),
    ("calibrate", MINIMAL["calibrate"], False, "max_iter", "1"),
    ("fourier", {**MINIMAL["fourier"], "n_ions": "3", "c": "0.5 0.3 0.2"}, False,
     "threshold", "0.7"),
    ("ramsey", {**SWEEP_BASES["ramsey", True], "readout": "time_reversed", "epsilon": "1:0.1"},
     True, "phi0", "0.6"),
    ("ramsey", MINIMAL["ramsey"], False, "seed", "3"),
]


def _cells(value):
    """The leaves of a summary, keys included, numbers as floats."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield key
            yield from _cells(value[key])
    elif isinstance(value, list):
        for item in value:
            yield from _cells(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield float(value)
    else:
        yield value


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return cell


@lru_cache(maxsize=None)
def _sweep_run(command, items, flag, echo):
    """(exit code, stderr, output cells) of one run of ``items`` (a seed goes
    to [run]): the table's cells and the summary's leaves, without the
    provenance and the summary's ``echo`` key."""
    values = dict(items)
    text = _ini(command, {k: v for k, v in values.items() if k != "seed"})
    if "seed" in values:
        text += f"[run]\nseed = {values['seed']}\n"
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "sweep.ini", Path(tmp) / "out"
        cfg.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg), "--out", str(out),
                         *(("--expectation-mode",) if flag else ())])
        if code != 0:
            return code, err.getvalue(), ()
        table = [_number(cell) for line in (out / f"{command}.csv").read_text().splitlines()
                 if not line.startswith("#") for cell in line.split(",")]
        summary = json.loads((out / f"{command}_summary.json").read_text())
        del summary["meta"]
        summary.pop(echo, None)
        return code, err.getvalue(), (*table, *_cells(summary))


def _moved(a, b):
    """Whether two runs' outputs differ beyond rounding: in their words, or in
    a number by more than 1e-9 of the largest magnitude in either."""
    if len(a) != len(b):
        return True
    scale = max((abs(x) for x in (*a, *b) if isinstance(x, float) and math.isfinite(x)),
                default=0.0)
    return any(
        abs(x - y) > 1e-9 * scale if isinstance(x, float) and isinstance(y, float) else x != y
        for x, y in zip(a, b)
    )


def _pair(command, base, flag, key, value):
    """The run of ``base`` (less its None values) and the run with ``key`` set."""
    values = {k: v for k, v in base.items() if v is not None}
    varied = {**values, key: value}
    return (_sweep_run(command, tuple(sorted(values.items())), flag, key),
            _sweep_run(command, tuple(sorted(varied.items())), flag, key))


SWEEP = [
    pytest.param(section, key, flag, id=f"{section}-{key}-{'expectation' if flag else 'sampled'}")
    for section, table in cli._SCHEMA.items()
    for key in table
    for flag in (False, True)
]


@pytest.mark.parametrize("section,key,flag", SWEEP)
def test_every_key_changes_its_run(section, key, flag):
    """A key set alone to a value away from its default either is refused
    as having no effect (or needing another key), or moves the table or
    summary beyond rounding, or is on the named list of still keys."""
    command = "ramsey" if section == "run" else section
    base = {**SWEEP_BASES[command, flag], **SWEEP_CONTEXT.get((section, key, flag), {})}
    value = SWEEP_VALUES[section][key]
    value = value[flag] if isinstance(value, tuple) else value
    assert base.get(key) != value
    (code0, err0, before), (code, err, after) = _pair(command, base, flag, key, value)
    assert (code0, err0) == (0, "")
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1
        message = json.loads(lines[0])["message"]
        assert "has no effect" in message or "needs" in message, message
        assert key in message and (section, key, flag) not in STILL_KEYS
        return
    assert (code, err) == (0, "")
    assert _moved(before, after) == ((section, key, flag) not in STILL_KEYS)


@pytest.mark.parametrize("command,base,flag,key,value", KEYS_THAT_BITE)
def test_still_key_moves_where_it_bites(command, base, flag, key, value):
    (code0, _, before), (code, _, after) = _pair(command, base, flag, key, value)
    assert code0 != code or _moved(before, after)


class TestConfigGrammar:
    """The config reader's refusals: each exits 2 with one JSON line on
    stderr and writes no ``--out``. ``test_ini.py`` checks the reader against
    configparser, the INI reader the CLI used before."""

    VALID = "[run]\nseed = 3\n[ramsey]\nn_ions = 2\nt_ramsey = 1.0\nomega_r = 0.4\nshots = 50\n"

    @staticmethod
    def refused(tmp_path, capsys, text):
        cfg = write_config(tmp_path, "c.ini", text)
        out = tmp_path / "out"
        assert main(["ramsey", "--config", cfg, "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert not out.exists()
        error = json.loads(lines[0])
        assert error["error"] == "ConfigError"
        return error["message"], cfg

    def parse_error(self, tmp_path, capsys, text, lineno, why):
        message, cfg = self.refused(tmp_path, capsys, text)
        assert message.startswith(f"config parse error in {cfg}: line {lineno}: {why}"), message

    def test_the_valid_base_runs(self, tmp_path):
        cfg = write_config(tmp_path, "c.ini", self.VALID)
        assert main(["ramsey", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    def test_a_key_before_any_section_is_refused(self, tmp_path, capsys):
        self.parse_error(tmp_path, capsys, "seed = 3\n" + self.VALID, 1, "a key line is")

    def test_a_line_without_a_delimiter_is_refused(self, tmp_path, capsys):
        self.parse_error(tmp_path, capsys, self.VALID + "allow_wrap\n", 8, "a key line is")

    def test_a_line_without_a_key_is_refused(self, tmp_path, capsys):
        self.parse_error(tmp_path, capsys, self.VALID + "= 0.2\n", 8, "a key line is")

    def test_a_section_given_twice_is_refused(self, tmp_path, capsys):
        self.parse_error(tmp_path, capsys, self.VALID + "[run]\n", 8, "a section header is")

    def test_a_key_given_twice_is_refused(self, tmp_path, capsys):
        # Keys are lower-cased, so SHOTS repeats shots.
        self.parse_error(tmp_path, capsys, self.VALID + "SHOTS: 60\n", 8, "a key line is")

    def test_a_continuation_line_is_refused(self, tmp_path, capsys):
        # configparser read this as shots = "50\n60"; the shots parser then refused it.
        self.parse_error(tmp_path, capsys, self.VALID + "    60\n", 8, "an indented line")

    def test_a_default_section_is_an_unknown_section(self, tmp_path, capsys):
        # configparser put [DEFAULT] keys into every section.
        message, _ = self.refused(tmp_path, capsys, "[DEFAULT]\nshots = 60\n" + self.VALID)
        assert message.startswith("unknown section [DEFAULT] for command 'ramsey'"), message

    def test_the_readme_example_config_runs(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("Config files have an optional", 1)[1]
        example = example.split("```ini\n", 1)[1].split("```", 1)[0]
        assert "[ramsey]" in example and "\n; " in example
        cfg = write_config(tmp_path, "readme.ini", example)
        assert main(["ramsey", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    def test_a_run_leaves_configparser_unimported(self, tmp_path):
        cfg = write_config(tmp_path, "c.ini", self.VALID)
        probe = (
            "import sys\nfrom ionramsey.cli import main\n"
            "code = main(sys.argv[1:])\nprint(code, 'configparser' in sys.modules)"
        )
        fresh = subprocess.run(
            [sys.executable, "-c", probe, "ramsey", "--config", cfg, "--out", str(tmp_path / "o")],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )
        assert fresh.stdout.split() == ["0", "False"]


@pytest.mark.parametrize("first", [math.inf, -math.inf, math.nan])
def test_expectation_scan_refuses_its_first_non_finite_cell(tmp_path, capsys, monkeypatch, first):
    # The scan's cells are checked in table order, as one cell at a time was.
    signal, fit = cli.expected_signal, cli.fit_fringe_frequency

    def spoiled(cfg, t_ramsey):
        values = signal(cfg, t_ramsey=t_ramsey)
        values[[3, 5]] = first, math.nan
        return values

    monkeypatch.setattr(cli, "expected_signal", spoiled)
    # The fit sees the cells zeroed, so only the table's own check can refuse them.
    unspoiled = lambda t, s: fit(t, np.where(np.isfinite(s), s, 0.0))  # noqa: E731
    monkeypatch.setattr(cli, "fit_fringe_frequency", unspoiled)
    cfg = write_config(tmp_path, "r.ini", "[ramsey]\nn_ions = 2\nt_ramsey = 8\nomega_r = 0.4\n")
    out = tmp_path / "out"
    assert main(["ramsey", "--config", cfg, "--out", str(out), "--expectation-mode"]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["message"] == f"refusing to write the non-finite value {first!r}"
    assert not out.exists()


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_benchmark_job_reaches_its_command(tmp_path, monkeypatch):
    """Every config and argv that ``perfbench/workloads.py`` plans, over one
    full rotation of each workload's slots, passes ``main``'s checks and
    reaches its command: a key, flag or signature default that the benchmark
    still uses cannot leave without this test failing. As in
    ``perfbench/probe.py``, a stand-in command returns an int, which ``main``
    returns without writing an output. The file is imported as it is, with no
    bytecode written next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    started = []

    def stand_in(manifest, values) -> int:
        started.append(manifest.command)
        return 0

    for name in cli._COMMANDS:
        monkeypatch.setitem(cli._COMMANDS, name, stand_in)
    jobs = [
        job
        for workload in workloads.WORKLOADS.values()
        for job in workload.plan(7, math.lcm(*map(len, workload.slots)))
    ]
    assert {job.command for job in jobs} == set(cli._COMMANDS)
    for k, job in enumerate(jobs):
        config = tmp_path / f"{k}.ini"
        config.write_text(job.config)
        assert main(job.argv(config, tmp_path / f"out{k}")) == 0, job.kind
    assert started == [job.command for job in jobs]
    assert not list(tmp_path.glob("out*"))
    assert workloads._golden_evals() > 2  # reads dephasing_benchmark's refine_iters default


# Traced-run metrics that ``perfbench/run.py`` computes itself, not the tracer.
RUN_METRICS = {"streams.thread_speedup", "trace.overhead_s", "machine.ref_kernel_s"}


def test_benchmark_trace_keeps_outputs_and_metrics(tmp_path, monkeypatch):
    """``perfbench/run.py --trace 1`` in miniature: one cycle of every workload,
    run untraced and then under ``perfbench/spans.py``'s ``Tracer``, which
    rebinds every public function and reads results (``len(result)``,
    ``result.iterations``). Every job exits 0 under both, with the same bytes,
    and the tracer's metrics are the per-layer ones ``BENCHMARK.json`` names.
    The physics oracles are not run. The files are imported as they are."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    modules = {}
    for name in ("workloads", "spans"):
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        modules[name] = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, modules[name])
        spec.loader.exec_module(modules[name])
    jobs = [job for w in modules["workloads"].WORKLOADS.values() for job in w.plan(7, 1)]

    def run_all(label: str) -> list[dict[str, bytes]]:
        outputs = []
        for k, job in enumerate(jobs):
            config, out = tmp_path / f"{label}{k}.ini", tmp_path / f"{label}{k}"
            config.write_text(job.config)
            assert main(job.argv(config, out)) == 0, (label, job.kind)
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        return outputs

    untraced = run_all("untraced")
    tracer = modules["spans"].Tracer()
    try:
        tracer.install()  # raises TraceError on a binding it missed
        traced = run_all("traced")
    finally:
        tracer.uninstall()
    assert traced == untraced
    per_layer = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert set(tracer.layer_metrics()) == {m["name"] for m in per_layer} - RUN_METRICS
    assert tracer.spans


class TestCliSurface:
    """The command line around a run, message for message: bad argv, help,
    and the spellings of ``--out``. Every case runs in a directory holding
    only its config (and ``afile``, a regular file), so the messages name
    relative paths and a failed run can be seen to leave nothing behind."""

    COMMANDS = "'ramsey', 'scaling', 'dephasing', 'calibrate', 'fourier'"
    BAD_ARGV = {
        "leftover": (
            ["ramsey", "--config", "r.ini", "extra", "more"],
            "ionramsey: unrecognized arguments: extra more",
        ),
        "unknown_flag": (
            ["ramsey", "--config", "r.ini", "--bogus"],
            "ionramsey: unrecognized arguments: --bogus",
        ),
        "missing_config": (
            ["ramsey", "--out", "o"],
            "ionramsey ramsey: the following arguments are required: --config",
        ),
        "threads_x": (
            ["ramsey", "--config", "r.ini", "--threads", "x"],
            "ionramsey ramsey: argument --threads: invalid int value: 'x'",
        ),
        "format_xml": (
            ["scaling", "--config", "r.ini", "--format", "xml"],
            "ionramsey scaling: argument --format: invalid choice: 'xml' (choose from 'csv', 'json')",
        ),
        "unknown_command": (
            ["ramsy", "--config", "r.ini"],
            f"ionramsey: argument command: invalid choice: 'ramsy' (choose from {COMMANDS})",
        ),
        "flag_before_command": (
            ["--config", "r.ini", "ramsey"],
            f"ionramsey: argument command: invalid choice: 'r.ini' (choose from {COMMANDS})",
        ),
        "empty": ([], "ionramsey: the following arguments are required: command"),
        "top_level_flag": (["--bogus"], "ionramsey: the following arguments are required: command"),
    }

    @pytest.fixture
    def here(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "r.ini").write_text(_ini("ramsey", MINIMAL["ramsey"]))
        (tmp_path / "afile").write_text("not a directory\n")
        return tmp_path

    @staticmethod
    def tree(root):
        return sorted(str(p.relative_to(root)) for p in root.rglob("*"))

    @pytest.mark.parametrize("case", BAD_ARGV)
    def test_bad_argv_exits_2_with_its_message(self, here, capsys, case):
        argv, message = self.BAD_ARGV[case]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == json.dumps({"error": "ConfigError", "message": message}) + "\n"
        assert self.tree(here) == ["afile", "r.ini"]

    @pytest.mark.parametrize(
        "argv,usage",
        [
            (["--help"], "usage: ionramsey "),
            (["-h"], "usage: ionramsey "),
            (["ramsey", "--help"], "usage: ionramsey ramsey "),
            (["fourier", "--config", "r.ini", "-h"], "usage: ionramsey fourier "),
        ],
    )
    def test_help_exits_0(self, here, capsys, argv, usage):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith(usage) and err == ""

    def test_argv_none_reads_sys_argv(self, here, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["ionramsey", "ramsey", "--config", "r.ini", "--out", "o"])
        assert main() == 0
        assert sorted(os.listdir("o")) == ["ramsey.csv", "ramsey_summary.json"]
        monkeypatch.setattr(sys, "argv", ["ionramsey", "ramsey", "--config", "r.ini", "x"])
        assert main(None) == 2
        assert "ionramsey: unrecognized arguments: x" in capsys.readouterr().err

    # A --config that cannot be read: (the spelling, the OSError it names).
    BAD_CONFIG = {
        "missing": ("./missing.ini", "[Errno 2] No such file or directory: 'missing.ini'"),
        "double_slash": ("a//missing.ini", "[Errno 2] No such file or directory: 'a/missing.ini'"),
        "empty": ("", "[Errno 21] Is a directory: '.'"),
        "below_a_file": ("afile/x.ini", "[Errno 20] Not a directory: 'afile/x.ini'"),
    }

    @pytest.mark.parametrize("case", BAD_CONFIG)
    def test_config_that_cannot_be_read_exits_2(self, here, capsys, case):
        config, why = self.BAD_CONFIG[case]
        assert main(["ramsey", "--config", config, "--out", "o"]) == 2
        message = f"cannot read config {config}: {why}"
        assert capsys.readouterr().err == json.dumps({"error": "ConfigError", "message": message}) + "\n"
        assert self.tree(here) == ["afile", "r.ini"]

    # --out as given -> (the directory the files land in, the prefix the
    # overwrite refusal gives their names).
    OUT_SPELLINGS = {
        "empty": ("", ".", ""),
        "trailing_slash": ("sub/", "sub", "sub/"),
        "dot_dot": ("a/b/../c", "a/c", "a/b/../c/"),
        "missing_parents": ("x/y/z", "x/y/z", "x/y/z/"),
        "leading_dot": ("./dot", "dot", "dot/"),
        "double_slash": ("s//t", "s/t", "s/t/"),
    }

    @pytest.mark.parametrize("case", OUT_SPELLINGS)
    def test_out_spelling_writes_there_once(self, here, capsys, case):
        out, where, prefix = self.OUT_SPELLINGS[case]
        argv = ["ramsey", "--config", "r.ini", "--out", out]
        assert main(argv) == 0
        assert (here / where / "ramsey_summary.json").is_file()
        first = (here / where / "ramsey.csv").read_bytes()
        assert capsys.readouterr().err == ""
        assert main(argv) == 2
        names = [f"{prefix}ramsey.csv", f"{prefix}ramsey_summary.json"]
        message = f"refusing to overwrite existing outputs {names}; pass --force"
        assert capsys.readouterr().err == json.dumps({"error": "ConfigError", "message": message}) + "\n"
        assert main([*argv, "--force", "--seed", "3"]) == 0
        assert (here / where / "ramsey.csv").read_bytes() != first
        assert not [p for p in self.tree(here) if p.endswith(".partial")]

    # An --out that cannot be made: (the spelling, the OSError it names).
    BAD_OUT = {
        "below_a_file": ("afile/sub", "[Errno 20] Not a directory: 'afile/sub'"),
        "deeper_below_a_file": ("afile/p/q", "[Errno 20] Not a directory: 'afile/p/q'"),
        "dotted_below_a_file": ("./afile/sub", "[Errno 20] Not a directory: 'afile/sub'"),
        "a_file": ("afile", "[Errno 17] File exists: 'afile'"),
    }

    @pytest.mark.parametrize("case", BAD_OUT)
    def test_out_that_cannot_be_made_exits_2_and_leaves_nothing(self, here, capsys, case):
        out, why = self.BAD_OUT[case]
        assert main(["ramsey", "--config", "r.ini", "--out", out]) == 2
        message = f"cannot write outputs to --out {out}: {why}"
        assert capsys.readouterr().err == json.dumps({"error": "ConfigError", "message": message}) + "\n"
        assert self.tree(here) == ["afile", "r.ini"]
        assert (here / "afile").read_text() == "not a directory\n"

    def test_a_directory_at_the_staged_name_exits_2_and_stays(self, here, capsys):
        # A write that fails at its staged file removes only files it began:
        # a directory it did not make stays, and the error is one JSON line.
        (here / "sub" / ".ramsey.csv.partial").mkdir(parents=True)
        assert main(["ramsey", "--config", "r.ini", "--out", "./sub"]) == 2
        why = "[Errno 21] Is a directory: 'sub/.ramsey.csv.partial'"
        message = f"cannot write outputs to --out ./sub: {why}"
        assert capsys.readouterr().err == json.dumps({"error": "ConfigError", "message": message}) + "\n"
        assert self.tree(here) == ["afile", "r.ini", "sub", "sub/.ramsey.csv.partial"]

    def test_a_failed_rename_names_both_files(self, here, capsys):
        (here / "sub" / "ramsey_summary.json" / "x").mkdir(parents=True)
        assert main(["ramsey", "--config", "r.ini", "--out", "sub//", "--force"]) == 2
        why = "[Errno 21] Is a directory: 'sub/.ramsey_summary.json.partial' -> 'sub/ramsey_summary.json'"
        message = f"cannot write outputs to --out sub//: {why}"
        assert capsys.readouterr().err == json.dumps({"error": "ConfigError", "message": message}) + "\n"
        # Neither file is left: not the staged ones, nor the table renamed first.
        assert self.tree(here) == ["afile", "r.ini", "sub", "sub/ramsey_summary.json",
                                   "sub/ramsey_summary.json/x"]


# The byte-identity sweep: one in-process job per line, as (name, command,
# config, flags). It covers every command in both formats, sampled and in
# expectation mode, dephased ramsey at L = 1, 3 and 20, a failed estimate
# the summary reports, and an overwrite with --force.
_GHZ_DEPHASED = "[ramsey]\nn_ions = {L}\nt_ramsey = 0.5\nomega_0 = 0.1\nomega_r = {w}\nshots = 400\ngamma = 0.2\n"
_SWEEP_CONFIGS = {
    "ramsey_ghz": ("ramsey", RAMSEY_INI, ()),
    "ramsey_standard": (
        "ramsey",
        "[run]\nseed = 3\n[ramsey]\nprotocol = standard\nn_ions = 4\nt_ramsey = 1.0\n"
        "omega_r = 0.9\nfinal_phase = 0.3\nshots = 400\n",
        (),
    ),
    "ramsey_time_reversed": (
        "ramsey",
        "[ramsey]\nn_ions = 2\nt_ramsey = 1.0\nomega_r = 0.4\nreadout = time_reversed\n"
        "phi0 = 0.4\nshots = 300\n",
        (),
    ),
    "ramsey_dephased_L1": ("ramsey", _GHZ_DEPHASED.format(L=1, w=1.2), ()),
    "ramsey_dephased_L3": ("ramsey", _GHZ_DEPHASED.format(L=3, w=0.6), ()),
    "ramsey_dephased_L20": ("ramsey", _GHZ_DEPHASED.format(L=20, w=0.2) + "noise_mode = common\n", ()),
    "ramsey_wide_L20": ("ramsey", WIDE_JSON_INI, ()),
    "ramsey_degenerate_estimate": (
        "ramsey",
        "[ramsey]\nn_ions = 2\nt_ramsey = 1.0\nomega_0 = 0.1\nomega_r = 0.1\nshots = 50\n",
        (),
    ),
    "ramsey_expectation_ghz": (
        "ramsey",
        "[ramsey]\nn_ions = 4\nt_ramsey = 1.0\nomega_0 = 0.1\nomega_r = 0.5\n"
        "epsilon = 2:0.1\nscan_points = 48\nscan_t_max = 3.0\n",
        ("--expectation-mode",),
    ),
    "ramsey_expectation_standard": (
        "ramsey",
        "[ramsey]\nprotocol = standard\nn_ions = 3\nt_ramsey = 1.0\nomega_r = 1.2\n"
        "scan_points = 40\nscan_t_max = 6.0\n",
        ("--expectation-mode",),
    ),
    "scaling_sampled": (
        "scaling",
        "[run]\nseed = 5\n[scaling]\nl_values = 1 2 3\ntrials = 400\nt_ramsey = 0.8\nomega_0 = 0.2\n",
        (),
    ),
    "scaling_expectation": (
        "scaling",
        "[scaling]\nl_values = 1 2 4 8\ntrials = 100\nt_ramsey = 0.7\n",
        ("--expectation-mode",),
    ),
    "dephasing_sampled": ("dephasing", TestPinnedOutputs.DEPHASING_INI, ()),
    "dephasing_expectation": (
        "dephasing",
        "[dephasing]\ngamma = 0.4\nn_ions = 3\nt_min = 0.1\nt_max = 4.0\ngrid_points = 8\n",
        ("--expectation-mode",),
    ),
    "calibrate": ("calibrate", _ini("calibrate", {**MINIMAL["calibrate"], "bias_tc": "5.0"}), ()),
    "calibrate_expectation": ("calibrate", _ini("calibrate", MINIMAL["calibrate"]), ("--expectation-mode",)),
    "fourier_c": ("fourier", "[fourier]\nn_ions = 2\ndelta_omega = 1.5\nc = 0.5 0.3\nxi = 0.1 -0.2\n", ()),
    "fourier_epsilon": (
        "fourier",
        "[fourier]\nn_ions = 3\ndelta_omega = 1.0\nepsilon = 1:0.2 2:0.1:0.5\ngrid_points = 64\n",
        (),
    ),
    "fourier_input": ("fourier", "[fourier]\ninput = signal.csv\nn_ions = 3\ndelta_omega = 1.0\n", ()),
}
# One sha256 per job over its name, exit code, stderr and output files (name
# and bytes, in name order), so a failure names the jobs whose bytes moved.
# A change to the fixed command-line path must keep every entry.
SWEEP_SHA256 = {
    "ramsey_ghz_csv": "7d72406a932a39581be51cef7d358be7bf53b25fd2714c2aa61c6d30ed23c906",
    "ramsey_ghz_json": "3e44ff191f084502a2074d15b8b668ee33f623fb1887dbe14d86a5808196739e",
    "ramsey_standard_csv": "d65e0016f31c6e0798db69ac4d13f305174020a2ca9b5546f5d05d322bdb42c3",
    "ramsey_standard_json": "fb24f2b9a897bf391d590e6b8e79c38bc2900f37d9a969243004aa908bee0023",
    "ramsey_time_reversed_csv": "5c3ae7825a42538192ee5112328c5538e0a11901a7d00733d955601c17db05a4",
    "ramsey_time_reversed_json": "258131fa015c0e921e8ad17b8d7cf986d1e986e9337aa9712e28b3300a8fdc55",
    "ramsey_dephased_L1_csv": "6975c5373c7dbbc340b5f2c6131a38f6fb3b73df4f2c2f7d47704871f7391fc4",
    "ramsey_dephased_L1_json": "88ecbc332740878c01c4b7af660aea4e0ae6e01e096499808e537cff493bd319",
    "ramsey_dephased_L3_csv": "037de74597d93c70617e61e6cd046f5dab1614691f3488cec84c48806528dbf9",
    "ramsey_dephased_L3_json": "cd848d15dd967d672b36a5a079310d0479193239e0210c517c77f8475623efe6",
    "ramsey_dephased_L20_csv": "8f1ae18c08b56655aa4cc2c5593cb7ee4c14f0c92dd0316f3e2d2fbd9a926659",
    "ramsey_dephased_L20_json": "739fbbcd94e6d6f68b991d8d97048e0b9bd4489e6f536660b2fdf2f24f55bd89",
    "ramsey_wide_L20_csv": "34ce58ae74225e125c8b1b28b09dd6d40b53baff502d7f27774d1c6354f86209",
    "ramsey_wide_L20_json": "fd7f585ea645e46f96d24d62ff1a9a402d93f096453a1ac689389d65fdafe437",
    "ramsey_degenerate_estimate_csv": "a87f118963c1969f79344e98747424059b527415e464c517fb32c974481769a6",
    "ramsey_degenerate_estimate_json": "fa299c72a9d185ad7c7f377323b07000580b9f4613c0b1881281ccfee716c36d",
    "ramsey_expectation_ghz_csv": "ad43f3e347e7604f33639ea1a15e6309bd94b9fc7d41733ad0d12dee12a2c45c",
    "ramsey_expectation_ghz_json": "174c8b78ba9afc6fc9f062c2be84e08a98b8e12842d4a346672f3ce77fab7aa1",
    "ramsey_expectation_standard_csv": "22c5a02b0388de309a8d21f5ae8eca1d7b3d29c7f88a14831f4698fc16e7bf45",
    "ramsey_expectation_standard_json": "f8b1c9d285e630937514d037b43ea3850e0050e9bf0c24abd24bf8bd49b735fd",
    "scaling_sampled_csv": "be2a9556cf86211ee26c4ed048724c43022617902c2822bc17851c0b60cb10ef",
    "scaling_sampled_json": "afd0ddd2d714267dea3b70b1c3f3c319d2477bfe0bc24a998e2e16cfbcafe480",
    "scaling_expectation_csv": "68792a20431e598c14c2643e18f0c2e341a8c0058107c07eb9da5ffde07039bc",
    "scaling_expectation_json": "66fd2f748bfdc007477e2975119819708055a1d30bfa4670624882743d15bd1c",
    "dephasing_sampled_csv": "3ad2671da93997619f54cb12ae1333e48b8c0d021d4cc2e68ecdf40e63d63583",
    "dephasing_sampled_json": "f41df79adb22c5d45d88556894999993d1896645646c860e7e0986b208358be4",
    "dephasing_expectation_csv": "a767c77b3ff0e0ab601ded8ea1170167f47cec684a192b2b7c6a612cec91b393",
    "dephasing_expectation_json": "4a39c6a0c84f15822d7f841aa2b96813ce1e74c01908348a6e664f96effd3a66",
    "calibrate_csv": "0ed33cb69345034ddbe9add4b2c38ded5e7d7580cd5a152342debf3edb220dfe",
    "calibrate_json": "b91e2c037d2a4e8f037a33a6d80585c858e1d6eebde6e9d3d55b3c7aa12054f2",
    "calibrate_expectation_csv": "a92cf9a86a5e64002e89a9cd3f2d4d7373db01efef83faae4b8ea8bfe0f2d2a4",
    "calibrate_expectation_json": "c982272d0c7ac3fdce9e01276b8cfc40ec149948a86813669ebd9aa2f4967a6a",
    "fourier_c_csv": "978c2be1c8a21f6dd10223f43d675eebe302236576143bcc0b90535f8e5acf1d",
    "fourier_c_json": "4306b7431dbd7b5af02fe272d601dbe60dca0f4bb7e0bffb5bc17cd6e318986e",
    "fourier_epsilon_csv": "789ebd4f7345d45e1fe6475ea6438d642361ecf66ba8a27d358777ffdc4992d1",
    "fourier_epsilon_json": "089d0f7e677d3c60fd4297164de00b5c67e805a1f663a88ae5083be135aba33d",
    "fourier_input_csv": "6e340f1920177e7bd83f08d8de751889d15924cdb85819b2886a778266d39edb",
    "fourier_input_json": "a2c61c45a4e85fb871c8288475d596ec0c40f169838dd89ce441f5a292770803",
    "forced": "d01c936dc8df6d8710dcfc03151c0a73bb80ea146c4a03f0c45c8509c11ab462",
}


def _sweep_digests() -> dict[str, str]:
    """Each sweep job's digest, run in the current directory, where every
    path it names is relative, so the digests are the same in any checkout."""
    digests = {}
    Path("signal.csv").write_bytes(SIGNAL_FILE.read_bytes())

    def run(name, command, text, argv_tail, out):
        Path(f"{name}.ini").write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", f"{name}.ini", "--out", out, *argv_tail])
        digest = hashlib.sha256(f"{name}\0{code}\0{err.getvalue()}\0".encode())
        for file in sorted(os.listdir(out)):
            data = Path(out, file).read_bytes()
            digest.update(f"{file}\0{len(data)}\0".encode() + data)
        digests[name] = digest.hexdigest()

    for name, (command, text, flags) in _SWEEP_CONFIGS.items():
        for fmt in ("csv", "json"):
            run(f"{name}_{fmt}", command, text, [*flags, "--format", fmt], f"{name}_{fmt}")
    forced = "ramsey_ghz_csv"  # rewritten in place: another seed and thread count
    run("forced", "ramsey", RAMSEY_INI, ["--force", "--seed", "9", "--threads", "2"], forced)
    return digests


def test_byte_identity_sweep(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = _sweep_digests()
    assert sorted(got) == sorted(SWEEP_SHA256)
    assert [name for name in SWEEP_SHA256 if got[name] != SWEEP_SHA256[name]] == []


def test_jobs_leave_no_reference_cycles(tmp_path):
    """A job's garbage is freed by reference counting alone, in either format,
    so no job leaves a collection to land inside a later one."""
    cfg = write_config(tmp_path, "r.ini", RAMSEY_INI)
    assert main(["ramsey", "--config", cfg, "--out", str(tmp_path / "warm")]) == 0
    gc.collect()
    gc.disable()
    try:
        for k in range(5):
            for fmt in ("csv", "json"):
                out = str(tmp_path / f"{fmt}{k}")
                assert main(["ramsey", "--config", cfg, "--out", out, "--format", fmt]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
