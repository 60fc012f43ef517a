"""Release acceptance gate.

Each test pins one headline behavior of the package at a fixed tolerance
and wall-clock budget, using independent oracles (closed-form statistics,
exhaustive enumeration, or textbook distributions) rather than values
recorded from the implementation itself. The conftest hook prints one
PASS/FAIL line per criterion at the end of the run.

Monte Carlo criteria use pinned seeds; tolerances are chosen so the
expected statistical error sits well inside the asserted bound (margins
noted inline), making the fixed-seed result stable rather than lucky.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ionramsey import (
    CalibrationState,
    ImperfectionSpec,
    NoiseSpec,
    Protocol,
    RamseyConfig,
    dephasing_benchmark,
    expected_signal,
    fit_fringe_frequency,
    fourier_decompose,
    make_truth_simulator,
    naive_single_point_omega0,
    run_ramsey,
    scan_scaling,
    synthesize_signal,
    two_point_calibrate,
)
from ionramsey.gates import QubitRegister, bus_purity, cn_via_bus, cnot, new_register, prepare_ghz
from ionramsey.noise import perturb_ghz
from ionramsey.register import dicke_ghz


@contextmanager
def budget(seconds: float):
    """Fail the criterion when it blows its wall-clock budget."""
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"ran {elapsed:.1f} s, budget {seconds:g} s"


# ---------------------------------------------------------------------------
# 1. GHZ structure
# ---------------------------------------------------------------------------


def test_criterion_01_ghz_structure():
    """prepare_ghz yields exactly two amplitudes of squared magnitude 1/2."""
    with budget(1.0):
        for n_ions in range(1, 7):
            for phi0 in (0.0, 0.9):
                reg, _ = prepare_ghz(new_register(n_ions), phi0=phi0)
                mags2 = np.abs(reg.amplitudes) ** 2
                nonzero = np.flatnonzero(mags2 > 1e-24)
                assert list(nonzero) == [0, 2**n_ions - 1]
                assert_allclose(mags2[nonzero], 0.5, atol=1e-12)
                # relative phase between the two components is phi0
                rel = reg.amplitudes[-1] / reg.amplitudes[0]
                assert abs(rel - np.exp(1j * phi0)) < 1e-12


# ---------------------------------------------------------------------------
# 2. Bus equivalence
# ---------------------------------------------------------------------------


def test_criterion_02_bus_equivalence():
    """cn_via_bus == cnot on every basis state, bus exactly disentangled."""
    with budget(1.0):
        worst_dev = 0.0
        worst_purity = 0.0
        for n_ions in (2, 3, 4):
            template = new_register(n_ions, has_bus=True)
            pairs = [
                (i, j)
                for i in range(1, n_ions + 1)
                for j in range(1, n_ions + 1)
                if i != j
            ]
            for ion_bits in range(2**n_ions):
                amps = np.zeros_like(template.amplitudes)
                amps[ion_bits << 1] = 1.0  # bus (last axis) in ground
                start = QubitRegister(n_ions, True, amps)
                for i, j in pairs:
                    via_bus = cn_via_bus(start, i, j)
                    direct = cnot(start, i, j)
                    worst_dev = max(
                        worst_dev,
                        float(np.max(np.abs(via_bus.amplitudes - direct.amplitudes))),
                    )
                    worst_purity = max(worst_purity, abs(bus_purity(via_bus) - 1.0))
        assert worst_dev < 1e-12
        assert worst_purity < 1e-12


# ---------------------------------------------------------------------------
# 3. Fringe multiplication
# ---------------------------------------------------------------------------


def test_criterion_03_fringe_multiplication():
    """Fitted parity-fringe frequency vs T_R equals L * delta_omega."""
    with budget(10.0):
        delta_omega = 0.4
        for n_ions in (1, 2, 3, 4):
            cfg = RamseyConfig(
                n_ions=n_ions,
                t_ramsey=1.0,
                omega_r=delta_omega,
                omega_0=0.0,
                allow_wrap=True,
            )
            # span >= one full fringe of the slowest case (L=1)
            t_grid = 2.0 * np.pi / delta_omega * np.arange(1, 129) / 128.0
            signal = expected_signal(cfg, t_ramsey=t_grid)
            fit = fit_fringe_frequency(t_grid, signal)
            expected = n_ions * delta_omega
            assert abs(fit.frequency - expected) / expected < 1e-6


# ---------------------------------------------------------------------------
# 4. Projection noise
# ---------------------------------------------------------------------------


def test_criterion_04_projection_noise():
    """Sampled variance of the down-state count matches L/4 at half fringe.

    Oracle: at the half-fringe point each of the L unentangled ions is an
    independent fair coin, so the count is Binomial(L, 1/2); the acceptance
    band is 3 standard errors of the sample variance, with Var(s^2)
    computed from that distribution's exact central moments.
    """
    with budget(30.0):
        n_ions, shots = 8, 100_000
        cfg = RamseyConfig(
            n_ions=n_ions,
            t_ramsey=1.0,
            omega_r=np.pi / 2.0,
            omega_0=0.0,
            protocol=Protocol.STANDARD,
            shots=shots,
        )
        classes = run_ramsey(cfg, np.random.default_rng(20260814))
        counts = Protocol.STANDARD.outcomes(classes, n_ions)

        k = np.arange(n_ions + 1)
        from math import comb

        pmf = np.array([comb(n_ions, int(kk)) for kk in k]) / 2.0**n_ions
        mean = float(np.sum(pmf * k))
        mu2 = float(np.sum(pmf * (k - mean) ** 2))
        mu4 = float(np.sum(pmf * (k - mean) ** 4))
        assert mu2 == n_ions / 4.0  # sanity: binomial variance is L/4
        var_of_s2 = mu4 / shots - mu2**2 * (shots - 3) / (shots * (shots - 1))

        sample_var = float(np.var(counts, ddof=1))
        assert abs(sample_var - n_ions / 4.0) < 3.0 * np.sqrt(var_of_s2)


# ---------------------------------------------------------------------------
# 5. Scaling laws
# ---------------------------------------------------------------------------


def test_criterion_05_scaling_laws():
    """sigma(dw) scales as L^-1/2 (unentangled) and L^-1 (GHZ).

    At 10^4 noise-free trials the per-point relative error of sigma-hat is
    ~0.7%, so the +-0.1 slope band and the 10% absolute band carry an
    order of magnitude of headroom.
    """
    with budget(300.0):
        report = scan_scaling([1, 2, 4, 8], trials=10_000, seed=11)
        assert abs(report.slopes["standard"] - (-0.5)) < 0.1
        assert abs(report.slopes["ghz"] - (-1.0)) < 0.1
        for point in report.points:
            assert abs(point.ratio - 1.0) < 0.10, point


# ---------------------------------------------------------------------------
# 6. L-times-faster decoherence
# ---------------------------------------------------------------------------


def test_criterion_06_ghz_decoherence_rate():
    """GHZ coherence envelope decays with exponent L*gamma.

    On resonance with phi_f = 0 the mean parity outcome estimates the
    coherence envelope directly; a weighted log-linear fit over five
    Ramsey times (10^5 trajectories per L) recovers the rate. Expected
    statistical error of the fitted exponent is ~1.5%, against a 5% band.
    """
    with budget(120.0):
        gamma = 0.3
        rng = np.random.default_rng(77)
        for n_ions in (2, 4):
            # keep L*gamma*t in the same [0.18, 0.9] window for both sizes
            t_grid = np.linspace(0.3, 1.5, 5) * (2.0 / n_ions)
            shots = 20_000
            log_means = []
            weights = []
            for t in t_grid:
                cfg = RamseyConfig(
                    n_ions=n_ions,
                    t_ramsey=float(t),
                    omega_r=0.0,
                    omega_0=0.0,
                    shots=shots,
                    noise=NoiseSpec(gamma=gamma, mode="independent"),
                )
                outcomes = cfg.protocol.outcomes(run_ramsey(cfg, rng), n_ions)
                mean = float(np.mean(outcomes))
                sd_mean = float(np.std(outcomes, ddof=1)) / np.sqrt(shots)
                log_means.append(np.log(mean))
                weights.append((mean / sd_mean) ** 2)  # 1/var of log(mean)
            coef = np.polyfit(t_grid, log_means, 1, w=np.sqrt(weights))
            rate = -coef[0]
            expected = n_ions * gamma
            assert abs(rate - expected) / expected < 0.05


# ---------------------------------------------------------------------------
# 7. No precision advantage under independent dephasing
# ---------------------------------------------------------------------------


def test_criterion_07_dephasing_no_advantage():
    """min over T_R of sigma*sqrt(tau) agrees between protocols; the GHZ
    optimum sits at ~1/L of the unentangled optimum (within the grid)."""
    with budget(600.0):
        gamma = 0.5
        n_ions = 3
        t_grid = np.geomspace(0.08, 2.5, 10)
        report = dephasing_benchmark(
            gamma,
            n_ions,
            t_grid,
            trials=8_000,
            seed=5,
            mode="sampled",
            refine=False,
        )
        assert abs(report.min_ratio - 1.0) < 0.10
        for curve in report.curves.values():
            assert not curve.argmin_on_boundary
        # each argmin is located to one grid cell; their ratio to two
        cell = np.log(t_grid[1] / t_grid[0])
        assert abs(np.log(report.t_opt_ratio * n_ions)) < 2.0 * cell + 1e-9


# ---------------------------------------------------------------------------
# 8. Bias-robust calibration
# ---------------------------------------------------------------------------


def test_criterion_08_bias_robust_calibration():
    """Two-point calibration nulls an injected exp(-T_R/T_c) contrast decay
    that visibly biases the naive single-point inversion."""
    with budget(10.0):
        truth = 0.61803
        cfg = RamseyConfig(n_ions=4, t_ramsey=2.0, omega_r=0.5, omega_0=truth)
        bias = lambda t: np.exp(-t / 5.0)  # noqa: E731
        sim = make_truth_simulator(cfg, bias=bias)
        cal = CalibrationState(omega_r1=0.50, omega_r2=0.70, t_r1=0.02, t_r2=2.0)
        result = two_point_calibrate(sim, cal, cfg.n_ions)
        fringe_width = np.pi / (cfg.n_ions * cal.t_r2)
        assert abs(result.omega0 - truth) < 1e-3 * fringe_width

        naive = naive_single_point_omega0(sim, 0.70, 2.0, cfg.n_ions)
        offset = abs(naive - truth)
        assert offset > 0.01  # documented systematic of the naive inversion
        assert offset > 100.0 * abs(result.omega0 - truth)


# ---------------------------------------------------------------------------
# 9. Fourier recovery
# ---------------------------------------------------------------------------


def test_criterion_09_fourier_recovery():
    """Random five-harmonic fringe recovered to 1e-6 on a 128-point grid."""
    with budget(1.0):
        rng = np.random.default_rng(2024)
        n_ions = 5
        delta_omega = 0.7
        c_true = rng.uniform(0.05, 0.45, n_ions)
        xi_true = rng.uniform(-np.pi, np.pi, n_ions)
        period = 2.0 * np.pi / delta_omega
        t_grid = 0.3 + period * np.arange(128) / 128.0
        signal = synthesize_signal(t_grid, delta_omega, c_true, xi_true)
        fit = fourier_decompose(t_grid, signal, n_ions, delta_omega)
        assert_allclose(fit.c, c_true, atol=1e-6)
        phase_err = np.angle(np.exp(1j * (fit.xi - xi_true)))
        assert_allclose(phase_err, 0.0, atol=1e-6)
        assert fit.residual < 1e-6


# ---------------------------------------------------------------------------
# 10. CLI determinism across thread counts
# ---------------------------------------------------------------------------


RAMSEY_NOISY_INI = """
[run]
seed = 99

[ramsey]
protocol = ghz
n_ions = 3
t_ramsey = 0.8
omega_0 = 0.1
omega_r = 0.75449866
shots = 3000
gamma = 0.2
noise_mode = independent
"""

SCALING_INI = """
[run]
seed = 13

[scaling]
l_values = 1 2 4
trials = 2000
t_ramsey = 1.0
omega_0 = 0.0
"""


def _run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "ionramsey.cli", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_10_cli_determinism(tmp_path):
    """Same seed, different --threads: byte-identical CLI outputs."""
    for name, ini, command, outputs in (
        ("r.ini", RAMSEY_NOISY_INI, "ramsey", ("ramsey.csv", "ramsey_summary.json")),
        (
            "s.ini",
            SCALING_INI,
            "scaling",
            ("scaling.csv", "scaling_summary.json"),
        ),
    ):
        cfg = tmp_path / name
        cfg.write_text(ini)
        dirs = {}
        for threads in (1, 4):
            out = tmp_path / f"{command}-t{threads}"
            _run_cli(
                [
                    command,
                    "--config",
                    str(cfg),
                    "--out",
                    str(out),
                    "--threads",
                    str(threads),
                ]
            )
            dirs[threads] = out
        for fname in outputs:
            first = (dirs[1] / fname).read_bytes()
            second = (dirs[4] / fname).read_bytes()
            assert first == second, f"{command}/{fname} differs across thread counts"
        # summaries parse and carry the run manifest
        summary = json.loads((dirs[1] / outputs[1]).read_text())
        assert "manifest_sha256" in summary["meta"]


# ---------------------------------------------------------------------------
# Note: 0.7-fidelity regression fixture
# ---------------------------------------------------------------------------


def test_note_imperfect_fidelity_fixture():
    """A 0.7-fidelity two-ion state shows C_2 < 1 and leftover misfit.

    The admixture amplitude is chosen so |<ghz|state>|^2 = 1/(1+eps^2)
    = 0.7 exactly. For L=2 the single intermediate excitation level is
    self-complementary under the parity readout, producing a DC term the
    harmonic model excludes -- it must land in the residual.
    """
    eps = np.sqrt(3.0 / 7.0)
    spec = ImperfectionSpec(epsilon={1: eps})
    ideal = dicke_ghz(2, np.array([1.0, 1.0]) / np.sqrt(2))
    state = perturb_ghz(ideal, spec)
    fidelity = abs(np.vdot(ideal.dicke, state.dicke)) ** 2
    assert abs(fidelity - 0.7) < 1e-12

    delta_omega = 0.5
    cfg = RamseyConfig(
        n_ions=2,
        t_ramsey=1.0,
        omega_r=delta_omega,
        omega_0=0.0,
        imperfection=spec,
        allow_wrap=True,
    )
    period = 2.0 * np.pi / delta_omega
    t_grid = period * np.arange(1, 65) / 64.0
    signal = expected_signal(cfg, t_ramsey=t_grid)
    fit = fourier_decompose(t_grid, signal, 2, delta_omega)
    c2 = fit.c[1]
    assert c2 < 1.0 - 1e-6
    assert abs(c2 - 0.7) < 1e-9  # GHZ weight carries the fringe
    assert fit.residual > 0.01  # DC leftover from the admixture
