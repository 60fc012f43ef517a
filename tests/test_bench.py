"""Benchmark-layer checks.

The closed-form uncertainty limits are cross-checked against an oracle built
from first principles: numerically differentiate the expectation-mode signal
with respect to the detuning, take the exact per-shot outcome variance from
the state vector, and propagate. No formula under test appears in the
oracle path.

The analytic (infinite-trial) curves run the simulator: they invert the Born
table's class masses. Their oracle is the closed form, :func:`analytic_sigma_tau`,
which lives here and nowhere in the package.
"""

from fractions import Fraction
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from ionramsey import (
    ConfigError,
    Protocol,
    RamseyConfig,
    NoiseSpec,
    dephasing_benchmark,
    estimate_frequency,
    expected_signal,
    run_ramsey,
    scan_scaling,
    theory_sigma,
)
from ionramsey.bench import PROTOCOLS, _half_fringe_sigma, _loglog_slope, golden_section
from ionramsey import protocols, register, streams
from ionramsey.protocols import _run_state

STANDARD, GHZ = PROTOCOLS


def analytic_sigma_tau(protocol, n_ions, gamma, t_ramsey):
    """Oracle: sigma(dw) sqrt(tau) under independent dephasing at infinite
    trials, in closed form (Huelga et al., PRL 79, 3865, 1997). The
    projection-noise limit at unit tau, 1/sqrt(L T_R) or 1/(L sqrt(T_R)),
    over the fringe contrast exp(-m gamma T_R), m the fringe multiplier."""
    if protocol is Protocol.STANDARD:
        limit = 1.0 / math.sqrt(n_ions * t_ramsey)
    else:
        limit = 1.0 / (n_ions * math.sqrt(t_ramsey))
    return limit / math.exp(-protocol.multiplier(n_ions) * gamma * t_ramsey)


def _analytic_point(protocol, n_ions, gamma, t_ramsey):
    """One point of an analytic dephasing curve, as the package computes it."""
    noise = NoiseSpec(gamma=gamma, mode="independent")
    sigma = _half_fringe_sigma(protocol, n_ions, t_ramsey, 1, None, noise=noise)
    return sigma * math.sqrt(t_ramsey)


def _ulps(got, want):
    """How many spacings of ``want`` lie between ``got`` and it."""
    return abs(got - want) / np.spacing(abs(want))


def numeric_sigma_oracle(protocol, n_ions, t_ramsey, trials):
    """First-principles uncertainty of the mean-signal estimator.

    sigma = sqrt(var_per_shot / trials) / |d<signal>/d dw| at the designed
    half-fringe operating point, evaluated by central differences on the
    expectation-mode signal.
    """
    dw0 = np.pi / (2 * protocol.multiplier(n_ions) * t_ramsey)
    h = 1e-6

    def mean_sig(dw):
        cfg = RamseyConfig(
            n_ions=n_ions, t_ramsey=t_ramsey, omega_r=dw, omega_0=0.0,
            protocol=protocol, allow_wrap=True,
        )
        return expected_signal(cfg, delta_omega=dw)

    if protocol is Protocol.STANDARD:
        # Mean estimator is n_down/L; per-shot variance of n_down is
        # binomial L p (1-p) at the operating point.
        p_up = mean_sig(dw0)
        var_shot = n_ions * p_up * (1 - p_up)  # variance of the count
        slope_counts = n_ions * (mean_sig(dw0 + h) - mean_sig(dw0 - h)) / (2 * h)
        return np.sqrt(var_shot / trials) / abs(slope_counts)

    s = mean_sig(dw0)
    var_shot = 1.0 - s**2  # parity outcome is +-1
    slope = (mean_sig(dw0 + h) - mean_sig(dw0 - h)) / (2 * h)
    return np.sqrt(var_shot / trials) / abs(slope)


class TestTheoryFormulas:
    @pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: p.family)
    @pytest.mark.parametrize("n_ions", [1, 2, 4, 8])
    def test_sigma_matches_first_principles(self, protocol, n_ions):
        t_ramsey, trials = 1.3, 5000
        tau = trials * t_ramsey
        oracle = numeric_sigma_oracle(protocol, n_ions, t_ramsey, trials)
        assert theory_sigma(protocol, n_ions, t_ramsey, tau) == pytest.approx(
            oracle, rel=1e-5
        )

    def test_fringe_multiplier(self):
        assert Protocol.STANDARD.multiplier(8) == 1
        for protocol in (Protocol.GHZ_PARITY, Protocol.GHZ_REVERSED):
            assert protocol.multiplier(8) == 8
        assert [p.family for p in PROTOCOLS] == ["standard", "ghz"]

    @pytest.mark.parametrize(
        "protocol,mult",
        [pytest.param(STANDARD, 1, id="standard-1"), pytest.param(GHZ, 3, id="ghz-3")],
    )
    def test_analytic_optimum_against_scipy(self, protocol, mult):
        # Oracle: minimize the analytic curve numerically; the optimum must
        # land at 1/(2 mult gamma) with value sqrt(2 e gamma mult) / ... the
        # formula is not asserted directly, only consistency of the curve.
        gamma, n_ions = 0.4, 3
        res = minimize_scalar(
            lambda t: _analytic_point(protocol, n_ions, gamma, t),
            bounds=(1e-3, 20.0),
            method="bounded",
            options={"xatol": 1e-10},
        )
        assert res.x == pytest.approx(1 / (2 * mult * gamma), rel=1e-5)
        want_min = np.sqrt(2 * np.e * gamma / n_ions) if protocol is STANDARD else (
            np.sqrt(2 * np.e * gamma * 3) / 3
        )
        assert res.fun == pytest.approx(want_min, rel=1e-9)

    def test_protocol_minima_coincide(self):
        # Same gamma: the two optimal sigma*sqrt(tau) values are equal.
        gamma, n_ions = 0.7, 5
        m_std = _analytic_point(STANDARD, n_ions, gamma, 1 / (2 * gamma))
        m_ghz = _analytic_point(GHZ, n_ions, gamma, 1 / (2 * n_ions * gamma))
        assert m_std == pytest.approx(m_ghz, rel=1e-12)


class TestGoldenSection:
    def test_minimizes_quadratic(self):
        evals = golden_section(lambda x: (x - 1.7) ** 2 + 3.0, 0.0, 4.0, iters=40)
        x_best, f_best = min(evals, key=lambda e: e[1])
        assert x_best == pytest.approx(1.7, abs=1e-6)
        assert f_best == pytest.approx(3.0, abs=1e-12)

    def test_returns_all_evaluations(self):
        evals = golden_section(np.cos, 2.0, 4.5, iters=10)
        assert len(evals) == 12  # two seeds + one new point per iteration
        assert all(f == pytest.approx(np.cos(x)) for x, f in evals)


class TestScanScaling:
    def test_slopes_and_ratios(self):
        report = scan_scaling([1, 2, 4], trials=4000, seed=3)
        assert report.slopes["standard"] == pytest.approx(-0.5, abs=0.1)
        assert report.slopes["ghz"] == pytest.approx(-1.0, abs=0.05)
        for point in report.points:
            assert point.ratio == pytest.approx(1.0, abs=0.1)
        assert not report.low_statistics

    def test_seed_changes_results(self):
        a = scan_scaling([1, 2], trials=2000, seed=1)
        b = scan_scaling([1, 2], trials=2000, seed=2)
        assert a != b

    def test_needs_two_points(self):
        with pytest.raises(ConfigError):
            scan_scaling([4], trials=100)

    def test_needs_two_distinct_points(self):
        # A repeated L gives the log-log fit no spread in x to fit a slope to.
        with pytest.raises(ConfigError, match="two distinct L values"):
            scan_scaling([3, 3], trials=100, mode="analytic")

    @pytest.mark.parametrize("t_ramsey", [0.0, -1.0])
    def test_needs_positive_ramsey_time(self, t_ramsey):
        with pytest.raises(ConfigError, match="t_ramsey > 0"):
            scan_scaling([1, 2], trials=100, t_ramsey=t_ramsey)

    def test_runs_at_the_given_time_and_resonance(self):
        report = scan_scaling([1, 3], trials=3000, t_ramsey=0.5, omega_0=3.0, seed=4)
        for point in report.points:
            assert (point.t_ramsey, point.tau) == (0.5, 1500.0)
            assert point.ratio == pytest.approx(1.0, abs=0.1)

    def test_low_statistics_flag(self):
        report = scan_scaling([1, 2], trials=500, seed=0)
        assert report.low_statistics

    def test_analytic_points_meet_the_limit(self):
        # The Born masses' sigma is the projection-noise limit to rounding: 4 ulp.
        report = scan_scaling(
            [1, 2, 4, 8, 24], trials=100, t_ramsey=0.7, omega_0=0.3, mode="analytic"
        )
        assert len(report.points) == 10
        for point in report.points:
            assert abs(point.ratio - 1.0) <= 4 * np.spacing(1.0)
        assert report.slopes["standard"] == pytest.approx(-0.5, abs=1e-12)
        assert report.slopes["ghz"] == pytest.approx(-1.0, abs=1e-12)
        assert not report.low_statistics

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="unknown mode"):
            scan_scaling([1, 2], trials=100, mode="magic")


class TestDephasingBenchmark:
    def test_analytic_mode_matches_formula(self):
        # The Born masses' sigma is the closed form to rounding, 4 ulp, at
        # each of 84 points: 2 protocols x 7 ion numbers x 2 rates x 3 times.
        t_grid = [0.1, 0.7, 2.5]
        for n_ions, gamma in itertools.product([1, 2, 3, 5, 8, 16, 24], [0.05, 0.5]):
            report = dephasing_benchmark(gamma, n_ions, t_grid, mode="analytic", refine=False)
            for protocol in PROTOCOLS:
                curve = report.curves[protocol.family]
                for t, got in zip(t_grid, curve.sigma_tau):
                    want = analytic_sigma_tau(protocol, n_ions, gamma, t)
                    assert _ulps(got, want) <= 4, (protocol, n_ions, gamma, t)

    def test_analytic_mode_reads_no_trials(self):
        t_grid = np.geomspace(0.1, 3.0, 5)
        a, b = (dephasing_benchmark(0.3, 4, t_grid, trials=n, mode="analytic") for n in (2, 10_000))
        assert a.curves == b.curves
        assert (a.t_opt_ratio, a.min_ratio) == (b.t_opt_ratio, b.min_ratio)

    def test_analytic_refinement_finds_true_optimum(self):
        gamma, n_ions = 0.5, 3
        t_grid = np.geomspace(0.05, 4.0, 8)
        report = dephasing_benchmark(
            gamma, n_ions, t_grid, trials=100, seed=0, mode="analytic", refine=True
        )
        assert report.curves["standard"].t_opt == pytest.approx(1.0, rel=2e-3)
        assert report.curves["ghz"].t_opt == pytest.approx(1 / 3, rel=2e-3)
        assert report.t_opt_ratio == pytest.approx(1 / 3, rel=5e-3)
        assert report.min_ratio == pytest.approx(1.0, abs=5e-3)
        assert not any(curve.argmin_on_boundary for curve in report.curves.values())

    def test_sampled_mode_tracks_analytic(self):
        gamma, n_ions = 0.5, 2
        t_grid = np.geomspace(0.2, 2.0, 6)
        report = dephasing_benchmark(
            gamma, n_ions, t_grid, trials=4000, seed=5, mode="sampled", refine=False
        )
        for protocol in PROTOCOLS:
            got = np.asarray(report.curves[protocol.family].sigma_tau)
            want = np.array(
                [analytic_sigma_tau(protocol, n_ions, gamma, t) for t in t_grid]
            )
            np.testing.assert_allclose(got, want, rtol=0.15)

    def test_validates_inputs(self):
        with pytest.raises(ConfigError):
            dephasing_benchmark(0.0, 2, np.array([0.1, 0.2, 0.3]), 10, seed=0)
        with pytest.raises(ConfigError):
            dephasing_benchmark(0.5, 2, np.array([0.3, 0.2, 0.1]), 10, seed=0)
        with pytest.raises(ConfigError):
            dephasing_benchmark(0.5, 2, np.array([0.1, 0.2, 0.3]), 10, seed=0, mode="magic")


def _half_fringe_cfg(protocol, n_ions, t_ramsey, shots, noise=None):
    """The config of a scan point: the half fringe above resonance 0."""
    omega_r = np.pi / (2 * protocol.multiplier(n_ions) * t_ramsey)
    return RamseyConfig(
        n_ions=n_ions, t_ramsey=t_ramsey, omega_r=omega_r, omega_0=0.0,
        noise=noise, protocol=protocol, shots=shots,
    )


def _tallied_sigma(cfg, path):
    """Oracle: the estimator's sigma over the class counts of one
    ``multinomial`` draw on the stream ``(*path, 0)`` over the run's class
    masses, each cell times its C(L - 1, k) indices, in class order."""
    n = cfg.n_ions
    masses = (_run_state(cfg) * [math.comb(n - 1, k) for k in range(n)]).reshape(-1)
    counts = streams.stream(*path, 0).multinomial(cfg.shots, masses / masses.sum())
    return estimate_frequency(cfg, counts, operating_phase=np.pi / 2).sigma


class TestCountedScanPoints:
    """A sampled scan point draws its readout-class counts, one multinomial
    over its run's Born table, not one class per shot."""

    def test_scaling_point_is_the_inverted_multinomial(self):
        report = scan_scaling([1, 2, 3], trials=700, t_ramsey=0.9, seed=6)
        for point in report.points:
            p = [q.family for q in PROTOCOLS].index(point.protocol)
            protocol, l_idx = PROTOCOLS[p], [1, 2, 3].index(point.n_ions)
            cfg = _half_fringe_cfg(protocol, point.n_ions, 0.9, 700)
            assert point.sigma_measured == pytest.approx(
                _tallied_sigma(cfg, (6, p, l_idx)), rel=1e-12
            )

    def test_dephasing_point_is_the_inverted_multinomial(self):
        t_grid = np.geomspace(0.2, 2.0, 4)
        report = dephasing_benchmark(0.4, 3, t_grid, trials=600, seed=9, refine=False)
        noise = NoiseSpec(gamma=0.4, mode="independent")
        for p, protocol in enumerate(PROTOCOLS):
            for k, t in enumerate(t_grid):
                cfg = _half_fringe_cfg(protocol, 3, float(t), 600, noise)
                want = _tallied_sigma(cfg, (9, p, k)) * math.sqrt(600 * float(t))
                got = report.curves[protocol.family].sigma_tau[k]
                assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "protocol,noise",
        [
            pytest.param(STANDARD, None, id="standard-noiseless"),
            pytest.param(GHZ, NoiseSpec(gamma=0.3, mode="independent"), id="ghz-dephased"),
        ],
    )
    def test_sigma_agrees_with_the_per_shot_estimator(self, protocol, noise):
        # Over 300 seeds, the counted sigma and run_ramsey + estimate_frequency
        # on a stream of its own have one mean, within 4 standard errors.
        n_ions, t_ramsey, shots = 3, 0.7, 200
        cfg = _half_fringe_cfg(protocol, n_ions, t_ramsey, shots, noise)
        counted, per_shot = [], []
        for seed in range(300):
            counted.append(
                _half_fringe_sigma(protocol, n_ions, t_ramsey, shots, (seed, 0), noise=noise)
            )
            classes = run_ramsey(cfg, streams.stream(seed, 1, 0))
            counts = np.bincount(classes, minlength=2 * n_ions)
            per_shot.append(estimate_frequency(cfg, counts, operating_phase=np.pi / 2).sigma)
        error = math.hypot(np.std(counted, ddof=1), np.std(per_shot, ddof=1)) / math.sqrt(300)
        assert abs(np.mean(counted) - np.mean(per_shot)) < 4 * error

    def test_scans_sample_no_shot(self, monkeypatch):
        def no_shots(*args):
            raise AssertionError("a scan point drew shots one by one")

        monkeypatch.setattr(register, "sample_measurement", no_shots)
        monkeypatch.setattr(protocols, "sample_measurement", no_shots)
        report = scan_scaling([1, 2], trials=300, seed=2)
        assert len(report.points) == 4
        report = dephasing_benchmark(0.5, 2, np.geomspace(0.1, 3.0, 4), trials=300, seed=2)
        assert len(report.curves["ghz"].sigma_tau) == 4


def _exact_slope(x, y):
    """Oracle: the least-squares slope and its sigma in rational arithmetic
    on the floats x and y, rounded once."""
    x, y = [Fraction(float(v)) for v in x], [Fraction(float(v)) for v in y]
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    sxx = sum((a - mx) ** 2 for a in x)
    slope = sum((a - mx) * (b - my) for a, b in zip(x, y)) / sxx
    ssr = sum((b - my - slope * (a - mx)) ** 2 for a, b in zip(x, y))
    return float(slope), math.sqrt(ssr / (n - 2) / sxx)


class TestLoglogSlope:
    def _sets(self, seed, count):
        """Random 3-8-point sets: distinct ion numbers, sigmas near a power law."""
        rng = np.random.default_rng(seed)
        for _ in range(count):
            l_values = rng.choice(np.arange(1, 25), int(rng.integers(3, 9)), replace=False)
            sigmas = l_values ** rng.uniform(-1.5, -0.3) * rng.uniform(0.5, 2.0, len(l_values))
            yield l_values, sigmas

    def test_matches_polyfit_covariance(self):
        for l_values, sigmas in self._sets(0, 2000):
            slope, sigma = _loglog_slope(l_values, sigmas)
            coef, cov = np.polyfit(np.log(l_values), np.log(sigmas), 1, cov=True)
            assert slope == pytest.approx(coef[0], rel=1e-12)
            assert sigma == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-12)

    def test_matches_exact_arithmetic(self):
        # np.polyfit's own rounding strays up to ~2e-12 from these on other
        # sets; the closed form stays within 1e-12 of the exact values.
        for l_values, sigmas in self._sets(1, 300):
            want = _exact_slope(np.log(l_values), np.log(sigmas))
            assert _loglog_slope(l_values, sigmas) == pytest.approx(want, rel=1e-12)

    def test_two_points_have_no_error(self):
        assert _loglog_slope(np.array([2, 8]), np.array([0.5, 0.125])) == (-1.0, 0.0)


class TestStreams:
    def test_same_path_reproduces(self):
        a = streams.stream(5, 1, 2).normal(size=8)
        b = streams.stream(5, 1, 2).normal(size=8)
        np.testing.assert_array_equal(a, b)

    def test_different_paths_decorrelate(self):
        a = streams.stream(5, 1, 2).normal(size=8)
        b = streams.stream(5, 1, 3).normal(size=8)
        c = streams.stream(6, 1, 2).normal(size=8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

