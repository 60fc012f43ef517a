"""Protocol-level checks: fringe shapes, estimators, calibration, harmonics.

Closed-form fringe expressions used as oracles here (two pi/2 pulses around
a free evolution of length T at detuning dw, L ions):

  standard excited fraction   p_up = (1 - C cos(dw T + phi_f)) / 2
  GHZ normalized parity       S    = C cos(L dw T + phi_f)
  GHZ time-reversed readout   S    = C cos(L dw T)

with C = 1 noise-free. These were derived by multiplying out the 2x2 pulse
matrices; everything below leans on them plus plain statistics.
"""

import math
import re
import sys
import time
import tracemalloc
from dataclasses import replace
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionramsey import (
    MAX_IONS,
    AmbiguousFringeError,
    CapacityError,
    CalibrationState,
    ConvergenceError,
    DegenerateSlopeError,
    ImperfectionSpec,
    NoiseSpec,
    Protocol,
    RamseyConfig,
    estimate_frequency,
    expected_signal,
    fourier_decompose,
    make_truth_simulator,
    run_ramsey,
    stream,
    two_point_calibrate,
)
from ionramsey import bench, gates, protocols, register, streams
from ionramsey.cli import main
from ionramsey.errors import FitError
from ionramsey.register import sample_measurement
from ionramsey.protocols import (
    FringeFit,
    _prepare_dicke,
    fit_fringe_frequency,
    flag_large_admixture,
    naive_single_point_omega0,
    synthesize_signal,
)
from test_register import (
    class_masses,
    dense_final,
    dense_prepare,
    dense_signal,
    dense_table,
    expand,
)


class TestFringeShapes:
    @pytest.mark.parametrize("n_ions", [1, 2, 3, 5])
    @pytest.mark.parametrize("phi_f", [0.0, 0.6, -1.3])
    def test_standard_population(self, n_ions, phi_f):
        cfg = RamseyConfig(
            n_ions=n_ions,
            t_ramsey=0.9,
            omega_r=0.31,
            omega_0=0.1,
            protocol=Protocol.STANDARD,
            final_phase=phi_f,
            allow_wrap=True,
        )
        ts = np.linspace(0.0, 3.0, 17)
        got = np.array([expected_signal(cfg, t_ramsey=t) for t in ts])
        want = (1 - np.cos(cfg.delta_omega * ts + phi_f)) / 2
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("n_ions", [1, 2, 4])
    @pytest.mark.parametrize("phi_f", [0.0, 0.8])
    @pytest.mark.parametrize("phi0", [0.0, 1.7])
    def test_ghz_parity_readout(self, n_ions, phi_f, phi0):
        cfg = RamseyConfig(
            n_ions=n_ions,
            t_ramsey=1.0,
            omega_r=0.27,
            omega_0=0.05,
            final_phase=phi_f,
            phi0=phi0,
            allow_wrap=True,
        )
        ts = np.linspace(0.0, 2.5, 13)
        got = np.array([expected_signal(cfg, t_ramsey=t) for t in ts])
        want = np.cos(n_ions * cfg.delta_omega * ts + phi_f)
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("n_ions", [1, 3, 4])
    def test_ghz_time_reversed_readout(self, n_ions):
        cfg = RamseyConfig(
            n_ions=n_ions,
            t_ramsey=1.0,
            omega_r=0.33,
            omega_0=0.0,
            protocol=Protocol.GHZ_REVERSED,
            phi0=0.9,
            allow_wrap=True,
        )
        ts = np.linspace(0.0, 2.0, 11)
        got = np.array([expected_signal(cfg, t_ramsey=t) for t in ts])
        np.testing.assert_allclose(got, np.cos(n_ions * 0.33 * ts), atol=1e-12)

    @pytest.mark.parametrize("n_ions", [1, 2, 4])
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_fringe_model_is_the_expected_signal(self, protocol, n_ions):
        # Protocol.fringe is the model the estimator inverts; the time-reversed
        # readout cancels phi_f, the others keep it.
        ghz = protocol is not Protocol.STANDARD
        cfg = RamseyConfig(
            n_ions=n_ions,
            t_ramsey=1.0,
            omega_r=0.41,
            omega_0=0.07,
            protocol=protocol,
            final_phase=0.7,
            phi0=1.1 if ghz else 0.0,
            allow_wrap=True,
        )
        phi = 0.0 if protocol is Protocol.GHZ_REVERSED else 0.7
        assert protocol.readout_phase(0.7) == phi
        offset, scale = protocol.fringe
        ts = np.linspace(0.0, 4.0, 23)
        m = protocol.multiplier(n_ions)
        want = offset + scale * np.cos(m * cfg.delta_omega * ts + phi)
        np.testing.assert_allclose(expected_signal(cfg, t_ramsey=ts), want, rtol=0, atol=1e-12)

    def test_both_readouts_share_fringe_frequency(self):
        cfg = dict(n_ions=3, t_ramsey=1.0, omega_r=0.4, omega_0=0.0, allow_wrap=True)
        ts = np.linspace(0.0, 2 * np.pi / 0.4, 64)
        par = expected_signal(RamseyConfig(**cfg), t_ramsey=ts)
        rev = expected_signal(RamseyConfig(**cfg, protocol=Protocol.GHZ_REVERSED), t_ramsey=ts)
        f_par = fit_fringe_frequency(ts, par).frequency
        f_rev = fit_fringe_frequency(ts, rev).frequency
        assert f_par == pytest.approx(3 * 0.4, rel=1e-8)
        assert f_rev == pytest.approx(3 * 0.4, rel=1e-8)


class TestProtocol:
    def test_named_maps_config_pairs(self):
        for protocol in Protocol:
            assert Protocol.named(protocol.family, protocol.readout) is protocol
            assert Protocol(protocol.value) is protocol
        assert Protocol.STANDARD.readout == "final_pulse"
        for family, readout in (("standard", "time_reversed"), ("magic", "final_pulse")):
            with pytest.raises(ValueError):
                Protocol.named(family, readout)


class TestAliasGuard:
    def test_standard_rejects_wrapped_fringe(self):
        cfg = RamseyConfig(
            n_ions=2, t_ramsey=1.0, omega_r=3.5, omega_0=0.0, protocol=Protocol.STANDARD
        )
        with pytest.raises(AmbiguousFringeError):
            run_ramsey(cfg, stream(0, 0))

    def test_ghz_uses_multiplied_fringe(self):
        # |dw| T = 0.9 < pi is fine for one ion but wraps at L = 4.
        cfg = RamseyConfig(n_ions=4, t_ramsey=1.0, omega_r=0.9, omega_0=0.0, shots=10)
        for protocol in (Protocol.GHZ_PARITY, Protocol.GHZ_REVERSED):
            with pytest.raises(AmbiguousFringeError):
                run_ramsey(replace(cfg, protocol=protocol), stream(0, 0))
        run_ramsey(replace(cfg, protocol=Protocol.STANDARD), stream(0, 0))

    def test_allow_wrap_overrides(self):
        cfg = RamseyConfig(
            n_ions=4, t_ramsey=1.0, omega_r=0.9, omega_0=0.0, shots=10, allow_wrap=True
        )
        run_ramsey(cfg, stream(0, 0))


def _estimate(cfg, classes, **kwargs):
    """The estimate of a sampled run of ``cfg``, from its shots' class counts
    tallied as the CLI tallies them."""
    counts = np.bincount(classes, minlength=2 * cfg.n_ions)
    return estimate_frequency(cfg, counts, **kwargs)


def _shot_signal(protocol, outcomes, n_ions):
    """The per-shot fringe signal of record outcomes, written out: the
    excited fraction (standard), -2 times ion 1's spin (GHZ time-reversed) or
    the parity sign itself (GHZ parity)."""
    if protocol is Protocol.STANDARD:
        return (n_ions - outcomes) / n_ions
    if protocol is Protocol.GHZ_REVERSED:
        return -2.0 * outcomes
    return outcomes


def _half_fringe_cfg(protocol, n_ions, *, shots, gamma=0.0, t_ramsey=1.0, omega_0=0.0):
    noise = NoiseSpec(gamma=gamma) if gamma > 0 else None
    return RamseyConfig(
        n_ions=n_ions,
        t_ramsey=t_ramsey,
        omega_r=omega_0 + np.pi / (2 * protocol.multiplier(n_ions) * t_ramsey),
        omega_0=omega_0,
        noise=noise,
        protocol=protocol,
        shots=shots,
    )


class TestSampledRuns:
    @pytest.mark.parametrize(
        "protocol,outcomes",
        [
            pytest.param(Protocol.STANDARD, {0.0, 1.0, 2.0, 3.0}, id="standard"),
            pytest.param(Protocol.GHZ_PARITY, {-1.0, 1.0}, id="ghz_parity"),
            pytest.param(Protocol.GHZ_REVERSED, {-0.5, 0.5}, id="ghz_reversed"),
        ],
    )
    def test_outcomes_match_protocol(self, protocol, outcomes):
        cfg = _half_fringe_cfg(protocol, 3, shots=400)
        classes = run_ramsey(cfg, stream(1, 0))
        assert classes.dtype == np.int64
        assert classes.shape == (400,)
        # At the half fringe every outcome the protocol allows shows up.
        assert set(protocol.outcomes(classes, 3).tolist()) == outcomes

    @pytest.mark.parametrize(
        "protocol,final_phase",
        [
            pytest.param(Protocol.STANDARD, 0.0, id="standard"),
            pytest.param(Protocol.GHZ_PARITY, 0.0, id="ghz"),
            # The parity fringe sits at L dw T + phi_f: the estimator takes phi_f off.
            pytest.param(Protocol.GHZ_PARITY, 0.2, id="ghz_final_phase"),
            # The time-reversed readout cancels phi_f: the estimator must ignore it.
            pytest.param(Protocol.GHZ_REVERSED, 0.3, id="ghz_reversed"),
        ],
    )
    def test_estimator_recovers_detuning(self, protocol, final_phase):
        truth = 0.12
        omega_r = _half_fringe_cfg(protocol, 3, shots=1).omega_r
        cfg = RamseyConfig(
            n_ions=3,
            t_ramsey=1.0,
            omega_r=omega_r,
            omega_0=omega_r - truth,  # put the truth off the half-fringe
            protocol=protocol,
            final_phase=final_phase,
            shots=20_000,
        )
        classes = run_ramsey(cfg, stream(11, 5))
        est = _estimate(cfg, classes)
        assert est.estimate == pytest.approx(truth, abs=5 * est.sigma)
        assert est.sigma < 0.02

    def test_estimator_z_scores_are_standard_normal(self):
        # 60 independent estimates: mean z and var z should look N(0,1).
        truth = np.pi / 6
        zs = []
        for k in range(60):
            cfg = _half_fringe_cfg(Protocol.GHZ_PARITY, 2, shots=2000, omega_0=0.0)
            classes = run_ramsey(cfg, stream(100, k))
            est = _estimate(cfg, classes)
            zs.append((est.estimate - cfg.delta_omega) / est.sigma)
        zs = np.array(zs)
        assert abs(np.mean(zs)) < 4 / np.sqrt(60)
        assert 0.6 < np.std(zs, ddof=1) < 1.5

    def test_sigma_scales_inverse_sqrt_shots(self):
        sig = {}
        for shots in (2000, 8000):
            cfg = _half_fringe_cfg(Protocol.STANDARD, 2, shots=shots)
            classes = run_ramsey(cfg, stream(7, shots))
            sig[shots] = _estimate(cfg, classes).sigma
        assert sig[2000] / sig[8000] == pytest.approx(2.0, rel=0.15)

    def test_noisy_run_sigma_uses_contrast(self):
        gamma, t = 0.4, 1.0
        cfg = _half_fringe_cfg(Protocol.GHZ_PARITY, 2, shots=6000, gamma=gamma, t_ramsey=t)
        classes = run_ramsey(cfg, stream(21, 0))
        c = np.exp(-2 * gamma * t)  # two independent phases on the GHZ coherence
        est = _estimate(cfg, classes, operating_phase=np.pi / 2)
        # At the half-fringe the parity mean is ~0, variance ~1, slope c*L*T.
        want_sigma = 1.0 / (c * 2 * t * np.sqrt(6000))
        assert est.sigma == pytest.approx(want_sigma, rel=0.1)
        assert est.estimate == pytest.approx(cfg.delta_omega, abs=4 * est.sigma)

    def test_degenerate_slope_raises(self):
        # Operating at the fringe top: arccos slope vanishes there.
        cfg = RamseyConfig(n_ions=2, t_ramsey=1.0, omega_r=0.0, omega_0=0.0, shots=500)
        classes = run_ramsey(cfg, stream(5, 5))
        with pytest.raises(DegenerateSlopeError):
            _estimate(cfg, classes)

    def test_dephased_estimate_uses_the_run_contrast(self):
        # A dephased parity fringe C cos(x), C = exp(-L gamma T), at 0.3 of a
        # fringe: inverted with C = 1, the estimate lands tens of sigma off.
        n_ions, t, gamma, shots = 4, 1.0, 0.1, 20_000
        x = 0.3 * np.pi
        cfg = RamseyConfig(
            n_ions=n_ions,
            t_ramsey=t,
            omega_r=x / (n_ions * t),
            omega_0=0.0,
            noise=NoiseSpec(gamma=gamma),
            shots=shots,
        )
        est = _estimate(cfg, run_ramsey(cfg, stream(19, 0)))
        c = np.exp(-n_ions * gamma * t)
        assert est.estimate == pytest.approx(cfg.delta_omega, abs=5 * est.sigma)
        # Delta-method sigma: the parity's spread over the fringe slope. At the
        # half fringe it is 1 / (C L T sqrt(shots)); here 1.14 times that.
        spread = np.sqrt(1 - (c * np.cos(x)) ** 2)
        want = spread / (c * n_ions * t * np.sin(x) * np.sqrt(shots))
        assert est.sigma == pytest.approx(want, rel=0.1)

    def test_underflowed_contrast_raises(self):
        cfg = _half_fringe_cfg(Protocol.GHZ_PARITY, 3, shots=50, gamma=400.0)
        classes = run_ramsey(cfg, stream(3, 0))
        want = (
            "the ghz contrast exp(-gamma T_R ...) underflows to 0 at "
            "L = 3, gamma = 400.0, T_R = 1.0"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            _estimate(cfg, classes)


def _dephased_cfg(protocol, n_ions, mode, *, shots):
    return RamseyConfig(
        n_ions=n_ions,
        t_ramsey=0.8,
        omega_r=0.9 / protocol.multiplier(n_ions),
        omega_0=0.1,
        noise=NoiseSpec(gamma=0.3, mode=mode),
        protocol=protocol,
        final_phase=0.35,
        phi0=0.0 if protocol is Protocol.STANDARD else 0.6,
        shots=shots,
    )


def _drawn(seed_path, shots):
    """A fresh stream after one random(shots) call: where a run, noiseless
    or dephased, must leave its stream."""
    rng = stream(*seed_path)
    rng.random(shots)
    return rng


class TestStreamConsumption:
    """A run consumes its stream as one block of uniforms, dephased or not:
    its shots are drawn from one Born table, the dephased density matrix's."""

    @pytest.mark.parametrize("mode", ["independent", "common"])
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_run_draws_one_block_of_uniforms(self, protocol, mode):
        cfg = _dephased_cfg(protocol, 3, mode, shots=500)
        rng = stream(29, 3)
        classes = run_ramsey(cfg, rng)
        want = sample_measurement(protocols._run_state(cfg), stream(29, 3).random(500))
        assert np.array_equal(classes, want)
        assert np.array_equal(rng.random(8), _drawn((29, 3), 500).random(8))

    def test_long_run_leaves_its_one_stream_after_one_block(self, monkeypatch, tmp_path):
        # The CLI's sampled ramsey run draws 2,300 dephased shots from the one
        # stream seed/0/0, which it names in each shot's row and the estimate's.
        made = []

        def recording(*args):
            made.append((args, stream(*args)))
            return made[-1][1]

        monkeypatch.setattr(streams, "stream", recording)
        config = tmp_path / "ramsey.ini"
        config.write_text(
            "[run]\nseed = 13\n[ramsey]\nprotocol = standard\nn_ions = 4\nt_ramsey = 0.8\n"
            "omega_0 = 0.1\nomega_r = 1.0\nfinal_phase = 0.35\ngamma = 0.3\nshots = 2300\n"
        )
        assert main(["ramsey", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "ramsey.csv").read_text().count(",13/0/0,") == 2301
        assert [args for args, _ in made] == [(13, 0, 0)]
        assert np.array_equal(made[0][1].random(8), _drawn((13, 0, 0), 2300).random(8))


class TestEstimatorMoments:
    """The estimator takes the signal's mean and standard error from the shots'
    readout-class counts. The per-shot formula, ``np.mean`` and ``np.std(ddof=1)
    / sqrt(n)`` over each shot's signal, is their oracle, to 4 ulp."""

    @pytest.mark.parametrize("n_ions", [1, 2, 6, 20])
    @pytest.mark.parametrize("shots", [2, 3, 300, 2500])
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_counted_moments_match_the_per_shot_formula(self, protocol, shots, n_ions):
        cfg = _half_fringe_cfg(protocol, n_ions, shots=shots)
        classes = run_ramsey(cfg, stream(41, shots, n_ions))
        s = _shot_signal(protocol, protocol.outcomes(classes, n_ions), n_ions)
        want = float(np.mean(s)), float(np.std(s, ddof=1) / np.sqrt(shots))
        counts = np.bincount(classes, minlength=2 * n_ions)
        got = protocols._signal_moments(cfg, counts)
        for value, oracle in zip(got, want):
            assert abs(value - oracle) <= 4 * np.spacing(abs(oracle))

    @pytest.mark.parametrize("shots", [0, 1])
    def test_one_shot_has_no_standard_error(self, shots):
        cfg = _half_fringe_cfg(Protocol.STANDARD, 2, shots=1)
        with pytest.raises(ValueError, match="at least 2 trials"):
            _estimate(cfg, np.zeros(shots, dtype=np.int64))


class TestEstimatorContrast:
    """The estimator divides the fringe slope by the dephased contrast, written
    out here: e^{-k gamma T_R} with k = m under independent noise and m^2
    under common noise, m the fringe multiplier (Huelga et al., PRL 79, 3865,
    1997). At a pinned operating phase the contrast alone separates a noisy
    sigma from a clean one of the same class counts: their ratio is
    e^{k gamma T_R}, to 4 ulp."""

    @pytest.mark.parametrize("gamma_t", [1e-3, 0.05, 0.4])
    @pytest.mark.parametrize("n_ions", [1, 2, 5, 24])
    @pytest.mark.parametrize("mode", ["independent", "common"])
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_sigma_ratio_is_the_closed_form_decay(self, protocol, mode, n_ions, gamma_t):
        t_ramsey = 0.7
        gamma = gamma_t / t_ramsey
        clean = _half_fringe_cfg(protocol, n_ions, shots=2, t_ramsey=t_ramsey)
        noisy = replace(clean, noise=NoiseSpec(gamma=gamma, mode=mode))
        counts = np.arange(1, 2 * n_ions + 1)  # every class seen: the signal has a spread
        m = protocol.multiplier(n_ions)
        k = m if mode == "independent" else m * m
        # The exponent rounds as gamma T_R, then times k: at k gamma T_R = 230
        # one ulp of the exponent moves the exponential by about 100 ulp.
        want = math.exp(k * (gamma * t_ramsey))
        sigmas = [estimate_frequency(cfg, counts, operating_phase=np.pi / 2).sigma
                  for cfg in (noisy, clean)]
        assert abs(sigmas[0] / sigmas[1] - want) <= 4 * np.spacing(want)


class TestSharedPreparation:
    """Admixture-free prepared states and time-reversed closes are cached,
    read only; a run with an admixture gets its own writable copy."""

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_prepared_state_is_shared_and_read_only(self, protocol):
        phi0 = 0.0 if protocol is Protocol.STANDARD else 0.4
        cfg = RamseyConfig(n_ions=3, t_ramsey=1.0, omega_r=0.1, omega_0=0.0,
                           protocol=protocol, phi0=phi0)
        state = _prepare_dicke(cfg)
        assert state is _prepare_dicke(replace(cfg, omega_r=0.2))
        assert not state.dicke.flags.writeable
        with pytest.raises(ValueError):
            state.dicke[0] = 0.0
        if protocol is not Protocol.STANDARD:
            mixed = _prepare_dicke(replace(cfg, imperfection=ImperfectionSpec({1: 0.1})))
            assert mixed.dicke.flags.writeable and mixed.dicke[1] != 0.0
            assert state.dicke[1] == 0.0

    def test_reversed_close_is_read_only(self):
        mat = protocols._reversed_close(0.4)
        assert not mat.flags.writeable
        _, seq = gates.prepare_ghz(gates.new_register(1), 0.4)  # the gate-level opening pulse
        rot = seq.gates[0].inverse()
        assert np.array_equal(mat, register.rotation_matrix(rot.theta, rot.phi))


def _grid_cfg(protocol, n_ions):
    """Every knob the pipeline has: phi0, final_phase and an admixture."""
    ghz = protocol is not Protocol.STANDARD
    return RamseyConfig(
        n_ions=n_ions,
        t_ramsey=1.3,
        omega_r=0.7,
        omega_0=0.1,
        protocol=protocol,
        imperfection=ImperfectionSpec({1: 0.15, n_ions - 1: 0.05j}) if ghz and n_ions > 2 else None,
        phi0=0.4 if ghz else 0.0,
        final_phase=-0.3,
        allow_wrap=True,
    )


class TestBatchedGrids:
    """A grid evaluated as one batch equals the point-by-point loop."""

    TS = np.linspace(0.05, 6.0, 57)
    DWS = np.linspace(-1.4, 2.2, 57)
    PHIS = np.linspace(-np.pi / 2, np.pi / 2, 41)

    def _pairs(self, cfg):
        batched_t = expected_signal(cfg, t_ramsey=self.TS)
        looped_t = np.array([expected_signal(cfg, t_ramsey=t) for t in self.TS])
        batched_dw = expected_signal(cfg, delta_omega=self.DWS)
        looped_dw = np.array([expected_signal(cfg, delta_omega=dw) for dw in self.DWS])
        both = expected_signal(cfg, t_ramsey=self.TS, delta_omega=self.DWS)
        looped_both = np.array([
            expected_signal(cfg, t_ramsey=t, delta_omega=dw) for t, dw in zip(self.TS, self.DWS)
        ])
        return [(batched_t, looped_t), (batched_dw, looped_dw), (both, looped_both),
                (expected_signal(cfg, t_ramsey=self.TS), looped_t)]

    @pytest.mark.parametrize("n_ions", [1, 2, 3, 5])
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_equal_to_loop(self, protocol, n_ions):
        for got, want in self._pairs(_grid_cfg(protocol, n_ions)):
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_ions", [1, 2, 3, 5])
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_phase_grid_equal_to_loop(self, protocol, n_ions):
        # Calibration step 1 evaluates a grid of readout phases as one batch.
        cfg = _grid_cfg(protocol, n_ions)
        sim = make_truth_simulator(cfg)
        got = sim(cfg.omega_r, cfg.t_ramsey, self.PHIS)
        want = np.array([sim(cfg.omega_r, cfg.t_ramsey, phi) for phi in self.PHIS])
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_scalar_stays_float(self):
        assert type(expected_signal(_grid_cfg(Protocol.GHZ_REVERSED, 3))) is float

    def test_run_prepares_once(self, monkeypatch):
        # 2,300 noiseless shots, all drawn from one prepared Born table.
        cfg = replace(
            _grid_cfg(Protocol.GHZ_PARITY, 4), allow_wrap=False, t_ramsey=0.3, shots=2300
        )
        want = run_ramsey(cfg, stream(13, 0, 0))
        calls = []
        prepare_dicke = protocols._prepare_dicke

        def counting(*args, **kwargs):
            calls.append(args)
            return prepare_dicke(*args, **kwargs)

        monkeypatch.setattr(protocols, "_prepare_dicke", counting)
        classes = run_ramsey(cfg, stream(13, 0, 0))
        assert len(calls) == 1
        assert np.array_equal(classes, want)


_dense_final = dense_final  # the dense reference for a noiseless run


def _subspace_cfg(protocol, n_ions):
    """phi0, final_phase and admixtures at p = 1 and L - 1, as far as the
    protocol takes them."""
    ghz = protocol is not Protocol.STANDARD
    return RamseyConfig(
        n_ions=n_ions,
        t_ramsey=0.9,
        omega_r=0.37,
        omega_0=-0.2,
        protocol=protocol,
        imperfection=ImperfectionSpec({1: 0.2 - 0.1j, n_ions - 1: 0.15j}) if ghz and n_ions > 1 else None,
        phi0=0.7 if ghz else 0.0,
        final_phase=-0.45,
        allow_wrap=True,
    )


class TestSymmetricSubspace:
    """Noiseless sampled runs draw from a Born table built from L + 1 Dicke
    amplitudes; the dense state vector is the reference."""

    @pytest.mark.parametrize("n_ions", range(1, 11))
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_expansion_equals_gate_level_preparation(self, protocol, n_ions):
        # Bit for bit for the pure GHZ state, whose two amplitudes the CNOT
        # ladder copies; to 1e-15 with admixtures and for the product state.
        cfg = _subspace_cfg(protocol, n_ions)
        for cfg in (cfg, replace(cfg, imperfection=None)):
            got = expand(_prepare_dicke(cfg)).amplitudes
            want = dense_prepare(cfg)[0].amplitudes
            if protocol is not Protocol.STANDARD and cfg.imperfection is None:
                assert np.array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n_ions", range(1, 13))
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_indices_equal_dense_sampling(self, protocol, n_ions):
        # The run's readout classes are what Generator.choice draws over the
        # gate-level dense state's class masses, from the same stream.
        cfg = _subspace_cfg(protocol, n_ions)
        masses = class_masses(n_ions, _dense_final(cfg).amplitudes)
        want = stream(61, n_ions).choice(2 * n_ions, size=20_000, p=masses / masses.sum())
        got = sample_measurement(protocols._run_state(cfg), stream(61, n_ions).random(20_000))
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_ions", [1, 2, 5, 9, 12])
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_table_mass_and_signal_match_dense(self, protocol, n_ions):
        cfg = _subspace_cfg(protocol, n_ions)
        table = protocols._run_state(cfg)
        assert table.shape == (2, n_ions)
        # Cell (b, k), ion 1's bit b and k ions excited among the rest, holds
        # the probability of each of the C(L - 1, k) indices of class b L + k.
        b, k = np.meshgrid([0, 1], np.arange(n_ions), indexing="ij")
        multiplicity = np.array([comb(n_ions - 1, int(x)) for x in range(n_ions)])
        assert abs(np.sum(multiplicity * table) - 1.0) <= 1e-12
        dense = _dense_final(cfg)
        np.testing.assert_allclose(dense_table(n_ions, dense.amplitudes), table, rtol=0, atol=1e-15)
        signal = _shot_signal(protocol, protocol.outcomes(b * n_ions + k, n_ions), n_ions)
        want = dense_signal(protocol, n_ions, dense.amplitudes)
        assert abs(np.sum(multiplicity * table * signal) - want) <= 1e-12
        assert abs(expected_signal(cfg) - want) <= 1e-12

    @pytest.mark.parametrize("n_ions", range(1, 13))
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_expectation_reads_the_run_table(self, protocol, n_ions):
        # Bit for bit: the expected signal is the run's own table averaged,
        # for a run without noise and for one whose noise has gamma = 0. The
        # config stores a zero rate, in either noise mode, as no noise, so
        # that run also draws the noiseless run's shots.
        cfg = replace(_subspace_cfg(protocol, n_ions), shots=50)
        shots = run_ramsey(cfg, stream(13, n_ions)).tobytes()
        for mode in ("independent", "common"):
            zero = replace(cfg, noise=NoiseSpec(0.0, mode))
            assert zero.noise is None
            assert run_ramsey(zero, stream(13, n_ions)).tobytes() == shots
        for cfg in (cfg, replace(cfg, noise=NoiseSpec(0.0, "common"))):
            assert expected_signal(cfg) == protocol.expected(protocols._run_state(cfg))

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_full_capacity_run_follows_the_fringe(self, protocol):
        # L = MAX_IONS: a dense state would hold 2**24 amplitudes.
        n_ions, shots = MAX_IONS, 4000
        cfg = RamseyConfig(
            n_ions=n_ions, t_ramsey=1.1, omega_r=0.5 + 0.9 / n_ions, omega_0=0.5,
            protocol=protocol, shots=shots,
        )
        fringe = np.cos(protocol.multiplier(n_ions) * cfg.delta_omega * cfg.t_ramsey)
        mean = protocol.outcomes(run_ramsey(cfg, stream(5, 24)), n_ions).mean()
        if protocol is Protocol.STANDARD:  # ions found |dn>: binomial
            p_up = (1 - fringe) / 2
            want, se = n_ions * (1 - p_up), np.sqrt(n_ions * p_up * (1 - p_up) / shots)
        elif protocol is Protocol.GHZ_PARITY:  # parity signs +-1
            want, se = fringe, np.sqrt((1 - fringe**2) / shots)
        else:  # ion 1's spin +-1/2
            want, se = -fringe / 2, 0.5 * np.sqrt((1 - fringe**2) / shots)
        assert abs(mean - want) <= 5 * se

    def test_capacity_is_checked_without_a_register(self):
        cfg = RamseyConfig(n_ions=MAX_IONS + 1, t_ramsey=1.0, omega_r=0.1, omega_0=0.0, shots=2)
        with pytest.raises(CapacityError):
            run_ramsey(cfg, stream(0))

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_expectation_builds_no_register(self, monkeypatch, protocol):
        _forbid_dense_register(monkeypatch)
        cfg = _subspace_cfg(protocol, 6)
        expected_signal(cfg)
        expected_signal(cfg, t_ramsey=np.linspace(0.1, 2.0, 5), delta_omega=0.3)
        expected_signal(cfg, t_ramsey=np.linspace(0.1, 2.0, 5))
        sim = make_truth_simulator(cfg)
        sim(np.linspace(-0.2, 0.2, 5), 0.9, 0.1)
        sim(0.1, 0.9, np.linspace(-0.2, 0.2, 5))

    @pytest.mark.parametrize("mode", ["independent", "common"])
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_dephased_run_builds_no_register(self, monkeypatch, protocol, mode):
        _forbid_dense_register(monkeypatch)
        cfg = replace(_subspace_cfg(protocol, 6), noise=NoiseSpec(0.2, mode), shots=300,
                      allow_wrap=False, t_ramsey=0.3)
        assert len(run_ramsey(cfg, stream(3))) == 300

    def test_sampled_dephasing_benchmark_builds_no_register(self, monkeypatch):
        _forbid_dense_register(monkeypatch)
        report = bench.dephasing_benchmark(0.5, 3, np.geomspace(0.2, 2.0, 4), trials=200,
                                           seed=1, refine=False)
        assert set(report.curves) == {"standard", "ghz"}

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_wide_dephased_run_is_fast(self, protocol):
        # 2,500 dephased shots at L = 20, where one dense trajectory holds
        # 2**20 amplitudes.
        cfg = replace(_subspace_cfg(protocol, 20), noise=NoiseSpec(0.05), shots=2500,
                      allow_wrap=False, t_ramsey=0.1)
        start = time.perf_counter()
        run_ramsey(cfg, stream(4))
        assert time.perf_counter() - start < 1.0

    def test_wide_scan_allocates_no_2L_array(self):
        # At L = 20 one dense state is 16 MiB; the subspace scan holds 16 x 21 amplitudes.
        cfg = RamseyConfig(n_ions=20, t_ramsey=1.0, omega_r=0.31, omega_0=0.3, allow_wrap=True)
        tracemalloc.start()
        try:
            expected_signal(cfg, t_ramsey=np.linspace(0.1, 3.0, 16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("n_ions", [18, 20, 24])
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_wide_signal_is_the_analytic_fringe(self, protocol, n_ions):
        cfg = replace(_subspace_cfg(protocol, n_ions), imperfection=None)
        ts = np.linspace(0.0, 3.0, 7)
        offset, scale = protocol.fringe
        m = protocol.multiplier(n_ions)
        want = offset + scale * np.cos(m * cfg.delta_omega * ts + protocol.readout_phase(-0.45))
        np.testing.assert_allclose(expected_signal(cfg, t_ramsey=ts), want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_ions", [18, 20, 24])
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_wide_signal_matches_50_digit_reference(self, protocol, n_ions):
        # Where a dense state is too large to be the reference: phi0,
        # phi_f and epsilon at p = 1 and L - 1, against 50-digit arithmetic.
        cfg = _subspace_cfg(protocol, n_ions)
        ts = np.array([0.3, 0.9, 2.1])
        want = _mp_signals(cfg, ts)
        np.testing.assert_allclose(expected_signal(cfg, t_ramsey=ts), want, rtol=0, atol=1e-13)


def _forbid_dense_register(monkeypatch):
    """Make every dense-register entry point fail, the register type itself
    among them, in every ionramsey namespace that holds it."""
    dense = (gates.QubitRegister, gates.new_register, gates.apply_rotation,
             gates.prepare_ghz, gates.reverse_prep)

    def refuse(*args, **kwargs):
        raise AssertionError("the run reached the dense register")

    patched = 0
    for name, module in list(sys.modules.items()):
        if name == "ionramsey" or name.startswith("ionramsey."):
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in dense):
                    monkeypatch.setattr(module, attr, refuse)
                    patched += 1
    assert patched >= len(dense)


def _mp_signals(cfg, ts):
    """Noiseless expected signals of cfg at each T_R of ts, in 50-digit
    arithmetic, from the Dicke amplitudes. It shares no code with the
    library: each pulse is its full 2x2 matrix, lifted to the L ions by the
    generating polynomial (U10 + U11 z)**c (U00 + U01 z)**(L - c)."""
    mpmath = pytest.importorskip("mpmath")
    mp, protocol, n = mpmath.mp, cfg.protocol, cfg.n_ions
    binom = mpmath.binomial
    with mp.workdps(50):
        pi, phi0, phi_f = mp.pi, mpmath.mpf(cfg.phi0), mpmath.mpf(cfg.final_phase)

        def rot(phi):  # R(pi/2, phi)
            c = s = mpmath.sqrt(2) / 2
            return [[c, -1j * mpmath.exp(-1j * phi) * s], [-1j * mpmath.exp(1j * phi) * s, c]]

        if protocol is Protocol.STANDARD:
            (down, _), (up, _) = rot(0)
            d = [mpmath.sqrt(binom(n, p)) * down ** (n - p) * up**p for p in range(n + 1)]
        else:
            (down, _), (up, _) = rot(phi0 + pi / 2)
            d = [mpmath.mpc(0)] * (n + 1)
            d[0], d[n] = down, up
            for p, eps in (cfg.imperfection.epsilon if cfg.imperfection else {}).items():
                d[p] += mpmath.mpc(eps)
            norm = mpmath.sqrt(mpmath.fsum(abs(x) ** 2 for x in d))
            d = [x / norm for x in d]
        if protocol is Protocol.GHZ_REVERSED:
            u = rot(phi0 + pi / 2 + pi)  # the inverse opening pulse on ion 1
        else:
            u = rot(pi - phi_f if protocol is Protocol.STANDARD else (phi0 - phi_f) / n + pi / 2)
            wigner = []  # wigner[c][p]: the z**p coefficient
            for c in range(n + 1):
                row = [mpmath.mpc(0)] * (n + 1)
                for i in range(c + 1):
                    for j in range(n - c + 1):
                        row[i + j] += (binom(c, i) * u[1][0] ** (c - i) * u[1][1] ** i
                                       * binom(n - c, j) * u[0][0] ** (n - c - j) * u[0][1] ** j)
                wigner.append(row)
        out = []
        for t in ts:
            phase = mpmath.mpf(cfg.delta_omega) * mpmath.mpf(t)
            e = [d[p] * mpmath.exp(1j * p * phase) / mpmath.sqrt(binom(n, p)) for p in range(n + 1)]
            if protocol is Protocol.GHZ_REVERSED:  # ion 1 ends b, the CNOTs leave k up
                total = mpmath.fsum(
                    binom(n - 1, k) * (1 - 2 * b) * abs(u[b][0] * e[k] + u[b][1] * e[n - k]) ** 2
                    for k in range(n) for b in (0, 1)
                )
            else:  # c ions up: excited fraction c / L, or parity (-1)**(L - c)
                total = mpmath.fsum(
                    binom(n, c) * abs(mpmath.fsum(w * x for w, x in zip(wigner[c], e))) ** 2
                    * (mpmath.mpf(c) / n if protocol is Protocol.STANDARD else (-1) ** (n - c))
                    for c in range(n + 1)
                )
            out.append(float(total))
    return np.array(out)


class TestCalibration:
    TRUTH = 0.61803
    CAL = dict(omega_r1=0.50, omega_r2=0.70, t_r1=0.02, t_r2=2.0)

    def _cfg(self):
        return RamseyConfig(
            n_ions=4, t_ramsey=2.0, omega_r=0.5, omega_0=self.TRUTH
        )

    def _run(self, bias):
        cfg = self._cfg()
        sim = make_truth_simulator(cfg, bias=bias)
        cal = CalibrationState(**self.CAL)
        hist = []
        res = two_point_calibrate(sim, cal, cfg.n_ions, history=hist)
        return res, hist

    def test_unbiased_recovery(self):
        res, hist = self._run(None)
        fringe = np.pi / (4 * self.CAL["t_r2"])
        assert abs(res.omega0 - self.TRUTH) < 1e-3 * fringe
        assert res.iterations >= 1
        assert hist[0][0] == 0 and hist[-1][0] == res.iterations

    @pytest.mark.parametrize(
        "bias",
        [
            lambda t: np.exp(-t / 5.0),
            lambda t: 1.0 / (1.0 + t / 3.0),
            lambda t: 0.5,
        ],
        ids=["exponential", "algebraic", "constant"],
    )
    def test_multiplicative_bias_cancels_exactly(self, bias):
        # Root equations compare equal-T_R signals, so any T_R-dependent
        # multiplicative envelope drops out: trajectories must be identical.
        res_plain, _ = self._run(None)
        res_biased, _ = self._run(bias)
        assert res_biased.omega0 == pytest.approx(res_plain.omega0, abs=1e-12)
        assert res_biased.phi_f == pytest.approx(res_plain.phi_f, abs=1e-12)

    @pytest.mark.parametrize("n_ions,phi0", [(3, 0.0), (4, 0.0), (5, 0.7)])
    def test_batched_simulator_follows_point_loop(self, n_ions, phi0):
        # The reference evaluates one configuration per omega_r, as a
        # simulator that knows nothing of batches would.
        cfg = replace(self._cfg(), n_ions=n_ions, phi0=phi0)
        window = np.pi / (n_ions * self.CAL["t_r2"])
        cal = CalibrationState(
            omega_r1=self.TRUTH - 0.3 * window, omega_r2=self.TRUTH + 0.2 * window,
            t_r1=0.02, t_r2=2.0,
        )

        def one_point(omega_r, t_ramsey, phi_f):
            local = replace(cfg, omega_r=omega_r, t_ramsey=t_ramsey,
                            final_phase=phi_f, allow_wrap=True)
            return expected_signal(local) * np.exp(-t_ramsey / 5.0)

        def looping(omega_r, t_ramsey, phi_f):
            if np.ndim(omega_r):
                return np.array([one_point(w, t_ramsey, phi_f) for w in omega_r])
            if np.ndim(phi_f):
                return np.array([one_point(omega_r, t_ramsey, phi) for phi in phi_f])
            return one_point(omega_r, t_ramsey, phi_f)

        want, got = [], []
        two_point_calibrate(looping, cal, cfg.n_ions, history=want)
        sim = make_truth_simulator(cfg, bias=lambda t: np.exp(-t / 5.0))
        two_point_calibrate(sim, cal, cfg.n_ions, history=got)
        assert len(got) > 2
        assert got == want

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(
        st.sampled_from(list(Protocol)),
        st.integers(1, 8),
        st.floats(0.05, 1.5),  # phi0, ignored by the standard protocol
        st.booleans(),  # epsilon admixture on GHZ preparations
        st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
        st.floats(0.0, 8.0),
        st.floats(-np.pi, np.pi),
    )
    def test_two_row_call_matches_lone_calls(self, protocol, n_ions, phi0, admix, omegas, t, phi):
        # The phase step evaluates both settings as one 2-row batch; each row
        # must be, to the bit, the signal a lone call gives.
        ghz = protocol is not Protocol.STANDARD
        eps = ImperfectionSpec({1: 0.03 + 0.02j}) if ghz and admix and n_ions > 2 else None
        cfg = RamseyConfig(n_ions=n_ions, t_ramsey=1.0, omega_r=0.5, omega_0=0.61803,
                           protocol=protocol, phi0=phi0 if ghz else 0.0, imperfection=eps)
        sim = make_truth_simulator(cfg, bias=lambda t: np.exp(-t / 5.0))
        pair = sim(np.array(omegas), t, phi)
        lone = np.array([sim(omega, t, phi) for omega in omegas])
        assert pair.tobytes() == lone.tobytes()

    def test_phase_step_evaluates_both_settings_as_one_batch(self):
        cfg = self._cfg()
        sim = make_truth_simulator(cfg, bias=lambda t: np.exp(-t / 5.0))
        calls = []

        def counting(omega_r, t_ramsey, phi_f):
            calls.append((np.copy(omega_r), t_ramsey, np.ndim(phi_f)))
            return sim(omega_r, t_ramsey, phi_f)

        cal = CalibrationState(**self.CAL)
        hist = []
        two_point_calibrate(counting, cal, cfg.n_ions, history=hist)
        settings_used = {entry[1] for entry in hist}  # omega_r1 of each iteration
        lone_phase = [omega for omega, t, grid in calls if t == cal.t_r1 and not grid]
        assert len(lone_phase) > len(hist)  # the now pair and the root searches
        for omega in lone_phase:
            assert omega.shape == (2,)
            assert omega[0] in settings_used and omega[1] == cal.omega_r2
        phase_grid = [omega for omega, t, grid in calls if t == cal.t_r1 and grid]
        assert phase_grid and all(omega.shape == () for omega in phase_grid)

    def test_naive_estimator_is_biased(self):
        cfg = self._cfg()
        sim = make_truth_simulator(cfg, bias=lambda t: np.exp(-t / 5.0))
        naive = naive_single_point_omega0(sim, self.CAL["omega_r2"], 2.0, 4)
        res, _ = self._run(lambda t: np.exp(-t / 5.0))
        assert abs(naive - self.TRUTH) > 100 * abs(res.omega0 - self.TRUTH)
        assert abs(naive - self.TRUTH) > 0.01

    def test_non_convergence_raises(self):
        cfg = self._cfg()
        sim = make_truth_simulator(cfg)
        cal = CalibrationState(**self.CAL)
        with pytest.raises(ConvergenceError):
            two_point_calibrate(sim, cal, cfg.n_ions, max_iter=1)

    def test_max_iter_must_be_positive(self):
        cfg = self._cfg()
        with pytest.raises(ValueError):
            two_point_calibrate(
                make_truth_simulator(cfg), CalibrationState(**self.CAL), 4, max_iter=0
            )

    def test_wide_initial_bracket_is_ambiguous(self):
        cfg = self._cfg()
        sim = make_truth_simulator(cfg)
        cal = CalibrationState(omega_r1=0.2, omega_r2=0.7, t_r1=0.02, t_r2=2.0)
        with pytest.raises(AmbiguousFringeError):
            two_point_calibrate(sim, cal, cfg.n_ions)

    def test_time_ratio_validation(self):
        with pytest.raises(ValueError):
            CalibrationState(omega_r1=0.5, omega_r2=0.7, t_r1=1.0, t_r2=2.0)


class TestFourier:
    def test_round_trip_random_coefficients(self):
        rng = np.random.default_rng(77)
        n_ions, dw = 5, 1.1
        c = rng.uniform(0.05, 0.4, size=n_ions)
        xi = rng.uniform(-np.pi, np.pi, size=n_ions)
        t = 2 * np.pi / dw * np.arange(128) / 128
        fit = fourier_decompose(t, synthesize_signal(t, dw, c, xi), n_ions, dw)
        np.testing.assert_allclose(fit.c, c, atol=1e-9)
        # Phases are only identified when the amplitude is nonzero.
        np.testing.assert_allclose(
            np.mod(fit.xi - xi + np.pi, 2 * np.pi) - np.pi, 0.0, atol=1e-9
        )
        assert fit.residual < 1e-9

    def test_dc_component_lands_in_residual(self):
        n_ions, dw = 2, 0.9
        t = 2 * np.pi / dw * np.arange(33) / 33
        signal = 0.7 * np.cos(2 * dw * t) + 0.25  # harmonic + offset
        fit = fourier_decompose(t, signal, n_ions, dw)
        assert fit.c[1] == pytest.approx(0.7, abs=1e-9)
        assert fit.residual == pytest.approx(0.25, abs=1e-9)

    def test_needs_enough_samples(self):
        dw = 1.0
        t = 2 * np.pi * np.arange(8) / 8
        with pytest.raises(FitError):
            fourier_decompose(t, np.cos(dw * t), 4, dw)  # needs 2L+1 = 9

    def test_needs_uniform_grid(self):
        t = np.array([0.0, 0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.0, 1.2])
        with pytest.raises(FitError):
            fourier_decompose(t, np.cos(t), 1, 2 * np.pi / 1.35)

    def test_needs_full_period_span(self):
        dw = 1.0
        t = np.linspace(0, np.pi, 21)  # half the fundamental period
        with pytest.raises(FitError):
            fourier_decompose(t, np.cos(dw * t), 2, dw)

    def test_admixture_flag(self):
        fit_clean = _fit_of(c=[0.0, 0.95], dw=1.0)
        assert not flag_large_admixture(fit_clean)
        fit_dirty = _fit_of(c=[0.2, 0.8], dw=1.0)
        assert flag_large_admixture(fit_dirty)

    def test_state_vector_harmonics_match_direct_fit(self):
        # An eps admixture on p=1 at L=3 must leave only the p=3 harmonic
        # (readout couples complement excitation numbers), scaled by
        # 1/(1+eps^2); this cross-checks the simulator against the fit.
        eps = 0.3
        n_ions, dw = 3, 0.8
        cfg = RamseyConfig(
            n_ions=n_ions,
            t_ramsey=1.0,
            omega_r=dw,
            omega_0=0.0,
            imperfection=ImperfectionSpec(epsilon={1: eps}),
            allow_wrap=True,
        )
        t = 2 * np.pi / dw * np.arange(1, 65) / 64
        sig = np.array([expected_signal(cfg, t_ramsey=float(tt)) for tt in t])
        fit = fourier_decompose(t, sig, n_ions, dw)
        assert fit.c[2] == pytest.approx(1 / (1 + eps**2), abs=1e-9)
        assert fit.c[0] == pytest.approx(0.0, abs=1e-9)
        assert fit.c[1] == pytest.approx(0.0, abs=1e-9)


def _fit_of(c, dw):
    n_ions = len(c)
    t = 2 * np.pi / dw * np.arange(4 * n_ions + 3) / (4 * n_ions + 3)
    sig = synthesize_signal(t, dw, c, [0.0] * n_ions)
    return fourier_decompose(t, sig, n_ions, dw)


class TestFringeFit:
    def test_recovers_frequency_and_amplitude(self):
        t = np.linspace(0, 6.0, 120)
        sig = 0.8 * np.cos(2.4 * t + 0.3) - 0.05
        fit = fit_fringe_frequency(t, sig)
        assert isinstance(fit, FringeFit)
        assert fit.frequency == pytest.approx(2.4, rel=1e-8)
        assert fit.amplitude == pytest.approx(0.8, rel=1e-8)

    def test_normalizes_sign_conventions(self):
        t = np.linspace(0, 10.0, 200)
        fit = fit_fringe_frequency(t, -0.6 * np.cos(1.7 * t))
        assert fit.frequency > 0
        assert fit.amplitude > 0

    def test_needs_minimum_samples(self):
        with pytest.raises(FitError):
            fit_fringe_frequency(np.arange(5.0), np.ones(5))

    def test_step_cap_raises_convergence_error(self, monkeypatch):
        # A second harmonic moves the periodogram peak off the fringe, so the
        # fit needs more than one Gauss-Newton step.
        t = np.linspace(0, 6.0, 120)
        sig = 0.8 * np.cos(2.4 * t + 0.3) + 0.2 * np.cos(4.8 * t)
        fit_fringe_frequency(t, sig)
        monkeypatch.setattr(protocols, "_FIT_STEPS", 1)
        with pytest.raises(ConvergenceError, match="took 1 steps"):
            fit_fringe_frequency(t, sig)

    def test_fringe_near_nyquist_raises(self):
        # A GHZ scan at L = 4, 64 points over 3 s, of a fringe a tenth of half a
        # bin under the grid's Nyquist frequency 67.021 rad/s once fitted its
        # alias, 67.125, at amplitude 1.0.
        t = 3.0 * np.arange(1, 65) / 64
        cfg = RamseyConfig(n_ions=4, t_ramsey=1.0, omega_r=66.916 / 4, omega_0=0.0,
                           allow_wrap=True)
        with pytest.raises(FitError, match="Nyquist"):
            fit_fringe_frequency(t, expected_signal(cfg, t_ramsey=t))

    def test_fringe_below_half_a_bin_raises(self):
        # A GHZ scan at L = 2, 64 points over 1 s, of a 0.8 rad/s fringe (under
        # half a bin, pi rad/s) once fitted 1.178 rad/s.
        t = np.arange(1, 65) / 64
        cfg = RamseyConfig(n_ions=2, t_ramsey=1.0, omega_r=0.4, omega_0=0.0)
        with pytest.raises(FitError, match="below half a bin"):
            fit_fringe_frequency(t, expected_signal(cfg, t_ramsey=t))

    @pytest.mark.parametrize("n_ions,span", [(3, 2.0), (2, 1.0)])
    def test_scan_without_a_fringe_raises(self, n_ions, span):
        # A GHZ scan at zero detuning is constant: its rounding once fitted
        # 2.059 rad/s at amplitude 1.2e-16 (L = 3 over 2 s) and 4.118 rad/s
        # (L = 2 over 1 s).
        t = span * np.arange(1, 65) / 64
        cfg = RamseyConfig(n_ions=n_ions, t_ramsey=1.0, omega_r=0.5, omega_0=0.5)
        with pytest.raises(FitError, match="rounding noise"):
            fit_fringe_frequency(t, expected_signal(cfg, t_ramsey=t))
        with pytest.raises(FitError, match="rounding noise"):
            fit_fringe_frequency(t, np.zeros(64))

    def test_scan_ending_mid_fringe(self):
        # A 64-point standard scan over 2.7 fringes once fitted 1.529934.
        t = 2.7 * 2 * np.pi * np.arange(1, 65) / 64
        signal = expected_signal(
            RamseyConfig(n_ions=1, t_ramsey=1.0, omega_r=1.0, omega_0=0.0,
                         protocol=Protocol.STANDARD, allow_wrap=True),
            t_ramsey=t,
        )
        assert fit_fringe_frequency(t, signal).frequency == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_noiseless_scans_recover_their_fringe(self, protocol):
        # Scans as expectation mode makes them, over 0.55-5.95 fringes in
        # steps of 0.05, at 48 and 384 points. A bounded Brent search of the
        # same objective misses by up to 1.6e-14.
        worst = 0.0
        for n_ions in (1, 3, 5):
            cfg = RamseyConfig(n_ions=n_ions, t_ramsey=1.0, omega_r=1.0, omega_0=0.0,
                               protocol=protocol, allow_wrap=True)
            fringe = protocol.multiplier(n_ions) * cfg.delta_omega
            for span in np.arange(11, 120) * 0.05:
                for points in (48, 384):
                    t = span * 2 * np.pi / fringe * np.arange(1, points + 1) / points
                    fit = fit_fringe_frequency(t, expected_signal(cfg, t_ramsey=t))
                    worst = max(worst, abs(fit.frequency / fringe - 1))
        assert worst <= 4e-15

    @settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @given(
        fringes=st.floats(1.0, 4.0),
        phase=st.floats(-np.pi, np.pi),
        offset=st.floats(-1.0, 1.0),
    )
    def test_recovers_any_noiseless_fringe(self, fringes, phase, offset):
        freq = 1.3
        t = fringes * 2 * np.pi / freq * np.arange(1, 65) / 64
        fit = fit_fringe_frequency(t, 0.7 * np.cos(freq * t + phase) + offset)
        assert fit.frequency == pytest.approx(freq, rel=1e-9)
        assert fit.amplitude == pytest.approx(0.7, rel=1e-9)
        assert fit.offset == pytest.approx(offset, abs=1e-9)
        assert np.exp(1j * fit.phase) == pytest.approx(np.exp(1j * phase), abs=1e-9)
