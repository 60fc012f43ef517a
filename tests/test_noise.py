"""Dephasing and state-imperfection checks.

The coherence-decay oracle is the Gaussian characteristic function: a phase
theta ~ N(0, 2 gamma t) has E[exp(i theta)] = exp(-gamma t), so averaging
cos(theta) over trajectories must reproduce the exponential envelope within
the exactly computable Monte Carlo error.
"""

import numpy as np
import pytest

from ionramsey import (
    ImperfectionSpec,
    NoiseSpec,
    apply_phase_noise,
    new_register,
    perturb_ghz,
    prepare_ghz,
    stream,
)
from ionramsey.noise import sample_dephasing_phases
from ionramsey.register import DickeState, QubitRegister, dicke_ghz


def ghz_dicke(n_ions, phi0):
    """(|dn...dn> + e^{i phi0} |up...up>) / sqrt(2) as Dicke amplitudes."""
    return dicke_ghz(n_ions, np.array([1.0, np.exp(1j * phi0)]) / np.sqrt(2))


def coherence(reg):
    """|<all-down| rho |all-up>| normalized to the GHZ value 1/2, one a row."""
    return 2 * np.abs(reg.amplitudes[..., 0].conjugate() * reg.amplitudes[..., -1])


def coherence_re(reg):
    """Real part of the normalized extreme-state coherence, one a row.

    The diagonal parity observable is blind to dephasing until the readout
    rotation; the decay lives in this off-diagonal element, whose
    trajectory average gives the fringe envelope.
    """
    return 2 * np.real(reg.amplitudes[..., 0].conjugate() * reg.amplitudes[..., -1])


class TestPhaseSampling:
    def test_variance_matches_spec(self):
        # Independent mode gives iid draws, so a wide register doubles as a
        # bulk sampler for the oracle statistics.
        rng = stream(1, 0)
        spec = NoiseSpec(gamma=0.7)
        phases = sample_dephasing_phases(spec, 1.3, 200_000, rng, 1)
        var = float(np.var(phases))
        want = 2 * 0.7 * 1.3
        # var(sample var) ~ 2 sigma^4 / n for Gaussians
        sd = np.sqrt(2 * want**2 / 200_000)
        assert abs(var - want) < 4 * sd

    def test_characteristic_function_oracle(self):
        # E[cos theta] = exp(-gamma t); E[cos^2] = (1 + exp(-4 gamma t)) / 2
        gamma, t, n = 0.5, 0.8, 400_000
        rng = stream(2, 0)
        phases = sample_dephasing_phases(NoiseSpec(gamma=gamma), t, n, rng, 1)
        want = np.exp(-gamma * t)
        var_cos = (1 + np.exp(-4 * gamma * t)) / 2 - want**2
        got = float(np.mean(np.cos(phases)))
        assert abs(got - want) < 4 * np.sqrt(var_cos / n)

    def test_common_mode_draws_single_phase(self):
        spec = NoiseSpec(gamma=0.4, mode="common")
        phases = sample_dephasing_phases(spec, 1.0, 5, stream(3, 0), shots=7)
        assert phases.shape == (7, 5)
        assert np.all(phases == phases[:, :1])
        assert len(np.unique(phases[:, 0])) == 7

    @pytest.mark.parametrize("mode,width", [("independent", 4), ("common", 1)])
    def test_block_is_one_normal_draw(self, mode, width):
        # Row k is trajectory k: one normal block, row-major, (shots, 1) in common mode.
        spec = NoiseSpec(gamma=0.3, mode=mode)
        rng = stream(3, 1)
        phases = sample_dephasing_phases(spec, 0.7, 4, rng, shots=6)
        fresh = stream(3, 1)
        want = fresh.normal(0.0, np.sqrt(2 * 0.3 * 0.7), (6, width))
        assert phases.shape == (6, 4)
        assert np.array_equal(phases, np.broadcast_to(want, (6, 4)))
        assert np.array_equal(rng.random(4), fresh.random(4))

    @pytest.mark.parametrize("gamma,t", [(0.0, 1.0), (0.5, 0.0)])
    def test_zero_variance_draws_nothing(self, gamma, t):
        rng = stream(3, 2)
        phases = sample_dephasing_phases(NoiseSpec(gamma=gamma), t, 3, rng, shots=5)
        assert np.array_equal(phases, np.zeros((5, 3)))
        assert np.array_equal(rng.random(4), stream(3, 2).random(4))

    def test_zero_gamma_is_identity(self):
        reg, _ = prepare_ghz(new_register(3), 0.0)
        out = apply_phase_noise(
            reg, np.zeros(3)
        )
        np.testing.assert_allclose(out.amplitudes, reg.amplitudes, atol=0)

    def test_rejects_bad_mode_and_negative_gamma(self):
        with pytest.raises(ValueError):
            NoiseSpec(gamma=-0.1)
        with pytest.raises(ValueError):
            NoiseSpec(gamma=0.1, mode="pink")


class TestAppliedPhases:
    def test_phase_lands_on_excited_components(self):
        # |psi> = GHZ; phases theta_i multiply the all-up component by
        # exp(i sum theta) and leave all-down alone.
        reg, _ = prepare_ghz(new_register(3), 0.0)
        thetas = np.array([0.3, -1.1, 0.7])
        out = apply_phase_noise(reg, thetas)
        np.testing.assert_allclose(out.amplitudes[0], reg.amplitudes[0], atol=1e-12)
        np.testing.assert_allclose(
            out.amplitudes[-1],
            reg.amplitudes[-1] * np.exp(1j * thetas.sum()),
            atol=1e-12,
        )

    @pytest.mark.parametrize("n_ions", [2, 5])
    def test_matches_explicit_phase_sum(self, n_ions):
        # Index x gains exp(i sum_k x_k phi_k), x_k ion k's bit and ion 1 the
        # most significant; a random register and distinct phases break
        # every symmetry that would hide a reversed ion order.
        rng = np.random.default_rng(19 + n_ions)
        amps = rng.normal(size=(3, 1 << n_ions)) + 1j * rng.normal(size=(3, 1 << n_ions))
        phases = rng.uniform(-np.pi, np.pi, size=(3, n_ions))
        bits = (np.arange(1 << n_ions)[:, None] >> np.arange(n_ions - 1, -1, -1)) & 1
        want = amps * np.exp(1j * phases @ bits.T)
        got = apply_phase_noise(QubitRegister(n_ions, False, amps), phases).amplitudes
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        one = apply_phase_noise(QubitRegister(n_ions, False, amps[0]), phases[0]).amplitudes
        np.testing.assert_allclose(one, want[0], rtol=0, atol=1e-14)

    def test_single_ion_addressing(self):
        # Only ion 2 of three gets a phase: basis states with ion-2 excited
        # acquire it, all others do not. Ion 2 is the middle bit.
        rng = np.random.default_rng(8)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        reg = QubitRegister(3, False, amps.copy())
        theta = 0.9
        out = apply_phase_noise(reg, np.array([0.0, theta, 0.0]))
        for idx in range(8):
            factor = np.exp(1j * theta) if (idx >> 1) & 1 else 1.0
            np.testing.assert_allclose(
                out.amplitudes[idx], amps[idx] * factor, atol=1e-12
            )


class TestEnvelopes:
    """Each envelope averages one block of trajectories, phased as one batch."""

    @pytest.mark.parametrize("n_ions", [2, 4])
    def test_ghz_envelope_exponent_independent(self, n_ions):
        # GHZ coherence decays exp(-L gamma t) under independent dephasing.
        gamma, t, trials = 0.5, 0.6, 40_000
        rng = stream(10 + n_ions, 0)
        spec = NoiseSpec(gamma=gamma)
        reg0, _ = prepare_ghz(new_register(n_ions), 0.0)
        phases = sample_dephasing_phases(spec, t, n_ions, rng, trials)
        vals = coherence_re(apply_phase_noise(reg0, phases))
        want = np.exp(-n_ions * gamma * t)
        sem = float(np.std(vals, ddof=1) / np.sqrt(trials))
        assert abs(float(np.mean(vals)) - want) < 4 * sem

    def test_common_mode_is_l_squared(self):
        # Common-mode phase hits the GHZ coherence L times coherently:
        # envelope exp(-L^2 gamma t).
        n_ions, gamma, t, trials = 3, 0.05, 1.0, 40_000
        rng = stream(17, 0)
        spec = NoiseSpec(gamma=gamma, mode="common")
        reg0, _ = prepare_ghz(new_register(n_ions), 0.0)
        phases = sample_dephasing_phases(spec, t, n_ions, rng, trials)
        vals = coherence_re(apply_phase_noise(reg0, phases))
        want = np.exp(-n_ions**2 * gamma * t)
        sem = float(np.std(vals, ddof=1) / np.sqrt(trials))
        assert abs(float(np.mean(vals)) - want) < 4 * sem

    def test_single_ion_envelope(self):
        # One ion: <2 S_x> after noise = cos(theta); mean is exp(-gamma t).
        gamma, t, trials = 0.8, 0.9, 40_000
        rng = stream(23, 0)
        reg0, _ = prepare_ghz(new_register(1), 0.0)  # (|0>+|1>)/sqrt(2)
        phases = sample_dephasing_phases(NoiseSpec(gamma=gamma), t, 1, rng, trials)
        vals = coherence(apply_phase_noise(reg0, phases)) * np.cos(phases[:, 0])
        # coherence magnitude stays 1; the signal-relevant part is cos(theta)
        want = np.exp(-gamma * t)
        sem = float(np.std(vals, ddof=1) / np.sqrt(trials))
        assert abs(float(np.mean(vals)) - want) < 4 * sem


class TestImperfections:
    def test_perturbed_state_fidelity(self):
        # Admixture amplitudes are defined relative to the unit GHZ part, so
        # fidelity = 1 / (1 + sum |eps|^2).
        eps = {1: 0.3, 2: 0.2j}
        state0 = ghz_dicke(4, 0.0)
        out = perturb_ghz(state0, ImperfectionSpec(epsilon=eps))
        overlap = abs(np.vdot(state0.dicke, out.dicke)) ** 2
        want = 1 / (1 + 0.3**2 + 0.2**2)
        assert overlap == pytest.approx(want, abs=1e-12)
        np.testing.assert_allclose(np.linalg.norm(out.dicke), 1.0, atol=1e-12)

    def test_empty_spec_is_identity(self):
        state0 = ghz_dicke(3, 0.5)
        out = perturb_ghz(state0, ImperfectionSpec(epsilon={}))
        assert isinstance(out, DickeState)
        np.testing.assert_allclose(out.dicke, state0.dicke, atol=0)

    def test_rejects_out_of_range_p(self):
        state0 = ghz_dicke(3, 0.0)
        for bad_p in (0, 3, 4):
            with pytest.raises(ValueError):
                perturb_ghz(state0, ImperfectionSpec(epsilon={bad_p: 0.1}))

    def test_degenerate_cancellation_raises(self):
        # An admixture engineered to cancel the whole state must be caught.
        state0 = ghz_dicke(1, 0.0)
        # For L=1 no interior p exists, so use the norm guard another way:
        with pytest.raises(ValueError):
            perturb_ghz(state0, ImperfectionSpec(epsilon={1: 1.0}))
