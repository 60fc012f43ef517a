"""Register-level checks against dense-matrix oracles.

Every structured operation (rotations on selected qubits, free evolution,
each protocol's readout) is compared to an explicit 2^n x 2^n matrix built
with np.kron, which only relies on the documented axis convention: ion 1 is
the most significant bit, the bus (when present) is the least significant,
and bit value 0 means the ion is in the lower state.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ionramsey import (
    CapacityError,
    MAX_IONS,
    ImperfectionSpec,
    Protocol,
    PulseSpec,
    QubitRegister,
    RamseyConfig,
    apply_rotation,
    expected_signal,
    free_evolve,
    new_register,
    sample_measurement,
    stream,
)
from ionramsey.gates import prepare_ghz, reverse_prep
from ionramsey.protocols import _close, _prepare
from ionramsey.register import (
    bus_purity,
    excitation_counts,
    pi_half_pulse,
    rotation_matrix,
    sample_born_table,
)

I2 = np.eye(2, dtype=complex)
SZ = 0.5 * np.diag([-1.0, 1.0]).astype(complex)  # bit 0 = down = -1/2


def kron_chain(mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def embed_on_ions(single_qubit, n_ions, targets, has_bus=False):
    """Dense operator applying `single_qubit` on each target ion (oracle)."""
    mats = [single_qubit if i in targets else I2 for i in range(1, n_ions + 1)]
    if has_bus:
        mats.append(I2)
    return kron_chain(mats)


def random_state(dim, rng):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amps / np.linalg.norm(amps)


class TestRegisterBasics:
    def test_new_register_is_ground_state(self):
        reg = new_register(3)
        assert reg.dim == 8
        np.testing.assert_allclose(reg.amplitudes[0], 1.0)
        np.testing.assert_allclose(np.linalg.norm(reg.amplitudes), 1.0)

    def test_bus_adds_one_qubit(self):
        assert new_register(3, has_bus=True).dim == 16

    @pytest.mark.parametrize("n", [0, -1, MAX_IONS + 1])
    def test_capacity_limits(self, n):
        with pytest.raises(CapacityError):
            new_register(n)

    def test_excitation_counts_matches_popcount(self):
        # Oracle: count set bits among the ion bits of each basis index.
        for has_bus in (False, True):
            reg = new_register(3, has_bus=has_bus)
            counts = excitation_counts(reg.n_ions, reg.has_bus)
            shift = 1 if has_bus else 0
            expected = [bin(i >> shift).count("1") for i in range(reg.dim)]
            np.testing.assert_array_equal(counts, expected)

    def test_excitation_counts_is_one_read_only_table(self):
        counts = excitation_counts(5, True)
        assert excitation_counts(5, True) is counts
        assert counts.dtype == np.uint8
        with pytest.raises(ValueError):
            counts[0] = 1


class TestRotations:
    def test_rotation_matrix_is_unitary(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            theta, phi = rng.uniform(-4 * np.pi, 4 * np.pi, size=2)
            u = rotation_matrix(theta, phi)
            np.testing.assert_allclose(u @ u.conj().T, I2, atol=1e-12)

    def test_pi_pulse_inverts_population(self):
        reg = new_register(1)
        reg = apply_rotation(reg, PulseSpec(np.pi, 0.3, (1,)))
        assert abs(reg.amplitudes[1]) == pytest.approx(1.0, abs=1e-12)

    def test_rotation_inverse_identity(self):
        rng = np.random.default_rng(5)
        reg = new_register(2)
        reg = QubitRegister(2, False, random_state(4, rng))
        theta, phi = 1.1, -0.7
        out = apply_rotation(reg, PulseSpec(theta, phi, (1, 2)))
        out = apply_rotation(out, PulseSpec(theta, phi + np.pi, (1, 2)))
        np.testing.assert_allclose(out.amplitudes, reg.amplitudes, atol=1e-12)

    @pytest.mark.parametrize("has_bus", [False, True])
    @pytest.mark.parametrize("targets", [(1,), (2,), (3,), (1, 3), (1, 2, 3)])
    def test_matches_dense_kron_oracle(self, targets, has_bus):
        rng = np.random.default_rng(hash((targets, has_bus)) % 2**32)
        theta, phi = rng.uniform(0, 2 * np.pi, size=2)
        n_ions = 3
        dim = 2 ** (n_ions + has_bus)
        amps = random_state(dim, rng)
        reg = QubitRegister(n_ions, has_bus, amps.copy())
        got = apply_rotation(reg, PulseSpec(theta, phi, targets))
        dense = embed_on_ions(rotation_matrix(theta, phi), n_ions, targets, has_bus)
        np.testing.assert_allclose(got.amplitudes, dense @ amps, atol=1e-12)

    def test_pulse_spec_normalizes_targets(self):
        spec = PulseSpec(0.5, 0.0, (3, 1, 3))
        assert spec.targets == (1, 3)
        with pytest.raises(ValueError):
            PulseSpec(0.5, 0.0, ())
        with pytest.raises(ValueError):
            PulseSpec(0.5, 0.0, (0,))

    def test_pi_half_pulse_helper(self):
        spec = pi_half_pulse(4, 0.25)
        assert spec.theta == pytest.approx(np.pi / 2)
        assert spec.targets == (1, 2, 3, 4)


class TestFreeEvolution:
    def test_matches_diagonal_oracle(self):
        rng = np.random.default_rng(7)
        for has_bus in (False, True):
            n_ions, dw, t = 3, 0.37, 1.9
            dim = 2 ** (n_ions + has_bus)
            amps = random_state(dim, rng)
            reg = QubitRegister(n_ions, has_bus, amps.copy())
            got = free_evolve(reg, dw, t)
            shift = 1 if has_bus else 0
            phases = np.array(
                [np.exp(1j * bin(i >> shift).count("1") * dw * t) for i in range(dim)]
            )
            np.testing.assert_allclose(got.amplitudes, phases * amps, atol=1e-12)

    def test_composition_of_intervals(self):
        # Evolving t1 then t2 must equal evolving t1+t2 exactly.
        rng = np.random.default_rng(8)
        amps = random_state(16, rng)
        reg = QubitRegister(4, False, amps)
        a = free_evolve(free_evolve(reg, 0.81, 0.4), 0.81, 1.13)
        b = free_evolve(reg, 0.81, 1.53)
        np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-12)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            free_evolve(new_register(1), 0.1, -1.0)
        with pytest.raises(ValueError):  # every entry of a batch is checked
            free_evolve(new_register(1), 0.1, np.array([0.5, 0.0, -1e-9]))

    def test_batch_rows_equal_single_evolutions(self):
        reg = QubitRegister(3, True, random_state(16, np.random.default_rng(9)))
        ts, dws = np.array([0.0, 0.4, 1.7]), np.array([0.3, -1.1, 2.5])
        got = free_evolve(reg, dws, ts).amplitudes
        want = [free_evolve(reg, dw, t).amplitudes for dw, t in zip(dws, ts)]
        assert np.array_equal(got, want)


class TestKernelReferences:
    """The block pulse and the gathered phase table against direct formulas,
    for single states and batches."""

    @staticmethod
    def _target_sets(n_ions, rng):
        every = tuple(range(1, n_ions + 1))
        subset = tuple(int(i) for i in rng.choice(every, size=(n_ions + 1) // 2, replace=False))
        return {every, (1,), (n_ions,), every[::2], subset}

    @pytest.mark.parametrize("has_bus", [False, True])
    @pytest.mark.parametrize("n_ions", [1, 2, 3, 4, 5, 6, 9])
    def test_pulse_matches_full_matrix(self, n_ions, has_bus):
        rng = np.random.default_rng(10 * n_ions + has_bus)
        dim = 2 ** (n_ions + has_bus)
        for targets in self._target_sets(n_ions, rng):
            theta, phi = rng.uniform(0, 2 * np.pi, size=2)
            dense = embed_on_ions(rotation_matrix(theta, phi), n_ions, targets, has_bus)
            for rows in ((), (3,), (2, 2)):
                amps = rng.normal(size=rows + (dim,)) + 1j * rng.normal(size=rows + (dim,))
                reg = QubitRegister(n_ions, has_bus, amps)
                got = apply_rotation(reg, PulseSpec(theta, phi, targets)).amplitudes
                np.testing.assert_allclose(got, amps @ dense.T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("has_bus", [False, True])
    @pytest.mark.parametrize("n_ions", [1, 2, 4, 7])
    def test_free_evolve_equals_direct_formula(self, n_ions, has_bus):
        rng = np.random.default_rng(n_ions)
        dim = 2 ** (n_ions + has_bus)
        p = excitation_counts(n_ions, has_bus)
        dws, ts = np.array([0.3, -1.1, 2.5]), np.array([0.0, 0.4, 1.7])
        for rows in ((), (3,)):
            amps = rng.normal(size=rows + (dim,)) + 1j * rng.normal(size=rows + (dim,))
            reg = QubitRegister(n_ions, has_bus, amps)
            for dw, t in ((0.37, 1.9), (-1.3, 0.0), (dws, ts), (dws, 0.8), (0.5, ts)):
                want = amps * np.exp(
                    1j * p * np.asarray(dw, dtype=float)[..., None] * np.asarray(t)[..., None]
                )
                assert np.array_equal(free_evolve(reg, dw, t).amplitudes, want)


class TestPeakMemory:
    """A kernel holds its input and its output and little more: the peak
    traced allocation stays within 2.1 states (numpy reports its buffers to
    tracemalloc)."""

    N_IONS = 16

    @pytest.mark.parametrize("op", ["pulse", "prepare_ghz", "reverse_prep", "free_evolve"])
    def test_peak_allocation(self, op):
        ground = new_register(self.N_IONS)
        ghz, seq = prepare_ghz(ground, 0.3)
        run = {
            "pulse": lambda: apply_rotation(ghz, pi_half_pulse(self.N_IONS, 0.2)),
            "prepare_ghz": lambda: prepare_ghz(ground, 0.3),
            "reverse_prep": lambda: reverse_prep(ghz, seq),
            "free_evolve": lambda: free_evolve(ghz, 0.7, 1.3),
        }[op]
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * ground.amplitudes.nbytes


def dense_signal(protocol, n_ions, amps):
    """Oracle, row by row: 1/2 + <Jz>/L (standard), 2**L <prod of the
    spins> (GHZ parity) and -2 <Sz> of ion 1 (GHZ time-reversed)."""
    ions = range(1, n_ions + 1)
    if protocol is Protocol.STANDARD:
        jz = sum(embed_on_ions(SZ, n_ions, (i,)) for i in ions)
        op, shift = jz / n_ions, 0.5
    elif protocol is Protocol.GHZ_PARITY:
        op, shift = 2**n_ions * embed_on_ions(SZ, n_ions, ions), 0.0
    else:
        op, shift = -2 * embed_on_ions(SZ, n_ions, (1,)), 0.0
    return shift + np.real(np.einsum("...i,ij,...j->...", amps.conj(), op, amps))


def dense_final(cfg):
    """The dense reference for a noiseless run: prepare, evolve and close
    the full 2**L state."""
    reg, seq = _prepare(cfg)
    return _close(free_evolve(reg, cfg.delta_omega, cfg.t_ramsey), cfg, seq)


class TestReadout:
    """Each protocol's readout is one outcome map of measured basis indices;
    its expected signal, averaged over the subspace Born table, is checked
    against dense operators on the dense final state."""

    @pytest.mark.parametrize("n_ions", [1, 2, 3, 4])
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_expected_matches_dense_oracles(self, protocol, n_ions):
        ghz = protocol is not Protocol.STANDARD
        cfg = RamseyConfig(
            n_ions=n_ions, t_ramsey=1.0, omega_r=0.37, omega_0=-0.2, protocol=protocol,
            imperfection=ImperfectionSpec({1: 0.2 - 0.1j, n_ions - 1: 0.15j}) if ghz and n_ions > 1 else None,
            phi0=0.7 if ghz else 0.0, final_phase=-0.45, allow_wrap=True,
        )
        ts = np.array([0.4, 1.1, 2.3])
        want = np.array([
            dense_signal(protocol, n_ions, dense_final(replace(cfg, t_ramsey=t)).amplitudes)
            for t in ts
        ])
        got = expected_signal(cfg, t_ramsey=ts)
        assert got.shape == (3,)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for t, value in zip(ts, want):
            single = expected_signal(replace(cfg, t_ramsey=t))
            assert type(single) is float
            assert single == pytest.approx(value, abs=1e-12)

    def test_ground_state_readouts(self):
        # All down: no ion up, parity (-1)^3, ion 1 down; the dense oracle agrees.
        table = np.zeros((2, 3))
        table[0, 0] = 1.0
        want = [dense_signal(p, 3, new_register(3).amplitudes) for p in Protocol]
        assert want == [0.0, -1.0, 1.0]
        assert [p.expected(table) for p in Protocol] == want

    @pytest.mark.parametrize("n_ions", [1, 2, 3, 4])
    def test_outcomes_match_bit_formulas(self, n_ions):
        indices = np.arange(1 << n_ions)
        maps = [p.outcomes(indices, n_ions) for p in Protocol]
        assert all(m.dtype == np.float64 for m in maps)
        for idx, nd, par, sz in zip(indices.tolist(), *maps):
            n_down = n_ions - bin(idx).count("1")
            assert nd == n_down
            assert par == (-1) ** n_down
            assert sz == (0.5 if (idx >> (n_ions - 1)) & 1 else -0.5)


class TestObservables:
    def test_bus_purity_product_vs_entangled(self):
        reg = new_register(2, has_bus=True)
        assert bus_purity(reg) == pytest.approx(1.0, abs=1e-12)
        # Entangle ion 1 with the bus: purity drops to 1/2.
        amps = np.zeros(8, dtype=complex)
        amps[0b000] = 1 / np.sqrt(2)  # ion1 down, bus 0
        amps[0b101] = 1 / np.sqrt(2)  # ion1 up,   bus 1
        ent = QubitRegister(2, True, amps)
        assert bus_purity(ent) == pytest.approx(0.5, abs=1e-12)


class TestSampling:
    def test_sample_distribution_chi2(self):
        # Oracle: exact Born probabilities; Pearson chi^2 at a fixed seed
        # should sit well inside the 99.9% quantile.
        rng = np.random.default_rng(4)
        amps = random_state(8, rng)
        reg = QubitRegister(3, False, amps)
        probs = np.abs(amps) ** 2
        n = 200_000
        sample = sample_measurement(reg, stream(123, 9).random(n))
        assert sample.dtype == np.int64 and sample.shape == (n,)
        counts = np.bincount(sample, minlength=8)
        chi2 = float(np.sum((counts - n * probs) ** 2 / (n * probs)))
        # 7 dof: 99.9% quantile is 24.3
        assert chi2 < 24.3

    @pytest.mark.parametrize("n_ions", [1, 3, 6, 12])
    def test_uniforms_draw_what_generator_choice_draws(self, n_ions):
        # sample_measurement(reg, rng.random(n)) inverts the CDF exactly as
        # Generator.choice does: the same indices from the same stream.
        amps = random_state(1 << n_ions, np.random.default_rng(n_ions))
        reg = QubitRegister(n_ions, False, amps)
        probs = np.abs(reg.amplitudes) ** 2
        want = stream(3, n_ions).choice(reg.dim, size=5000, p=probs / probs.sum())
        got = sample_measurement(reg, stream(3, n_ions).random(5000))
        assert np.array_equal(got, want)

    def test_uniform_on_a_cdf_step_skips_zero_probability_states(self):
        # Born probabilities 0, 1/2, 0, 1/2: the CDF is 0, 1/2, 1/2, 1. A
        # uniform equal to a step value lands past it, as in searchsorted
        # with side="right", for one state and for every row of a batch.
        amps = np.array([0.0, 1.0, 0.0, 1.0], dtype=complex) / np.sqrt(2)
        uniforms = np.array([0.0, 0.25, 0.5, 0.75])
        single = sample_measurement(QubitRegister(2, False, amps), uniforms)
        batch = sample_measurement(QubitRegister(2, False, np.stack([amps] * 4)), uniforms)
        assert single.tolist() == batch.tolist() == [1, 1, 3, 3]

    def test_born_table_uniform_on_a_step_skips_zero_probability_states(self):
        # The same four-state distribution as a Born table: index = 2 b + k,
        # ion 1's bit b and ion 2's k. The descent lands where searchsorted does.
        table = np.array([[0.0, 0.5], [0.0, 0.5]])
        uniforms = np.array([0.0, 0.25, 0.5, 0.75])
        assert sample_born_table(table, uniforms).tolist() == [1, 1, 3, 3]

    def test_projection_noise_variance_binomial(self):
        # Independent half-fringe ions: L_down is Binomial(L, 1/2).
        reg, n_ions = _half_fringe_register()
        n = 100_000
        s = sample_measurement(reg, stream(77, 0).random(n))
        var = float(np.var(Protocol.STANDARD.outcomes(s, n_ions), ddof=1))
        # Oracle: exact moments of the sampled distribution give the
        # standard error of the sample variance.
        probs = np.abs(reg.amplitudes) ** 2
        nd = reg.n_ions - np.array([bin(i).count("1") for i in range(reg.dim)])
        mu = float(np.sum(probs * nd))
        m2 = float(np.sum(probs * (nd - mu) ** 2))
        m4 = float(np.sum(probs * (nd - mu) ** 4))
        sd_var = np.sqrt((m4 - m2**2) / n)
        assert m2 == pytest.approx(n_ions / 4, abs=1e-9)
        assert abs(var - m2) < 4 * sd_var


def _half_fringe_register():
    n_ions = 4
    reg = new_register(n_ions)
    reg = apply_rotation(reg, pi_half_pulse(n_ions, 0.0))
    return reg, n_ions
