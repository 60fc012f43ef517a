"""Register-level checks against dense-matrix oracles.

Every structured operation (rotations on selected qubits, free evolution,
each protocol's readout) is compared to an explicit 2^n x 2^n matrix built
with np.kron, which only relies on the documented axis convention: ion 1 is
the most significant bit, the bus (when present) is the least significant,
and bit value 0 means the ion is in the lower state.
"""

import tracemalloc
from dataclasses import replace
from functools import lru_cache
from math import comb

import numpy as np
import pytest

from ionramsey import (
    CapacityError,
    MAX_IONS,
    ImperfectionSpec,
    Protocol,
    RamseyConfig,
    expected_signal,
    stream,
)
from ionramsey.gates import (
    QubitRegister,
    Rot,
    apply_rotation,
    bus_purity,
    new_register,
    prepare_ghz,
    reverse_prep,
)
from ionramsey.register import (
    DickeState,
    _flip_counts,
    _root_binomials,
    free_evolve,
    rotation_matrix,
    sample_counts,
    sample_measurement,
)
from ionramsey.noise import NoiseSpec
from ionramsey.protocols import _run_state
from scipy.stats import chi2 as chi2_law

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


def all_ions_pi_half(n_ions, phi):
    """A pi/2 pulse at phase ``phi`` on every ion."""
    return Rot(np.pi / 2, phi, tuple(range(1, n_ions + 1)))


def random_state(dim, rng):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amps / np.linalg.norm(amps)


def random_dicke(n_ions, rng, rows=()):
    shape = rows + (n_ions + 1,)
    dicke = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return DickeState(n_ions, dicke / np.linalg.norm(dicke, axis=-1, keepdims=True))


def popcounts(n_ions):
    """Excited ions of every basis index of an ion register, by bin()."""
    return np.array([bin(x).count("1") for x in range(1 << n_ions)])


def readout_class(index, n_ions):
    """Readout class b L + k of a basis index: ion 1's bit b, k ions up
    among ions 2..L, by bin()."""
    b = index >> (n_ions - 1)
    return b * n_ions + bin(index).count("1") - b


def class_masses(n_ions, amps):
    """Oracle: the Born mass of each readout class of a dense ion state (or
    of each row of a batch), summed index by index."""
    return probs_class_masses(n_ions, np.abs(amps) ** 2)


def probs_class_masses(n_ions, probs):
    """The readout-class masses of Born probabilities over the basis indices
    (or of each row of a batch): each index's probability added to its class."""
    return probs @ _class_indicator(n_ions)


@lru_cache(maxsize=None)
def _class_indicator(n_ions):
    """[x, c]: 1.0 where basis index x lies in readout class c."""
    classes = [readout_class(index, n_ions) for index in range(1 << n_ions)]
    return (np.array(classes)[:, None] == np.arange(2 * n_ions)).astype(float)


def dense_table(n_ions, amps):
    """Oracle: the (2, L) Born table of a dense ion state, or of each row of
    a batch: cell [b, k] is its class's mass over its C(L - 1, k) indices."""
    masses = class_masses(n_ions, amps)
    per_index = np.array([comb(n_ions - 1, k) for k in range(n_ions)])
    return masses.reshape(*masses.shape[:-1], 2, n_ions) / per_index


def expand(state):
    """Dense ion register of a Dicke state, or of each row of a batch: basis
    index x holds ``dicke[|x|] / sqrt(C(L, |x|))``."""
    n = state.n_ions
    scale = np.sqrt([comb(n, p) for p in range(n + 1)])
    return QubitRegister(n, False, (state.dicke / scale)[..., popcounts(n)])


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


class TestRotations:
    def test_rotation_matrix_is_unitary(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            theta, phi = rng.uniform(-4 * np.pi, 4 * np.pi, size=2)
            u = rotation_matrix(theta, phi)
            np.testing.assert_allclose(u @ u.conj().T, I2, atol=1e-12)

    def test_pi_pulse_inverts_population(self):
        reg = new_register(1)
        reg = apply_rotation(reg, Rot(np.pi, 0.3, (1,)))
        assert abs(reg.amplitudes[1]) == pytest.approx(1.0, abs=1e-12)

    def test_rotation_inverse_identity(self):
        rng = np.random.default_rng(5)
        reg = new_register(2)
        reg = QubitRegister(2, False, random_state(4, rng))
        theta, phi = 1.1, -0.7
        out = apply_rotation(reg, Rot(theta, phi, (1, 2)))
        out = apply_rotation(out, Rot(theta, phi + np.pi, (1, 2)))
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
        got = apply_rotation(reg, Rot(theta, phi, targets))
        dense = embed_on_ions(rotation_matrix(theta, phi), n_ions, targets, has_bus)
        np.testing.assert_allclose(got.amplitudes, dense @ amps, atol=1e-12)

    def test_rot_normalizes_targets(self):
        spec = Rot(0.5, 0.0, (3, 1, 3))
        assert spec.targets == (1, 3)
        with pytest.raises(ValueError):
            Rot(0.5, 0.0, ())
        with pytest.raises(ValueError):
            Rot(0.5, 0.0, (0,))
        with pytest.raises(ValueError):  # an ion the register lacks
            apply_rotation(new_register(2), Rot(0.5, 0.0, (1, 3)))


class TestFreeEvolution:
    def test_matches_diagonal_oracle(self):
        # The evolved Dicke amplitudes expand to the dense state phased by
        # exp(i p dw t), p each basis index's popcount.
        rng = np.random.default_rng(7)
        n_ions, dw, t = 3, 0.37, 1.9
        state = random_dicke(n_ions, rng)
        got = expand(free_evolve(state, dw, t)).amplitudes
        phases = np.exp(1j * popcounts(n_ions) * dw * t)
        np.testing.assert_allclose(got, phases * expand(state).amplitudes, atol=1e-12)

    def test_composition_of_intervals(self):
        # Evolving t1 then t2 must equal evolving t1+t2 exactly.
        state = random_dicke(4, np.random.default_rng(8))
        a = free_evolve(free_evolve(state, 0.81, 0.4), 0.81, 1.13)
        b = free_evolve(state, 0.81, 1.53)
        np.testing.assert_allclose(a.dicke, b.dicke, atol=1e-12)

    def test_rejects_negative_time(self):
        state = random_dicke(1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            free_evolve(state, 0.1, -1.0)
        with pytest.raises(ValueError):  # every entry of a batch is checked
            free_evolve(state, 0.1, np.array([0.5, 0.0, -1e-9]))

    def test_batch_rows_equal_single_evolutions(self):
        state = random_dicke(3, np.random.default_rng(9))
        ts, dws = np.array([0.0, 0.4, 1.7]), np.array([0.3, -1.1, 2.5])
        got = free_evolve(state, dws, ts).dicke
        want = [free_evolve(state, dw, t).dicke for dw, t in zip(dws, ts)]
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
                got = apply_rotation(reg, Rot(theta, phi, targets)).amplitudes
                np.testing.assert_allclose(got, amps @ dense.T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_ions", [1, 2, 4, 7])
    def test_free_evolve_equals_direct_formula(self, n_ions):
        rng = np.random.default_rng(n_ions)
        p = np.arange(n_ions + 1)
        dws, ts = np.array([0.3, -1.1, 2.5]), np.array([0.0, 0.4, 1.7])
        for rows in ((), (3,)):
            state = random_dicke(n_ions, rng, rows)
            for dw, t in ((0.37, 1.9), (-1.3, 0.0), (dws, ts), (dws, 0.8), (0.5, ts)):
                want = state.dicke * np.exp(
                    1j * p * np.asarray(dw, dtype=float)[..., None] * np.asarray(t)[..., None]
                )
                assert np.array_equal(free_evolve(state, dw, t).dicke, want)


class TestPeakMemory:
    """A kernel holds its input and its output and little more: the peak
    traced allocation stays within 2.1 states (numpy reports its buffers to
    tracemalloc)."""

    N_IONS = 16

    @pytest.mark.parametrize("op", ["pulse", "prepare_ghz", "reverse_prep"])
    def test_peak_allocation(self, op):
        ground = new_register(self.N_IONS)
        ghz, seq = prepare_ghz(ground, 0.3)
        run = {
            "pulse": lambda: apply_rotation(ghz, all_ions_pi_half(self.N_IONS, 0.2)),
            "prepare_ghz": lambda: prepare_ghz(ground, 0.3),
            "reverse_prep": lambda: reverse_prep(ghz, seq),
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
    spins> (GHZ parity) and -2 <Sz> of ion 1 (GHZ time-reversed). Each
    observable is diagonal in the basis, so it is its diagonal: the
    Kronecker product of one single-ion diagonal per ion."""
    ions = range(1, n_ions + 1)

    def on_ions(targets):
        diagonal = np.ones(1)
        for i in ions:
            diagonal = np.kron(diagonal, np.diag(SZ).real if i in targets else np.ones(2))
        return diagonal

    if protocol is Protocol.STANDARD:
        op, shift = sum(on_ions((i,)) for i in ions) / n_ions, 0.5
    elif protocol is Protocol.GHZ_PARITY:
        op, shift = 2**n_ions * on_ions(ions), 0.0
    else:
        op, shift = -2 * on_ions((1,)), 0.0
    return shift + np.sum(np.abs(amps) ** 2 * op, axis=-1)


def dense_prepare(cfg):
    """Gate-level reference preparation: the opening pulse on every ion
    (standard), or the GHZ star circuit with each admixture eps_p added as
    eps_p times the normalized uniform superposition of the indices with p
    ions up, then renormalized. Returns the register and the GHZ gate
    sequence (None for standard)."""
    reg = new_register(cfg.n_ions)
    if cfg.protocol is Protocol.STANDARD:
        return apply_rotation(reg, all_ions_pi_half(cfg.n_ions, 0.0)), None
    reg, seq = prepare_ghz(reg, cfg.phi0)
    if cfg.imperfection is not None:
        amps, counts = reg.amplitudes.copy(), popcounts(cfg.n_ions)
        for p, eps in sorted(cfg.imperfection.epsilon.items()):
            amps += eps * (counts == p) / np.sqrt(comb(cfg.n_ions, p))
        reg = QubitRegister(cfg.n_ions, False, amps / np.linalg.norm(amps))
    return reg, seq


def dense_evolve(reg, delta_omega, t):
    """Free evolution on the dense register: exp(i p dw t) on p ions up."""
    return QubitRegister(
        reg.n_ions, reg.has_bus,
        reg.amplitudes * np.exp(1j * popcounts(reg.n_ions) * delta_omega * t),
    )


def dense_close(reg, cfg, seq):
    """Gate-level reference readout: the replayed inverse GHZ sequence
    (time-reversed), or the collective pi/2 pulse at phase pi - phi_f
    (standard) or (phi0 - phi_f)/L + pi/2 (GHZ parity)."""
    if cfg.protocol is Protocol.GHZ_REVERSED:
        return reverse_prep(reg, seq)
    if cfg.protocol is Protocol.STANDARD:
        phase = np.pi - cfg.final_phase
    else:
        phase = (cfg.phi0 - cfg.final_phase) / cfg.n_ions + np.pi / 2
    return apply_rotation(reg, all_ions_pi_half(cfg.n_ions, phase))


def dense_final(cfg):
    """The dense reference for a noiseless run: prepare, evolve and close
    the full 2**L state at gate level."""
    reg, seq = dense_prepare(cfg)
    return dense_close(dense_evolve(reg, cfg.delta_omega, cfg.t_ramsey), cfg, seq)


class TestReadout:
    """Each protocol's readout is one outcome map of measured readout classes;
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
        # Every basis index has the outcome of its readout class.
        maps = [p.outcomes(np.arange(2 * n_ions), n_ions) for p in Protocol]
        assert all(m.dtype == np.float64 for m in maps)
        for idx in range(1 << n_ions):
            nd, par, sz = (m[readout_class(idx, n_ions)] for m in maps)
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
        # Oracle: exact Born masses of the 8 readout classes of 4 ions;
        # Pearson chi^2 at a fixed seed should sit well inside the 99.9% quantile.
        rng = np.random.default_rng(4)
        amps = random_state(16, rng)
        table = dense_table(4, amps)
        probs = class_masses(4, amps)
        n = 200_000
        sample = sample_measurement(table, stream(123, 9).random(n))
        assert sample.dtype == np.int64 and sample.shape == (n,)
        counts = np.bincount(sample, minlength=8)
        chi2 = float(np.sum((counts - n * probs) ** 2 / (n * probs)))
        # 7 dof: 99.9% quantile is 24.3
        assert chi2 < 24.3

    @pytest.mark.parametrize("shots", [300, 5000])
    @pytest.mark.parametrize("n_ions", [1, 3, 6, 12])
    def test_uniforms_draw_what_generator_choice_draws(self, n_ions, shots):
        # sample_measurement(table, rng.random(n)) inverts the CDF exactly as
        # Generator.choice does over the classes' masses: the same classes
        # from the same stream.
        amps = random_state(1 << n_ions, np.random.default_rng(n_ions))
        masses = class_masses(n_ions, amps)
        want = stream(3, n_ions).choice(2 * n_ions, size=shots, p=masses / masses.sum())
        table = dense_table(n_ions, amps)
        got = sample_measurement(table, stream(3, n_ions).random(shots))
        assert np.array_equal(got, want)

    def test_uniform_on_a_cdf_step_skips_zero_probability_states(self):
        # Class masses 0, 1/2, 0, 1/2 (class 2 b + k, ion 1's bit b and ion
        # 2's k): the CDF is 0, 1/2, 1/2, 1. A uniform equal to a step value
        # lands past it, as in searchsorted with side="right".
        table = np.array([[0.0, 0.5], [0.0, 0.5]])
        uniforms = np.array([0.0, 0.25, 0.5, 0.75])
        assert sample_measurement(table, uniforms).tolist() == [1, 1, 3, 3]

    def test_projection_noise_variance_binomial(self):
        # Independent half-fringe ions: L_down is Binomial(L, 1/2).
        reg, n_ions = _half_fringe_register()
        n = 100_000
        s = sample_measurement(dense_table(n_ions, reg.amplitudes), stream(77, 0).random(n))
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


    @pytest.mark.parametrize("n", [5, 5000])
    @pytest.mark.parametrize("bad", [-0.5, -1e-300, 1.0, 1.5, np.nan, np.inf, -np.inf])
    def test_uniform_outside_the_unit_interval_raises(self, n, bad):
        # A negative uniform used to give class 0 and one >= 1 (or NaN) class
        # 2 L, which no protocol can read.
        table = np.array([[0.1, 0.4], [0.3, 0.2]])
        uniforms = np.full(n, 0.3)
        uniforms[n // 2] = bad
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            sample_measurement(table, uniforms)

    # Run tables off the half fringe: a noiseless standard L = 3 one, a
    # dephased GHZ-parity L = 4 one and a time-reversed L = 2 one, whose
    # classes with ions 2..L up carry no mass.
    COUNT_TABLES = {
        "standard-L3": dict(n_ions=3, protocol=Protocol.STANDARD, omega_r=0.4),
        "ghz_parity-L4-dephased": dict(
            n_ions=4, protocol=Protocol.GHZ_PARITY, omega_r=0.3,
            noise=NoiseSpec(gamma=0.3, mode="independent"),
        ),
        "ghz_reversed-L2": dict(n_ions=2, protocol=Protocol.GHZ_REVERSED, omega_r=0.5),
    }

    @pytest.mark.parametrize("case", COUNT_TABLES)
    def test_summed_counts_follow_the_class_masses(self, case):
        # Oracle: the classes' masses, cell [b, k] times C(L - 1, k),
        # normalised. 400 draws of 500 shots, summed, pass Pearson's chi^2 at
        # its 99.9% quantile over the classes with mass; the others get no shot.
        kwargs = self.COUNT_TABLES[case]
        n_ions = kwargs["n_ions"]
        table = _run_state(RamseyConfig(t_ramsey=1.0, omega_0=0.0, **kwargs))
        masses = (table * [comb(n_ions - 1, k) for k in range(n_ions)]).reshape(-1)
        masses /= masses.sum()
        rng, draws, shots = stream(29, n_ions), 400, 500
        total = np.zeros(2 * n_ions, dtype=np.int64)
        for _ in range(draws):
            counts = sample_counts(table, shots, rng)
            assert counts.dtype == np.int64 and counts.shape == (2 * n_ions,)
            assert counts.sum() == shots
            total += counts
        want = draws * shots * masses
        live = masses > 1e-12
        assert not total[~live].any()
        chi2 = float(np.sum((total[live] - want[live]) ** 2 / want[live]))
        assert chi2 < chi2_law.ppf(0.999, live.sum() - 1)

    def test_counts_are_one_multinomial_draw(self):
        # One rng.multinomial over the masses sample_measurement's CDF sums:
        # the same stream gives the same counts, and the stream then sits
        # where that one draw leaves it.
        amps = random_state(32, np.random.default_rng(5))
        table = dense_table(5, amps)
        masses = class_masses(5, amps)
        want_rng, got_rng = stream(8, 1), stream(8, 1)
        want = want_rng.multinomial(3000, masses / masses.sum())
        assert np.array_equal(sample_counts(table, 3000, got_rng), want)
        assert got_rng.random() == want_rng.random()

    def test_cached_tables_are_read_only(self):
        for array in (_root_binomials(5), *_flip_counts(5)):
            assert not array.flags.writeable


def _half_fringe_register():
    n_ions = 4
    reg = new_register(n_ions)
    reg = apply_rotation(reg, all_ions_pi_half(n_ions, 0.0))
    return reg, n_ions
