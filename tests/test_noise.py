"""Dephasing and state-imperfection checks.

A dephased run samples every shot from the Born table of the dephased
density matrix: ``protocols._table`` given the run's noise. The references
here hold the dense 2**L state that the table avoids: the exact density
matrix, damped entrywise by the characteristic function of the Gaussian
phases and closed at gate level (L <= 8), and trajectories, each shot
drawing its own phases and its class from its own closed state, the way a
dephased experiment runs (L = 3, 6, 9). Past the dense reach, 50-digit
arithmetic is the reference (L = 12).
"""

from math import comb

import numpy as np
import pytest
from scipy.stats import chi2

from ionramsey import (
    ImperfectionSpec,
    NoiseSpec,
    Protocol,
    RamseyConfig,
    expected_signal,
    stream,
)
from ionramsey.gates import QubitRegister
from ionramsey.protocols import _run_state
from ionramsey.noise import perturb_ghz
from ionramsey.register import DickeState, _binomials, dicke_ghz, sample_measurement
from test_register import (
    class_masses,
    dense_close,
    dense_evolve,
    dense_prepare,
    popcounts,
    probs_class_masses,
)


def ghz_dicke(n_ions, phi0):
    """(|dn...dn> + e^{i phi0} |up...up>) / sqrt(2) as Dicke amplitudes."""
    return dicke_ghz(n_ions, np.array([1.0, np.exp(1j * phi0)]) / np.sqrt(2))


def dephased_cfg(protocol, n_ions, mode, *, epsilon=None, gamma=0.3):
    """Off the fringe's symmetry points, with phi0, phi_f and, if given, an
    admixture."""
    return RamseyConfig(
        n_ions=n_ions,
        t_ramsey=0.8,
        omega_r=0.9 / protocol.multiplier(n_ions),
        omega_0=0.1,
        noise=NoiseSpec(gamma=gamma, mode=mode),
        imperfection=None if epsilon is None else ImperfectionSpec(epsilon=epsilon),
        protocol=protocol,
        final_phase=0.35,
        phi0=0.0 if protocol is Protocol.STANDARD else 0.6,
    )


def dense_evolved(cfg):
    """The gate-level prepared and evolved dense state, and its GHZ sequence."""
    reg, seq = dense_prepare(cfg)
    return dense_evolve(reg, cfg.delta_omega, cfg.t_ramsey), seq


def dense_averaged_table(cfg):
    """Reference: the Born table of the exact dephased density matrix. Basis
    states x, y whose bits differ in h places, and whose popcounts differ by
    m, keep rho_xy times e^{-h gamma t} (independent phases) or e^{-m^2
    gamma t} (one common phase). The gate-level close U maps rho to U rho
    U^dagger: applied to the columns of rho it gives M = U rho, and applied
    to those of M^dagger, U rho U^dagger, whose diagonal holds the Born
    probabilities."""
    reg, seq = dense_evolved(cfg)
    index, gamma_t = np.arange(reg.dim), cfg.noise.gamma * cfg.t_ramsey
    if cfg.noise.mode == "common":
        counts = popcounts(cfg.n_ions)
        damping = np.exp(-gamma_t * np.subtract.outer(counts, counts) ** 2)
    else:
        damping = np.exp(-gamma_t * np.bitwise_count(index[:, None] ^ index))
    rho = np.outer(reg.amplitudes, reg.amplitudes.conj()) * damping

    def close_columns(matrix):  # row i of the result: U times column i
        return dense_close(QubitRegister(cfg.n_ions, False, matrix.T.copy()), cfg, seq).amplitudes

    probs = np.diagonal(close_columns(close_columns(rho).conj())).real
    per_index = [comb(cfg.n_ions - 1, k) for k in range(cfg.n_ions)]
    return probs_class_masses(cfg.n_ions, probs).reshape(2, cfg.n_ions) / per_index


def phase_trajectories(reg, phases):
    """One dephasing trajectory a row of ``phases`` (shots, L): basis index x
    gains e^{i sum_k x_k phi_k}, x_k ion k's bit. The factor is built ion by
    ion, each one the next bit below those placed, so ion 1 ends the most
    significant."""
    ions = np.exp(1j * phases)
    factor = np.ones((len(phases), 1), dtype=complex)
    for k in range(reg.n_ions):
        factor = np.stack([factor, factor * ions[:, k : k + 1]], axis=-1).reshape(len(phases), -1)
    return QubitRegister(reg.n_ions, False, reg.amplitudes * factor)


def trajectory_classes(cfg, rng, shots, chunk=250):
    """Readout classes of dephased shots run one trajectory each: every shot
    draws its phases (one per ion, or one shared), closes its own state at
    gate level and draws its class from that state's class masses."""
    reg, seq = dense_evolved(cfg)
    width = 1 if cfg.noise.mode == "common" else cfg.n_ions
    sigma = np.sqrt(2 * cfg.noise.gamma * cfg.t_ramsey)
    phases = np.broadcast_to(rng.normal(0.0, sigma, (shots, width)), (shots, cfg.n_ions))
    uniforms = rng.random(shots)
    classes = []
    for k in range(0, shots, chunk):
        final = dense_close(phase_trajectories(reg, phases[k : k + chunk]), cfg, seq)
        cdf = np.cumsum(class_masses(cfg.n_ions, final.amplitudes), axis=-1)
        drawn = cdf / cdf[:, -1:] <= uniforms[k : k + chunk, None]
        classes.append(np.count_nonzero(drawn, axis=-1))
    return np.concatenate(classes)


def mp_count_masses(cfg):
    """Reference in 50-digit arithmetic for an independently dephased
    collective-pulse readout (no 2**L array, no code shared with the
    library): the mass of each count w of ions read up is the t**w
    coefficient of <d| A_t^(x L) |d>, A_t = M_0 + t M_1, where M_z is the
    projector U^dagger |z><z| U of the closing pulse U with its off-diagonal
    entries damped by e^{-gamma t}. On the Dicke states A^(x L) is the
    symmetric power: <D_p|A^(x L)|D_q> is sqrt(C(L, q) / C(L, p)) times the
    x**(L-p) y**p coefficient of (A00 x + A10 y)**(L-q) (A01 x + A11 y)**q,
    a polynomial in x, y and t."""
    mpmath = pytest.importorskip("mpmath")
    mp, n, binom = mpmath.mp, cfg.n_ions, mpmath.binomial
    with mp.workdps(50):
        pi, phi0, phi_f = mp.pi, mpmath.mpf(cfg.phi0), mpmath.mpf(cfg.final_phase)

        def rot(phi):  # R(pi/2, phi)
            c = s = mpmath.sqrt(2) / 2
            return [[c, -1j * mpmath.exp(-1j * phi) * s], [-1j * mpmath.exp(1j * phi) * s, c]]

        (down, _), (up, _) = rot(phi0 + pi / 2)
        d = {0: down, n: up}
        for p, eps in cfg.imperfection.epsilon.items():
            d[p] = mpmath.mpc(eps)
        norm = mpmath.sqrt(mpmath.fsum(abs(x) ** 2 for x in d.values()))
        phase = mpmath.mpf(cfg.delta_omega) * mpmath.mpf(cfg.t_ramsey)
        d = {p: x / norm * mpmath.exp(1j * p * phase) for p, x in d.items()}
        u = rot((phi0 - phi_f) / n + pi / 2)
        r = mpmath.exp(-mpmath.mpf(cfg.noise.gamma) * mpmath.mpf(cfg.t_ramsey))
        m = [[[mpmath.conj(u[z][i]) * u[z][j] * (1 if i == j else r) for j in (0, 1)]
              for i in (0, 1)] for z in (0, 1)]

        def times(poly, j):  # poly[(y degree, t degree)] times A0j x + A1j y
            out = {}
            for (yd, td), v in poly.items():
                for dy, dt, a in ((0, 0, m[0][0][j]), (0, 1, m[1][0][j]),
                                  (1, 0, m[0][1][j]), (1, 1, m[1][1][j])):
                    out[yd + dy, td + dt] = out.get((yd + dy, td + dt), 0) + a * v
            return out

        masses = [mpmath.mpc(0)] * (n + 1)
        for q, dq in d.items():
            poly = {(0, 0): mpmath.mpc(1)}
            for j in [0] * (n - q) + [1] * q:
                poly = times(poly, j)
            for (p, td), v in poly.items():
                if p in d:
                    masses[td] += mpmath.conj(d[p]) * dq * mpmath.sqrt(binom(n, q) / binom(n, p)) * v
        return np.array([float(mpmath.re(x)) for x in masses])


def _cases(sizes, epsilons=True):
    return [
        pytest.param(protocol, n_ions, mode, epsilon, id=f"{protocol.value}-L{n_ions}-{mode}-{tag}")
        for protocol in Protocol
        for n_ions in sizes
        for mode in ("independent", "common")
        for tag, epsilon in (("pure", None), ("epsilon", {1: 0.2 - 0.1j, n_ions - 1: 0.15j}))
        if tag == "pure" or (epsilons and protocol is not Protocol.STANDARD and n_ions > 1)
    ]


class TestAveragedTable:
    """The dephased table against the dense density matrix, trajectory
    shots and the ensemble contrast model."""

    @pytest.mark.parametrize("protocol,n_ions,mode,epsilon", _cases(range(1, 9)))
    def test_equals_dense_density_matrix(self, protocol, n_ions, mode, epsilon):
        cfg = dephased_cfg(protocol, n_ions, mode, epsilon=epsilon)
        want = dense_averaged_table(cfg)
        np.testing.assert_allclose(_run_state(cfg), want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("protocol,n_ions,mode,epsilon", [
        *_cases((3, 6), epsilons=False),
        # One dense trajectory at L = 9 holds 512 amplitudes: one case, the
        # general one, keeps the suite's wall time.
        *[c for c in _cases((9,)) if c.id == "ghz_parity-L9-independent-epsilon"],
    ])
    def test_shots_match_trajectory_shots(self, protocol, n_ions, mode, epsilon):
        # Two-sample Pearson chi^2 of the class histograms of 40,000 shots
        # each; classes seen fewer than 10 times in both runs together are
        # pooled into one bin.
        cfg = dephased_cfg(protocol, n_ions, mode, epsilon=epsilon)
        drawn = sample_measurement(_run_state(cfg), stream(71, n_ions).random(40_000))
        ours = np.bincount(drawn, minlength=2 * n_ions)
        trajectories = trajectory_classes(cfg, stream(72, n_ions), 40_000)
        theirs = np.bincount(trajectories, minlength=2 * n_ions)
        rare = ours + theirs < 10
        ours = np.append(ours[~rare], ours[rare].sum())
        theirs = np.append(theirs[~rare], theirs[rare].sum())
        seen = ours + theirs > 0
        stat = np.sum((ours[seen] - theirs[seen]) ** 2 / (ours[seen] + theirs[seen]))
        assert chi2.sf(stat, np.count_nonzero(seen) - 1) > 1e-3

    @pytest.mark.parametrize("gamma", [0.01, 0.3])
    def test_flips_match_50_digit_reference(self, gamma):
        # Past the dense reference's reach: GHZ parity with admixtures at
        # p = 1, L/2 and L - 1 under independent dephasing.
        n_ions = 12
        cfg = dephased_cfg(Protocol.GHZ_PARITY, n_ions, "independent", gamma=gamma,
                           epsilon={1: 0.2 - 0.1j, 6: 0.1, 11: 0.15j})
        table = _run_state(cfg)
        got = np.append(table[0], table[1, -1]) * _binomials(n_ions)[n_ions]
        np.testing.assert_allclose(got, mp_count_masses(cfg), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("mode", ["independent", "common"])
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_mean_signal_follows_the_contrast_decay(self, protocol, mode):
        # The fringe about its offset shrinks by e^{-k gamma T}, k = m under
        # independent noise and m^2 under common noise (m the fringe
        # multiplier), at every L up to capacity.
        offset, _ = protocol.fringe
        for n_ions in range(1, 25):
            cfg = dephased_cfg(protocol, n_ions, mode, gamma=0.05)
            m = protocol.multiplier(n_ions)
            k = m if mode == "independent" else m * m
            contrast = np.exp(-k * 0.05 * cfg.t_ramsey)
            want = offset + contrast * (expected_signal(cfg) - offset)
            assert abs(protocol.expected(_run_state(cfg)) - want) <= 1e-12, n_ions

    @pytest.mark.parametrize("n_ions", [1, 2, 4, 7])
    @pytest.mark.parametrize("protocol", [Protocol.GHZ_PARITY, Protocol.GHZ_REVERSED])
    def test_ghz_envelopes(self, protocol, n_ions):
        # At the fringe top the GHZ signal is its envelope: e^{-L gamma t}
        # under independent dephasing, e^{-L^2 gamma t} under common; one
        # ion's is e^{-gamma t} either way.
        gamma, t = 0.05, 0.9
        for mode, want in (("independent", np.exp(-n_ions * gamma * t)),
                           ("common", np.exp(-n_ions**2 * gamma * t))):
            cfg = RamseyConfig(n_ions=n_ions, t_ramsey=t, omega_r=0.4, omega_0=0.4,
                               noise=NoiseSpec(gamma, mode), protocol=protocol)
            assert protocol.expected(_run_state(cfg)) == pytest.approx(want, rel=0, abs=1e-13)

    @pytest.mark.parametrize("mode", ["independent", "common"])
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_full_capacity_masses_are_a_distribution(self, protocol, mode):
        # L = 24 with phi0, phi_f and admixtures at p = 1, 12 and 23: every
        # cell >= 0, the masses sum to 1, and the sampler's CDF never
        # decreases: rising uniforms draw classes that never fall.
        epsilon = None if protocol is Protocol.STANDARD else {1: 0.2 - 0.1j, 12: 0.1, 23: 0.15j}
        for gamma in (1e-9, 0.05, 3.0):
            table = _run_state(dephased_cfg(protocol, 24, mode, epsilon=epsilon, gamma=gamma))
            assert table.shape == (2, 24) and np.all(table >= 0)
            assert np.sum(table * _binomials(23)[23, :24]) == pytest.approx(1.0, abs=1e-12)
            classes = sample_measurement(table, np.linspace(0.0, 1.0, 4001)[:-1])
            assert np.all(np.diff(classes) >= 0)


class TestNoiseSpec:
    def test_rejects_bad_mode_and_negative_gamma(self):
        with pytest.raises(ValueError):
            NoiseSpec(gamma=-0.1)
        with pytest.raises(ValueError):
            NoiseSpec(gamma=0.1, mode="pink")


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
