"""Property checks: every state operation keeps the norm, a GHZ
preparation's gate sequence inverts exactly, on a batch of states
``(B, 2**n)`` (or of Dicke amplitudes ``(B, n + 1)``) every operation
matches the same operation on each row alone, and the GHZ phase phi0 moves
no admixture-free signal.

Registers hold up to 6 ions (plus the optional bus). Hypothesis runs
derandomized with a small example budget, so the suite stays deterministic
and fast.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionramsey import (
    ImperfectionSpec,
    Protocol,
    RamseyConfig,
    expected_signal,
)
from ionramsey.gates import (
    QubitRegister,
    Rot,
    apply_rotation,
    new_register,
    prepare_ghz,
    prepare_ghz_via_bus,
    reverse_prep,
)
from ionramsey.noise import perturb_ghz
from ionramsey.register import DickeState, dicke_ghz, free_evolve

NORM_TOL = 1e-12
check = settings(derandomize=True, deadline=None, max_examples=30, database=None)

n_ions = st.integers(1, 6)
angles = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
seeds = st.integers(0, 2**32 - 1)
rows = st.integers(1, 5)


def random_register(n: int, has_bus: bool, seed: int) -> QubitRegister:
    rng = np.random.default_rng(seed)
    dim = 1 << (n + has_bus)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return QubitRegister(n, has_bus, amps / np.linalg.norm(amps))


def random_dicke(n: int, seed: int) -> DickeState:
    rng = np.random.default_rng(seed)
    dicke = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return DickeState(n, dicke / np.linalg.norm(dicke))


def assert_normalized(reg: QubitRegister | DickeState) -> None:
    amps = reg.dicke if isinstance(reg, DickeState) else reg.amplitudes
    assert abs(np.linalg.norm(amps) - 1.0) <= NORM_TOL


@check
@given(n_ions, st.booleans(), seeds, angles, angles, st.data())
def test_rotation_keeps_norm(n, has_bus, seed, theta, phi, data):
    targets = data.draw(st.sets(st.integers(1, n), min_size=1))
    reg = random_register(n, has_bus, seed)
    assert_normalized(apply_rotation(reg, Rot(theta, phi, tuple(targets))))


@check
@given(n_ions, seeds, angles, st.floats(0.0, 1e3))
def test_free_evolution_keeps_norm(n, seed, delta_omega, t):
    assert_normalized(free_evolve(random_dicke(n, seed), delta_omega, t))


@check
@given(n_ions, angles)
def test_ghz_preparation_keeps_norm(n, phi0):
    reg, _ = prepare_ghz(new_register(n), phi0)
    assert_normalized(reg)


@check
@given(st.integers(2, 6), angles, st.data())
def test_ghz_admixture_keeps_norm(n, phi0, data):
    amplitude = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    epsilon = data.draw(st.dictionaries(st.integers(1, n - 1), amplitude, min_size=1))
    ghz = dicke_ghz(n, np.array([1.0, np.exp(1j * phi0)]) / np.sqrt(2))
    assert_normalized(perturb_ghz(ghz, ImperfectionSpec(epsilon=epsilon)))


@check
@given(n_ions, angles, st.booleans())
def test_inverse_sequence_undoes_ghz_preparation(n, phi0, via_bus):
    ground = new_register(n, has_bus=via_bus)
    prepare = prepare_ghz_via_bus if via_bus else prepare_ghz
    reg, seq = prepare(ground, phi0)
    back = seq.inverse().apply(reg)
    np.testing.assert_allclose(back.amplitudes, ground.amplitudes, rtol=0, atol=NORM_TOL)


def random_batch(n: int, has_bus: bool, seed: int, size: int) -> tuple[list, QubitRegister]:
    """``size`` random states, alone and stacked into one batched register."""
    singles = [random_register(n, has_bus, seed + k) for k in range(size)]
    return singles, QubitRegister(n, has_bus, np.stack([r.amplitudes for r in singles]))


def assert_rows_match(batch: QubitRegister, singles: list) -> None:
    want = np.stack([r.amplitudes for r in singles])
    assert batch.amplitudes.shape == want.shape
    np.testing.assert_allclose(batch.amplitudes, want, rtol=0, atol=NORM_TOL)


@check
@given(n_ions, st.booleans(), seeds, rows, angles, angles, st.data())
def test_batched_rotation_matches_rows(n, has_bus, seed, size, theta, phi, data):
    pulse = Rot(theta, phi, tuple(data.draw(st.sets(st.integers(1, n), min_size=1))))
    singles, batch = random_batch(n, has_bus, seed, size)
    assert_rows_match(apply_rotation(batch, pulse), [apply_rotation(r, pulse) for r in singles])


@check
@given(n_ions, seeds, rows, angles, st.floats(0.0, 1e3))
def test_batched_free_evolution_matches_rows(n, seed, size, delta_omega, t):
    singles = [random_dicke(n, seed + k) for k in range(size)]
    batch = DickeState(n, np.stack([s.dicke for s in singles]))
    got = free_evolve(batch, delta_omega, t).dicke
    assert np.array_equal(got, [free_evolve(s, delta_omega, t).dicke for s in singles])


@check
@given(n_ions, angles, st.booleans(), seeds, rows)
def test_batched_reverse_prep_matches_rows(n, phi0, via_bus, seed, size):
    prepare = prepare_ghz_via_bus if via_bus else prepare_ghz
    _, seq = prepare(new_register(n, has_bus=via_bus), phi0)
    singles, batch = random_batch(n, via_bus, seed, size)
    assert_rows_match(reverse_prep(batch, seq), [reverse_prep(r, seq) for r in singles])


GHZ_PROTOCOLS = (Protocol.GHZ_PARITY, Protocol.GHZ_REVERSED)
PHI0S = (0.3, 1.7, -2.9, 6.0)


def _phi0_shift(cfg: RamseyConfig, phi0s=PHI0S) -> float:
    """The largest move of cfg's expected signal over a T_R scan when its
    phi0 (0 in cfg) is set to each of ``phi0s``."""
    ts = np.linspace(0.1, 3.0, 7)
    base = expected_signal(cfg, t_ramsey=ts)
    return max(np.max(np.abs(expected_signal(replace(cfg, phi0=phi0), t_ramsey=ts) - base))
               for phi0 in phi0s)


@check
@given(st.integers(1, 12), st.sampled_from(GHZ_PROTOCOLS), st.floats(-2.0, 2.0),
       st.floats(-np.pi, np.pi), st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3))
def test_phi0_moves_no_admixture_free_ghz_signal(n, protocol, delta_omega, final_phase, phi0s):
    # Every GHZ close tracks phi0: the parity pulse phase (phi0 - phi_f)/L +
    # pi/2, or the inverse opening pulse.
    cfg = RamseyConfig(n_ions=n, t_ramsey=1.0, omega_r=delta_omega, omega_0=0.0,
                       protocol=protocol, final_phase=final_phase, allow_wrap=True)
    assert _phi0_shift(cfg, PHI0S + tuple(phi0s)) <= 1e-12


@pytest.mark.parametrize("protocol,epsilon", [
    (Protocol.GHZ_PARITY, {1: 0.1, 3: 0.05j}),
    (Protocol.GHZ_REVERSED, {2: 0.2}),
])
def test_phi0_moves_a_paired_admixture(protocol, epsilon):
    # An admixture's phase is set against |dn...dn>, not against the
    # e^{i phi0} on |up...up>, so phi0 is no gauge once epsilon pairs with
    # the GHZ components in the readout: at L = 4 it moves the signal by
    # about 0.02 (parity) and 0.076 (time-reversed).
    cfg = RamseyConfig(n_ions=4, t_ramsey=1.0, omega_r=0.37, omega_0=0.0, protocol=protocol,
                       imperfection=ImperfectionSpec(epsilon), allow_wrap=True)
    assert _phi0_shift(cfg) > 0.01
