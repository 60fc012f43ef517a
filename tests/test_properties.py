"""Property checks: every state operation keeps the norm, a GHZ
preparation's gate sequence inverts exactly, and on a batch of states
``(B, 2**n)`` (or of Dicke amplitudes ``(B, n + 1)``) every operation
matches the same operation on each row alone.

Registers hold up to 6 ions (plus the optional bus). Hypothesis runs
derandomized with a small example budget, so the suite stays deterministic
and fast.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ionramsey import (
    ImperfectionSpec,
    PulseSpec,
    QubitRegister,
    apply_rotation,
    free_evolve,
    new_register,
    perturb_ghz,
    prepare_ghz,
    prepare_ghz_via_bus,
    reverse_prep,
)
from ionramsey.register import DickeState, dicke_ghz

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
    assert_normalized(apply_rotation(reg, PulseSpec(theta, phi, tuple(targets))))


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
    pulse = PulseSpec(theta, phi, tuple(data.draw(st.sets(st.integers(1, n), min_size=1))))
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
