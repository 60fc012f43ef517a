"""Property checks: every state operation keeps the norm, and a GHZ
preparation's gate sequence inverts exactly.

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
    apply_phase_noise,
    apply_rotation,
    free_evolve,
    new_register,
    perturb_ghz,
    prepare_ghz,
    prepare_ghz_via_bus,
)

NORM_TOL = 1e-12
check = settings(derandomize=True, deadline=None, max_examples=30, database=None)

n_ions = st.integers(1, 6)
angles = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
seeds = st.integers(0, 2**32 - 1)


def random_register(n: int, has_bus: bool, seed: int) -> QubitRegister:
    rng = np.random.default_rng(seed)
    dim = 1 << (n + has_bus)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return QubitRegister(n, has_bus, amps / np.linalg.norm(amps))


def assert_normalized(reg: QubitRegister) -> None:
    assert abs(np.linalg.norm(reg.amplitudes) - 1.0) <= NORM_TOL


@check
@given(n_ions, st.booleans(), seeds, angles, angles, st.data())
def test_rotation_keeps_norm(n, has_bus, seed, theta, phi, data):
    targets = data.draw(st.sets(st.integers(1, n), min_size=1))
    reg = random_register(n, has_bus, seed)
    assert_normalized(apply_rotation(reg, PulseSpec(theta, phi, tuple(targets))))


@check
@given(n_ions, st.booleans(), seeds, angles, st.floats(0.0, 1e3))
def test_free_evolution_keeps_norm(n, has_bus, seed, delta_omega, t):
    assert_normalized(free_evolve(random_register(n, has_bus, seed), delta_omega, t))


@check
@given(n_ions, st.booleans(), seeds, st.data())
def test_phase_noise_keeps_norm(n, has_bus, seed, data):
    phases = data.draw(st.lists(angles, min_size=n, max_size=n))
    assert_normalized(apply_phase_noise(random_register(n, has_bus, seed), np.array(phases)))


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
    reg, _ = prepare_ghz(new_register(n), phi0)
    assert_normalized(perturb_ghz(reg, ImperfectionSpec(epsilon=epsilon)))


@check
@given(n_ions, angles, st.booleans())
def test_inverse_sequence_undoes_ghz_preparation(n, phi0, via_bus):
    ground = new_register(n, has_bus=via_bus)
    prepare = prepare_ghz_via_bus if via_bus else prepare_ghz
    reg, seq = prepare(ground, phi0)
    back = seq.inverse().apply(reg)
    np.testing.assert_allclose(back.amplitudes, ground.amplitudes, rtol=0, atol=NORM_TOL)
