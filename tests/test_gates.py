"""Gate-layer checks.

The two-qubit primitives are validated against dense matrices assembled by
enumerating basis indices directly (independent of the tensor-reshape code
under test), the bus-mediated controlled-NOT is compared exhaustively
with the direct two-ion gate, and a batch of registers is prepared row by
row.
"""

import numpy as np
import pytest

from ionramsey import ProtocolError
from ionramsey.gates import (
    BUS,
    BusMap,
    Cnot,
    GateSequence,
    QubitRegister,
    Rot,
    _cnot_kernel,
    bus_map,
    bus_purity,
    cn_sequence,
    cn_via_bus,
    cnot,
    new_register,
    prepare_ghz,
    prepare_ghz_via_bus,
    reverse_prep,
)


def dense_cnot(n_qubits, control_bit, target_bit):
    """Oracle: permutation matrix from basis-index bit arithmetic.

    Bits are counted from the most significant end (bit 0 = first axis).
    """
    dim = 1 << n_qubits
    mat = np.zeros((dim, dim))
    for i in range(dim):
        c = (i >> (n_qubits - 1 - control_bit)) & 1
        j = i ^ (c << (n_qubits - 1 - target_bit))
        mat[j, i] = 1.0
    return mat


def dense_swap(n_qubits, bit_a, bit_b):
    dim = 1 << n_qubits
    mat = np.zeros((dim, dim))
    for i in range(dim):
        a = (i >> (n_qubits - 1 - bit_a)) & 1
        b = (i >> (n_qubits - 1 - bit_b)) & 1
        j = i
        if a != b:
            j ^= (1 << (n_qubits - 1 - bit_a)) | (1 << (n_qubits - 1 - bit_b))
        mat[j, i] = 1.0
    return mat


def random_register(n_ions, has_bus, rng, bus_ground=False):
    dim = 2 ** (n_ions + has_bus)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    if bus_ground:
        amps = amps.reshape(-1, 2)
        amps[:, 1] = 0.0
        amps = amps.ravel()
    amps = amps / np.linalg.norm(amps)
    return QubitRegister(n_ions, has_bus, amps)


class TestTwoQubitPrimitives:
    @pytest.mark.parametrize("control,target", [(1, 2), (2, 1), (1, 3), (3, 2)])
    def test_cnot_matches_dense_oracle(self, control, target):
        rng = np.random.default_rng(control * 10 + target)
        reg = random_register(3, False, rng)
        got = cnot(reg, control, target)
        dense = dense_cnot(3, control - 1, target - 1)
        np.testing.assert_allclose(got.amplitudes, dense @ reg.amplitudes, atol=1e-12)

    def test_cnot_with_bus_register(self):
        rng = np.random.default_rng(9)
        reg = random_register(2, True, rng)
        got = cnot(reg, 1, 2)
        dense = dense_cnot(3, 0, 1)  # bus occupies the last bit, untouched
        np.testing.assert_allclose(got.amplitudes, dense @ reg.amplitudes, atol=1e-12)

    def test_bus_map_matches_dense_swap(self):
        rng = np.random.default_rng(13)
        reg = random_register(2, True, rng)
        got = bus_map(reg, 2)
        dense = dense_swap(3, 1, 2)  # ion 2 is bit 1, bus is bit 2
        np.testing.assert_allclose(got.amplitudes, dense @ reg.amplitudes, atol=1e-12)

    def test_cnot_rejects_bad_indices(self):
        reg = new_register(2)
        with pytest.raises(ValueError):
            cnot(reg, 1, 1)
        with pytest.raises(ValueError):
            cnot(reg, 1, 3)


def permuted(amps, n_qubits, bit_a, bit_b, kind):
    """Oracle: CNOT (control bit_a) or SWAP by basis-index arithmetic on the
    last axis; both are involutions, so output j reads input j's image."""
    idx = np.arange(1 << n_qubits)
    mask_a, mask_b = 1 << (n_qubits - 1 - bit_a), 1 << (n_qubits - 1 - bit_b)
    a, b = (idx & mask_a) > 0, (idx & mask_b) > 0
    flip = np.where(a, mask_b, 0) if kind == "cnot" else np.where(a != b, mask_a | mask_b, 0)
    return amps[..., idx ^ flip]


class TestTwoQubitKernel:
    @pytest.mark.parametrize("kind", ["cnot", "swap"])
    @pytest.mark.parametrize("n_qubits", [2, 3, 5])
    def test_equals_index_permutation(self, n_qubits, kind):
        # CNOT on every ordered axis pair; SWAP, three CNOTs, between each
        # ion and a bus on the last axis.
        rng = np.random.default_rng(n_qubits)
        last = n_qubits - 1
        for rows in ((), (3,), (2, 2)):
            amps = rng.normal(size=rows + (1 << n_qubits,)) + 0j
            for a in range(n_qubits):
                for b in range(n_qubits):
                    if kind == "cnot" and a != b:
                        got = _cnot_kernel(amps, a, b, n_qubits)
                    elif kind == "swap" and a < b == last:
                        got = bus_map(QubitRegister(last, True, amps), a + 1).amplitudes
                    else:
                        continue
                    assert np.array_equal(got, permuted(amps, n_qubits, a, b, kind))

    def test_bus_gates_equal_index_permutation(self):
        reg = random_register(3, True, np.random.default_rng(5))
        bus_cnot = GateSequence((Cnot(BUS, 2),)).apply(reg).amplitudes
        assert np.array_equal(bus_cnot, permuted(reg.amplitudes, 4, 3, 1, "cnot"))
        assert np.array_equal(bus_map(reg, 1).amplitudes, permuted(reg.amplitudes, 4, 0, 3, "swap"))


class TestBusMediatedGate:
    @pytest.mark.parametrize("n_ions", [2, 3, 4])
    def test_equivalence_on_all_basis_states(self, n_ions):
        # Exhaustive: every ion-basis state (bus cooled to ground), every
        # ordered control/target pair.
        dim = 2 ** (n_ions + 1)
        pairs = [
            (i, j)
            for i in range(1, n_ions + 1)
            for j in range(1, n_ions + 1)
            if i != j
        ]
        worst = 0.0
        for control, target in pairs:
            for ion_bits in range(2**n_ions):
                amps = np.zeros(dim, dtype=complex)
                amps[ion_bits << 1] = 1.0  # bus bit (LSB) = 0
                reg = QubitRegister(n_ions, True, amps)
                via_bus = cn_via_bus(reg, control, target)
                direct = cnot(reg, control, target)
                worst = max(
                    worst,
                    float(np.max(np.abs(via_bus.amplitudes - direct.amplitudes))),
                )
                assert bus_purity(via_bus) == pytest.approx(1.0, abs=1e-12)
        assert worst < 1e-12

    def test_equivalence_on_random_superpositions(self):
        rng = np.random.default_rng(42)
        for trial in range(25):
            n_ions = int(rng.integers(2, 5))
            reg = random_register(n_ions, True, rng, bus_ground=True)
            control, target = rng.choice(np.arange(1, n_ions + 1), 2, replace=False)
            via_bus = cn_via_bus(reg, int(control), int(target))
            direct = cnot(reg, int(control), int(target))
            np.testing.assert_allclose(
                via_bus.amplitudes, direct.amplitudes, atol=1e-12
            )
            assert bus_purity(via_bus) == pytest.approx(1.0, abs=1e-12)

    def test_requires_ground_bus(self):
        reg = new_register(2, has_bus=True)
        reg = bus_map(reg, 1)  # ion 1 is down so bus stays 0... excite ion first
        amps = np.zeros(8, dtype=complex)
        amps[1] = 1.0  # bus excited
        hot = QubitRegister(2, True, amps)
        with pytest.raises(ProtocolError):
            cn_via_bus(hot, 1, 2)

    def test_requires_bus_qubit(self):
        with pytest.raises(ProtocolError):
            cn_via_bus(new_register(2), 1, 2)

    def test_three_step_sequence_shape(self):
        seq = cn_sequence(2, 3)
        assert seq == (BusMap(2), Cnot(BUS, 3), BusMap(2))


class TestGhzPreparation:
    @pytest.mark.parametrize("n_ions", [1, 2, 3, 4, 5, 6])
    def test_two_component_structure(self, n_ions):
        reg, _ = prepare_ghz(new_register(n_ions), phi0=0.0)
        probs = np.abs(reg.amplitudes) ** 2
        nonzero = np.flatnonzero(probs > 1e-12)
        np.testing.assert_array_equal(nonzero, [0, reg.dim - 1])
        np.testing.assert_allclose(probs[nonzero], 0.5, atol=1e-12)

    def test_relative_phase_control(self):
        phi0 = 0.83
        reg, _ = prepare_ghz(new_register(3), phi0=phi0)
        a_down = reg.amplitudes[0]
        a_up = reg.amplitudes[-1]
        rel = np.angle(a_up / a_down)
        assert rel == pytest.approx(phi0, abs=1e-12)

    @pytest.mark.parametrize("n_ions", [2, 3, 4])
    def test_bus_route_equals_direct_route(self, n_ions):
        direct, _ = prepare_ghz(new_register(n_ions), phi0=0.4)
        via_bus, _ = prepare_ghz_via_bus(new_register(n_ions, has_bus=True), phi0=0.4)
        # Bus must be exactly in the ground state: compare the ion factor.
        bus_amps = via_bus.amplitudes.reshape(-1, 2)
        np.testing.assert_allclose(bus_amps[:, 1], 0.0, atol=1e-12)
        np.testing.assert_allclose(bus_amps[:, 0], direct.amplitudes, atol=1e-12)
        assert bus_purity(via_bus) == pytest.approx(1.0, abs=1e-12)

    def test_reverse_prep_returns_to_ground(self):
        for n_ions in (2, 4):
            reg, seq = prepare_ghz(new_register(n_ions), phi0=1.2)
            back = reverse_prep(reg, seq)
            want = np.zeros(reg.dim)
            want[0] = 1.0
            np.testing.assert_allclose(back.amplitudes, want, atol=1e-12)

    def test_reverse_prep_rejects_a_foreign_sequence(self):
        # A sequence that addresses an ion, or a bus, the register lacks.
        _, seq = prepare_ghz(new_register(4), phi0=0.3)
        with pytest.raises(ValueError):
            reverse_prep(new_register(3), seq)
        _, bus_seq = prepare_ghz_via_bus(new_register(2, has_bus=True), phi0=0.3)
        with pytest.raises(ValueError):
            reverse_prep(new_register(2), bus_seq)


class TestBatches:
    """Gates act on each row of a batch as on that state alone; the entry
    checks look at every row."""

    @pytest.mark.parametrize("rows", [1, 2])
    @pytest.mark.parametrize("via_bus", [False, True])
    def test_ground_batch_prepares_each_row_alone(self, via_bus, rows):
        prepare = prepare_ghz_via_bus if via_bus else prepare_ghz
        lone = new_register(3, has_bus=via_bus)
        batch = QubitRegister(3, via_bus, np.tile(lone.amplitudes, (rows, 1)))
        got, seq = prepare(batch, 0.4)
        want, want_seq = prepare(lone, 0.4)
        assert seq == want_seq
        assert np.array_equal(got.amplitudes, np.tile(want.amplitudes, (rows, 1)))

    @pytest.mark.parametrize("via_bus", [False, True])
    def test_batch_with_one_excited_row_is_refused(self, via_bus):
        prepare = prepare_ghz_via_bus if via_bus else prepare_ghz
        amps = np.tile(new_register(3, has_bus=via_bus).amplitudes, (3, 1))
        amps[1] = np.roll(amps[1], 2)  # ion 3 (or, with the bus, ion 2) up
        with pytest.raises(ProtocolError):
            prepare(QubitRegister(3, via_bus, amps), 0.4)

    def test_bus_check_takes_the_worst_row(self):
        # Each row's bus weight is under the tolerance; their sum is not.
        amps = np.zeros((4, 8), dtype=complex)
        amps[:, 0], amps[:, 1] = np.sqrt(1 - 0.6e-12), np.sqrt(0.6e-12)
        batch = QubitRegister(2, True, amps)
        got = cn_via_bus(batch, 1, 2).amplitudes
        assert np.array_equal(got, [cn_via_bus(QubitRegister(2, True, row), 1, 2).amplitudes
                                    for row in amps])
        amps[2, 1] = 1e-3
        with pytest.raises(ProtocolError):
            cn_via_bus(QubitRegister(2, True, amps), 1, 2)


class TestGateSequences:
    def test_inverse_on_random_states(self):
        rng = np.random.default_rng(3)
        for trial in range(100):
            n_ions = int(rng.integers(1, 4))
            has_bus = bool(rng.integers(0, 2))
            reg = random_register(n_ions, has_bus, rng)
            kinds = ["rot"]
            if n_ions >= 2:
                kinds.append("cnot")
            if has_bus:
                kinds.append("busmap")
            gates = []
            for _ in range(int(rng.integers(1, 8))):
                kind = kinds[rng.integers(len(kinds))]
                if kind == "rot":
                    ion = int(rng.integers(1, n_ions + 1))
                    theta, phi = rng.uniform(0, 2 * np.pi, size=2)
                    gates.append(Rot(float(theta), float(phi), (ion,)))
                elif kind == "cnot":
                    c, t = rng.choice(np.arange(1, n_ions + 1), 2, replace=False)
                    gates.append(Cnot(int(c), int(t)))
                else:
                    gates.append(BusMap(int(rng.integers(1, n_ions + 1))))
            seq = GateSequence(tuple(gates))
            out = seq.inverse().apply(seq.apply(reg))
            np.testing.assert_allclose(out.amplitudes, reg.amplitudes, atol=1e-11)
