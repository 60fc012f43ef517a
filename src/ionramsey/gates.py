"""Quantum-logic layer: CNOT, bus-mediated CNOT, and GHZ preparation.

The bus-mediated controlled-NOT follows the three-step scheme used in ion
traps: (1) map the internal state of ion ``i`` onto the shared bus qubit,
(2) CNOT from the bus onto ion ``j``, (3) map the bus back onto ion ``i``.
With ideal gates this equals a direct ``cnot(i, j)`` on the ion subspace and
returns the bus exactly to its ground state.

GHZ preparation uses the star circuit — one pi/2 pulse on ion 1, then ion 1
controls a CNOT onto each other ion — and returns the gate list that built
the state, so the exact time-reversed sequence can be replayed later to map
an accumulated phase back onto ion 1.

A gate sequence is a tuple of frozen gate descriptors (``Rot``, ``Cnot``,
``BusMap``) that can be applied to a register and inverted. Indices are
1-based ion indices; inside a ``Cnot``, index 0 (``BUS``) denotes the bus
qubit (produced by the routed-circuit variants). Gates act row by row on a
batch of states (see :mod:`.register`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ProtocolError
from .register import (
    PulseSpec,
    QubitRegister,
    _bus_axis,
    _qubit_axis,
    apply_rotation,
)

_BUS_GROUND_TOL = 1e-12
BUS = 0  # index meaning "the bus qubit" inside a Cnot descriptor


@dataclass(frozen=True)
class Rot:
    ion: int
    theta: float
    phi: float

    def inverse(self) -> "Rot":
        return Rot(self.ion, self.theta, self.phi + np.pi)


@dataclass(frozen=True)
class Cnot:
    control: int
    target: int

    def inverse(self) -> "Cnot":
        return self


@dataclass(frozen=True)
class BusMap:
    """Swap the internal state of one ion with the bus qubit."""

    ion: int

    def inverse(self) -> "BusMap":
        return self


Gate = Rot | Cnot | BusMap


@dataclass(frozen=True)
class GateSequence:
    gates: tuple[Gate, ...]

    def inverse(self) -> "GateSequence":
        return GateSequence(tuple(g.inverse() for g in reversed(self.gates)))

    def apply(self, reg: QubitRegister) -> QubitRegister:
        for gate in self.gates:
            reg = _apply_gate(reg, gate)
        return reg


def _axis_of(reg: QubitRegister, index: int) -> int:
    """Tensor axis for an ion index, with 0 meaning the bus qubit."""
    if index == BUS:
        return _bus_axis(reg)
    return _qubit_axis(reg, index)


def _apply_gate(reg: QubitRegister, gate: Gate) -> QubitRegister:
    if isinstance(gate, Rot):
        return apply_rotation(reg, PulseSpec(gate.theta, gate.phi, (gate.ion,)))
    if isinstance(gate, Cnot):
        return _cnot_axes(reg, _axis_of(reg, gate.control), _axis_of(reg, gate.target))
    if isinstance(gate, BusMap):
        return bus_map(reg, gate.ion)
    raise TypeError(f"unknown gate descriptor {gate!r}")


def _two_qubit_op(
    amplitudes: np.ndarray, axis_a: int, axis_b: int, n_qubits: int, kind: str
) -> np.ndarray:
    """Apply CNOT (control = axis_a) or SWAP between two qubit axes of
    amplitudes ``(..., 2**n)`` in one pass: every block of a fresh array is
    written once, from its source block."""
    lo, hi = sorted((axis_a, axis_b))
    src = amplitudes.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << (n_qubits - hi - 1))
    out = np.empty_like(src)
    if kind == "swap":
        out[...] = src.swapaxes(1, 3)  # the two bit axes trade places
    elif kind == "cnot":  # the control's |1> half has its target bit reversed
        if axis_a < axis_b:
            out[:, 0], out[:, 1] = src[:, 0], src[:, 1, :, ::-1]
        else:
            out[:, :, :, 0], out[:, :, :, 1] = src[:, :, :, 0], src[:, ::-1, :, 1]
    else:
        raise ValueError(kind)
    return out.reshape(amplitudes.shape)


def _cnot_axes(reg: QubitRegister, axis_c: int, axis_t: int) -> QubitRegister:
    if axis_c == axis_t:
        raise ValueError("control and target must differ")
    amps = _two_qubit_op(reg.amplitudes, axis_c, axis_t, reg.n_qubits, "cnot")
    return QubitRegister(reg.n_ions, reg.has_bus, amps)


def cnot(reg: QubitRegister, control: int, target: int) -> QubitRegister:
    """Direct CNOT between two ions."""
    if control == target:
        raise ValueError("control and target must differ")
    return _cnot_axes(reg, _qubit_axis(reg, control), _qubit_axis(reg, target))


def bus_map(reg: QubitRegister, ion: int) -> QubitRegister:
    """Swap an ion's internal state with the bus qubit (its own inverse)."""
    axis_i = _qubit_axis(reg, ion)
    axis_b = _bus_axis(reg)
    amps = _two_qubit_op(reg.amplitudes, axis_i, axis_b, reg.n_qubits, "swap")
    return QubitRegister(reg.n_ions, reg.has_bus, amps)


def _bus_excited_weight(reg: QubitRegister) -> float:
    psi = np.abs(reg.amplitudes.reshape(-1, 2)) ** 2  # bus bit is least significant
    return float(psi[:, 1].sum())


def cn_sequence(i: int, j: int) -> tuple[Gate, ...]:
    """Descriptors of the three-step bus-mediated CNOT between ions i and j."""
    return (BusMap(i), Cnot(BUS, j), BusMap(i))


def cn_via_bus(reg: QubitRegister, i: int, j: int) -> QubitRegister:
    """CNOT between ions i and j mediated by the bus qubit.

    Requires the bus in its ground state at entry; it is returned there,
    unentangled, on exit.
    """
    if i == j:
        raise ValueError("control and target must differ")
    if not reg.has_bus:
        raise ProtocolError("cn_via_bus needs a register with a bus qubit")
    if _bus_excited_weight(reg) > _BUS_GROUND_TOL:
        raise ProtocolError("bus qubit must be in its ground state at entry")
    return GateSequence(cn_sequence(i, j)).apply(reg)


def _require_ground(reg: QubitRegister, what: str) -> None:
    if abs(reg.amplitudes[0] - 1.0) > 1e-9:
        raise ProtocolError(f"{what} expects the register in the all-ground state")


def _opening_pulse(phi0: float) -> Rot:
    """The star circuit's pi/2 pulse on ion 1, phase phi0 + pi/2."""
    return Rot(1, np.pi / 2, phi0 + np.pi / 2)


def prepare_ghz(reg: QubitRegister, phi0: float = 0.0) -> tuple[QubitRegister, GateSequence]:
    """Entangle all ions into (|dn...dn> + e^{i phi0}|up...up>)/sqrt(2).

    The relative phase phi0 is folded into the phase of the opening pi/2
    pulse (pulse phase phi0 + pi/2 makes the excited amplitude exactly
    e^{i phi0} after the CNOT ladder), so the returned GateSequence consists
    only of Rot/Cnot descriptors and replays to the same state.
    """
    _require_ground(reg, "prepare_ghz")
    gates: list[Gate] = [_opening_pulse(phi0)]
    gates.extend(Cnot(1, k) for k in range(2, reg.n_ions + 1))
    seq = GateSequence(tuple(gates))
    return seq.apply(reg), seq


def prepare_ghz_via_bus(
    reg: QubitRegister, phi0: float = 0.0
) -> tuple[QubitRegister, GateSequence]:
    """GHZ preparation with every CNOT routed through the bus qubit."""
    if not reg.has_bus:
        raise ProtocolError("prepare_ghz_via_bus needs a register with a bus qubit")
    _require_ground(reg, "prepare_ghz_via_bus")
    gates: list[Gate] = [_opening_pulse(phi0)]
    for k in range(2, reg.n_ions + 1):
        gates.extend(cn_sequence(1, k))
    seq = GateSequence(tuple(gates))
    return seq.apply(reg), seq


def reverse_prep(reg: QubitRegister, seq: GateSequence) -> QubitRegister:
    """Replay the exact inverse of a preparation sequence.

    Right after ``prepare_ghz`` this restores all-|dn>. After free evolution
    for time t at detuning dw it concentrates the accumulated phase on ion 1:
    ion 1's <Sz> oscillates as cos(n_ions * dw * t) (amplitude 1/2) while
    ions 2..L return to |dn>. A gate on an ion (or bus) the register lacks
    raises ``ValueError``.
    """
    return seq.inverse().apply(reg)
