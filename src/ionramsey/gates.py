"""The gate-level Cirac–Zoller scheme on a dense state-vector register: the
register, pulses, CNOT, the bus-mediated CNOT and GHZ preparation.

Conventions (fixed; the tests' dense oracles rely on them):

* A :class:`QubitRegister` holds the ``2**n`` amplitudes of L ions and,
  optionally, one motional bus qubit. Basis index bits: ion 1 is the most
  significant bit, ion L the least significant ion bit, and the bus qubit
  (if present) the very least significant bit. Bit value 0 = |dn> (ground),
  1 = |up>; pulses are :func:`.register.rotation_matrix`.
* Registers are values: every operation returns a new register and leaves
  its input untouched. ``amplitudes`` may carry leading batch axes,
  ``(..., 2**n)``, one state a row; pulses and gates act on each row as on
  that state alone.

No kernel transposes the state. A pulse applies Kronecker blocks of its 2x2
rotation (identity on the non-targets inside a block), each with one matmul:
a register of up to five qubits is one block, a larger one runs in windows
of four qubits counted back from the last. CNOT copies each block of the
state once; the ion-bus SWAP is three CNOTs.

The bus-mediated controlled-NOT follows the three-step scheme used in ion
traps (Cirac & Zoller, PRL 74, 4091, 1995): (1) map the internal state of
ion ``i`` onto the shared bus qubit, (2) CNOT from the bus onto ion ``j``,
(3) map the bus back onto ion ``i``. With ideal gates this equals a direct
``cnot(i, j)`` on the ion subspace and returns the bus exactly to its
ground state.

GHZ preparation uses the star circuit — one pi/2 pulse on ion 1, then ion 1
controls a CNOT onto each other ion — and returns the gate list that built
the state, so the exact time-reversed sequence can be replayed later to map
an accumulated phase back onto ion 1.

A gate sequence is a tuple of frozen gate descriptors (``Rot``, ``Cnot``,
``BusMap``) that can be applied to a register and inverted. Indices are
1-based ion indices; inside a ``Cnot``, index 0 (``BUS``) denotes the bus
qubit (produced by the routed-circuit variants). The Ramsey pipeline does
not run these circuits: it works in the Dicke subspace of :mod:`.register`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ProtocolError
from .register import _check_capacity, _opening_phase, rotation_matrix

_BLOCK_QUBITS = 4  # a pulse runs in Kronecker blocks of up to 16 x 16 ...
_ONE_BLOCK_QUBITS = 5  # ... or as one block on a register of up to 5 qubits
_I2 = np.eye(2, dtype=np.complex128)
_BUS_GROUND_TOL = 1e-12
BUS = 0  # index meaning "the bus qubit" inside a Cnot descriptor


@dataclass
class QubitRegister:
    """State vector (or batch of them) over ``n_ions`` ions and, optionally,
    one bus qubit."""

    n_ions: int
    has_bus: bool
    amplitudes: np.ndarray

    @property
    def n_qubits(self) -> int:
        return self.n_ions + (1 if self.has_bus else 0)

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits


def new_register(n_ions: int, has_bus: bool = False) -> QubitRegister:
    """All ions (and bus) in |dn>: amplitude 1 on basis index 0."""
    _check_capacity(n_ions)
    n_qubits = n_ions + (1 if has_bus else 0)
    amplitudes = np.zeros(1 << n_qubits, dtype=np.complex128)
    amplitudes[0] = 1.0
    return QubitRegister(n_ions=n_ions, has_bus=has_bus, amplitudes=amplitudes)


@dataclass(frozen=True)
class Rot:
    """Resonant pulse R(theta, phi) on each of ``targets``: 1-based ion
    indices, stored sorted and without repeats; the bus cannot be pulsed."""

    theta: float
    phi: float
    targets: tuple[int, ...]

    def __post_init__(self) -> None:
        targets = tuple(sorted(set(int(i) for i in self.targets)))
        object.__setattr__(self, "targets", targets)
        if not targets:
            raise ValueError("pulse needs at least one target ion")
        if targets[0] < 1:
            raise ValueError(f"ion indices are 1-based, got {targets[0]}")

    def inverse(self) -> "Rot":
        return Rot(self.theta, self.phi + np.pi, self.targets)


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


def _qubit_axis(reg: QubitRegister, ion: int) -> int:
    """Tensor axis of an ion once amplitudes are reshaped to [2]*n_qubits.

    Ion 1 is the most significant bit and therefore the first axis.
    """
    if not 1 <= ion <= reg.n_ions:
        raise ValueError(f"ion index {ion} out of range [1, {reg.n_ions}]")
    return ion - 1


def _bus_axis(reg: QubitRegister) -> int:
    if not reg.has_bus:
        raise ValueError("register has no bus qubit")
    return reg.n_qubits - 1


def _axis_of(reg: QubitRegister, index: int) -> int:
    """Tensor axis for an ion index, with 0 meaning the bus qubit."""
    if index == BUS:
        return _bus_axis(reg)
    return _qubit_axis(reg, index)


def apply_matrix_on_axis(
    amplitudes: np.ndarray, mat: np.ndarray, axis: int, n_qubits: int
) -> np.ndarray:
    """Apply a ``2**k x 2**k`` block to the k qubits from ``axis`` on of flat
    amplitudes ``(..., 2**n)``; ``axis`` counts qubits, after any batch axes.

    One matmul, no transpose: a block that ends at the last qubit is
    ``(rows, 2**k) @ mat.T``, any other is ``mat @`` the ``(pre, 2**k, post)``
    view, one gemm a ``pre`` slice.
    """
    size = len(mat)
    post = (1 << (n_qubits - axis)) // size
    if post > 1:
        return (mat @ amplitudes.reshape(-1, size, post)).reshape(amplitudes.shape)
    return (amplitudes.reshape(-1, size) @ mat.T).reshape(amplitudes.shape)


def _blocks(axes: list[int], n_qubits: int) -> list[tuple[int, int]]:
    """``(first qubit, width)`` of the Kronecker blocks that cover the sorted
    target ``axes``: windows of ``_BLOCK_QUBITS`` counted back from the last
    qubit, each trimmed to its targets, except that the last window keeps the
    qubits after its targets (the bus, say), so it stays one ``(rows, 2**k)``
    product. A register of at most ``_ONE_BLOCK_QUBITS`` is one block, since
    a block that starts at the first qubit runs one gemm per batch row."""
    if n_qubits <= _ONE_BLOCK_QUBITS:
        return [(0, n_qubits)]
    blocks = []
    for end in range(n_qubits, 0, -_BLOCK_QUBITS):
        inside = [q for q in axes if end - _BLOCK_QUBITS <= q < end]
        if inside:
            last = n_qubits if end == n_qubits else inside[-1] + 1
            blocks.append((inside[0], last - inside[0]))
    return blocks


def _kron(factors: list[np.ndarray]) -> np.ndarray:
    """Kronecker product of 2x2 factors, the first on the most significant
    qubit; a few times cheaper per call than chained ``np.kron``."""
    block = factors[-1]
    for f in reversed(factors[:-1]):
        block = (f[:, None, :, None] * block[None, :, None, :]).reshape(2 * len(block), -1)
    return block


def apply_rotation(reg: QubitRegister, pulse: Rot) -> QubitRegister:
    """Apply R(theta, phi) to every target ion; non-targets untouched. A
    target the register lacks raises ``ValueError``."""
    mat = rotation_matrix(pulse.theta, pulse.phi)
    axes = [_qubit_axis(reg, ion) for ion in pulse.targets]
    amps = reg.amplitudes
    for first, width in _blocks(axes, reg.n_qubits):
        block = _kron([mat if q in axes else _I2 for q in range(first, first + width)])
        amps = apply_matrix_on_axis(amps, block, first, reg.n_qubits)
    return QubitRegister(reg.n_ions, reg.has_bus, amps)


def bus_purity(reg: QubitRegister) -> float:
    """Purity of the reduced bus state; 1.0 iff bus is unentangled."""
    axis = _bus_axis(reg)
    psi = np.moveaxis(reg.amplitudes.reshape([2] * reg.n_qubits), axis, -1)
    a = psi.reshape(-1, 2)
    rho = a.conj().T @ a
    return float(np.real(np.trace(rho @ rho)))


def _apply_gate(reg: QubitRegister, gate: Gate) -> QubitRegister:
    if isinstance(gate, Rot):
        return apply_rotation(reg, gate)
    if isinstance(gate, Cnot):
        return _cnot_axes(reg, _axis_of(reg, gate.control), _axis_of(reg, gate.target))
    if isinstance(gate, BusMap):
        return bus_map(reg, gate.ion)
    raise TypeError(f"unknown gate descriptor {gate!r}")


def _cnot_kernel(amplitudes: np.ndarray, control: int, target: int, n_qubits: int) -> np.ndarray:
    """CNOT between two qubit axes of amplitudes ``(..., 2**n)`` in one pass:
    the control's |1> half has its target bit reversed, and every block of a
    fresh array is written once, from its source block."""
    lo, hi = sorted((control, target))
    src = amplitudes.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << (n_qubits - hi - 1))
    out = np.empty_like(src)
    if control < target:
        out[:, 0], out[:, 1] = src[:, 0], src[:, 1, :, ::-1]
    else:
        out[:, :, :, 0], out[:, :, :, 1] = src[:, :, :, 0], src[:, ::-1, :, 1]
    return out.reshape(amplitudes.shape)


def _cnot_axes(reg: QubitRegister, axis_c: int, axis_t: int) -> QubitRegister:
    if axis_c == axis_t:
        raise ValueError("control and target must differ")
    amps = _cnot_kernel(reg.amplitudes, axis_c, axis_t, reg.n_qubits)
    return QubitRegister(reg.n_ions, reg.has_bus, amps)


def cnot(reg: QubitRegister, control: int, target: int) -> QubitRegister:
    """Direct CNOT between two ions."""
    return _cnot_axes(reg, _qubit_axis(reg, control), _qubit_axis(reg, target))


def bus_map(reg: QubitRegister, ion: int) -> QubitRegister:
    """Swap an ion's internal state with the bus qubit (its own inverse), as
    three CNOTs: ion onto bus, bus onto ion, ion onto bus."""
    a, b, amps = _qubit_axis(reg, ion), _bus_axis(reg), reg.amplitudes
    for control, target in ((a, b), (b, a), (a, b)):
        amps = _cnot_kernel(amps, control, target, reg.n_qubits)
    return QubitRegister(reg.n_ions, reg.has_bus, amps)


def _bus_excited_weight(reg: QubitRegister) -> float:
    """The largest weight on the bus's |up> over the rows of the register
    (the bus bit is least significant)."""
    return float(np.max(np.sum(np.abs(reg.amplitudes[..., 1::2]) ** 2, axis=-1)))


def cn_sequence(i: int, j: int) -> tuple[Gate, ...]:
    """Descriptors of the three-step bus-mediated CNOT between ions i and j."""
    return (BusMap(i), Cnot(BUS, j), BusMap(i))


def cn_via_bus(reg: QubitRegister, i: int, j: int) -> QubitRegister:
    """CNOT between ions i and j mediated by the bus qubit.

    Requires the bus in its ground state at entry, in every row; it is
    returned there, unentangled, on exit.
    """
    if i == j:
        raise ValueError("control and target must differ")
    if not reg.has_bus:
        raise ProtocolError("cn_via_bus needs a register with a bus qubit")
    if _bus_excited_weight(reg) > _BUS_GROUND_TOL:
        raise ProtocolError("bus qubit must be in its ground state at entry")
    return GateSequence(cn_sequence(i, j)).apply(reg)


def _require_ground(reg: QubitRegister, what: str) -> None:
    """Raise unless every row of the register is the all-ground state."""
    if np.any(np.abs(reg.amplitudes[..., 0] - 1.0) > 1e-9):
        raise ProtocolError(f"{what} expects the register in the all-ground state")


def prepare_ghz(reg: QubitRegister, phi0: float = 0.0) -> tuple[QubitRegister, GateSequence]:
    """Entangle all ions into (|dn...dn> + e^{i phi0}|up...up>)/sqrt(2).

    The relative phase phi0 is folded into the phase of the opening pi/2
    pulse (pulse phase phi0 + pi/2 makes the excited amplitude exactly
    e^{i phi0} after the CNOT ladder), so the returned GateSequence consists
    only of Rot/Cnot descriptors and replays to the same state.
    """
    _require_ground(reg, "prepare_ghz")
    gates: list[Gate] = [Rot(np.pi / 2, _opening_phase(phi0), (1,))]
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
    gates: list[Gate] = [Rot(np.pi / 2, _opening_phase(phi0), (1,))]
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
