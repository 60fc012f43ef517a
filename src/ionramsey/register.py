"""Dense state-vector register for a chain of two-level ions plus an
optional bus qubit, and the symmetric subspace every run prepares in.

Conventions (fixed; everything downstream relies on them):

* Basis index bits: ion 1 is the most significant bit, ion L the least
  significant ion bit, and the bus qubit (if present) the very least
  significant bit. Bit value 0 = |dn> (ground), 1 = |up>.
* Single-qubit rotations use
  ``R(theta, phi) = exp[-i(theta/2)(cos(phi) sx + sin(phi) sy)]``,
  whose matrix in the (|dn>, |up>) basis is
  ``[[cos(t/2), -i e^{-i phi} sin(t/2)], [-i e^{i phi} sin(t/2), cos(t/2)]]``.
  The inverse of ``R(theta, phi)`` is ``R(theta, phi + pi)``.
* In the frame rotating at the drive frequency, a basis state with ``p``
  ions excited acquires phase ``exp(+i p delta_omega t)`` under free
  evolution with detuning ``delta_omega`` (drive minus atomic frequency).
* Every readout depends only on ion 1's bit b and the count k of ions up
  among ions 2..L, so a z measurement returns the readout class b L + k;
  reading it out (counting ions, parity, ion 1's spin) is the protocol's
  job, in one place: :meth:`.protocols.Protocol.outcomes`.

Registers are values: every operation returns a new register and leaves its
input untouched. ``amplitudes`` may carry leading batch axes, ``(..., 2**n)``,
one state a row; pulses and gates act on each row as on that state alone.

No kernel transposes the state. A pulse applies Kronecker blocks of its 2x2
rotation (identity on the non-targets inside a block), each with one matmul:
a register of up to five qubits is one block, a larger one runs in windows
of four qubits counted back from the last. CNOT and SWAP (:mod:`.gates`)
copy each block of the state once.

Every state the Ramsey protocols prepare is symmetric under permuting the
ions: GHZ preparation, its admixtures, collective pi/2 pulses (spin-L/2
rotations, one cached matrix per L) and free evolution never leave the
(L + 1)-dimensional Dicke subspace. A :class:`DickeState` holds such a state,
or a batch of them, and free evolution acts on it alone. Its closing readout
leaves a (2, L) Born table per state, which expectation mode averages and
:func:`sample_measurement` samples. Dephasing makes the state mixed, but its
density matrix stays invariant under permuting the ions, so its table is
reached from the same L + 1 amplitudes: the closing kernels damp the
coherences that dephasing decays (:func:`born_table_pulse`,
:func:`born_table_reversed`) or flip each ion's reading
(:func:`dephase_pulse_table`). The dense register serves the gate-level
circuits of :mod:`.gates`, the tests' independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CapacityError

MAX_IONS = 24
_BLOCK_QUBITS = 4  # a pulse runs in Kronecker blocks of up to 16 x 16 ...
_ONE_BLOCK_QUBITS = 5  # ... or as one block on a register of up to 5 qubits
_I2 = np.eye(2, dtype=np.complex128)


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


@dataclass
class DickeState:
    """A state of ``n_ions`` ions that is symmetric under permuting them, as
    its L + 1 amplitudes on the Dicke states |D_p> (the normalised sum of
    the C(L, p) basis states with p ions excited): basis index x has
    amplitude ``dicke[|x|] / sqrt(C(L, |x|))``, |x| its popcount.

    It has no ``amplitudes`` field: code that sizes a dense register by
    that field (perfbench's tracer among it) must not mistake this for one.
    """

    n_ions: int
    dicke: np.ndarray


@dataclass(frozen=True)
class PulseSpec:
    """Resonant pulse: rotation angle ``theta``, phase ``phi``, target ions.

    ``targets`` are 1-based ion indices; the bus cannot be pulsed.
    """

    theta: float
    phi: float
    targets: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        targets = tuple(sorted(set(int(i) for i in self.targets)))
        object.__setattr__(self, "targets", targets)
        if not targets:
            raise ValueError("pulse needs at least one target ion")
        if targets[0] < 1:
            raise ValueError(f"ion indices are 1-based, got {targets[0]}")


def _check_capacity(n_ions: int) -> None:
    if not 1 <= n_ions <= MAX_IONS:
        raise CapacityError(f"n_ions must be in [1, {MAX_IONS}], got {n_ions}")


def new_register(n_ions: int, has_bus: bool = False) -> QubitRegister:
    """All ions (and bus) in |dn>: amplitude 1 on basis index 0."""
    _check_capacity(n_ions)
    n_qubits = n_ions + (1 if has_bus else 0)
    amplitudes = np.zeros(1 << n_qubits, dtype=np.complex128)
    amplitudes[0] = 1.0
    return QubitRegister(n_ions=n_ions, has_bus=has_bus, amplitudes=amplitudes)


def dicke_product(n_ions: int, ion: np.ndarray) -> DickeState:
    """Every ion in the single-ion state ``ion`` (amplitudes of |dn>, |up>):
    ``d_p = sqrt(C(L, p)) ion[0]**(L - p) ion[1]**p``."""
    _check_capacity(n_ions)
    p = np.arange(n_ions + 1)
    dicke = np.sqrt(_binomials(n_ions)[n_ions]) * ion[0] ** (n_ions - p) * ion[1] ** p
    return DickeState(n_ions, dicke)


def dicke_ghz(n_ions: int, ion: np.ndarray) -> DickeState:
    """``ion[0] |dn...dn> + ion[1] |up...up>``: what :func:`.gates.prepare_ghz`
    builds from the column ``ion`` of its opening pulse."""
    _check_capacity(n_ions)
    dicke = np.zeros(n_ions + 1, dtype=np.complex128)
    dicke[0], dicke[n_ions] = ion[0], ion[1]
    return DickeState(n_ions, dicke)


@lru_cache(maxsize=None)
def _binomials(n: int) -> np.ndarray:
    """``C(m, k)`` at ``[m, k]`` for m, k in [0, n], 0 where k > m: a shared
    read-only float table, exact up to ``MAX_IONS``."""
    table = np.zeros((n + 1, n + 1))
    table[:, 0] = 1.0
    for m in range(1, n + 1):
        table[m, 1:] = table[m - 1, 1:] + table[m - 1, :-1]
    table.flags.writeable = False
    return table


def rotation_matrix(theta: float, phi: float) -> np.ndarray:
    """2x2 matrix of R(theta, phi) in the (|dn>, |up>) basis."""
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    return np.array(
        [
            [c, -1j * np.exp(-1j * phi) * s],
            [-1j * np.exp(1j * phi) * s, c],
        ],
        dtype=np.complex128,
    )


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


def apply_rotation(reg: QubitRegister, pulse: PulseSpec) -> QubitRegister:
    """Apply R(theta, phi) to every target ion; non-targets untouched."""
    if pulse.targets[-1] > reg.n_ions:
        raise ValueError(
            f"pulse targets ion {pulse.targets[-1]} but register has {reg.n_ions}"
        )
    mat = rotation_matrix(pulse.theta, pulse.phi)
    axes = [_qubit_axis(reg, ion) for ion in pulse.targets]
    amps = reg.amplitudes
    for first, width in _blocks(axes, reg.n_qubits):
        block = _kron([mat if q in axes else _I2 for q in range(first, first + width)])
        amps = apply_matrix_on_axis(amps, block, first, reg.n_qubits)
    return QubitRegister(reg.n_ions, reg.has_bus, amps)


@lru_cache(maxsize=None)
def _phase_rates(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``1j p`` and ``-1j p`` for p in [0, n], shared and read only: the
    phase per unit angle of |D_p> under free evolution and under the inner
    diagonal of a collective pulse (:func:`born_table_pulse`)."""
    rates = 1j * np.arange(n + 1), -1j * np.arange(n + 1)
    for rate in rates:
        rate.flags.writeable = False
    return rates


def free_evolve(
    state: DickeState, delta_omega: float | np.ndarray, t: float | np.ndarray
) -> DickeState:
    """Accumulate detuning phase exp(+i p delta_omega t) on the p-excitation
    Dicke amplitude; 1-D arrays of ``delta_omega`` and/or ``t`` evolve one
    batch row an entry. The rates ``1j p`` are cached per L."""
    t = np.asarray(t, dtype=float)
    if (t < 0).any() if t.ndim else float(t) < 0:
        raise ValueError(f"evolution time must be >= 0, got {np.min(t)}")
    # dw and t as the complex values the products would cast them to, cast once.
    dw = np.asarray(delta_omega, dtype=float).astype(complex)[..., None]
    table = np.exp(_phase_rates(state.n_ions)[0] * dw * t.astype(complex)[..., None])
    return DickeState(state.n_ions, state.dicke * table)


def bus_purity(reg: QubitRegister) -> float:
    """Purity of the reduced bus state; 1.0 iff bus is unentangled."""
    axis = _bus_axis(reg)
    psi = np.moveaxis(reg.amplitudes.reshape([2] * reg.n_qubits), axis, -1)
    a = psi.reshape(-1, 2)
    rho = a.conj().T @ a
    return float(np.real(np.trace(rho @ rho)))


# ---------------------------------------------------------------------------
# Born tables, and the one sampler that draws shots from them
# ---------------------------------------------------------------------------
#
# Each readout below leaves a state whose Born probability of basis index x
# depends only on ion 1's bit b and the count k of ions up among ions 2..L:
# its Born table q, shape (2, L), holds it at q[b, k].


@lru_cache(maxsize=None)
def _pulse_matrix(n: int) -> np.ndarray:
    """``W[c, p]``, shared and read only: the amplitude of one basis index
    with popcount c after U = R(pi/2, -pi/2) = [[1, 1], [-1, 1]] / sqrt(2) on
    every ion of |D_p>. Ion by ion, a bit that ends |up> contributes U1x and
    one that ends |dn> U0x, x its bit before, so W[c, p] is the z**p
    coefficient of (z - 1)**c (1 + z)**(n - c), over sqrt(2**n C(n, p))."""
    binom = _binomials(n)
    signs = (-1.0) ** np.arange(n + 1)
    coeffs = np.array([np.convolve(signs[c::-1] * binom[c, : c + 1], binom[n - c, : n - c + 1])
                       for c in range(n + 1)])  # integers below 2**n: exact
    matrix = coeffs / np.sqrt(2.0**n * binom[n])
    matrix.flags.writeable = False
    return matrix


def born_table_pulse(
    state: DickeState, phi: float | np.ndarray, coherence: np.ndarray | None = None
) -> np.ndarray:
    """Born table after the collective pulse R(pi/2, phi), for a state or
    each row of a batch; a 1-D ``phi`` pulses row k with phi[k].

    R(pi/2, phi) = P R(pi/2, -pi/2) P^-1 with P = diag(1, e^{i psi}), psi =
    phi + pi/2, which is e^{i p psi} on |D_p>: the pulse is :func:`_pulse_matrix`
    W between two diagonal phases, and the outer one drops out of ``q[b, k] =
    |a[b + k]|**2``, ``a = W (e^{-i p psi} d_p)``. The real and imaginary
    parts are the rows of one real gemm, so a lone state runs a batch's. W
    and the inner phase rates ``-1j p`` are cached per L.

    With ``coherence``, a real symmetric (L + 1)-square matrix, a lone state
    is the density matrix rho_pq = d_p d_q* coherence[p, q] (common-mode
    dephasing), and ``q[b, k]`` is entry b + k of the diagonal of W rho W^T,
    rho between the inner phases: O(L**3). Only its real part reaches that
    diagonal; a mass that rounding leaves below 0 is clipped to 0."""
    n = state.n_ions
    psi = np.asarray(phi, dtype=complex)[..., None] + np.pi / 2  # real part phi + pi/2
    pulsed = state.dicke * np.exp(_phase_rates(n)[1] * psi)
    if coherence is not None:
        w = _pulse_matrix(n)
        rho = np.outer(pulsed, pulsed.conj()).real * coherence
        probs = np.maximum(np.sum((w @ rho) * w, axis=-1), 0.0)
    else:
        rows = pulsed.reshape(-1, n + 1)
        parts = np.concatenate([rows.real, rows.imag]) @ _pulse_matrix(n).T
        np.square(parts, out=parts)
        probs = (parts[: len(rows)] + parts[len(rows) :]).reshape(pulsed.shape)
    table = np.empty((*pulsed.shape[:-1], 2, n))
    table[..., 0, :] = probs[..., :-1]
    table[..., 1, :] = probs[..., 1:]
    return table


def dephase_pulse_table(table: np.ndarray, r: float) -> np.ndarray:
    """The Born table of a collective pi/2-pulse readout once independent
    dephasing has damped each ion's coherence by ``r``, from the noiseless
    ``table`` of a lone state.

    The pulse measures each ion along an equatorial axis n, with projector
    (1 + n.sigma) / 2 for |up>. Moved onto it, the dephasing leaves
    (1 + r n.sigma) / 2: each ion reads what the noiseless readout would with
    probability s = (1 + r) / 2 and the other bit with f = (1 - r) / 2,
    independently of the rest. So the count w of ions read up is the
    noiseless count j under those flips, a of the j staying up and w - a of
    the other L - j flipping up: the stochastic matrix K[j, w], the t**w
    coefficient of (f + s t)**j (s + f t)**(L - j), acts on the count masses
    C(L, j) q(j). Its terms are products of non-negatives, so every mass is."""
    n = table.shape[-1]
    binom, i = _binomials(n), np.arange(n + 1)
    keep, flip = (1 + r) / 2, (1 - r) / 2
    stay = binom * keep**i * flip ** np.maximum(i[:, None] - i, 0)  # [j, a]
    rise = binom[::-1] * flip**i * keep ** np.maximum(n - i[:, None] - i, 0)  # [j, w - a]
    gap = i - i[:, None]  # [a, w]: w - a
    counts = np.append(table[0], table[1, -1]) * binom[n]
    probs = np.einsum("j,ja,jaw->w", counts, stay, np.where(gap >= 0, rise[:, gap], 0.0))
    probs /= binom[n]
    return np.stack([probs[:-1], probs[1:]])


def born_table_reversed(
    state: DickeState, mat: np.ndarray, coherence: float | np.ndarray | None = None
) -> np.ndarray:
    """Born table after the inverse star circuit, for a state or each row of
    a batch: CNOTs from ion 1 onto every other ion, then the 2x2 rotation
    ``mat`` on ion 1 (the inverse of :func:`.gates.prepare_ghz`'s opening
    pulse). The CNOTs map (b, y) to (b, y xor b...b), so an index whose ions
    2..L hold y, k = |y|, has amplitude
    ``(mat[b, 0] d_k + mat[b, 1] d_(L-k)) / sqrt(C(L, k))``: O(L) work.

    With ``coherence`` (a scalar, or one entry per k), a lone state's cross
    term between d_k and d_(L-k) is damped by it: the table is ``coherence q +
    (1 - coherence) q_apart``, q_apart the table without that term."""
    n, d = state.n_ions, state.dicke
    scale_sq = _binomials(n)[n, :n]
    scale = np.sqrt(scale_sq)
    amps = [(mat[b, 0] * d[..., :n] + mat[b, 1] * d[..., :0:-1]) / scale for b in (0, 1)]
    table = np.abs(np.stack(amps, axis=-2)) ** 2  # C order, a batch's rows like a lone table
    if coherence is None:
        return table
    apart = (np.abs(mat[:, :1] * d[:n]) ** 2 + np.abs(mat[:, 1:] * d[:0:-1]) ** 2) / scale_sq
    return coherence * table + (1 - coherence) * apart


def sample_measurement(table: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Readout classes (``int64``) of Born-rule z measurements of a (2, L)
    Born table, one per uniform in [0, 1). Class b L + k holds the
    C(L - 1, k) basis indices of cell [b, k]; the class masses are
    normalised and their CDF inverted as ``Generator.choice`` does, so
    ``uniforms = rng.random(n)`` draws what ``rng.choice(2 L, n, p=...)``
    would. :meth:`.protocols.Protocol.outcomes` maps the classes to a
    protocol's record outcomes.
    """
    n = table.shape[-1]
    mass = (table * _binomials(n - 1)[n - 1, :n]).reshape(2 * n)
    mass /= mass.sum()
    cdf = np.cumsum(mass, out=mass)
    cdf /= cdf[-1]
    classes = cdf.searchsorted(np.asarray(uniforms, dtype=float), side="right")
    return classes.astype(np.int64, copy=False)
