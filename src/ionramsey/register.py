"""The Dicke engine: the symmetric subspace every Ramsey run lives in, and
the Born tables and the samplers that read it out.

Conventions (fixed; everything downstream relies on them):

* Bit value 0 of an ion = |dn> (ground), 1 = |up>.
* Single-qubit rotations use
  ``R(theta, phi) = exp[-i(theta/2)(cos(phi) sx + sin(phi) sy)]``,
  whose matrix in the (|dn>, |up>) basis is
  ``[[cos(t/2), -i e^{-i phi} sin(t/2)], [-i e^{i phi} sin(t/2), cos(t/2)]]``.
  The inverse of ``R(theta, phi)`` is ``R(theta, phi + pi)``.
* GHZ preparation opens with R(pi/2, phi0 + pi/2) on ion 1
  (:func:`_opening_phase`), which leaves e^{i phi0} on |up...up>.
* In the frame rotating at the drive frequency, a basis state with ``p``
  ions excited acquires phase ``exp(+i p delta_omega t)`` under free
  evolution with detuning ``delta_omega`` (drive minus atomic frequency).
* Every readout depends only on ion 1's bit b and the count k of ions up
  among ions 2..L, so a z measurement returns the readout class b L + k,
  and a sampled shot is kept as that class; reading it out (counting ions,
  parity, ion 1's spin) is the protocol's job, in one place:
  :meth:`.protocols.Protocol.outcomes`.

Every state the Ramsey protocols prepare is symmetric under permuting the
ions: GHZ preparation, its admixtures, collective pi/2 pulses (spin-L/2
rotations, one cached matrix per L) and free evolution never leave the
(L + 1)-dimensional Dicke subspace. A :class:`DickeState` holds such a state,
or a batch of them, and free evolution acts on it alone. Its closing readout
leaves a (2, L) Born table per state, which expectation mode averages,
:func:`sample_measurement` samples shot by shot, in one CDF search of the
uniforms it is given, and :func:`sample_counts` tallies by readout class.
Dephasing makes the state mixed, but its density matrix stays invariant
under permuting the ions, so its table is reached from the same L + 1
amplitudes: the closing kernels damp the coherences that dephasing decays
(:func:`born_table_pulse`, :func:`born_table_reversed`) or flip each ion's
reading (:func:`dephase_pulse_table`). No function here holds a 2**L array;
the dense register and the gate-level circuits, the tests' independent
reference, are in :mod:`.gates`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError

MAX_IONS = 24


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


def _check_capacity(n_ions: int) -> None:
    if not 1 <= n_ions <= MAX_IONS:
        raise CapacityError(f"n_ions must be in [1, {MAX_IONS}], got {n_ions}")


def dicke_product(n_ions: int, ion: np.ndarray) -> DickeState:
    """Every ion in the single-ion state ``ion`` (amplitudes of |dn>, |up>):
    ``d_p = sqrt(C(L, p)) ion[0]**(L - p) ion[1]**p``."""
    _check_capacity(n_ions)
    p = np.arange(n_ions + 1)
    dicke = _root_binomials(n_ions) * ion[0] ** (n_ions - p) * ion[1] ** p
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


@lru_cache(maxsize=None)
def _root_binomials(n: int) -> np.ndarray:
    """``sqrt(C(n, p))`` for p in [0, n], shared and read only: a Dicke
    state's amplitude scale."""
    row = np.sqrt(_binomials(n)[n])
    row.flags.writeable = False
    return row


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


def _opening_phase(phi0: float) -> float:
    """Phase of the R(pi/2, .) pulse on ion 1 that opens GHZ preparation:
    after the star circuit's CNOTs, |up...up> carries e^{i phi0}. The inverse
    pulse, which closes the time-reversed readout, has this phase + pi."""
    return phi0 + np.pi / 2


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


# ---------------------------------------------------------------------------
# Born tables, and the two samplers that draw shots or class counts from them
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
    C(L, j) q(j). Its terms are products of non-negatives, so every mass is.
    The integer exponents and offsets are cached per L."""
    n = table.shape[-1]
    binom, (i, stay_flips, rise_keeps, gap, rising) = _binomials(n), _flip_counts(n)
    keep, flip = (1 + r) / 2, (1 - r) / 2
    stay = binom * keep**i * flip**stay_flips  # [j, a]
    rise = binom[::-1] * flip**i * keep**rise_keeps  # [j, w - a]
    counts = np.concatenate((table[0], table[1, -1:])) * binom[n]
    probs = np.einsum("j,ja,jaw->w", counts, stay, np.where(rising, rise[:, gap], 0.0))
    probs /= binom[n]
    dephased = np.empty((2, n))
    dephased[0], dephased[1] = probs[:-1], probs[1:]
    return dephased


@lru_cache(maxsize=None)
def _flip_counts(n: int) -> tuple[np.ndarray, ...]:
    """The L-only integer arrays of :func:`dephase_pulse_table`, shared and
    read only: the counts i in [0, n]; the flips j - a that stay [j, a] takes
    and the keeps n - j - (w - a) of rise [j, w - a], both floored at 0; the
    offsets ``gap`` [a, w] = w - a, and where they are >= 0."""
    i = np.arange(n + 1)
    gap = i - i[:, None]
    arrays = (i, np.maximum(i[:, None] - i, 0), np.maximum(n - i[:, None] - i, 0), gap, gap >= 0)
    for array in arrays:
        array.flags.writeable = False
    return arrays


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
    scale_sq, scale = _binomials(n)[n, :n], _root_binomials(n)[:n]
    amps = np.empty((*d.shape[:-1], 2, n), dtype=complex)  # C order: a batch's rows like a lone table
    for b in (0, 1):
        amps[..., b, :] = (mat[b, 0] * d[..., :n] + mat[b, 1] * d[..., :0:-1]) / scale
    table = np.abs(amps) ** 2
    if coherence is None:
        return table
    apart = (np.abs(mat[:, :1] * d[:n]) ** 2 + np.abs(mat[:, 1:] * d[:0:-1]) ** 2) / scale_sq
    return coherence * table + (1 - coherence) * apart


def _class_masses(table: np.ndarray) -> np.ndarray:
    """The 2L normalised class masses of a (2, L) Born table, in class order:
    cell [b, k] times the C(L - 1, k) basis indices of class b L + k, over
    their sum. A fresh array, which :func:`sample_measurement` accumulates in
    place."""
    n = table.shape[-1]
    mass = (table * _binomials(n - 1)[n - 1, :n]).reshape(2 * n)
    mass /= np.add.reduce(mass)  # the sum, without its wrapper
    return mass


def sample_counts(table: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """How many of ``shots`` Born-rule z measurements of a (2, L) Born table
    fall in each readout class, in class order (``int64``, length 2L): one
    ``rng.multinomial(shots, masses)`` draw over :func:`_class_masses`. The
    counts follow the law of :func:`sample_measurement`'s classes, tallied,
    at O(L) cost whatever ``shots``."""
    return rng.multinomial(shots, _class_masses(table))


def sample_measurement(table: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Readout classes (``int64``) of Born-rule z measurements of a (2, L)
    Born table, one per uniform in [0, 1); any other uniform, NaN among
    them, raises ``ValueError``. Class b L + k holds the C(L - 1, k) basis
    indices of cell [b, k]; the CDF of the class masses (:func:`_class_masses`)
    is inverted as ``Generator.choice`` does, so ``uniforms = rng.random(n)``
    draws what ``rng.choice(2 L, n, p=...)`` would: the class of u is the
    number of CDF values <= u, ``cdf.searchsorted(u, side="right")``."""
    mass = _class_masses(table)
    cdf = np.add.accumulate(mass, out=mass)  # the cumsum, without its wrapper
    cdf /= cdf[-1]
    u = np.asarray(uniforms, dtype=float)
    if u.size and not (np.minimum.reduce(u, None) >= 0.0 and np.maximum.reduce(u, None) < 1.0):
        raise ValueError("uniforms must lie in [0, 1), and none may be NaN")
    return cdf.searchsorted(u, side="right").astype(np.int64, copy=False)
