"""Ramsey experiments and estimators.

Protocols
---------
* Standard Ramsey on L unentangled ions: pi/2 pulse on all ions, free
  evolution for T_R at detuning dw = omega_R - omega_0, closing pi/2 pulse.
  With the phase conventions below the expected excited-state fraction is
  ``p_up = (1 - C cos(dw T_R + phi_f)) / 2`` (contrast C = 1 noise-free).
* GHZ Ramsey: the entangling preparation acts as the first Ramsey pulse.
  Readout is either ``final_pulse`` — a pi/2 pulse on every ion followed by
  a parity measurement, giving normalized parity
  ``S = C cos(L dw T_R + phi_f)`` — or ``time_reversed`` — replay of the
  inverted preparation circuit, which maps the accumulated phase onto ion 1
  so that ``-2 <Sz>_1 = C cos(L dw T_R)`` while ions 2..L return to |dn>.

:class:`Protocol` names these three variants; a :class:`RamseyConfig`
carries one, and every pipeline below runs whichever it carries. A sampled
shot is its readout class; each protocol maps classes once to record outcomes
and to the signal, which the estimator weighs by class counts and expectation
mode by Born probabilities before inverting the protocol's fringe model
(:attr:`Protocol.fringe`), with no per-protocol branch elsewhere.

Pulse-phase bookkeeping (fixed here, verified in tests): the standard
protocol's closing pulse has phase ``pi - phi_f``; the GHZ final readout
pulse has per-ion phase ``(phi0 - phi_f)/L + pi/2``; GHZ preparation folds
phi0 into its opening pulse.

Estimation inverts the fringe on the principal arccos branch, which is exact
for the cosine model and reduces to the usual maximum-slope linearization at
the half-fringe operating point. The quoted uncertainty is
``sigma_S / |dS/d omega|`` with sigma_S the standard error of the per-shot
signal mean, which the shots' readout-class counts fix.

Both a sampled mode (projective shots) and an expectation mode (exact
expectations, no statistics) are first-class: :func:`run_ramsey` and
:func:`expected_signal` run every protocol. Every run prepares its state
once, as L + 1 Dicke amplitudes (:class:`.register.DickeState`), and one
function, :func:`_table`, evolves and closes them into a Born table.
Expectation mode averages the signal over the noiseless table, for one T_R
or a whole scan. A sampled run passes its noise, None when noiseless (see
:class:`RamseyConfig`), and gets the dephased density matrix's table: the
mean of every dephasing trajectory's table, and so the law each independent
shot follows. No run holds a 2**L array. A sampled run keeps each shot's
class (:func:`.register.sample_measurement`); a scan point of :mod:`.bench`
draws only the class counts (:func:`.register.sample_counts`), and
:func:`estimate_frequency` turns either's counts into an estimate. The tests
check the tables against the gate-level circuits of :mod:`.gates`, the
dense density matrix and dense trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    AmbiguousFringeError,
    ConvergenceError,
    DegenerateSlopeError,
    FitError,
)
from .noise import ImperfectionSpec, NoiseSpec, _coherence_decay, perturb_ghz
from .register import (
    DickeState,
    _binomials,
    _opening_phase,
    born_table_pulse,
    born_table_reversed,
    dephase_pulse_table,
    dicke_ghz,
    dicke_product,
    free_evolve,
    rotation_matrix,
    sample_measurement,
)

DEFAULT_MAX_ITER = 50
AMPLITUDE_FLOOR = 1e-10  # a fitted fringe below this fraction of the signal's scale is rounding
_FIT_STEPS = 100  # Gauss-Newton steps a fringe fit may take


class Protocol(Enum):
    """One Ramsey protocol; the value is its record tag.

    ``family`` (``standard`` or ``ghz``) is the name configs and benchmark
    tables use; ``readout`` is ``final_pulse`` or, for GHZ only,
    ``time_reversed``. The readout is defined once, by :meth:`outcomes` and
    the class signal (:func:`_class_signal`); the record table writes the
    outcomes of measured classes, :meth:`expected` averages the signal over a
    Born table, and :attr:`fringe` is the cosine model the estimator inverts.
    """

    STANDARD = "standard"
    GHZ_PARITY = "ghz_parity"
    GHZ_REVERSED = "ghz_reversed"

    @classmethod
    def named(cls, family: str, readout: str) -> Protocol:
        """The protocol a (family, readout) config pair selects."""
        for protocol in cls:
            if (protocol.family, protocol.readout) == (family, readout):
                return protocol
        raise ValueError(
            f"no protocol {family!r} with readout {readout!r} (standard takes "
            "final_pulse; ghz takes final_pulse or time_reversed)"
        )

    @property
    def family(self) -> str:
        return "standard" if self is Protocol.STANDARD else "ghz"

    @property
    def readout(self) -> str:
        return "time_reversed" if self is Protocol.GHZ_REVERSED else "final_pulse"

    def multiplier(self, n_ions: int) -> int:
        """Fringe-frequency factor m: the signal oscillates as cos(m dw T_R)."""
        return 1 if self is Protocol.STANDARD else n_ions

    @property
    def fringe(self) -> tuple[float, float]:
        """``(offset, scale)``: the expected signal is offset + scale C
        cos(m dw T_R + phi), with m the :meth:`multiplier`, C the contrast and
        phi the :meth:`readout_phase`."""
        return (0.5, -0.5) if self is Protocol.STANDARD else (0.0, 1.0)

    def readout_phase(self, final_phase: float) -> float:
        """The fringe phase phi; the time-reversed readout cancels phi_f."""
        return 0.0 if self is Protocol.GHZ_REVERSED else final_phase

    def outcomes(self, classes: np.ndarray, n_ions: int) -> np.ndarray:
        """Record outcomes (float64) of readout classes b L + k (ion 1's bit
        b, k ions up among ions 2..L): the count L - b - k of ions found |dn>
        (standard), the parity sign +-1 of that count (GHZ parity) or ion 1's
        spin b - 1/2 (GHZ time-reversed)."""
        return _class_outcomes(self, n_ions).take(classes)

    def expected(self, table: np.ndarray) -> float | np.ndarray:
        """Expected signal of a C-ordered Born table (a float), or of each of a
        batch ``(..., 2, L)``: its dot with :func:`_signal_weights`, each row
        by the BLAS dot that one table gets."""
        n_ions = table.shape[-1]
        flat = table.reshape(*table.shape[:-2], 2 * n_ions)
        value = np.vecdot(flat, _signal_weights(self, n_ions))
        return float(value) if value.ndim == 0 else value


@lru_cache(maxsize=None)
def _class_outcomes(protocol: Protocol, n_ions: int) -> np.ndarray:
    """:meth:`Protocol.outcomes` of every readout class, in class order: shared, read only."""
    b, k = np.divmod(np.arange(2 * n_ions), n_ions)
    n_down = n_ions - b - k
    if protocol is Protocol.STANDARD:
        table = n_down.astype(np.float64)
    elif protocol is Protocol.GHZ_PARITY:
        table = np.where(n_down % 2 == 0, 1.0, -1.0)
    else:
        table = b - 0.5
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _class_signal(protocol: Protocol, n_ions: int) -> np.ndarray:
    """The per-shot fringe signal of every readout class, in class order, whose
    mean is :meth:`Protocol.expected`: shared, read only."""
    outcomes = _class_outcomes(protocol, n_ions)
    if protocol is Protocol.STANDARD:
        signal = (n_ions - outcomes) / n_ions  # excited fraction per shot
    elif protocol is Protocol.GHZ_REVERSED:
        signal = -2.0 * outcomes  # +-1, mean C cos(L dw T)
    else:
        signal = outcomes  # parity signs +-1
    signal.flags.writeable = False
    return signal


@lru_cache(maxsize=None)
def _signal_weights(protocol: Protocol, n_ions: int) -> np.ndarray:
    """Born table cell (b, k), flat: C(L - 1, k) indices (ion 1's bit b, k ions
    up among the rest) times the signal of their class. Shared, read only."""
    k = np.arange(2 * n_ions) % n_ions
    weights = _binomials(n_ions - 1)[n_ions - 1, k] * _class_signal(protocol, n_ions)
    weights.flags.writeable = False
    return weights


@dataclass(frozen=True)
class RamseyConfig:
    """One Ramsey experiment's worth of settings.

    ``omega_0`` is simulation truth; the experimenter knob is ``omega_r``.
    ``final_phase`` is the phase offset phi_f the readout exposes (ignored
    by the time_reversed readout, which cancels all preparation phases).
    ``imperfection`` perturbs the GHZ preparation, so the standard protocol
    rejects it. A zero-rate ``noise`` is stored as None: a noiseless run
    has one spelling. ``allow_wrap`` lifts a sampled run's ambiguity guard for
    deliberate multi-fringe runs; expectation mode has no such guard.
    """

    n_ions: int
    t_ramsey: float
    omega_r: float
    omega_0: float
    noise: NoiseSpec | None = None
    imperfection: ImperfectionSpec | None = None
    protocol: Protocol = Protocol.GHZ_PARITY
    final_phase: float = 0.0
    phi0: float = 0.0
    shots: int = 1
    allow_wrap: bool = False

    def __post_init__(self) -> None:
        if self.n_ions < 1:
            raise ValueError(f"n_ions must be >= 1, got {self.n_ions}")
        if self.t_ramsey <= 0:
            raise ValueError(f"t_ramsey must be > 0, got {self.t_ramsey}")
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        if not isinstance(self.protocol, Protocol):
            raise ValueError(f"protocol must be a Protocol, got {self.protocol!r}")
        if self.protocol is Protocol.STANDARD and self.imperfection is not None:
            raise ValueError(
                "an imperfection (epsilon) perturbs the GHZ preparation; "
                "the standard protocol has none"
            )
        if self.protocol is Protocol.STANDARD and self.phi0 != 0.0:
            raise ValueError(
                "phi0 is the GHZ relative phase; the standard protocol's "
                "opening pulse has phase 0"
            )
        if self.noise is not None and self.noise.gamma == 0.0:
            object.__setattr__(self, "noise", None)

    @property
    def delta_omega(self) -> float:
        return self.omega_r - self.omega_0


# ---------------------------------------------------------------------------
# State pipeline
# ---------------------------------------------------------------------------


def _prepare_dicke(cfg: RamseyConfig) -> DickeState:
    """The prepared state as L + 1 Dicke amplitudes: the opening pulse's
    column on every ion (standard), or the GHZ pair plus any admixture. The
    admixture-free state is shared and read only (:func:`_pure_state`)."""
    state = _pure_state(cfg.protocol.family, cfg.n_ions, cfg.phi0)
    return state if cfg.imperfection is None else perturb_ghz(state, cfg.imperfection)


@lru_cache(maxsize=64)
def _pure_state(family: str, n_ions: int, phi0: float) -> DickeState:
    """The admixture-free prepared state of a protocol family, with read-only
    amplitudes; the standard opening pulse has phase 0."""
    if family == "standard":
        state = dicke_product(n_ions, rotation_matrix(np.pi / 2, 0.0)[:, 0])
    else:
        state = dicke_ghz(n_ions, rotation_matrix(np.pi / 2, _opening_phase(phi0))[:, 0])
    state.dicke.flags.writeable = False
    return state


@lru_cache(maxsize=64)
def _reversed_close(phi0: float) -> np.ndarray:
    """The 2x2 rotation that ends the time-reversed readout, the inverse of
    the opening pulse at ``phi0``; read only."""
    mat = rotation_matrix(np.pi / 2, _opening_phase(phi0) + np.pi)
    mat.flags.writeable = False
    return mat


def _table(
    state: DickeState, cfg: RamseyConfig, t, dw, final_phase, noise: NoiseSpec | None = None
) -> np.ndarray:
    """The Born table of a :func:`_prepare_dicke` state evolved for ``t`` at
    detuning ``dw`` and closed by cfg's readout at readout phase
    ``final_phase``, one batch row per entry of 1-D ``t``, ``dw`` or
    ``final_phase`` (which the time-reversed readout ignores, row by row).
    The close is the collective pi/2 pulse at phase pi - phi_f (standard) or
    (phi0 - phi_f)/L + pi/2 (GHZ parity), or the inverse star circuit.

    With ``noise``, the table of a lone state is that of its dephased density
    matrix: the mean of every dephasing trajectory's table, which each shot's
    class follows, since each shot draws its own phases (Huelga et al., PRL
    79, 3865, 1997). It holds no 2**L array. The time-reversed readout damps
    the cross term of basis states (0, y) and (1, ~y), whose excited ions
    differ in all L places and in number by L - 2|y|; common noise keeps the
    state symmetric, as the density matrix rho_pq damped by the decay of
    p - q; the collective pulse under independent noise flips each ion's
    reading (see :func:`.register.dephase_pulse_table`)."""
    state, n = free_evolve(state, dw, t), cfg.n_ions
    if cfg.protocol is Protocol.GHZ_REVERSED:
        if np.ndim(final_phase):  # a row per readout phase, which this close ignores
            rows = np.broadcast_shapes(state.dicke.shape[:-1], np.shape(final_phase))
            state = DickeState(n, np.broadcast_to(state.dicke, (*rows, n + 1)))
        decay = None if noise is None else _coherence_decay(noise, t, n, n - 2 * np.arange(n))
        return born_table_reversed(state, _reversed_close(cfg.phi0), decay)
    if cfg.protocol is Protocol.STANDARD:
        phi = np.pi - final_phase
    else:
        phi = (cfg.phi0 - final_phase) / n + np.pi / 2
    if noise is None:
        return born_table_pulse(state, phi)
    if noise.mode == "common":
        apart = np.subtract.outer(np.arange(n + 1), np.arange(n + 1))
        return born_table_pulse(state, phi, _coherence_decay(noise, t, np.abs(apart), apart))
    return dephase_pulse_table(born_table_pulse(state, phi), _coherence_decay(noise, t, 1))


# ---------------------------------------------------------------------------
# Expectation mode
# ---------------------------------------------------------------------------


def expected_signal(
    cfg: RamseyConfig,
    *,
    t_ramsey: float | np.ndarray | None = None,
    delta_omega: float | np.ndarray | None = None,
) -> float | np.ndarray:
    """Expected fringe signal of cfg.protocol: the mean of
    :func:`_class_signal` over shots. ``t_ramsey`` and ``delta_omega`` may
    be 1-D arrays (of one length if both are), whose entries are evaluated
    as one batch from one preparation, one signal per entry, with no 2**L
    array. It reads the noiseless :func:`_table`, the one a noiseless
    sampled run draws its shots from.

    standard: excited-state fraction (1 - C cos(dw T_R + phi_f)) / 2;
    GHZ parity: normalized parity (2^L times the spin-product expectation)
    C cos(L dw T_R + phi_f); GHZ time-reversed: -2<Sz> of ion 1,
    C cos(L dw T_R). C = 1 noise-free; that is :attr:`Protocol.fringe`.
    The signal is noiseless: dephasing damps the noise-averaged one's
    contrast (see :func:`estimate_frequency`).
    """
    t = cfg.t_ramsey if t_ramsey is None else t_ramsey
    dw = cfg.delta_omega if delta_omega is None else delta_omega
    return cfg.protocol.expected(_table(_prepare_dicke(cfg), cfg, t, dw, cfg.final_phase))


# ---------------------------------------------------------------------------
# Sampled mode
# ---------------------------------------------------------------------------


class Estimate(NamedTuple):
    """Detuning estimate dw_hat = omega_R - omega0_hat and its 1-sigma error."""

    estimate: float
    sigma: float


def run_ramsey(cfg: RamseyConfig, rng: np.random.Generator) -> np.ndarray:
    """The int64 readout classes b L + k of cfg.shots projective trials of
    cfg.protocol drawn from ``rng``, in shot order; a class's record outcome
    is :meth:`Protocol.outcomes`.

    Every shot's readout class is drawn from one Born table,
    :func:`_run_state`, at the uniforms of one ``rng.random(shots)`` call.
    """
    return sample_measurement(_run_state(cfg), rng.random(cfg.shots))


def _run_state(cfg: RamseyConfig) -> np.ndarray:
    """The read-only Born table that every shot of a sampled run is drawn
    from, computed once a run, before any draw: the :func:`_table` of the
    prepared Dicke amplitudes, damped by cfg's noise. Unless cfg.allow_wrap,
    a detuning past the unambiguous fringe (|dw| T_R m >= pi) raises."""
    m = cfg.protocol.multiplier(cfg.n_ions)
    phase = abs(cfg.delta_omega) * cfg.t_ramsey * m
    if not cfg.allow_wrap and phase >= np.pi:
        raise AmbiguousFringeError(
            f"|detuning| * T_R * {m} = {phase:.6g} rad >= pi wraps past the unambiguous "
            "fringe; pass allow_wrap=True for deliberate scans"
        )
    table = _table(
        _prepare_dicke(cfg), cfg, cfg.t_ramsey, cfg.delta_omega, cfg.final_phase, cfg.noise
    )
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# Frequency estimation
# ---------------------------------------------------------------------------


def estimate_frequency(
    cfg: RamseyConfig, weights: np.ndarray, *, operating_phase: float | None = None
) -> Estimate:
    """The detuning estimate and its 1-sigma error of a run of ``cfg`` whose
    shots fall ``weights[c]`` times in readout class c (the ``np.bincount``
    of :func:`run_ramsey`'s classes), or, given the Born masses, of its
    infinite repetition: the one place class weights become the signal's
    moments (:func:`_signal_moments`), and those an estimate.

    The fringe model :attr:`Protocol.fringe` is inverted at the sample mean
    (arccos principal branch, assuming the operating point sits in (0, pi) —
    the half-fringe convention). ``estimate`` is dw_hat = omega_R -
    omega0_hat; ``sigma`` is sigma_S / |dS/d omega|, sigma_S the standard
    error of the mean. The model's contrast is 1 without noise, else the
    ensemble-mean decay of the m = :meth:`Protocol.multiplier` phases the
    fringe accumulates: exp(-m gamma T_R) under independent noise and
    exp(-m^2 gamma T_R) under common noise (a ``ValueError`` where it
    underflows to 0). Its phase is the :meth:`Protocol.readout_phase` of
    ``cfg.final_phase``. ``operating_phase`` pins the sensitivity evaluation
    to a known designed phase (e.g. pi/2 at the half-fringe) instead of the
    inverted one; a slope that vanishes there raises ``DegenerateSlopeError``.
    """
    mean, sigma_s = _signal_moments(cfg, weights)
    protocol, t_r = cfg.protocol, cfg.t_ramsey
    mult = protocol.multiplier(cfg.n_ions)
    contrast = 1.0 if cfg.noise is None else float(_coherence_decay(cfg.noise, t_r, mult))
    if contrast <= 0:
        raise ValueError(
            f"the {protocol.family} contrast exp(-gamma T_R ...) underflows to 0 at "
            f"L = {cfg.n_ions}, gamma = {cfg.noise.gamma!r}, T_R = {t_r!r}"
        )
    offset, scale = protocol.fringe
    u = min(max((mean - offset) / (scale * contrast), -1.0), 1.0)
    slope_scale = abs(scale) * contrast * mult * t_r  # |dS/d(dw)| at |sin| = 1
    phi = protocol.readout_phase(cfg.final_phase)
    x_hat = float(np.arccos(u))  # principal branch [0, pi]
    # Sensitivity at the inverted phase, or at the phase the experiment was
    # designed to sit at (exact when the operating point is known a priori,
    # and well-defined even when sampling noise swamps a tiny contrast). A
    # Python float, so a sigma that overflows is inf without a numpy warning.
    slope = slope_scale * abs(float(np.sin(x_hat if operating_phase is None else operating_phase)))
    if slope < 1e-12 * slope_scale or slope == 0.0:
        raise DegenerateSlopeError(
            "fringe slope vanishes at the operating point "
            f"(inverted phase {x_hat:.3g} rad); frequency not identifiable"
        )
    return Estimate((x_hat - phi) / (mult * t_r), sigma_s / slope)


def _signal_moments(cfg: RamseyConfig, counts: np.ndarray) -> tuple[float, float]:
    """The signal's mean and standard error over ``counts``, weighing each
    class's signal (:func:`_class_signal`): integer counts give the sample
    ones (ddof 1; two shots or more, else ``ValueError``), float Born masses
    the exact ones of ``cfg.shots`` shots."""
    signal = _class_signal(cfg.protocol, cfg.n_ions)
    if counts.dtype.kind == "f":
        mean = float(counts @ signal)
        return mean, math.sqrt(float(counts @ np.square(signal - mean)) / cfg.shots)
    shots = int(counts.sum())
    if shots < 2:
        raise ValueError(f"need at least 2 trials for a standard error, got {shots}")
    mean = float(counts @ signal) / shots
    return mean, math.sqrt(float(counts @ np.square(signal - mean)) / (shots - 1) / shots)


# ---------------------------------------------------------------------------
# Brent solver
# ---------------------------------------------------------------------------
# Brent, Algorithms for Minimization Without Derivatives (1973), ch. 4, as
# scipy's C brentq implements it: step for step, so it returns scipy's root
# to the bit, which the tests check. Calibration refines its roots with it.


def _checked(f: Callable, x: float) -> float:
    """f(x) as a float; a NaN raises, since a solver cannot compare it."""
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"the function value at x={x} is NaN; the solver cannot continue")
    return fx


def _div(n: float, d: float) -> float:
    """n / d as IEEE 754 (and so C) has it: a zero divisor gives inf, or NaN for 0/0."""
    if d:
        return n / d
    if n == 0 or math.isnan(n):
        return math.nan
    return math.copysign(math.inf, n * math.copysign(1.0, d))


def brentq(
    f: Callable,
    xa: float,
    xb: float,
    fa: float,
    fb: float,
    xtol: float,
    rtol: float,
    maxiter: int = 100,
) -> float:
    """A root of f in the sign-changing bracket [xa, xb], where f takes the
    values fa and fb, to within ``xtol + rtol * |root|``: scipy's brentq
    after its two calls at the ends. Raises ValueError when fa and fb share
    a sign or one is NaN, and ConvergenceError after ``maxiter`` steps."""
    if xtol <= 0 or rtol < 4 * np.finfo(float).eps:
        raise ValueError(f"need xtol > 0 and rtol >= 4 eps, got {xtol:g} and {rtol:g}")
    xpre, xcur, xtol, rtol = float(xa), float(xb), float(xtol), float(rtol)
    fpre, fcur = float(fa), float(fb)
    if math.isnan(fpre) or math.isnan(fcur):
        raise ValueError(f"the function value at an end of [{xpre}, {xcur}] is NaN")
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = _div(-fcur * (xcur - xpre), fcur - fpre)
            else:  # extrapolate
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # a good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _checked(f, xcur)
    raise ConvergenceError(f"brentq did not converge in {maxiter} iterations (last x {xcur!r})")


# ---------------------------------------------------------------------------
# Two-point calibration
# ---------------------------------------------------------------------------


TruthSimulator = Callable[[float | np.ndarray, float, float | np.ndarray], float | np.ndarray]
"""Measured fringe signal as a function of (omega_r, t_ramsey, phi_f);
``omega_r`` or ``phi_f`` may be a 1-D array, giving one signal per entry:
the signal a lone call with that entry gives."""


@dataclass(frozen=True)
class CalibrationState:
    """Two probe settings, two Ramsey times, and the readout phase knob."""

    omega_r1: float
    omega_r2: float
    t_r1: float
    t_r2: float
    phi_f: float = 0.0
    iterations: int = 0

    def __post_init__(self) -> None:
        if self.t_r1 <= 0 or self.t_r2 <= 0:
            raise ValueError("Ramsey times must be positive")
        if self.t_r2 / self.t_r1 < 10.0:
            raise ValueError(
                f"need t_r2/t_r1 >= 10 (short-time step must be cheap), got "
                f"{self.t_r2 / self.t_r1:.3g}"
            )

    @property
    def omega0(self) -> float:
        """Implied resonance estimate: midpoint of the two settings."""
        return 0.5 * (self.omega_r1 + self.omega_r2)


def _bracketed_roots(
    fn: Callable, xs: np.ndarray, ys: np.ndarray, known: float | None = None
) -> list[float]:
    """All sign-change roots of fn on the grid ``xs``, where it takes the
    values ``ys``; each bracket's search starts from the values at its ends.
    A sign change whose bracket holds ``known``, a root known beforehand,
    yields it without a search."""
    ys, roots = ys.tolist(), []  # Python floats: the scan below is a Python loop
    for k in range(len(xs) - 1):
        a, b = ys[k], ys[k + 1]
        if a == 0.0:
            roots.append(float(xs[k]))
        elif a * b < 0.0 and known is not None and xs[k] <= known <= xs[k + 1]:
            roots.append(float(known))
        elif a * b < 0.0:
            root = brentq(fn, xs[k], xs[k + 1], a, b, xtol=1e-300, rtol=4 * np.finfo(float).eps)
            roots.append(float(root))
    if len(ys) and ys[-1] == 0.0:
        roots.append(float(xs[-1]))
    return roots


def two_point_calibrate(
    truth_simulator: TruthSimulator,
    cal: CalibrationState,
    n_ions: int,
    *,
    tol: float | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    history: list | None = None,
) -> CalibrationState:
    """Bias-robust resonance calibration by signal matching at two settings.

    Each iteration: (1) adjust the readout phase so the two settings give
    equal signals at the short time t_r1; (2) adjust omega_r1 so they give
    equal signals at the long time t_r2, which forces the detunings toward
    equal magnitude and opposite sign. Any multiplicative signal bias B(T_R)
    cancels because every comparison is between signals at the same T_R.
    Both steps bracket their roots by sign changes on a grid, evaluated as
    one batch per setting, and refine each with :func:`brentq`, the in-house
    Brent root finder, which starts from the grid's values at the bracket's
    ends. Each phase the phase step evaluates on its own gets both settings
    from one call, as a 2-row batch of ``omega_r``.

    Convergence: the midpoint estimate moves by less than ``tol`` (default
    1e-3 of the fringe width pi/(L*t_r2)) between iterations; with
    t_r2/t_r1 >= 10 the residual error is then below tol as well, since the
    per-iteration error contraction factor is t_r1/t_r2.

    Raises AmbiguousFringeError when the settings span more than one fringe
    at t_r2 (or no matching root exists in the adjacent fringe), and
    ConvergenceError when max_iter is exhausted.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if tol is None:
        tol = 1e-3 * np.pi / (n_ions * cal.t_r2)
    window = np.pi / (n_ions * cal.t_r2)  # half fringe period in omega
    if abs(cal.omega_r2 - cal.omega_r1) >= window:
        raise AmbiguousFringeError(
            "initial settings span a full half-fringe at t_r2; bracketing ambiguous"
        )

    omega_r1, omega_r2, phi_f = cal.omega_r1, cal.omega_r2, cal.phi_f
    omega0_prev = 0.5 * (omega_r1 + omega_r2)
    if history is not None:
        history.append((0, omega_r1, omega_r2, phi_f, omega0_prev))

    for iteration in range(1, max_iter + 1):
        # Step 1: null the signal difference at the short time via phi_f. A
        # lone phase evaluates both settings as one 2-row batch; the phase
        # grid is one batch per setting.
        settings = np.array([omega_r1, omega_r2])

        def phase_diff(phi):
            s1, s2 = truth_simulator(settings, cal.t_r1, phi)
            return s1 - s2

        now = truth_simulator(settings, cal.t_r1, phi_f)
        if abs(now[0] - now[1]) > 1e-14 * max(abs(now[0]), abs(now[1]), 1e-30):
            phis = np.linspace(-np.pi / 2, np.pi / 2, 41)
            grid_diff = truth_simulator(omega_r1, cal.t_r1, phis) - truth_simulator(
                omega_r2, cal.t_r1, phis
            )
            roots = _bracketed_roots(phase_diff, phis, grid_diff)
            if not roots:
                raise ConvergenceError(
                    "no readout phase nulls the short-time signal difference"
                )
            phi_f = min(roots, key=abs)

        # Step 2: match the long-time signals by moving omega_r1.
        target = truth_simulator(omega_r2, cal.t_r2, phi_f)
        def freq_diff(omega):
            return truth_simulator(omega, cal.t_r2, phi_f) - target

        # omega_r2 matches itself: its bracket is not searched.
        grid = np.linspace(omega_r1 - window, omega_r1 + window, 81)
        roots = _bracketed_roots(freq_diff, grid, freq_diff(grid), known=omega_r2)
        trivial_tol = max(1e-9 * window, 1e-15 * max(abs(omega_r2), 1.0))
        candidates = [r for r in roots if abs(r - omega_r2) > trivial_tol]
        if not candidates:
            if roots:
                candidates = roots  # settings have merged onto the resonance
            else:
                raise AmbiguousFringeError(
                    "no anti-symmetric matching point within one fringe of omega_r1"
                )
        omega_r1 = min(candidates, key=lambda r: abs(r - omega_r1))

        omega0_now = 0.5 * (omega_r1 + omega_r2)
        last_move = abs(omega0_now - omega0_prev)
        if history is not None:
            history.append((iteration, omega_r1, omega_r2, phi_f, omega0_now))
        if last_move < tol:
            return CalibrationState(
                omega_r1, omega_r2, cal.t_r1, cal.t_r2, phi_f, iterations=iteration
            )
        omega0_prev = omega0_now

    raise ConvergenceError(
        f"calibration did not settle within {max_iter} iterations "
        f"(last midpoint move {last_move:.3g} rad/s, tol {tol:.3g})"
    )


def naive_single_point_omega0(
    truth_simulator: TruthSimulator, omega_r: float, t_r: float, n_ions: int
) -> float:
    """Single-measurement inversion assuming full contrast, at readout phase 0.

    The comparison baseline for the calibration loop: any unmodelled
    contrast decay B(T_R) biases this estimate, since it inverts
    S = B * cos(L dw T_R) as if B were 1. Assumes the setting sits above
    the resonance (positive branch).
    """
    u = float(np.clip(truth_simulator(omega_r, t_r, 0.0), -1.0, 1.0))
    return omega_r - np.arccos(u) / (n_ions * t_r)


def make_truth_simulator(
    cfg: RamseyConfig,
    *,
    bias: Callable[[float], float] | None = None,
) -> TruthSimulator:
    """Expectation-mode signal closure of cfg.protocol for calibration runs.
    It prepares cfg's Dicke amplitudes once, and evaluates an array of
    ``omega_r`` or of ``phi_f`` as one batch. Of cfg it reads ``n_ions``,
    ``omega_0``, ``phi0``, ``protocol`` and ``imperfection``; each call
    passes its own ``omega_r`` and ``t_ramsey``, so cfg's are placeholders.

    ``bias`` multiplies the signal by B(t_ramsey), emulating a T_R-dependent
    contrast systematic.
    """
    state = _prepare_dicke(cfg)

    def simulate(omega_r, t_ramsey: float, phi_f):
        dw = omega_r - cfg.omega_0
        s = cfg.protocol.expected(_table(state, cfg, t_ramsey, dw, phi_f))
        if bias is not None:
            s *= bias(t_ramsey)
        return s

    return simulate


# ---------------------------------------------------------------------------
# Harmonic decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FourierFit:
    """Least-squares harmonic fit S = sum_p c[p-1] cos(p dw T + xi[p-1]).

    Amplitudes are non-negative with phases in (-pi, pi]; ``residual`` is
    the RMS misfit on the grid (a DC offset in the data, which the model
    deliberately excludes, lands here).
    """

    c: np.ndarray
    xi: np.ndarray
    residual: float


def fourier_decompose(
    t_grid: np.ndarray, signal: np.ndarray, n_ions: int, delta_omega: float
) -> FourierFit:
    """Fit the L-harmonic fringe model to a signal sampled on a uniform grid.

    The grid must be uniform, contain at least 2L+1 samples, and span at
    least one period of the slowest harmonic (2 pi / |dw|, counting one
    sample spacing of periodic closure).
    """
    t = np.asarray(t_grid, dtype=float)
    s = np.asarray(signal, dtype=float)
    if t.ndim != 1 or t.shape != s.shape:
        raise FitError("t_grid and signal must be 1-D arrays of equal length")
    if len(t) < 2 * n_ions + 1:
        raise FitError(
            f"need >= {2 * n_ions + 1} samples for {n_ions} harmonics, got {len(t)}"
        )
    if delta_omega == 0.0:
        raise FitError("delta_omega must be nonzero to define harmonics")
    dt = np.diff(t)
    if np.any(dt <= 0) or np.max(np.abs(dt - dt[0])) > 1e-9 * abs(dt[0]):
        raise FitError("t_grid must be uniformly increasing")
    period = 2 * np.pi / abs(delta_omega)
    if (t[-1] - t[0]) + dt[0] < period * (1 - 1e-9):
        raise FitError(
            "grid spans less than one period of the slowest harmonic; "
            f"span {(t[-1] - t[0]):.6g} + dt < {period:.6g}"
        )
    columns = []
    for p in range(1, n_ions + 1):
        arg = p * delta_omega * t
        columns.append(np.cos(arg))
        columns.append(np.sin(arg))
    design = np.column_stack(columns)
    coef, _, rank, _ = np.linalg.lstsq(design, s, rcond=None)
    if rank < 2 * n_ions:
        raise FitError(
            f"design matrix rank {rank} < {2 * n_ions}: harmonics not resolvable "
            "on this grid"
        )
    a = coef[0::2]
    b = coef[1::2]
    c = np.hypot(a, b)
    xi = np.arctan2(-b, a)
    # Map the (-pi, pi] convention exactly: arctan2 returns [-pi, pi].
    xi = np.where(xi == -np.pi, np.pi, xi)
    residual = float(np.sqrt(np.mean((s - design @ coef) ** 2)))
    return FourierFit(c=c, xi=xi, residual=residual)


def synthesize_signal(
    t_grid: np.ndarray, delta_omega: float, c: Sequence[float], xi: Sequence[float]
) -> np.ndarray:
    """Evaluate the harmonic fringe model on a grid (inverse of the fit)."""
    t = np.asarray(t_grid, dtype=float)
    out = np.zeros_like(t)
    for p, (cp, xip) in enumerate(zip(c, xi), start=1):
        out += cp * np.cos(p * delta_omega * t + xip)
    return out


def flag_large_admixture(fit: FourierFit, threshold: float = 0.1) -> bool:
    """True when off-dominant harmonics are too large for slope-based
    change detection (the single-fringe tracking regime needs them small)."""
    dominant = int(np.argmax(fit.c))
    others = np.delete(fit.c, dominant)
    peak = fit.c[dominant]
    if peak <= 0:
        return True
    return bool(np.any(others >= threshold * peak) or fit.residual >= threshold * peak)


# ---------------------------------------------------------------------------
# Fringe-frequency fitting (scans)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FringeFit:
    frequency: float
    amplitude: float
    phase: float
    offset: float


def fit_fringe_frequency(t_grid: np.ndarray, signal: np.ndarray) -> FringeFit:
    """Fit A cos(f t + phi) + c to a fringe scanned on a uniform grid.

    At fixed f the model is linear in (A cos phi, -A sin phi, c), which a
    linear least-squares solve fits (variable projection; Golub & Pereyra,
    SIAM J. Numer. Anal. 10, 413, 1973). f starts at the peak of a
    zero-padded periodogram, where a solve gives the linear coefficients,
    and takes Gauss-Newton steps. Each step is one solve of the residual on
    four columns, cos, sin, 1 and the model's slope in f, which updates the
    coefficients and f together. f stays within half a natural bin,
    pi / (n dt), of the peak, and the search stops at a step of at most
    1e-13 f, where one more solve gives the fit. A noiseless scan of a
    period or more takes 1 to 6 steps; a scan that noise dominates can
    take all ``_FIT_STEPS`` and raise ``ConvergenceError``.

    A fit within half a bin of the grid's Nyquist frequency pi / dt may be
    the alias of a slower fringe, and one below half a bin is the mean's
    leakage, which the periodogram skips: both raise ``FitError``, as does
    an amplitude at the peak below ``AMPLITUDE_FLOOR`` times the signal's
    largest magnitude, which rounding leaves on a scan with no fringe. A
    fringe above Nyquist fits its alias cleanly, so a caller that knows the
    fringe must check it itself.
    """
    t = np.asarray(t_grid, dtype=float)
    s = np.asarray(signal, dtype=float)
    if len(t) < 8:
        raise FitError("need at least 8 samples to fit a fringe")
    design = np.ones((len(t), 4))  # columns cos, sin, 1 and the model's slope in f
    cos, sin, slope, linear = design[:, 0], design[:, 1], design[:, 3], design[:, :3]
    # The search measures time from the scan's middle, where a step in f
    # barely turns the fringe's phase; measured from t = 0, a scan that
    # starts late turns so far that the steps can diverge.
    centred = t - (t[0] + t[-1]) / 2

    def at(freq: float, times: np.ndarray) -> None:
        np.cos(freq * times, out=cos)
        np.sin(freq * times, out=sin)

    pad = 16  # periodogram bins per natural bin
    spectrum = np.abs(np.fft.rfft(s - np.mean(s), pad * len(s)))
    # Bins below half a natural bin hold the mean's leakage, not a fringe.
    peak = pad // 2 + int(np.argmax(spectrum[pad // 2 :]))
    half_bin = np.pi / (len(s) * (t[1] - t[0]))
    freq = 2 * half_bin * peak / pad
    low, high = freq - half_bin, freq + half_bin
    at(freq, centred)
    coef = np.linalg.lstsq(linear, s, rcond=None)[0]
    amplitude, scale = float(np.hypot(coef[0], coef[1])), float(np.max(np.abs(s)))
    if amplitude <= AMPLITUDE_FLOOR * scale:  # no fringe, so no slope to follow
        raise FitError(
            f"fitted amplitude {amplitude:.3g} is rounding noise on a signal of scale "
            f"{scale:.3g}: the scan holds no fringe"
        )
    for _ in range(_FIT_STEPS):
        np.multiply(centred, coef[1] * cos - coef[0] * sin, out=slope)
        # Solving for the residual, not the signal, keeps the step's rounding
        # relative to the step, so f settles to the last bits.
        delta = np.linalg.lstsq(design, s - linear @ coef, rcond=None)[0]
        coef += delta[:3]
        step = min(max(freq + delta[3], low), high) - freq
        freq += step
        at(freq, centred)
        if abs(step) <= 1e-13 * freq:
            break
    else:
        raise ConvergenceError(f"the fringe fit took {_FIT_STEPS} steps (last f {freq!r})")
    if freq >= len(s) * half_bin - half_bin:
        msg = f"fitted frequency {freq:.6g} rad/s is within half a bin, {half_bin:.6g} rad/s, of"
        raise FitError(f"{msg} the grid's Nyquist frequency {len(s) * half_bin:.6g} rad/s")
    if freq < half_bin:
        msg = f"fitted frequency {freq:.6g} rad/s is below half a bin, {half_bin:.6g} rad/s,"
        raise FitError(f"{msg} where the periodogram holds the mean's leakage")
    at(freq, t)
    a, b, offset = np.linalg.lstsq(linear, s, rcond=None)[0]
    return FringeFit(
        frequency=float(freq),
        amplitude=float(np.hypot(a, b)),
        phase=float(np.arctan2(-b, a)),
        offset=float(offset),
    )
