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
carries one, and every pipeline below runs whichever it carries. Each
protocol's readout is one outcome map from measured readout classes:
sampled shots record it, the expected signal is its signal averaged over
the Born probabilities, and the estimator inverts its fringe model
(:attr:`Protocol.fringe`), with no per-protocol branch elsewhere.

Pulse-phase bookkeeping (fixed here, verified in tests): the standard
protocol's closing pulse has phase ``pi - phi_f``; the GHZ final readout
pulse has per-ion phase ``(phi0 - phi_f)/L + pi/2``; GHZ preparation folds
phi0 into its opening pulse.

Estimation inverts the fringe on the principal arccos branch, which is exact
for the cosine model and reduces to the usual maximum-slope linearization at
the half-fringe operating point. The quoted uncertainty is
``sigma_S / |dS/d omega|`` with sigma_S the standard error of the per-shot
signal mean.

Both a sampled mode (projective shots) and an expectation mode (exact
expectations, no statistics) are first-class: :func:`run_ramsey` and
:func:`expected_signal` run every protocol. Every run prepares and evolves
its state once, as L + 1 Dicke amplitudes (:class:`.register.DickeState`).
A noiseless run closes them into a Born table, sampled for shots or averaged
for expectations; a dephased run expands them once into the dense 2**L state
that each trajectory phases, closes and reduces to its Born table; every
shot is drawn from a table by :func:`.register.sample_measurement`. The
tests check both against the gate-level circuits of :mod:`.gates`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .errors import (
    AmbiguousFringeError,
    ConvergenceError,
    DegenerateSlopeError,
    FitError,
)
from .gates import _opening_pulse
from .noise import (
    ImperfectionSpec,
    NoiseSpec,
    apply_phase_noise,
    perturb_ghz,
    sample_dephasing_phases,
)
from .register import (
    DickeState,
    QubitRegister,
    _binomials,
    apply_rotation,
    born_table,
    born_table_pulse,
    born_table_reversed,
    dicke_ghz,
    dicke_product,
    expand_dicke,
    free_evolve,
    inverse_star,
    pi_half_pulse,
    rotation_matrix,
    sample_measurement,
)

DEFAULT_MAX_ITER = 50
# Amplitudes per chunk of dephased shots (1 MiB); a larger state is a chunk alone.
CHUNK_AMPLITUDES = 1 << 16


class Protocol(Enum):
    """One Ramsey protocol; the value is its record tag.

    ``family`` (``standard`` or ``ghz``) is the name configs and benchmark
    tables use; ``readout`` is ``final_pulse`` or, for GHZ only,
    ``time_reversed``. The readout is defined once, by :meth:`outcomes` and
    :meth:`signal`; sampling records the outcomes of measured classes,
    :meth:`expected` averages the signal over a Born table, and
    :attr:`fringe` is the cosine model the estimator inverts.
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

    def signal(self, outcomes: np.ndarray, n_ions: int) -> np.ndarray:
        """Per-shot fringe signal of recorded outcomes; its mean is the
        protocol's expected signal (see :meth:`expected`)."""
        if self is Protocol.STANDARD:
            return (n_ions - outcomes) / n_ions  # excited fraction per shot
        if self is Protocol.GHZ_REVERSED:
            return -2.0 * outcomes  # +-1, mean C cos(L dw T)
        return outcomes  # parity signs +-1

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
def _signal_weights(protocol: Protocol, n_ions: int) -> np.ndarray:
    """Born table cell (b, k), flat: C(L - 1, k) indices (ion 1's bit b, k ions
    up among the rest) times the signal of their class. Shared, read only."""
    k = np.arange(2 * n_ions) % n_ions
    signal = protocol.signal(_class_outcomes(protocol, n_ions), n_ions)
    weights = _binomials(n_ions - 1)[n_ions - 1, k] * signal
    weights.flags.writeable = False
    return weights


@dataclass(frozen=True)
class RamseyConfig:
    """One Ramsey experiment's worth of settings.

    ``omega_0`` is simulation truth; the experimenter knob is ``omega_r``.
    ``final_phase`` is the phase offset phi_f the readout exposes (ignored
    by the time_reversed readout, which cancels all preparation phases).
    ``imperfection`` perturbs the GHZ preparation, so the standard protocol
    rejects it. ``allow_wrap`` lifts the ambiguity guard for deliberate
    multi-fringe scans.
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

    @property
    def delta_omega(self) -> float:
        return self.omega_r - self.omega_0

    @property
    def noiseless(self) -> bool:
        return self.noise is None or self.noise.gamma == 0.0


def ensure_unambiguous(
    multiplier: int, delta_omega: float, t_max: float, allow_wrap: bool = False
) -> None:
    """Reject detunings that wrap past the protocol's unambiguous fringe.

    ``multiplier`` is the fringe-frequency factor
    (:meth:`Protocol.multiplier`).
    """
    if allow_wrap:
        return
    if abs(delta_omega) * t_max * multiplier >= np.pi:
        raise AmbiguousFringeError(
            f"|detuning| * T_R * {multiplier} = "
            f"{abs(delta_omega) * t_max * multiplier:.6g} rad >= pi wraps "
            "past the unambiguous fringe; pass allow_wrap=True for deliberate scans"
        )


def ensemble_contrast(
    n_ions: int, noise: NoiseSpec | None, t: float, protocol: Protocol
) -> float:
    """Ensemble-mean fringe contrast under the Gaussian dephasing model.

    Per-ion phase variance is 2*gamma*t, so a coherence that accumulates m
    independent phases (m the fringe multiplier) decays as exp(-m*gamma*t);
    in common mode the m phases are one shared draw, giving
    exp(-m^2*gamma*t).
    """
    if noise is None or noise.gamma == 0.0:
        return 1.0
    m = protocol.multiplier(n_ions)
    k = m * m if noise.mode == "common" else m
    return float(np.exp(-k * (noise.gamma * t)))


# ---------------------------------------------------------------------------
# State pipeline
# ---------------------------------------------------------------------------


def _prepare_dicke(cfg: RamseyConfig) -> DickeState:
    """The prepared state as L + 1 Dicke amplitudes: the opening pulse's
    column on every ion (standard), or the GHZ pair plus any admixture."""
    if cfg.protocol is Protocol.STANDARD:
        return dicke_product(cfg.n_ions, rotation_matrix(np.pi / 2, 0.0)[:, 0])
    rot = _opening_pulse(cfg.phi0)
    state = dicke_ghz(cfg.n_ions, rotation_matrix(rot.theta, rot.phi)[:, 0])
    return state if cfg.imperfection is None else perturb_ghz(state, cfg.imperfection)


def _unstar_matrix(cfg: RamseyConfig) -> np.ndarray:
    """The time-reversed readout's rotation on ion 1: the inverse opening pulse."""
    rot = _opening_pulse(cfg.phi0).inverse()
    return rotation_matrix(rot.theta, rot.phi)


def _closing_phase(cfg: RamseyConfig, final_phase: float | np.ndarray) -> float | np.ndarray:
    """Phase of the collective pi/2 pulse that closes the standard and
    GHZ-parity readouts at readout phase phi_f = ``final_phase``."""
    if cfg.protocol is Protocol.STANDARD:
        return np.pi - final_phase
    return (cfg.phi0 - final_phase) / cfg.n_ions + np.pi / 2


def _close(reg: QubitRegister, cfg: RamseyConfig) -> QubitRegister:
    """The closing readout on the dense register, for a state or a batch."""
    if cfg.protocol is Protocol.GHZ_REVERSED:
        return inverse_star(reg, _unstar_matrix(cfg))
    return apply_rotation(reg, pi_half_pulse(cfg.n_ions, _closing_phase(cfg, cfg.final_phase)))


def _born_table(state: DickeState, cfg: RamseyConfig, final_phase) -> np.ndarray:
    """The Born table (see :func:`.register.born_table`) of the closed
    state, or of each row of a batch: :func:`_close` on the Dicke
    amplitudes at readout phase ``final_phase``, one row an entry of a 1-D
    array (which the time-reversed readout ignores, row by row)."""
    if cfg.protocol is Protocol.GHZ_REVERSED:
        rows = np.broadcast_shapes(state.dicke.shape[:-1], np.shape(final_phase))
        state = DickeState(state.n_ions, np.broadcast_to(state.dicke, (*rows, state.n_ions + 1)))
        return born_table_reversed(state, _unstar_matrix(cfg))
    return born_table_pulse(state, _closing_phase(cfg, final_phase))


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
    :meth:`Protocol.signal` over shots. ``t_ramsey`` and ``delta_omega`` may
    be 1-D arrays (of one length if both are), whose entries are evaluated
    as one batch from one preparation, one signal per entry, with no 2**L
    array: only dephasing breaks the symmetric subspace, and it runs sampled.

    standard: excited-state fraction (1 - C cos(dw T_R + phi_f)) / 2;
    GHZ parity: normalized parity (2^L times the spin-product expectation)
    C cos(L dw T_R + phi_f); GHZ time-reversed: -2<Sz> of ion 1,
    C cos(L dw T_R). C = 1 noise-free; that is :attr:`Protocol.fringe`.
    The signal is noiseless: the noise-averaged one has contrast
    :func:`ensemble_contrast`.
    """
    t = cfg.t_ramsey if t_ramsey is None else t_ramsey
    dw = cfg.delta_omega if delta_omega is None else delta_omega
    return _signal(cfg, _prepare_dicke(cfg), t, dw, cfg.final_phase)


def _signal(cfg: RamseyConfig, state: DickeState, t, dw, final_phase) -> float | np.ndarray:
    """:func:`expected_signal` from a :func:`_prepare_dicke` state, one
    batch row per entry of 1-D ``t``, ``dw`` or ``final_phase``."""
    return cfg.protocol.expected(_born_table(free_evolve(state, dw, t), cfg, final_phase))


def fringe_scan(cfg: RamseyConfig, t_grid: np.ndarray) -> np.ndarray:
    """Expectation-mode signal of cfg.protocol over a T_R grid (multi-fringe
    scans allowed), evaluated as one batch."""
    return expected_signal(cfg, t_ramsey=np.asarray(t_grid, dtype=float))


# ---------------------------------------------------------------------------
# Sampled mode
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trials:
    """The projective shots of one sampled run, stored column-wise.

    One configuration (``protocol``, ``n_ions``, ``t_ramsey``, ``omega_r``)
    holds for every shot. ``outcomes`` is the float64 array of per-shot
    :meth:`Protocol.outcomes` values in shot order; ``batches`` lists the
    (seed label, shot count) of each random stream the shots were drawn
    from, in the same order.
    """

    protocol: Protocol
    n_ions: int
    t_ramsey: float
    omega_r: float
    outcomes: np.ndarray
    batches: tuple[tuple[str, int], ...]


class Estimate(NamedTuple):
    """Detuning estimate dw_hat = omega_R - omega0_hat and its 1-sigma error."""

    estimate: float
    sigma: float


def run_ramsey(
    cfg: RamseyConfig, rng: np.random.Generator, seed_label: str = ""
) -> Trials:
    """cfg.shots projective trials of cfg.protocol, drawn from ``rng``, whose
    seed label the returned :class:`Trials` records.

    Noiseless runs sample every shot from one Born table. With dephasing,
    each shot is a trajectory: ``rng`` draws every shot's phases as one block
    (:func:`.noise.sample_dephasing_phases`, row k shot k), then its uniforms as
    one ``random(shots)`` call. The shots are closed, reduced to their Born
    tables and sampled in chunks of ``CHUNK_AMPLITUDES``, after every draw, so
    chunking cannot change an outcome.
    """
    return _sample(cfg, _run_state(cfg), rng, seed_label)


def _run_state(cfg: RamseyConfig) -> np.ndarray | QubitRegister:
    """What every shot of a sampled run starts from, computed once a run,
    before any draw, and read only: the prepared and evolved Dicke
    amplitudes, closed into their Born table (noiseless) or expanded into
    the dense register that each dephasing trajectory phases and closes."""
    ensure_unambiguous(
        cfg.protocol.multiplier(cfg.n_ions), cfg.delta_omega, cfg.t_ramsey, cfg.allow_wrap
    )
    state = free_evolve(_prepare_dicke(cfg), cfg.delta_omega, cfg.t_ramsey)
    if cfg.noiseless:
        table = _born_table(state, cfg, cfg.final_phase)
        table.flags.writeable = False
        return table
    reg = expand_dicke(state)
    reg.amplitudes.flags.writeable = False
    return reg


def _sample(cfg: RamseyConfig, state, rng: np.random.Generator, seed_label: str) -> Trials:
    """:func:`run_ramsey` from a :func:`_run_state` result: each shot's readout
    class is drawn from a Born table, the run's own or its trajectory's."""
    if cfg.noiseless:
        classes = sample_measurement(state, rng.random(cfg.shots))
    else:
        phases = sample_dephasing_phases(cfg.noise, cfg.t_ramsey, cfg.n_ions, rng, cfg.shots)
        uniforms = rng.random(cfg.shots)
        rows = max(1, CHUNK_AMPLITUDES // state.dim)
        classes = np.empty(cfg.shots, dtype=np.int64)
        for k in range(0, cfg.shots, rows):
            final = _close(apply_phase_noise(state, phases[k : k + rows]), cfg)
            classes[k : k + rows] = sample_measurement(born_table(final), uniforms[k : k + rows])
    outcomes = cfg.protocol.outcomes(classes, cfg.n_ions)
    batches = ((seed_label, cfg.shots),)
    return Trials(cfg.protocol, cfg.n_ions, cfg.t_ramsey, cfg.omega_r, outcomes, batches)


# ---------------------------------------------------------------------------
# Frequency estimation
# ---------------------------------------------------------------------------


def estimate_frequency(
    trials: Trials,
    *,
    contrast: float = 1.0,
    final_phase: float = 0.0,
    operating_phase: float | None = None,
) -> Estimate:
    """Invert a sampled run into a detuning estimate with 1-sigma error.

    The fringe model :attr:`Protocol.fringe` is inverted at the sample mean
    of the per-shot signal (arccos principal branch, assuming the operating
    point sits in (0, pi) — the half-fringe convention). ``estimate`` is
    dw_hat = omega_R - omega0_hat; ``sigma`` is sigma_S / |dS/d omega| with
    sigma_S the standard error of the mean, so a run needs two trials or
    more (``ValueError`` otherwise).

    ``contrast`` is the model fringe contrast (pass
    :func:`ensemble_contrast` output for dephased runs). ``operating_phase``
    pins the sensitivity evaluation to a known designed phase (e.g. pi/2 at
    the half-fringe) instead of the inverted one.
    """
    if len(trials.outcomes) < 2:
        raise ValueError(
            f"need at least 2 trials for a standard error, got {len(trials.outcomes)}"
        )
    if contrast <= 0:
        raise ValueError("contrast must be positive")

    protocol, t_r = trials.protocol, trials.t_ramsey
    s = protocol.signal(trials.outcomes, trials.n_ions)
    n = len(s)
    mean = float(np.mean(s))
    sigma_s = float(np.std(s, ddof=1) / np.sqrt(n))

    mult = protocol.multiplier(trials.n_ions)
    offset, scale = protocol.fringe
    u = float(np.clip((mean - offset) / (scale * contrast), -1.0, 1.0))
    slope_scale = abs(scale) * contrast * mult * t_r  # |dS/d(dw)| at |sin| = 1
    phi = protocol.readout_phase(final_phase)
    x_hat = float(np.arccos(u))  # principal branch [0, pi]
    # Sensitivity at the inverted phase, or at the phase the experiment was
    # designed to sit at (exact when the operating point is known a priori,
    # and well-defined even when sampling noise swamps a tiny contrast).
    slope = slope_scale * abs(np.sin(x_hat if operating_phase is None else operating_phase))
    if slope < 1e-12 * slope_scale or slope == 0.0:
        raise DegenerateSlopeError(
            "fringe slope vanishes at the operating point "
            f"(inverted phase {x_hat:.3g} rad); frequency not identifiable"
        )
    return Estimate((x_hat - phi) / (mult * t_r), sigma_s / slope)


# ---------------------------------------------------------------------------
# Two-point calibration
# ---------------------------------------------------------------------------


TruthSimulator = Callable[[float | np.ndarray, float, float | np.ndarray], float | np.ndarray]
"""Measured fringe signal as a function of (omega_r, t_ramsey, phi_f);
``omega_r`` or ``phi_f`` may be a 1-D array, giving one signal per entry."""


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


def _bracketed_roots(fn: Callable, xs: np.ndarray) -> list[float]:
    """All sign-change roots of fn on the grid ``xs``, which fn evaluates as
    one batch."""
    ys, roots = fn(xs), []
    for k in range(len(xs) - 1):
        a, b = ys[k], ys[k + 1]
        if a == 0.0:
            roots.append(float(xs[k]))
        elif a * b < 0.0:
            roots.append(
                float(brentq(fn, xs[k], xs[k + 1], xtol=1e-300, rtol=4 * np.finfo(float).eps))
            )
    if len(ys) and ys[-1] == 0.0:
        roots.append(float(xs[-1]))
    return roots


def two_point_calibrate(
    truth_simulator: TruthSimulator,
    cal: CalibrationState,
    cfg: RamseyConfig,
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
    n_ions = cfg.n_ions
    if tol is None:
        tol = 1e-3 * np.pi / (n_ions * cal.t_r2)
    window = np.pi / (n_ions * cal.t_r2)  # half fringe period in omega
    if abs(cal.omega_r2 - cal.omega_r1) >= window and not cfg.allow_wrap:
        raise AmbiguousFringeError(
            "initial settings span a full half-fringe at t_r2; bracketing ambiguous"
        )

    omega_r1, omega_r2, phi_f = cal.omega_r1, cal.omega_r2, cal.phi_f
    omega0_prev = 0.5 * (omega_r1 + omega_r2)
    if history is not None:
        history.append((0, omega_r1, omega_r2, phi_f, omega0_prev))

    for iteration in range(1, max_iter + 1):
        # Step 1: null the signal difference at the short time via phi_f.
        def phase_diff(phi):
            return truth_simulator(omega_r1, cal.t_r1, phi) - truth_simulator(
                omega_r2, cal.t_r1, phi
            )

        now = [truth_simulator(omega, cal.t_r1, phi_f) for omega in (omega_r1, omega_r2)]
        if abs(now[0] - now[1]) > 1e-14 * max(abs(now[0]), abs(now[1]), 1e-30):
            roots = _bracketed_roots(phase_diff, np.linspace(-np.pi / 2, np.pi / 2, 41))
            if not roots:
                raise ConvergenceError(
                    "no readout phase nulls the short-time signal difference"
                )
            phi_f = min(roots, key=abs)

        # Step 2: match the long-time signals by moving omega_r1.
        target = truth_simulator(omega_r2, cal.t_r2, phi_f)
        def freq_diff(omega):
            return truth_simulator(omega, cal.t_r2, phi_f) - target

        roots = _bracketed_roots(freq_diff, np.linspace(omega_r1 - window, omega_r1 + window, 81))
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
    ``omega_r`` or of ``phi_f`` as one batch.

    ``bias`` multiplies the signal by B(t_ramsey), emulating a T_R-dependent
    contrast systematic.
    """
    state = _prepare_dicke(cfg)

    def simulate(omega_r, t_ramsey: float, phi_f):
        s = _signal(cfg, state, t_ramsey, np.subtract(omega_r, cfg.omega_0), phi_f)
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

    n_ions: int
    delta_omega: float
    c: np.ndarray
    xi: np.ndarray
    residual: float

    def component(self, p: int) -> tuple[float, float]:
        return float(self.c[p - 1]), float(self.xi[p - 1])


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
    return FourierFit(n_ions=n_ions, delta_omega=delta_omega, c=c, xi=xi, residual=residual)


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

    Variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413,
    1973): at fixed f the model is linear in (A cos phi, -A sin phi, c), so
    a linear least-squares solve leaves a residual that depends on f alone.
    A bounded scalar minimiser finds its minimum within half a natural bin,
    pi / (n dt), of the peak of a zero-padded periodogram. A fit within half
    a bin of the grid's Nyquist frequency pi / dt may be the alias of a slower
    fringe, and one below half a bin is the mean's leakage, which the
    periodogram skips: both raise ``FitError``. A fringe above Nyquist fits
    its alias cleanly, so a caller that knows the fringe must check it itself.
    """
    t = np.asarray(t_grid, dtype=float)
    s = np.asarray(signal, dtype=float)
    if len(t) < 8:
        raise FitError("need at least 8 samples to fit a fringe")
    ones = np.ones_like(t)

    def solve(freq: float) -> tuple[np.ndarray, np.ndarray]:
        design = np.column_stack((np.cos(freq * t), np.sin(freq * t), ones))
        coef = np.linalg.lstsq(design, s, rcond=None)[0]
        return coef, s - design @ coef

    def sq_residual(shift: float, centre: float) -> float:
        return float(np.sum(solve(centre + shift)[1] ** 2))

    pad = 16  # periodogram bins per natural bin
    spectrum = np.abs(np.fft.rfft(s - np.mean(s), pad * len(s)))
    # Bins below half a natural bin hold the mean's leakage, not a fringe.
    peak = pad // 2 + int(np.argmax(spectrum[pad // 2 :]))
    half_bin = np.pi / (len(s) * (t[1] - t[0]))
    freq = 2 * half_bin * peak / pad
    # The minimiser's step floor is sqrt(eps) times the shift it searches;
    # a second, narrow pass around the first result makes it negligible.
    for width in (half_bin, 1e-6 * half_bin):
        freq += minimize_scalar(
            sq_residual, bounds=(-width, width), args=(freq,), method="bounded",
            options={"xatol": 1e-13 * freq},
        ).x
    if freq >= len(s) * half_bin - half_bin:
        msg = f"fitted frequency {freq:.6g} rad/s is within half a bin, {half_bin:.6g} rad/s, of"
        raise FitError(f"{msg} the grid's Nyquist frequency {len(s) * half_bin:.6g} rad/s")
    if freq < half_bin:
        msg = f"fitted frequency {freq:.6g} rad/s is below half a bin, {half_bin:.6g} rad/s,"
        raise FitError(f"{msg} where the periodogram holds the mean's leakage")
    (a, b, offset), _ = solve(freq)
    return FringeFit(
        frequency=float(freq),
        amplitude=float(np.hypot(a, b)),
        phase=float(np.arctan2(-b, a)),
        offset=float(offset),
    )
