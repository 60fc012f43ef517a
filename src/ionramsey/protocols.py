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

Pulse-phase bookkeeping (fixed here, verified in tests): the standard
protocol's closing pulse has phase ``pi - phi_f``; the GHZ final readout
pulse has per-ion phase ``(phi0 - phi_f)/L + pi/2``; GHZ preparation folds
phi0 into its opening pulse.

Estimation inverts the fringe on the principal arccos branch, which is exact
for the cosine model and reduces to the usual maximum-slope linearization at
the half-fringe operating point. The quoted uncertainty is
``sigma_S / |dS/d omega|`` with sigma_S the standard error of the per-shot
signal mean.

Both a sampled mode (projective shots through the state-vector pipeline) and
an expectation mode (exact expectations, no statistics) are first-class;
every protocol here has both entry points.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import OptimizeWarning, brentq, curve_fit

from .errors import (
    AmbiguousFringeError,
    ConvergenceError,
    DegenerateSlopeError,
    FitError,
)
from .gates import GateSequence, prepare_ghz, reverse_prep
from .noise import (
    ImperfectionSpec,
    NoiseSpec,
    apply_phase_noise,
    perturb_ghz,
    sample_dephasing_phases,
)
from .records import EstimateRecord, TrialRecord
from .register import (
    QubitRegister,
    apply_rotation,
    expect_jz,
    expect_parity_normalized,
    expect_sz_ion,
    free_evolve,
    new_register,
    pi_half_pulse,
    sample_measurement,
)

FINAL_PULSE = "final_pulse"
TIME_REVERSED = "time_reversed"

PROTO_STANDARD = "standard"
PROTO_GHZ_PARITY = "ghz_parity"
PROTO_GHZ_REVERSED = "ghz_reversed"

DEFAULT_MAX_ITER = 50


@dataclass(frozen=True)
class RamseyConfig:
    """One Ramsey experiment's worth of settings.

    ``omega_0`` is simulation truth; the experimenter knob is ``omega_r``.
    ``final_phase`` is the phase offset phi_f the readout exposes (ignored
    by the time_reversed readout, which cancels all preparation phases).
    ``allow_wrap`` lifts the ambiguity guard for deliberate multi-fringe
    scans.
    """

    n_ions: int
    t_ramsey: float
    omega_r: float
    omega_0: float
    noise: NoiseSpec | None = None
    imperfection: ImperfectionSpec | None = None
    readout: str = FINAL_PULSE
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
        if self.readout not in (FINAL_PULSE, TIME_REVERSED):
            raise ValueError(f"unknown readout {self.readout!r}")

    @property
    def delta_omega(self) -> float:
        return self.omega_r - self.omega_0


def ensure_unambiguous(
    fringe_multiplier: int, delta_omega: float, t_max: float, allow_wrap: bool = False
) -> None:
    """Reject detunings that wrap past the protocol's unambiguous fringe.

    ``fringe_multiplier`` is the fringe-frequency factor: L for GHZ
    protocols, 1 for the standard protocol.
    """
    if allow_wrap:
        return
    if abs(delta_omega) * t_max * fringe_multiplier >= np.pi:
        raise AmbiguousFringeError(
            f"|detuning| * T_R * {fringe_multiplier} = "
            f"{abs(delta_omega) * t_max * fringe_multiplier:.6g} rad >= pi wraps "
            "past the unambiguous fringe; pass allow_wrap=True for deliberate scans"
        )


def fringe_multiplier(protocol: str, n_ions: int) -> int:
    """Fringe-frequency factor m: the signal oscillates as cos(m dw T_R).

    1 for the standard protocol, L for GHZ under either readout
    (``"ghz"``, ``"ghz_parity"`` or ``"ghz_reversed"``).
    """
    if protocol == PROTO_STANDARD:
        return 1
    if protocol in ("ghz", PROTO_GHZ_PARITY, PROTO_GHZ_REVERSED):
        return n_ions
    raise ValueError(f"unknown protocol {protocol!r}")


def ensemble_contrast(
    n_ions: int, noise: NoiseSpec | None, t: float, protocol: str
) -> float:
    """Ensemble-mean fringe contrast under the Gaussian dephasing model.

    Per-ion phase variance is 2*gamma*t, so a coherence that accumulates m
    independent phases (m the fringe multiplier) decays as exp(-m*gamma*t);
    in common mode the m phases are one shared draw, giving
    exp(-m^2*gamma*t).
    """
    if noise is None or noise.gamma == 0.0:
        return 1.0
    m = fringe_multiplier(protocol, n_ions)
    k = m * m if noise.mode == "common" else m
    return float(np.exp(-k * (noise.gamma * t)))


# ---------------------------------------------------------------------------
# State pipelines
# ---------------------------------------------------------------------------


def _standard_evolved(cfg: RamseyConfig, t: float, delta_omega: float) -> QubitRegister:
    reg = new_register(cfg.n_ions)
    reg = apply_rotation(reg, pi_half_pulse(cfg.n_ions, 0.0))
    return free_evolve(reg, delta_omega, t)


def _standard_close(reg: QubitRegister, cfg: RamseyConfig) -> QubitRegister:
    return apply_rotation(
        reg, pi_half_pulse(cfg.n_ions, np.pi - cfg.final_phase)
    )


def _ghz_evolved(
    cfg: RamseyConfig,
    t: float,
    delta_omega: float,
    rng: np.random.Generator | None = None,
) -> tuple[QubitRegister, GateSequence]:
    reg = new_register(cfg.n_ions)
    reg, seq = prepare_ghz(reg, cfg.phi0)
    if cfg.imperfection is not None:
        reg = perturb_ghz(reg, cfg.imperfection, rng)
    return free_evolve(reg, delta_omega, t), seq


def _ghz_close(
    reg: QubitRegister, cfg: RamseyConfig, seq: GateSequence
) -> QubitRegister:
    if cfg.readout == TIME_REVERSED:
        return reverse_prep(reg, seq)
    phase = (cfg.phi0 - cfg.final_phase) / cfg.n_ions + np.pi / 2
    return apply_rotation(reg, pi_half_pulse(cfg.n_ions, phase))


# ---------------------------------------------------------------------------
# Expectation mode
# ---------------------------------------------------------------------------


def standard_population(
    cfg: RamseyConfig,
    *,
    t_ramsey: float | None = None,
    delta_omega: float | None = None,
    phases: np.ndarray | None = None,
) -> float:
    """Expected excited-state fraction for the standard protocol.

    ``phases`` injects one dephasing realization; omit it for the noiseless
    expectation. (The noise-averaged signal is the noiseless one with
    contrast :func:`ensemble_contrast`.)
    """
    t = cfg.t_ramsey if t_ramsey is None else t_ramsey
    dw = cfg.delta_omega if delta_omega is None else delta_omega
    reg = _standard_evolved(cfg, t, dw)
    if phases is not None:
        reg = apply_phase_noise(reg, phases)
    reg = _standard_close(reg, cfg)
    # E[n_up]/L = 1/2 + <Jz>/L
    return 0.5 + expect_jz(reg) / cfg.n_ions


def ghz_signal(
    cfg: RamseyConfig,
    *,
    t_ramsey: float | None = None,
    delta_omega: float | None = None,
    phases: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Expected normalized GHZ fringe signal for cfg.readout.

    final_pulse: normalized parity (2^L times the spin-product expectation);
    time_reversed: -2<Sz> of ion 1. Both equal C cos(L dw T_R [+ phi_f])
    noise-free.
    """
    t = cfg.t_ramsey if t_ramsey is None else t_ramsey
    dw = cfg.delta_omega if delta_omega is None else delta_omega
    reg, seq = _ghz_evolved(cfg, t, dw, rng)
    if phases is not None:
        reg = apply_phase_noise(reg, phases)
    reg = _ghz_close(reg, cfg, seq)
    if cfg.readout == TIME_REVERSED:
        return -2.0 * expect_sz_ion(reg, 1)
    return expect_parity_normalized(reg)


def fringe_scan(
    cfg: RamseyConfig, protocol: str, t_grid: np.ndarray
) -> np.ndarray:
    """Expectation-mode signal over a T_R grid (multi-fringe scans allowed).

    For ``standard`` the signal is the excited fraction; for ``ghz`` the
    normalized readout signal of cfg.readout.
    """
    if protocol == PROTO_STANDARD:
        return np.array([standard_population(cfg, t_ramsey=t) for t in t_grid])
    return np.array([ghz_signal(cfg, t_ramsey=t) for t in t_grid])


# ---------------------------------------------------------------------------
# Sampled mode
# ---------------------------------------------------------------------------


def run_standard_ramsey(
    cfg: RamseyConfig, rng: np.random.Generator, seed_label: str = ""
) -> list[TrialRecord]:
    """cfg.shots projective standard-Ramsey trials; one record per shot.

    ``outcome`` is the shot's count of ions found |dn>. With dephasing
    enabled, every shot draws a fresh phase realization (each shot is an
    independent experiment).
    """
    ensure_unambiguous(1, cfg.delta_omega, cfg.t_ramsey, cfg.allow_wrap)
    evolved = _standard_evolved(cfg, cfg.t_ramsey, cfg.delta_omega)

    def make(nd: int) -> TrialRecord:
        return TrialRecord(
            PROTO_STANDARD, cfg.n_ions, cfg.t_ramsey, cfg.omega_r, seed_label, float(nd)
        )

    if cfg.noise is None or cfg.noise.gamma == 0.0:
        final = _standard_close(evolved, cfg)
        sample = sample_measurement(final, rng, cfg.shots)
        return [make(nd) for nd in sample.n_down]
    out = []
    for _ in range(cfg.shots):
        phases = sample_dephasing_phases(cfg.noise, cfg.t_ramsey, cfg.n_ions, rng)
        final = _standard_close(apply_phase_noise(evolved, phases), cfg)
        sample = sample_measurement(final, rng, 1)
        out.append(make(sample.n_down[0]))
    return out


def run_ghz_ramsey(
    cfg: RamseyConfig, rng: np.random.Generator, seed_label: str = ""
) -> list[TrialRecord]:
    """cfg.shots projective GHZ-Ramsey trials; one record per shot.

    ``outcome`` is the normalized parity sign (final_pulse readout) or
    ion 1's measured spin +-1/2 (time_reversed readout).
    """
    ensure_unambiguous(cfg.n_ions, cfg.delta_omega, cfg.t_ramsey, cfg.allow_wrap)
    protocol = (
        PROTO_GHZ_REVERSED if cfg.readout == TIME_REVERSED else PROTO_GHZ_PARITY
    )

    def make(value: float) -> TrialRecord:
        return TrialRecord(
            protocol, cfg.n_ions, cfg.t_ramsey, cfg.omega_r, seed_label, float(value)
        )

    def outcome_of(sample) -> float:
        if protocol == PROTO_GHZ_REVERSED:
            return float(sample.sz_ion1[0])
        return float(sample.parity_sign[0])

    per_shot_state = (cfg.noise is not None and cfg.noise.gamma > 0.0) or (
        cfg.imperfection is not None and cfg.imperfection.phase_jitter > 0.0
    )
    if not per_shot_state:
        evolved, seq = _ghz_evolved(cfg, cfg.t_ramsey, cfg.delta_omega, rng)
        final = _ghz_close(evolved, cfg, seq)
        sample = sample_measurement(final, rng, cfg.shots)
        if protocol == PROTO_GHZ_REVERSED:
            return [make(v) for v in sample.sz_ion1]
        return [make(v) for v in sample.parity_sign]

    # Fresh noise per shot; the deterministic part of the pipeline is reused.
    jitter = cfg.imperfection is not None and cfg.imperfection.phase_jitter > 0.0
    base_evolved: QubitRegister | None = None
    seq: GateSequence | None = None
    if not jitter:
        base_evolved, seq = _ghz_evolved(cfg, cfg.t_ramsey, cfg.delta_omega, rng)
    out = []
    for _ in range(cfg.shots):
        if jitter:
            evolved, seq = _ghz_evolved(cfg, cfg.t_ramsey, cfg.delta_omega, rng)
        else:
            evolved = base_evolved
        if cfg.noise is not None and cfg.noise.gamma > 0.0:
            phases = sample_dephasing_phases(cfg.noise, cfg.t_ramsey, cfg.n_ions, rng)
            evolved = apply_phase_noise(evolved, phases)
        final = _ghz_close(evolved, cfg, seq)
        out.append(make(outcome_of(sample_measurement(final, rng, 1))))
    return out


# ---------------------------------------------------------------------------
# Frequency estimation
# ---------------------------------------------------------------------------


def _per_shot_signals(records: Sequence[TrialRecord]) -> np.ndarray:
    proto = records[0].protocol
    values = np.array([r.outcome for r in records])
    if proto == PROTO_STANDARD:
        n_ions = records[0].n_ions
        return (n_ions - values) / n_ions  # excited fraction per shot
    if proto == PROTO_GHZ_REVERSED:
        return -2.0 * values  # +-1, mean C cos(L dw T)
    return values  # parity signs +-1


def _invert_group(
    records: Sequence[TrialRecord],
    contrast: float,
    final_phase: float,
    negative_branch: bool = False,
    operating_phase: float | None = None,
) -> tuple[float, float, float]:
    """Return (delta_omega_hat, sigma, omega_r) for one consistent group."""
    proto = records[0].protocol
    n_ions = records[0].n_ions
    t_r = records[0].t_ramsey
    omega_r = records[0].omega_r
    for r in records:
        if (r.protocol, r.n_ions, r.t_ramsey, r.omega_r) != (proto, n_ions, t_r, omega_r):
            raise ValueError("records mix incompatible configurations")
    if contrast <= 0:
        raise ValueError("contrast must be positive")

    s = _per_shot_signals(records)
    n = len(s)
    mean = float(np.mean(s))
    sigma_s = float(np.std(s, ddof=1) / np.sqrt(n)) if n > 1 else float("nan")

    mult = fringe_multiplier(proto, n_ions)
    if proto == PROTO_STANDARD:
        u = (1.0 - 2.0 * mean) / contrast
        # dS/d(dw) for S = excited fraction; |.| taken after inversion.
        slope_scale = 0.5 * contrast * t_r
        phi = final_phase
    else:
        u = mean / contrast
        slope_scale = contrast * mult * t_r
        phi = 0.0 if proto == PROTO_GHZ_REVERSED else final_phase

    u = float(np.clip(u, -1.0, 1.0))
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
    if negative_branch:
        x_hat = -x_hat
    delta_hat = (x_hat - phi) / (mult * t_r)
    sigma = sigma_s / slope
    return delta_hat, sigma, omega_r


def estimate_frequency(
    records: Sequence[TrialRecord],
    method: str = "single_fringe",
    *,
    contrast: float = 1.0,
    final_phase: float = 0.0,
    operating_phase: float | None = None,
) -> EstimateRecord:
    """Invert trial records into a detuning estimate with 1-sigma error.

    single_fringe: all records share one configuration; the fringe model is
    inverted at the sample mean (arccos principal branch, assuming the
    operating point sits in (0, pi) — the half-fringe convention).
    ``estimate`` is dw_hat = omega_R - omega0_hat; uncertainty is
    sigma_S / |dS/d omega| with sigma_S the standard error of the mean.

    two_point: records must come from exactly two omega_R settings
    bracketing the resonance; each group is inverted on its own branch
    (lower setting negative) and the two implied omega0 values averaged.
    ``estimate`` is the group-mean omega_R minus omega0_hat.

    ``contrast`` is the model fringe contrast (pass
    :func:`ensemble_contrast` output for dephased runs). ``operating_phase``
    pins the sensitivity evaluation to a known designed phase (e.g. pi/2 at
    the half-fringe) instead of the inverted one.
    """
    if not records:
        raise ValueError("no records to estimate from")
    if method == "single_fringe":
        delta_hat, sigma, omega_r = _invert_group(
            records, contrast, final_phase, operating_phase=operating_phase
        )
        return EstimateRecord(
            protocol=records[0].protocol,
            n_ions=records[0].n_ions,
            t_ramsey=records[0].t_ramsey,
            omega_r=omega_r,
            seed=records[0].seed,
            estimate=delta_hat,
            sigma=sigma,
            n_trials=len(records),
            method=method,
        )
    if method != "two_point":
        raise ValueError(f"unknown method {method!r}")
    settings = sorted({r.omega_r for r in records})
    if len(settings) != 2:
        raise ValueError(
            f"two_point needs records from exactly 2 omega_R settings, got {len(settings)}"
        )
    low = [r for r in records if r.omega_r == settings[0]]
    high = [r for r in records if r.omega_r == settings[1]]
    d_low, s_low, w_low = _invert_group(
        low, contrast, final_phase, negative_branch=True, operating_phase=operating_phase
    )
    d_high, s_high, w_high = _invert_group(
        high, contrast, final_phase, operating_phase=operating_phase
    )
    omega0_hat = 0.5 * ((w_low - d_low) + (w_high - d_high))
    mean_setting = 0.5 * (w_low + w_high)
    sigma = 0.5 * float(np.hypot(s_low, s_high))
    return EstimateRecord(
        protocol=records[0].protocol,
        n_ions=records[0].n_ions,
        t_ramsey=records[0].t_ramsey,
        omega_r=mean_setting,
        seed=records[0].seed,
        estimate=mean_setting - omega0_hat,
        sigma=sigma,
        n_trials=len(records),
        method=method,
    )


# ---------------------------------------------------------------------------
# Two-point calibration
# ---------------------------------------------------------------------------


TruthSimulator = Callable[[float, float, float], float]
"""Measured fringe signal as a function of (omega_r, t_ramsey, phi_f)."""


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
    fn: Callable[[float], float], lo: float, hi: float, n_grid: int
) -> list[float]:
    """All sign-change roots of fn on [lo, hi] found via a uniform grid."""
    xs = np.linspace(lo, hi, n_grid)
    ys = np.array([fn(x) for x in xs])
    roots = []
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
    omega0_now = omega0_prev
    if history is not None:
        history.append((0, omega_r1, omega_r2, phi_f, omega0_prev))

    for iteration in range(1, max_iter + 1):
        # Step 1: null the signal difference at the short time via phi_f.
        def phase_diff(phi: float) -> float:
            return truth_simulator(omega_r1, cal.t_r1, phi) - truth_simulator(
                omega_r2, cal.t_r1, phi
            )

        scale = max(
            abs(truth_simulator(omega_r1, cal.t_r1, phi_f)),
            abs(truth_simulator(omega_r2, cal.t_r1, phi_f)),
            1e-30,
        )
        if abs(phase_diff(phi_f)) > 1e-14 * scale:
            roots = _bracketed_roots(phase_diff, -np.pi / 2, np.pi / 2, 41)
            if not roots:
                raise ConvergenceError(
                    "no readout phase nulls the short-time signal difference"
                )
            phi_f = min(roots, key=abs)

        # Step 2: match the long-time signals by moving omega_r1.
        def freq_diff(omega: float) -> float:
            return truth_simulator(omega, cal.t_r2, phi_f) - truth_simulator(
                omega_r2, cal.t_r2, phi_f
            )

        roots = _bracketed_roots(
            freq_diff, omega_r1 - window, omega_r1 + window, 81
        )
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
    truth_simulator: TruthSimulator,
    omega_r: float,
    t_r: float,
    n_ions: int,
    *,
    assumed_contrast: float = 1.0,
    phi_f: float = 0.0,
) -> float:
    """Single-measurement inversion assuming a known contrast.

    The comparison baseline for the calibration loop: any unmodelled
    contrast decay B(T_R) biases this estimate, since it inverts
    S = B * cos(L dw T_R + phi_f) as if B were ``assumed_contrast``.
    Assumes the setting sits above the resonance (positive branch).
    """
    s = truth_simulator(omega_r, t_r, phi_f)
    u = float(np.clip(s / assumed_contrast, -1.0, 1.0))
    delta_hat = (np.arccos(u) - phi_f) / (n_ions * t_r)
    return omega_r - delta_hat


def make_truth_simulator(
    cfg: RamseyConfig,
    *,
    bias: Callable[[float], float] | None = None,
) -> TruthSimulator:
    """Expectation-mode GHZ signal closure for calibration runs.

    ``bias`` multiplies the signal by B(t_ramsey), emulating a T_R-dependent
    contrast systematic.
    """

    def simulate(omega_r: float, t_ramsey: float, phi_f: float) -> float:
        local = replace(
            cfg,
            omega_r=omega_r,
            t_ramsey=t_ramsey,
            final_phase=phi_f,
            allow_wrap=True,
        )
        s = ghz_signal(local)
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


def fit_fringe_frequency(
    t_grid: np.ndarray, signal: np.ndarray, f0: float | None = None
) -> FringeFit:
    """Fit A cos(f t + phi) + c to a scanned fringe; init from the FFT peak."""
    t = np.asarray(t_grid, dtype=float)
    s = np.asarray(signal, dtype=float)
    if len(t) < 8:
        raise FitError("need at least 8 samples to fit a fringe")
    if f0 is None:
        dt = t[1] - t[0]
        spectrum = np.abs(np.fft.rfft(s - np.mean(s)))
        freqs = 2 * np.pi * np.fft.rfftfreq(len(s), d=dt)
        f0 = float(freqs[int(np.argmax(spectrum[1:])) + 1])

    def model(tt, amp, freq, phase, offset):
        return amp * np.cos(freq * tt + phase) + offset

    amp0 = (np.max(s) - np.min(s)) / 2 or 1.0
    try:
        with warnings.catch_warnings():
            # Noise-free scans fit exactly; the (discarded) covariance is
            # then singular and scipy warns about it.
            warnings.simplefilter("ignore", OptimizeWarning)
            popt, _ = curve_fit(
                model,
                t,
                s,
                p0=[amp0, f0, 0.0, float(np.mean(s))],
                maxfev=20000,
                xtol=1e-15,
                ftol=1e-15,
                gtol=1e-15,
            )
    except RuntimeError as exc:  # pragma: no cover - pathological inputs
        raise FitError(f"fringe fit failed to converge: {exc}") from exc
    amp, freq, phase, offset = popt
    if amp < 0:
        amp, phase = -amp, phase + np.pi
    freq = abs(freq)
    phase = float(np.arctan2(np.sin(phase), np.cos(phase)))
    return FringeFit(frequency=float(freq), amplitude=float(amp), phase=phase, offset=float(offset))
