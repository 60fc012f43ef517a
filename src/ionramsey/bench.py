"""Scaling studies, sampled (Monte Carlo) or at infinite trials.

Two benchmarks:

* :func:`scan_scaling` — frequency-estimate uncertainty versus ion number at
  fixed Ramsey time, noise-free. The unentangled protocol follows the
  projection-noise (shot-noise) limit ``1/sqrt(L T_R tau)``; the GHZ
  protocol follows ``1/(L sqrt(T_R tau))``, i.e. log-log slopes -1/2 and -1
  in L.
* :func:`dephasing_benchmark` — ``sigma(dw) sqrt(tau)`` versus T_R at fixed
  dephasing rate. The GHZ optimum sits at a Ramsey time shorter by a factor
  of L, and the optimal sensitivities of the two protocols coincide: under
  this noise model entanglement buys no precision, only speed.

Time accounting charges tau = trials * T_R (zero dead time). Each
(protocol, grid point) run draws all of its trials from its own
counter-based random stream, so a report depends on its seed alone. A point
keeps only the mean and standard error of its trials' signal, which their 2L
readout-class counts fix: it draws those counts, one multinomial over its Born
table (:func:`.register.sample_counts`), and inverts them (:func:`.protocols.estimate_frequency`).
An analytic point (``mode="analytic"``) inverts the same table's class masses
instead, so the infinite-trial curves are outputs of the simulator too.

Every experiment is run at its half-fringe operating point (detuning
pi/(2 m T_R) with m the protocol's fringe multiplier) and the estimator's
sensitivity is evaluated at that designed phase.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import streams
from .errors import ConfigError, DegenerateSlopeError
from .noise import NoiseSpec
from .protocols import (
    Protocol,
    RamseyConfig,
    _run_state,
    estimate_frequency,
)
from .register import _class_masses, sample_counts

# The two protocols every benchmark compares; reports label them by family.
PROTOCOLS = (Protocol.STANDARD, Protocol.GHZ_PARITY)

SCHEMA_VERSION = 1


def theory_sigma(protocol: Protocol, n_ions: int, t_ramsey: float, tau: float) -> float:
    """Noise-free uncertainty limit for one protocol; a ``ConfigError`` when
    the product of the times under the root leaves the float range."""
    exposure = (n_ions * t_ramsey if protocol is Protocol.STANDARD else t_ramsey) * tau
    if not 0.0 < exposure < math.inf:
        raise ConfigError(
            f"T_R = {t_ramsey!r} and tau = {tau!r} under- or overflow the uncertainty limit"
        )
    if protocol is Protocol.STANDARD:
        return 1.0 / math.sqrt(exposure)
    return 1.0 / (n_ions * math.sqrt(exposure))


def _half_fringe_sigma(
    protocol: Protocol,
    n_ions: int,
    t_ramsey: float,
    shots: int,
    path: tuple[int, ...] | None,
    *,
    omega_0: float = 0.0,
    noise: NoiseSpec | None = None,
) -> float:
    """The estimate's sigma for a run of ``shots`` trials at the half fringe
    above ``omega_0``, dephased by ``noise``: :func:`.protocols.estimate_frequency`
    of its Born table's class counts, one multinomial draw on the stream
    ``stream(*path, 0)``, or with no ``path`` of the table's class masses
    (infinite trials). The sigma must be finite and > 0: when every shot of
    a small run agrees it is 0, which measures nothing and would reach a log
    or a ratio (``DegenerateSlopeError``)."""
    cfg = RamseyConfig(
        n_ions=n_ions,
        t_ramsey=t_ramsey,
        omega_r=omega_0 + np.pi / (2 * protocol.multiplier(n_ions) * t_ramsey),
        omega_0=omega_0,
        noise=noise,
        protocol=protocol,
        shots=shots,
    )
    table = _run_state(cfg)
    if path is None:
        weights = _class_masses(table)
    else:
        weights = sample_counts(table, shots, streams.stream(*path, 0))
    sigma = estimate_frequency(cfg, weights, operating_phase=np.pi / 2).sigma
    if not 0.0 < sigma < math.inf:
        raise DegenerateSlopeError(
            f"the {protocol.family} run at L = {n_ions}, T_R = {t_ramsey!r} has sigma {sigma}"
            + (f": its {shots} shots show no spread" if sigma == 0.0 else "")
        )
    return sigma


# ---------------------------------------------------------------------------
# Scaling in L
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingPoint:
    protocol: str
    n_ions: int
    t_ramsey: float
    tau: float
    sigma_measured: float
    sigma_theory: float
    ratio: float


@dataclass(frozen=True)
class ScalingReport:
    points: tuple[ScalingPoint, ...]
    slopes: dict[str, float]
    slope_sigma: dict[str, float]
    low_statistics: bool


def _loglog_slope(l_values: np.ndarray, sigmas: np.ndarray) -> tuple[float, float]:
    """The ordinary least-squares slope of log sigma against log L and its
    1-sigma error sqrt(SSR / (n - 2) / Sxx), what ``np.polyfit(x, y, 1,
    cov=True)`` quotes; two points fix the line exactly, with no residual to
    scale an error by, so their error is 0."""
    x = np.log(np.asarray(l_values, dtype=float))
    y = np.log(np.asarray(sigmas, dtype=float))
    dx, dy = x - np.mean(x), y - np.mean(y)
    sxx = float(dx @ dx)
    slope = float(dx @ dy) / sxx
    if len(x) < 3:
        return slope, 0.0
    residuals = dy - slope * dx
    return slope, math.sqrt(float(residuals @ residuals) / (len(x) - 2) / sxx)


def scan_scaling(
    l_values: list[int],
    trials: int = 10_000,
    *,
    t_ramsey: float = 1.0,
    omega_0: float = 0.0,
    seed: int = 0,
    mode: str = "sampled",
) -> ScalingReport:
    """Measure sigma(dw) for both protocols over a list of ion numbers.

    Each point runs ``trials`` noiseless shots of Ramsey time ``t_ramsey``
    at the half-fringe operating point above the resonance ``omega_0`` and
    propagates the per-shot sample spread, which the shots' readout-class
    counts fix (``mode="analytic"``: the Born table's class masses, exactly),
    through the fringe slope. Slopes of log sigma vs log L are
    least-squares fits; their quoted 1-sigma uncertainty comes from the fit
    covariance (with few trials the points scatter more and the interval
    widens accordingly; sampled reports with fewer than 1000 trials are
    additionally flagged ``low_statistics``).
    """
    if mode not in ("sampled", "analytic"):
        raise ConfigError(f"unknown mode {mode!r}")
    if len(set(l_values)) < 2:
        raise ConfigError("need at least two distinct L values to fit a scaling slope")
    if not t_ramsey > 0:
        raise ConfigError(f"scaling needs t_ramsey > 0, got {t_ramsey!r}")
    points: list[ScalingPoint] = []
    slopes: dict[str, float] = {}
    slope_sigma: dict[str, float] = {}
    for proto_idx, protocol in enumerate(PROTOCOLS):
        sigmas = []
        for l_idx, n_ions in enumerate(l_values):
            path = (seed, proto_idx, l_idx) if mode == "sampled" else None
            sigma = _half_fringe_sigma(protocol, n_ions, t_ramsey, trials, path, omega_0=omega_0)
            sigmas.append(sigma)
            tau = trials * t_ramsey
            theory = theory_sigma(protocol, n_ions, t_ramsey, tau)
            points.append(
                ScalingPoint(
                    protocol=protocol.family,
                    n_ions=n_ions,
                    t_ramsey=t_ramsey,
                    tau=tau,
                    sigma_measured=sigma,
                    sigma_theory=theory,
                    ratio=sigma / theory,
                )
            )
        slopes[protocol.family], slope_sigma[protocol.family] = _loglog_slope(
            np.array(l_values), np.array(sigmas)
        )
    return ScalingReport(
        points=tuple(points),
        slopes=slopes,
        slope_sigma=slope_sigma,
        low_statistics=mode == "sampled" and trials < 1000,
    )


# ---------------------------------------------------------------------------
# Dephasing benchmark
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DephasingCurve:
    t_grid: tuple[float, ...]
    sigma_tau: tuple[float, ...]
    t_opt: float
    min_value: float
    argmin_on_boundary: bool


@dataclass(frozen=True)
class DephasingReport:
    curves: dict[str, DephasingCurve]
    t_opt_ratio: float
    min_ratio: float


def golden_section(
    fn: Callable[[float], float], lo: float, hi: float, iters: int = 12
) -> list[tuple[float, float]]:
    """Bounded golden-section minimization; returns all (x, fn(x)) evals."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    evals = [(c, fc), (d, fd)]
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
            evals.append((c, fc))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
            evals.append((d, fd))
    return evals


def dephasing_benchmark(
    gamma: float,
    n_ions: int,
    t_grid: np.ndarray,
    trials: int = 10_000,
    *,
    seed: int = 0,
    mode: str = "sampled",
    refine: bool = True,
    refine_iters: int = 10,
) -> DephasingReport:
    """sigma(dw)*sqrt(tau) vs T_R for both protocols under independent
    dephasing at rate gamma; locates each protocol's optimum Ramsey time.

    ``mode="sampled"`` runs Monte Carlo trials (one projective shot per
    trial, drawn from the dephased Born table and tallied by readout class);
    ``mode="analytic"`` inverts that table's class masses (infinite trials;
    ``trials`` is not read). After the coarse grid, the optimum is refined
    by golden section inside the bracketing grid cells unless the coarse
    argmin sits on the grid boundary (then it is flagged and left as is).
    """
    if gamma <= 0:
        raise ConfigError("dephasing benchmark needs gamma > 0")
    t_grid = np.asarray(t_grid, dtype=float)
    if len(t_grid) < 3 or np.any(np.diff(t_grid) <= 0):
        raise ConfigError("t_grid must be increasing with at least 3 points")
    if mode not in ("sampled", "analytic"):
        raise ConfigError(f"unknown mode {mode!r}")
    noise = NoiseSpec(gamma=gamma, mode="independent")

    def sigma_tau(protocol: Protocol, t_ramsey: float, path: tuple[int, ...]) -> float:
        """One curve point: a sampled run on the stream (seed, *path), or one
        analytic trial, whose sigma * sqrt(tau) is that of any number of them."""
        shots, run = (trials, (seed, *path)) if mode == "sampled" else (1, None)
        sigma = _half_fringe_sigma(protocol, n_ions, t_ramsey, shots, run, noise=noise)
        value = float(sigma) * math.sqrt(shots * t_ramsey)
        if math.isfinite(value):  # Python floats overflow to inf without a warning
            return value
        raise ConfigError(f"sigma * sqrt(tau) overflows at T_R = {t_ramsey!r}")

    curves: dict[str, DephasingCurve] = {}
    for p, protocol in enumerate(PROTOCOLS):
        points = enumerate(t_grid.tolist())  # Python floats, which messages print plainly
        grid_vals = np.array([sigma_tau(protocol, t, (p, k)) for k, t in points])
        k_min = int(np.argmin(grid_vals))
        on_boundary = k_min in (0, len(t_grid) - 1)
        t_opt = float(t_grid[k_min])
        min_value = float(grid_vals[k_min])
        if refine and not on_boundary:
            # The j-th refinement evaluation draws from the stream (seed, p, 10_000 + j).
            refine_paths = ((p, j) for j in itertools.count(10_001))
            evals = golden_section(
                lambda t: sigma_tau(protocol, t, next(refine_paths)),
                float(t_grid[k_min - 1]), float(t_grid[k_min + 1]), refine_iters,
            )
            for x, fx in evals:
                if fx < min_value:
                    t_opt, min_value = float(x), float(fx)
        curves[protocol.family] = DephasingCurve(
            t_grid=tuple(float(t) for t in t_grid),
            sigma_tau=tuple(float(v) for v in grid_vals),
            t_opt=t_opt,
            min_value=min_value,
            argmin_on_boundary=on_boundary,
        )

    std, ghz = (curves[protocol.family] for protocol in PROTOCOLS)
    return DephasingReport(
        curves=curves,
        t_opt_ratio=ghz.t_opt / std.t_opt,
        min_ratio=ghz.min_value / std.min_value,
    )
