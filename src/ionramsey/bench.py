"""Monte Carlo scaling studies.

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
(protocol, grid point, batch) gets its own counter-based random stream, so
a report depends on its seed alone.

Every experiment is run at its half-fringe operating point (detuning
pi/(2 m T_R) with m the protocol's fringe multiplier) and the estimator's
sensitivity is evaluated at that designed phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import streams
from .errors import ConfigError, DegenerateSlopeError
from .noise import NoiseSpec
from .protocols import (
    Protocol,
    RamseyConfig,
    Trials,
    _run_state,
    _sample,
    ensemble_contrast,
    estimate_frequency,
)

# The two protocols every benchmark compares; reports label them by family.
PROTOCOLS = (Protocol.STANDARD, Protocol.GHZ_PARITY)

SCHEMA_VERSION = 1
BATCH_SHOTS = 2000  # shots a random stream draws; a longer run takes several


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


def analytic_sigma_tau(
    protocol: Protocol, n_ions: int, gamma: float, t_ramsey: float
) -> float:
    """sigma(dw)*sqrt(tau) under independent dephasing, infinite trials: the
    noise-free limit at unit tau divided by the ensemble fringe contrast
    (a ``ConfigError`` where that contrast underflows to 0)."""
    noise = NoiseSpec(gamma=gamma, mode="independent")
    contrast = ensemble_contrast(n_ions, noise, t_ramsey, protocol)
    if contrast == 0.0:
        raise ConfigError(
            f"the {protocol.family} contrast exp(-gamma T_R ...) underflows to 0 at "
            f"gamma = {gamma!r}, T_R = {t_ramsey!r}"
        )
    return theory_sigma(protocol, n_ions, t_ramsey, 1.0) / contrast


def _half_fringe_sigma(run: Trials, contrast: float = 1.0) -> float:
    """The estimate's sigma for a run at the half fringe. It must be finite
    and > 0: when every shot of a small run agrees it is 0, which measures
    nothing and would reach a log or a ratio (``DegenerateSlopeError``)."""
    sigma = estimate_frequency(run, contrast=contrast, operating_phase=np.pi / 2).sigma
    if not 0.0 < sigma < math.inf:
        raise DegenerateSlopeError(
            f"the {run.protocol.family} run at L = {run.n_ions}, T_R = {run.t_ramsey!r} "
            f"has sigma {sigma}: its {len(run.outcomes)} shots show no spread"
        )
    return sigma


def _half_fringe_config(
    template: RamseyConfig, protocol: Protocol, n_ions: int, t_ramsey: float, shots: int
) -> RamseyConfig:
    mult = protocol.multiplier(n_ions)
    return replace(
        template,
        protocol=protocol,
        n_ions=n_ions,
        t_ramsey=t_ramsey,
        omega_r=template.omega_0 + np.pi / (2 * mult * t_ramsey),
        shots=shots,
        final_phase=0.0,
    )


def _run_batches(
    cfg: RamseyConfig, trials: int, seed: int, path_prefix: tuple[int, ...]
) -> Trials:
    """``trials`` shots of cfg in batches of ``BATCH_SHOTS``, all sampled from
    one prepared state; batch b draws from ``stream(seed, *path_prefix, b)``,
    labelled ``seed/.../b``, and the batches are joined in batch order."""
    n_batches = math.ceil(trials / BATCH_SHOTS)
    sizes = [min(BATCH_SHOTS, trials - b * BATCH_SHOTS) for b in range(n_batches)]
    state = _run_state(cfg)

    def one_batch(b: int) -> Trials:
        rng = streams.stream(seed, *path_prefix, b)
        label = "/".join(str(p) for p in (seed, *path_prefix, b))
        return _sample(replace(cfg, shots=sizes[b]), state, rng, label)

    batches = [one_batch(b) for b in range(n_batches)]
    return replace(
        batches[0],
        outcomes=np.concatenate([batch.outcomes for batch in batches]),
        batches=tuple(label for batch in batches for label in batch.batches),
    )


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
    trials: int
    seed: int
    low_statistics: bool


def _loglog_slope(l_values: np.ndarray, sigmas: np.ndarray) -> tuple[float, float]:
    x = np.log(np.asarray(l_values, dtype=float))
    y = np.log(np.asarray(sigmas, dtype=float))
    if len(x) < 3:
        # Two points fix the line exactly; no residual to scale an error by.
        coef = np.polyfit(x, y, 1)
        return float(coef[0]), 0.0
    coef, cov = np.polyfit(x, y, 1, cov=True)
    return float(coef[0]), float(np.sqrt(cov[0, 0]))


def scan_scaling(
    l_values: list[int],
    cfg_template: RamseyConfig | None = None,
    trials: int = 10_000,
    *,
    seed: int = 0,
) -> ScalingReport:
    """Measure sigma(dw) for both protocols over a list of ion numbers.

    Each point runs ``trials`` shots at the half-fringe operating point and
    propagates the per-shot sample spread through the fringe slope. Slopes
    of log sigma vs log L are least-squares fits; their quoted 1-sigma
    uncertainty comes from the fit covariance (with few trials the points
    scatter more and the interval widens accordingly; reports with fewer
    than 1000 trials are additionally flagged ``low_statistics``).
    """
    if len(l_values) < 2:
        raise ConfigError("need at least two L values to fit a scaling slope")
    if cfg_template is None:
        cfg_template = RamseyConfig(n_ions=1, t_ramsey=1.0, omega_r=0.0, omega_0=0.0)
    points: list[ScalingPoint] = []
    slopes: dict[str, float] = {}
    slope_sigma: dict[str, float] = {}
    for proto_idx, protocol in enumerate(PROTOCOLS):
        sigmas = []
        for l_idx, n_ions in enumerate(l_values):
            cfg = _half_fringe_config(
                cfg_template, protocol, n_ions, cfg_template.t_ramsey, trials
            )
            run = _run_batches(cfg, trials, seed, (proto_idx, l_idx))
            sigma = _half_fringe_sigma(run)
            sigmas.append(sigma)
            tau = trials * cfg.t_ramsey
            theory = theory_sigma(protocol, n_ions, cfg.t_ramsey, tau)
            points.append(
                ScalingPoint(
                    protocol=protocol.family,
                    n_ions=n_ions,
                    t_ramsey=cfg.t_ramsey,
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
        trials=trials,
        seed=seed,
        low_statistics=trials < 1000,
    )


# ---------------------------------------------------------------------------
# Dephasing benchmark
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DephasingCurve:
    protocol: str
    t_grid: tuple[float, ...]
    sigma_tau: tuple[float, ...]
    t_opt: float
    min_value: float
    argmin_on_boundary: bool


@dataclass(frozen=True)
class DephasingReport:
    gamma: float
    n_ions: int
    trials: int
    seed: int
    mode: str
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

    ``mode="sampled"`` runs Monte Carlo trials (one fresh noise draw and one
    projective shot per trial); ``mode="analytic"`` evaluates the
    infinite-trial formulas. After the coarse grid, the optimum is refined
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
    template = RamseyConfig(
        n_ions=n_ions, t_ramsey=1.0, omega_r=0.0, omega_0=0.0, noise=noise
    )

    curves: dict[str, DephasingCurve] = {}
    for proto_idx, protocol in enumerate(PROTOCOLS):
        def sampled_value(t_ramsey: float, path: tuple[int, ...]) -> float:
            cfg = _half_fringe_config(template, protocol, n_ions, t_ramsey, trials)
            run = _run_batches(cfg, trials, seed, path)
            contrast = ensemble_contrast(n_ions, noise, t_ramsey, protocol)
            value = float(_half_fringe_sigma(run, contrast)) * math.sqrt(trials * float(t_ramsey))
            if math.isfinite(value):  # Python floats overflow to inf without a warning
                return value
            raise ConfigError(f"sigma * sqrt(trials * T_R) overflows at T_R = {float(t_ramsey)!r}")

        def value(t_ramsey: float, path: tuple[int, ...]) -> float:
            if mode == "analytic":
                return analytic_sigma_tau(protocol, n_ions, gamma, t_ramsey)
            return sampled_value(t_ramsey, path)

        grid_vals = np.array(
            [value(t, (proto_idx, k)) for k, t in enumerate(t_grid)]
        )
        k_min = int(np.argmin(grid_vals))
        on_boundary = k_min in (0, len(t_grid) - 1)
        t_opt = float(t_grid[k_min])
        min_value = float(grid_vals[k_min])
        if refine and not on_boundary:
            counter = [0]

            def objective(t: float) -> float:
                counter[0] += 1
                return value(t, (proto_idx, 10_000 + counter[0]))

            evals = golden_section(
                objective, float(t_grid[k_min - 1]), float(t_grid[k_min + 1]), refine_iters
            )
            for x, fx in evals:
                if fx < min_value:
                    t_opt, min_value = float(x), float(fx)
        curves[protocol.family] = DephasingCurve(
            protocol=protocol.family,
            t_grid=tuple(float(t) for t in t_grid),
            sigma_tau=tuple(float(v) for v in grid_vals),
            t_opt=t_opt,
            min_value=min_value,
            argmin_on_boundary=on_boundary,
        )

    std, ghz = (curves[protocol.family] for protocol in PROTOCOLS)
    return DephasingReport(
        gamma=gamma,
        n_ions=n_ions,
        trials=trials,
        seed=seed,
        mode=mode,
        curves=curves,
        t_opt_ratio=ghz.t_opt / std.t_opt,
        min_ratio=ghz.min_value / std.min_value,
    )
