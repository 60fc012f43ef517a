"""Stochastic pure-state noise: dephasing trajectories and imperfect GHZ
preparation.

Dephasing is modelled as a random phase on each ion's |up> amplitude drawn
fresh per trajectory: Gaussian, zero mean, variance ``2*gamma*t``. Averaged
over trajectories this reproduces exponential coherence decay exactly —
``<e^{i phi}> = e^{-gamma t}`` for one ion, and ``e^{-L gamma t}`` for the
relative coherence of an L-ion GHZ state under independent noise, because
the GHZ components accumulate the *sum* of the per-ion phases. In common
mode all ions share one draw, so the GHZ phase variance grows as L^2. Phases
are drawn one trajectory at a time and applied a batch at a time.

Preparation imperfection is modelled as small coherent admixtures of the
symmetric (fixed-excitation) states into the GHZ state; scanning the Ramsey
fringe of such a state produces a multi-harmonic signal with one component
per excitation number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .errors import NormError
from .register import DickeState, QubitRegister, excitation_counts

Mode = str  # "independent" | "common"


@dataclass(frozen=True)
class NoiseSpec:
    """Dephasing rate and correlation mode.

    ``gamma`` is the single-ion dephasing rate (1/s). ``independent`` draws
    one phase per ion; ``common`` draws a single phase shared by all ions
    (drive/clock frequency jitter rather than per-ion magnetic noise).
    Stream derivation for trials lives in :mod:`ionramsey.streams`; sampling
    here takes an explicit Generator.
    """

    gamma: float
    mode: Mode = "independent"

    def __post_init__(self) -> None:
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.mode not in ("independent", "common"):
            raise ValueError(f"mode must be 'independent' or 'common', got {self.mode!r}")


def sample_dephasing_phases(
    spec: NoiseSpec, t: float, n_ions: int, rng: np.random.Generator
) -> np.ndarray:
    """One phase per ion for a single free-evolution interval of length t."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    sigma = np.sqrt(2.0 * spec.gamma * t)
    if sigma == 0.0:
        return np.zeros(n_ions)
    if spec.mode == "common":
        return np.full(n_ions, rng.normal(0.0, sigma))
    return rng.normal(0.0, sigma, size=n_ions)


def apply_phase_noise(reg: QubitRegister, phases: np.ndarray) -> QubitRegister:
    """Phase each basis state of an ion register (no bus) by the sum of its
    excited ions' phases; ``phases`` is ``(..., n_ions)``, broadcast against
    the batch axes, one trajectory a row."""
    phases = np.asarray(phases, dtype=float)
    if phases.shape[-1:] != (reg.n_ions,):
        raise ValueError(
            f"need one phase per ion: expected shape (..., {reg.n_ions}), got {phases.shape}"
        )
    idx = np.arange(1 << reg.n_ions, dtype=np.int64)
    total = np.zeros(phases.shape[:-1] + idx.shape)
    for b in range(reg.n_ions):
        # Bit b (counting from the least significant bit) is ion L-b.
        total += ((idx >> b) & 1) * phases[..., reg.n_ions - 1 - b, None]
    return QubitRegister(reg.n_ions, reg.has_bus, reg.amplitudes * np.exp(1j * total))


@dataclass(frozen=True)
class ImperfectionSpec:
    """Coherent admixtures of fixed-excitation symmetric states.

    ``epsilon`` maps excitation number p (1 <= p <= L-1) to a complex
    amplitude added, unnormalized, onto the symmetric p-excitation state.
    """

    epsilon: dict[int, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for p in self.epsilon:
            if p < 1:
                raise ValueError(f"admixture excitation number must be >= 1, got {p}")


def symmetric_state(n_ions: int, p: int) -> np.ndarray:
    """Amplitudes of the normalized symmetric state with p ions excited."""
    if not 0 <= p <= n_ions:
        raise ValueError(f"excitation number {p} outside [0, {n_ions}]")
    counts = excitation_counts(n_ions, False)
    amps = np.zeros(len(counts), dtype=np.complex128)
    amps[counts == p] = 1.0 / np.sqrt(comb(n_ions, p))
    return amps


def perturb_ghz(
    state: QubitRegister | DickeState, spec: ImperfectionSpec
) -> QubitRegister | DickeState:
    """Add the specified symmetric-state admixtures and renormalize: dense
    amplitudes gain ``eps * symmetric_state(L, p)``, Dicke amplitudes
    ``eps`` at p, the same state in the other basis."""
    dicke = isinstance(state, DickeState)
    amps = (state.dicke if dicke else state.amplitudes).copy()
    for p, eps in sorted(spec.epsilon.items()):
        if p > state.n_ions - 1:
            raise ValueError(
                f"admixture excitation {p} is not an intermediate component "
                f"for {state.n_ions} ions"
            )
        if dicke:
            amps[p] += complex(eps)
        else:
            amps += complex(eps) * symmetric_state(state.n_ions, p)
    norm = np.sqrt(np.sum(np.abs(amps) ** 2))
    if norm < 1e-12:
        raise NormError("perturbed state has zero norm; cannot renormalize")
    if dicke:
        return DickeState(state.n_ions, amps / norm)
    return QubitRegister(state.n_ions, state.has_bus, amps / norm)
