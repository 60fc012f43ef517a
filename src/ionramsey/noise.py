"""Stochastic pure-state noise: dephasing trajectories and imperfect GHZ
preparation.

Dephasing is modelled as a random phase on each ion's |up> amplitude drawn
fresh per trajectory: Gaussian, zero mean, variance ``2*gamma*t``. Averaged
over trajectories this reproduces exponential coherence decay exactly —
``<e^{i phi}> = e^{-gamma t}`` for one ion, and ``e^{-L gamma t}`` for the
relative coherence of an L-ion GHZ state under independent noise, because
the GHZ components accumulate the *sum* of the per-ion phases. In common
mode all ions share one draw, so the GHZ phase variance grows as L^2. A
batch's phases are drawn as one block, a row a trajectory, and applied to the
dense register as the Kronecker product of the per-ion factors (1, e^{i phi_k}).

Preparation imperfection is modelled as small coherent admixtures of the
symmetric (fixed-excitation) states, added to the GHZ state's Dicke
amplitudes; scanning the Ramsey fringe of such a state produces a
multi-harmonic signal with one component per excitation number.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NormError
from .register import DickeState, QubitRegister

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
    spec: NoiseSpec, t: float, n_ions: int, rng: np.random.Generator, shots: int
) -> np.ndarray:
    """Phases ``(shots, n_ions)`` over a free evolution t, row k trajectory k, from one
    ``rng.normal`` block; common mode draws ``(shots, 1)``, broadcast. None at zero variance."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    sigma = np.sqrt(2.0 * spec.gamma * t)
    if sigma == 0.0:
        return np.zeros((shots, n_ions))
    if spec.mode == "common":
        return np.broadcast_to(rng.normal(0.0, sigma, size=(shots, 1)), (shots, n_ions))
    return rng.normal(0.0, sigma, size=(shots, n_ions))


def apply_phase_noise(reg: QubitRegister, phases: np.ndarray) -> QubitRegister:
    """Phase each basis state of an ion register (no bus) by the sum of its
    excited ions' phases; ``phases`` is ``(..., n_ions)``, broadcast against
    the batch axes, one trajectory a row. The factor is the Kronecker product
    of (1, e^{i phi_k}) over the ions, ion 1 (the most significant bit) the
    outermost: L ``exp`` calls a row and about 2 * 2**L multiplies."""
    phases = np.asarray(phases, dtype=float)
    if phases.shape[-1:] != (reg.n_ions,):
        raise ValueError(
            f"need one phase per ion: expected shape (..., {reg.n_ions}), got {phases.shape}"
        )
    n = reg.n_ions
    ions = np.exp(1j * phases)
    factor = np.empty(phases.shape[:-1] + (1 << n,), dtype=np.complex128)
    factor[..., 0] = 1.0
    for j in range(n):  # bit j is ion L - j: it doubles the factor built so far
        lower = factor[..., : 1 << j]
        np.multiply(lower, ions[..., n - 1 - j, None], out=factor[..., 1 << j : 2 << j])
    return QubitRegister(reg.n_ions, reg.has_bus, reg.amplitudes * factor)


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


def perturb_ghz(state: DickeState, spec: ImperfectionSpec) -> DickeState:
    """Add the specified admixtures to the Dicke amplitudes, ``eps`` at its
    excitation number p, and renormalize."""
    amps = state.dicke.copy()
    for p, eps in sorted(spec.epsilon.items()):
        if p > state.n_ions - 1:
            raise ValueError(
                f"admixture excitation {p} is not an intermediate component "
                f"for {state.n_ions} ions"
            )
        amps[p] += complex(eps)
    norm = np.sqrt(np.sum(np.abs(amps) ** 2))
    if norm < 1e-12:
        raise NormError("perturbed state has zero norm; cannot renormalize")
    return DickeState(state.n_ions, amps / norm)
