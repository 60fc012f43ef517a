"""Dephasing and imperfect GHZ preparation.

Dephasing is a random phase on each ion's |up> amplitude during the free
evolution: Gaussian, zero mean, variance ``2*gamma*t``, drawn per ion
(``independent``) or shared by every ion (``common``). A shot only sees the
phases through its readout, and shots are independent, so each shot's
readout follows the Born table of the phase-averaged (dephased) density
matrix. Its coherences are the characteristic function of the phases,
:func:`_coherence_decay`: a coherence between basis states whose excited
ions differ in m places decays as ``e^{-m gamma t}`` under independent noise
and as ``e^{-m^2 gamma t}`` under common noise when the m differences all
point one way, as in the two halves of an L-ion GHZ state.

Preparation imperfection is modelled as small coherent admixtures of the
symmetric (fixed-excitation) states, added to the GHZ state's Dicke
amplitudes; scanning the Ramsey fringe of such a state produces a
multi-harmonic signal with one component per excitation number.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NormError
from .register import DickeState

Mode = str  # "independent" | "common"


@dataclass(frozen=True)
class NoiseSpec:
    """Dephasing rate and correlation mode.

    ``gamma`` is the single-ion dephasing rate (1/s). ``independent`` gives
    each ion its own phase; ``common`` gives all ions one shared phase
    (drive/clock frequency jitter rather than per-ion magnetic noise).
    """

    gamma: float
    mode: Mode = "independent"

    def __post_init__(self) -> None:
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.mode not in ("independent", "common"):
            raise ValueError(f"mode must be 'independent' or 'common', got {self.mode!r}")


def _coherence_decay(
    noise: NoiseSpec, t: float, ions: int | np.ndarray, net: int | np.ndarray | None = None
) -> float | np.ndarray:
    """Mean of e^{i (s_1 phi_1 + ... + s_L phi_L)} over the dephasing phases
    of a free evolution t, each s_i in {-1, 0, 1}: ``ions`` of them nonzero,
    summing to ``net`` (default ``ions``). Independent phases give
    e^{-ions gamma t}; a common one gives e^{-net**2 gamma t}."""
    m = ions if net is None else net
    k = m * m if noise.mode == "common" else ions
    return np.exp(-k * (noise.gamma * t))


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
