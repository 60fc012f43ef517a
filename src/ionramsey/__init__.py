"""Ramsey spectroscopy simulations on entangled trapped-ion registers.

Standard and GHZ Ramsey runs on strings of up to 24 ions, simulated in the
(L + 1)-dimensional symmetric subspace, with dephasing noise and coherent
GHZ imperfections; frequency-estimation protocols, and Monte Carlo
benchmarks of how the estimate uncertainty scales with ion number and
interrogation time. The gate-level scheme that prepares the GHZ states (a
dense state vector with an optional motional bus qubit, CNOTs through the
bus) is :mod:`ionramsey.gates`, imported by name and not re-exported here.
"""

__version__ = "0.1.0"

from .bench import (
    DephasingCurve,
    DephasingReport,
    ScalingPoint,
    ScalingReport,
    dephasing_benchmark,
    scan_scaling,
    theory_sigma,
)
from .errors import (
    AmbiguousFringeError,
    CapacityError,
    ConfigError,
    ConvergenceError,
    DegenerateSlopeError,
    FitError,
    IonRamseyError,
    NormError,
    ProtocolError,
)
from .noise import ImperfectionSpec, NoiseSpec
from .protocols import (
    CalibrationState,
    Estimate,
    FourierFit,
    FringeFit,
    Protocol,
    RamseyConfig,
    estimate_frequency,
    expected_signal,
    fit_fringe_frequency,
    flag_large_admixture,
    fourier_decompose,
    make_truth_simulator,
    naive_single_point_omega0,
    run_ramsey,
    synthesize_signal,
    two_point_calibrate,
)
from .register import MAX_IONS
from .streams import stream

__all__ = [
    "AmbiguousFringeError",
    "CalibrationState",
    "CapacityError",
    "ConfigError",
    "ConvergenceError",
    "DegenerateSlopeError",
    "DephasingCurve",
    "DephasingReport",
    "Estimate",
    "FitError",
    "FourierFit",
    "FringeFit",
    "ImperfectionSpec",
    "IonRamseyError",
    "MAX_IONS",
    "NoiseSpec",
    "NormError",
    "Protocol",
    "ProtocolError",
    "RamseyConfig",
    "ScalingPoint",
    "ScalingReport",
    "dephasing_benchmark",
    "estimate_frequency",
    "expected_signal",
    "fit_fringe_frequency",
    "flag_large_admixture",
    "fourier_decompose",
    "make_truth_simulator",
    "naive_single_point_omega0",
    "run_ramsey",
    "scan_scaling",
    "stream",
    "synthesize_signal",
    "theory_sigma",
    "two_point_calibrate",
]
