"""The four benchmark workloads: seeded job generators and physics oracles.

A job is one ``ionramsey.cli.main([...])`` call on an INI config generated
here. Each workload is a fixed *cycle* of job types; a run repeats the
cycle with fresh physics parameters drawn from the run's seed, so the same
seed always yields the same configs and the same job order. Job cost
depends only on the job type (ion number, protocol, shot count), never on
the drawn parameters.

Every job's outputs are checked against physics, not against stored bytes,
so a documented change in how random streams are consumed does not count
as a failure.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

NOISY_SHOTS = 300
WIDE_SHOTS = 2500  # more than one 2000-shot batch
DEPHASING_TRIALS = 500  # one batch per scan point
SCALING_TRIALS = 6000  # three batches per scan point, so two workers share them
SCAN_POINTS = 384


@dataclass(frozen=True)
class Job:
    kind: str  # job type, e.g. "ramsey/ghz_parity/L4"
    command: str  # ionramsey subcommand
    config: str  # INI text
    seed: int
    threads: int = 1
    expectation: bool = False
    truth: dict = field(default_factory=dict, compare=False)  # oracle inputs

    def argv(self, config_path: Path, out_dir: Path, threads: int | None = None) -> list[str]:
        argv = [
            self.command,
            "--config", str(config_path),
            "--seed", str(self.seed),
            "--out", str(out_dir),
            "--threads", str(self.threads if threads is None else threads),
        ]
        if self.expectation:
            argv.append("--expectation-mode")
        return argv


Maker = Callable[[np.random.Generator, int], Job]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    slots: tuple[tuple[Maker, ...], ...]  # one cycle; a slot rotates its makers
    cycle_wall_s: float  # wall seconds per cycle, overheads included, at definition time
    min_cycles: int
    trace_cycles: int
    determinism_slot: int = 0  # which job of the first cycle is re-run
    memory_bound: bool = False  # the speed sampler adds its memory kernel

    def plan(self, seed: int, cycles: int) -> list[Job]:
        """``cycles`` repetitions of the cycle; a prefix of a longer plan."""
        rng = np.random.default_rng(seed)
        return [
            slot[cycle % len(slot)](rng, int(rng.integers(2**31)))
            for cycle in range(cycles)
            for slot in self.slots
        ]

    def cycles_for(self, seconds: float) -> int:
        return max(self.min_cycles, round(seconds / self.cycle_wall_s))


def _ini(section: str, **values: object) -> str:
    lines = [f"[{section}]"]
    for key, value in values.items():
        lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _mult(protocol: str, n_ions: int) -> int:
    return n_ions if protocol == "ghz" else 1


def _proto_tag(protocol: str, readout: str) -> str:
    if protocol == "standard":
        return "standard"
    return "ghz_reversed" if readout == "time_reversed" else "ghz_parity"


def _theory_sigma(protocol: str, n_ions: int, t_r: float, shots: int) -> float:
    """Projection-noise limit of the detuning estimate at tau = shots * T_R."""
    tau = shots * t_r
    if protocol == "standard":
        return 1.0 / math.sqrt(n_ions * t_r * tau)
    return 1.0 / (n_ions * math.sqrt(t_r * tau))


# ---------------------------------------------------------------------------
# Job makers
# ---------------------------------------------------------------------------


def noisy_ramsey(protocol: str, readout: str, n_ions: int):
    """Sampled Ramsey under independent dephasing near the half fringe."""

    def make(rng: np.random.Generator, seed: int) -> Job:
        mult = _mult(protocol, n_ions)
        t_r = float(rng.uniform(0.5, 2.0))
        decay = float(rng.uniform(0.15, 0.6))  # -ln(ensemble contrast)
        gamma = decay / (mult * t_r)
        omega_0 = float(rng.uniform(-1.0, 1.0))
        omega_r = omega_0 + float(rng.uniform(0.45, 0.55)) * math.pi / (mult * t_r)
        config = _ini(
            "ramsey", protocol=protocol, n_ions=n_ions, t_ramsey=t_r,
            omega_0=omega_0, omega_r=omega_r, readout=readout,
            shots=NOISY_SHOTS, gamma=gamma, noise_mode="independent",
        )
        sigma = _theory_sigma(protocol, n_ions, t_r, NOISY_SHOTS) / math.exp(-decay)
        return Job(
            f"ramsey/{_proto_tag(protocol, readout)}/L{n_ions}", "ramsey", config, seed,
            truth={"delta_omega": omega_r - omega_0, "sigma": sigma, "shots": NOISY_SHOTS},
        )

    return make


def wide_ramsey(protocol: str, readout: str, n_ions: int):
    """Noiseless sampled Ramsey on a wide register, two shot batches."""

    def make(rng: np.random.Generator, seed: int) -> Job:
        mult = _mult(protocol, n_ions)
        t_r = float(rng.uniform(0.5, 2.0))
        omega_0 = float(rng.uniform(-1.0, 1.0))
        omega_r = omega_0 + float(rng.uniform(0.2, 0.8)) * math.pi / (mult * t_r)
        config = _ini(
            "ramsey", protocol=protocol, n_ions=n_ions, t_ramsey=t_r,
            omega_0=omega_0, omega_r=omega_r, readout=readout, shots=WIDE_SHOTS,
        )
        fringe = math.cos(mult * (omega_r - omega_0) * t_r)
        n = WIDE_SHOTS
        if protocol == "standard":  # outcome: ions found |dn>
            p_up = (1.0 - fringe) / 2.0
            mean, stderr = n_ions * (1.0 - p_up), math.sqrt(n_ions * p_up * (1 - p_up) / n)
        elif readout == "time_reversed":  # outcome: spin of ion 1, +-1/2
            mean, stderr = -fringe / 2.0, 0.5 * math.sqrt((1 - fringe**2) / n)
        else:  # outcome: parity sign, +-1
            mean, stderr = fringe, math.sqrt((1 - fringe**2) / n)
        return Job(
            f"ramsey/{_proto_tag(protocol, readout)}/L{n_ions}", "ramsey", config, seed,
            truth={"mean_outcome": mean, "stderr": stderr, "shots": n},
        )

    return make


def calibrate(n_ions: int):
    """Two-point calibration under an injected contrast decay.

    The settings start at least 0.05 of a fringe window off-centre, so the
    loop always needs three iterations and the job's cost does not depend
    on the drawn parameters.
    """

    def make(rng: np.random.Generator, seed: int) -> Job:
        t_r1 = float(rng.uniform(0.4, 0.5))
        t_r2 = float(rng.uniform(5.2, 6.0))
        window = math.pi / (n_ions * t_r2)
        omega_0 = float(rng.uniform(0.5, 1.5))
        contrast_at_t_r2 = float(rng.uniform(0.15, 0.45))
        config = _ini(
            "calibrate", n_ions=n_ions, omega_0=omega_0,
            omega_r1=omega_0 - float(rng.uniform(0.3, 0.4)) * window,
            omega_r2=omega_0 + float(rng.uniform(0.15, 0.25)) * window,
            t_r1=t_r1, t_r2=t_r2, bias_tc=t_r2 / -math.log(contrast_at_t_r2),
        )
        return Job(f"calibrate/L{n_ions}", "calibrate", config, seed, expectation=True)

    return make


def fourier(n_ions: int):
    """Harmonic decomposition of a simulated imperfect-GHZ fringe."""

    def make(rng: np.random.Generator, seed: int) -> Job:
        eps = (
            f"1:{float(rng.uniform(0.03, 0.12))!r} "
            f"2:{float(rng.uniform(0.02, 0.08))!r}:{float(rng.uniform(-math.pi, math.pi))!r}"
        )
        config = _ini(
            "fourier", n_ions=n_ions, delta_omega=float(rng.uniform(0.5, 1.5)),
            epsilon=eps, grid_points=SCAN_POINTS,
        )
        return Job(f"fourier/L{n_ions}", "fourier", config, seed,
                   truth={"dominant_p": n_ions})

    return make


def fringe_scan(protocol: str, readout: str, n_ions: int):
    """Expectation-mode fringe scan over two single-ion periods.

    The scan spans whole single-ion periods, as acceptance criterion 3's
    scan does: on spans ending 0.6-0.8 of a fringe past a whole number,
    ``fit_fringe_frequency`` can settle on a wrong frequency. A fixed
    period count keeps the fit's cost independent of the drawn parameters.
    """

    def make(rng: np.random.Generator, seed: int) -> Job:
        mult = _mult(protocol, n_ions)
        t_max = float(rng.uniform(4.0, 8.0))
        omega_0 = float(rng.uniform(-1.0, 1.0))
        omega_r = omega_0 + 2 * math.pi * 2 / t_max
        config = _ini(
            "ramsey", protocol=protocol, n_ions=n_ions, t_ramsey=t_max,
            omega_0=omega_0, omega_r=omega_r, readout=readout,
            scan_points=SCAN_POINTS, scan_t_max=t_max,
        )
        return Job(
            f"scan/{_proto_tag(protocol, readout)}/L{n_ions}", "ramsey", config, seed,
            expectation=True,
            truth={"fringe_frequency": mult * abs(omega_r - omega_0)},
        )

    return make


def dephasing(n_ions: int, threads: int):
    """Sampled dephasing scan with golden-section refinement of the optimum."""

    def make(rng: np.random.Generator, seed: int) -> Job:
        gamma = float(rng.uniform(0.05, 0.3))
        t_min, t_max = 0.08 / gamma, 2.5 / gamma
        config = _ini(
            "dephasing", gamma=gamma, n_ions=n_ions, t_min=t_min, t_max=t_max,
            grid_points=5, trials=DEPHASING_TRIALS, mode="sampled", refine="true",
        )
        return Job(
            f"dephasing/L{n_ions}", "dephasing", config, seed, threads=threads,
            truth={"cell": math.log(t_max / t_min) / 4, "grid_points": 5},
        )

    return make


def scaling(l_values: tuple[int, ...], threads: int):
    """Sampled shot-noise and Heisenberg scaling scan over ion number."""

    def make(rng: np.random.Generator, seed: int) -> Job:
        config = _ini(
            "scaling", l_values=" ".join(map(str, l_values)), trials=SCALING_TRIALS,
            t_ramsey=float(rng.uniform(0.5, 2.0)), omega_0=float(rng.uniform(-1.0, 1.0)),
        )
        return Job(
            f"scaling/L{'-'.join(map(str, l_values))}", "scaling", config, seed,
            threads=threads, truth={"shots": 2 * len(l_values) * SCALING_TRIALS},
        )

    return make


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def _golden_evals() -> int:
    """Objective evaluations one golden-section refinement makes."""
    from ionramsey import bench

    return 2 + inspect.signature(bench.dephasing_benchmark).parameters["refine_iters"].default


def check(job: Job, out_dir: Path) -> tuple[list[str], int]:
    """Physics checks on a finished job: (problems, projective shots simulated)."""
    summary = json.loads((out_dir / f"{job.command}_summary.json").read_text())
    problems: list[str] = []

    def require(ok: bool, what: str) -> None:
        if not ok:
            problems.append(f"{job.kind}: {what}")

    shots = 0
    if job.command == "ramsey" and job.expectation:
        fitted, want = summary["fitted_fringe_frequency"], job.truth["fringe_frequency"]
        require(abs(fitted - want) <= 1e-6 * want, f"fringe frequency {fitted} != {want}")
    elif job.command == "ramsey":
        shots = job.truth["shots"]
        table = (out_dir / "ramsey.csv").read_text().splitlines()
        rows = sum(1 for line in table if line and not line.startswith("#")) - 1
        require(rows == shots + ("estimate_delta_omega" in summary), f"{rows} rows")
        if "sigma" in job.truth:  # dephased: estimate within 5 sigma, sigma near theory
            est, sigma = summary["estimate_delta_omega"], summary["estimate_sigma"]
            dw = job.truth["delta_omega"]
            require(abs(est - dw) <= 5 * sigma, f"estimate {est} vs {dw} (sigma {sigma})")
            ratio = sigma / job.truth["sigma"]
            require(abs(ratio - 1) <= 0.2, f"sigma/theory = {ratio}")
        else:  # noiseless: mean outcome within 5 standard errors of the fringe
            mean, want, se = summary["mean_outcome"], job.truth["mean_outcome"], job.truth["stderr"]
            require(abs(mean - want) <= 5 * se, f"mean outcome {mean} vs {want} (se {se})")
    elif job.command == "calibrate":
        require(summary["error_in_fringe_widths"] < 1e-3,
                f"error {summary['error_in_fringe_widths']} fringe widths")
        require(summary["naive_offset"] > 0.01, f"naive offset {summary['naive_offset']}")
    elif job.command == "fourier":
        require(summary["dominant_p"] == job.truth["dominant_p"],
                f"dominant harmonic {summary['dominant_p']}")
    elif job.command == "dephasing":
        n_ions = summary["n_ions"]
        require(abs(summary["min_ratio"] - 1) <= 0.1, f"min_ratio {summary['min_ratio']}")
        t_opt_cells = abs(math.log(summary["t_opt_ratio"] * n_ions)) / job.truth["cell"]
        require(t_opt_cells <= 2, f"t_opt_ratio*L off by {t_opt_cells:.2f} grid cells")
        points = sum(
            job.truth["grid_points"] + (0 if on_edge else _golden_evals())
            for on_edge in summary["argmin_on_boundary"].values()
        )
        shots = points * summary["trials"]
    elif job.command == "scaling":
        slopes = summary["slopes"]
        require(abs(slopes["standard"] + 0.5) <= 0.1, f"standard slope {slopes['standard']}")
        require(abs(slopes["ghz"] + 1.0) <= 0.1, f"ghz slope {slopes['ghz']}")
        shots = job.truth["shots"]
    return problems, shots


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_READOUTS = (("ghz", "final_pulse"), ("ghz", "time_reversed"), ("standard", "final_pulse"))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="noisy_shots",
            why="dephased sampled ramsey at L=2,4,6: the per-shot Python loop (noise, register, sampling) and one CSV row per shot",
            slots=tuple((noisy_ramsey(p, r, n),) for n in (2, 4, 6) for p, r in _READOUTS),
            cycle_wall_s=0.875,
            min_cycles=12,
            trace_cycles=2,
        ),
        Workload(
            name="wide_register",
            why="noiseless sampled ramsey at L=18,20: dense 4-16 MB state kernels, GHZ prep repeated per batch, peak memory",
            slots=(
                (wide_ramsey("ghz", "time_reversed", 18),),
                (wide_ramsey("ghz", "final_pulse", 18),),
                (wide_ramsey("standard", "final_pulse", 18),),
                (wide_ramsey("standard", "final_pulse", 18),),
                tuple(wide_ramsey(p, r, 20) for p, r in _READOUTS),
            ),
            cycle_wall_s=2.9,
            min_cycles=4,
            trace_cycles=1,
            memory_bound=True,
        ),
        Workload(
            name="expectation_solvers",
            why="calibrate, fourier and expectation scans: thousands of small state preps driven by brentq, curve_fit and lstsq",
            # Nine slots put the median inside one job type; the two L=4
            # calibrations make the slowest type big enough to hold the tail.
            slots=tuple((calibrate(n),) for n in (3, 4, 4))
            + tuple((fourier(n),) for n in (3, 4, 5))
            + (
                (fringe_scan("ghz", "final_pulse", 3),),
                (fringe_scan("ghz", "time_reversed", 5),),
                (fringe_scan("standard", "final_pulse", 4),),
            ),
            cycle_wall_s=2.0,
            min_cycles=8,
            trace_cycles=1,
        ),
        Workload(
            name="threaded_scan",
            why="sampled dephasing with golden-section refine and scaling at --threads 2: the thread pool and bench scans",
            slots=((dephasing(2, threads=1),),) + ((scaling((1, 2, 3, 4), threads=2),),) * 6,
            cycle_wall_s=4.0,
            min_cycles=4,
            trace_cycles=1,
            determinism_slot=1,
        ),
    )
}
