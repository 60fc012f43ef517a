"""Command-line front end.

Subcommands wrap the library's protocols and benchmarks::

    ionramsey ramsey     --config cfg.ini [--expectation-mode] ...
    ionramsey scaling    --config cfg.ini ...
    ionramsey dephasing  --config cfg.ini ...
    ionramsey calibrate  --config cfg.ini ...
    ionramsey fourier    --config cfg.ini ...

Configs are INI files (flat key-value with sections, diff-friendly for
experiment logs): a command reads its own section plus the optional [run]
section. ``_SCHEMA`` declares every key once, with its parser, default
and range; :func:`main` parses both sections against it before the
command runs, so unknown sections or keys, missing required keys and
malformed, non-finite or out-of-range values are rejected up front. Every
successful run writes ``<command>.csv`` (or ``.json`` with ``--format
json``) plus ``<command>_summary.json`` into ``--out``; existing files are
never overwritten unless ``--force`` is given. Each ``cmd_*`` function
takes the parsed values and only computes a table and a summary;
:func:`main` writes both once the command has returned, so a run that
fails writes nothing. All outputs embed the
library version and a manifest hash (sha256 over command, seed, format,
flags, the config text and the bytes of a ``[fourier] input=`` file), and
are byte-identical for equal seeds. ``--threads`` is accepted and must be
>= 1, but every run is single-threaded, so it cannot change an output.

Exit codes (``_EXIT_CODES``): 0 success, 2 configuration error (including
a config value a library check rejects with ``ValueError``, and an
``--out`` that cannot be created or written), 3 register-capacity error,
4 non-convergence or ambiguous-fringe error.
Errors are reported as one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import shutil
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from .bench import (
    PROTOCOLS,
    SCHEMA_VERSION,
    _loglog_slope,
    _run_stream,
    dephasing_benchmark,
    scan_scaling,
    theory_sigma,
)
from .errors import (
    AmbiguousFringeError,
    CapacityError,
    ConfigError,
    ConvergenceError,
    IonRamseyError,
)
from .noise import ImperfectionSpec, NoiseSpec
from .protocols import (
    DEFAULT_MAX_ITER,
    CalibrationState,
    Protocol,
    RamseyConfig,
    estimate_frequency,
    expected_signal,
    fit_fringe_frequency,
    flag_large_admixture,
    fourier_decompose,
    fringe_scan,
    make_truth_simulator,
    naive_single_point_omega0,
    run_ramsey,
    synthesize_signal,
    two_point_calibrate,
)
from .records import CSV_COLUMNS, _fmt, trial_rows, write_json, write_table_csv

# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------


def _float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError("not a boolean") from None


def _floats(raw: str) -> list[float]:
    return [_float(x) for x in raw.replace(",", " ").split()]


def _ints(raw: str) -> list[int]:
    return [int(x) for x in raw.replace(",", " ").split()]


def _epsilon(raw: str) -> ImperfectionSpec:
    """Admixture list: whitespace-separated ``p:amplitude[:phase]`` items."""
    eps: dict[int, complex] = {}
    for item in raw.split():
        parts = item.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(item)
        p = int(parts[0])
        if p in eps:
            raise ValueError(f"excitation number {p} given twice")
        phase = _float(parts[2]) if len(parts) == 3 else 0.0
        eps[p] = _float(parts[1]) * np.exp(1j * phase)
    return ImperfectionSpec(epsilon=eps)


# A range is (what it requires, test). Checks that the library makes itself
# (RamseyConfig, CalibrationState, NoiseSpec, the bench functions) are not
# repeated here.
_AT_LEAST_1 = ("must be >= 1", lambda v: v >= 1)
_AT_LEAST_2 = ("must be >= 2 (a standard error needs two)", lambda v: v >= 2)
_POSITIVE = ("must be > 0", lambda v: v > 0)
_NONZERO = ("must be nonzero", lambda v: v != 0)
_TWO_L = (
    "needs at least two distinct values, each >= 1",
    lambda v: min(v, default=0) >= 1 and len(set(v)) >= 2,
)
_REQUIRED = object()  # the default of a key the section must set

# Every config key, once: section -> key -> (parser, default, range). A None
# default means "unset": the command decides what that means.
_SCHEMA: dict[str, dict[str, tuple]] = {
    "run": {"seed": (int, 0, None)},
    "ramsey": {
        "protocol": (str, "ghz", None),
        "n_ions": (int, _REQUIRED, None),
        "t_ramsey": (_float, _REQUIRED, None),
        "omega_0": (_float, 0.0, None),
        "omega_r": (_float, _REQUIRED, None),
        "readout": (str, "final_pulse", None),
        "final_phase": (_float, 0.0, None),
        "phi0": (_float, 0.0, None),
        "shots": (int, None, _AT_LEAST_2),  # unset: 1000; sampled runs only
        "gamma": (_float, 0.0, None),
        "noise_mode": (str, None, None),  # unset: independent; needs gamma
        "epsilon": (_epsilon, None, None),
        "allow_wrap": (_bool, None, None),  # unset: false; sampled runs only
        "scan_points": (int, None, _AT_LEAST_1),  # unset: 64; --expectation-mode only
        "scan_t_max": (_float, None, _POSITIVE),  # unset: t_ramsey; likewise
    },
    "scaling": {
        "l_values": (_ints, _REQUIRED, _TWO_L),
        "trials": (int, 10_000, _AT_LEAST_2),
        "t_ramsey": (_float, 1.0, _POSITIVE),
        "omega_0": (_float, 0.0, None),
    },
    "dephasing": {
        "gamma": (_float, _REQUIRED, None),
        "n_ions": (int, _REQUIRED, None),
        "t_min": (_float, _REQUIRED, _POSITIVE),
        "t_max": (_float, _REQUIRED, None),  # > t_min, checked by the command
        "grid_points": (int, 12, None),
        "trials": (int, 5000, _AT_LEAST_2),
        "mode": (str, "sampled", None),
        "refine": (_bool, True, None),
    },
    "calibrate": {
        "n_ions": (int, _REQUIRED, None),
        "omega_0": (_float, _REQUIRED, None),
        "omega_r1": (_float, _REQUIRED, None),
        "omega_r2": (_float, _REQUIRED, None),
        "t_r1": (_float, _REQUIRED, None),
        "t_r2": (_float, _REQUIRED, None),
        "bias_tc": (_float, 0.0, None),
        "tol": (_float, None, _POSITIVE),  # unset: the calibration's own default
        "max_iter": (int, DEFAULT_MAX_ITER, _AT_LEAST_1),
        "phi0": (_float, 0.0, None),
    },
    "fourier": {  # exactly one source: input, c (with optional xi) or epsilon
        "input": (str, None, None),
        "n_ions": (int, _REQUIRED, None),
        "delta_omega": (_float, _REQUIRED, _NONZERO),
        "grid_points": (int, None, None),  # unset: 128; not with input
        "c": (_floats, None, None),
        "xi": (_floats, None, None),  # unset: zeros
        "epsilon": (_epsilon, None, None),
        "threshold": (_float, 0.1, None),
    },
}


def _load_config(path: str, command: str) -> tuple[str, configparser.ConfigParser]:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    allowed_sections = {"run", command}
    for section in parser.sections():
        if section not in allowed_sections:
            raise ConfigError(
                f"unknown section [{section}] for command {command!r} "
                f"(allowed: {sorted(allowed_sections)})"
            )
    if not parser.has_section(command):
        raise ConfigError(f"config is missing the [{command}] section")
    return text, parser


def _read_section(parser: configparser.ConfigParser, section: str) -> dict[str, object]:
    """Every key of one section, parsed and range-checked against its table."""
    table = _SCHEMA[section]
    raw = parser[section] if parser.has_section(section) else {}
    for key in raw:
        if key not in table:
            raise ConfigError(
                f"unknown key {key!r} in [{section}] (allowed: {sorted(table)})"
            )
    values = {}
    for key, (parse, default, valid) in table.items():
        if key not in raw:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {key!r} in [{section}]")
            values[key] = default
            continue
        try:
            values[key] = parse(raw[key])
            if valid is not None and not valid[1](values[key]):
                raise ValueError(valid[0])
        except (ValueError, TypeError) as exc:
            raise ConfigError(
                f"bad value for {key!r} in [{section}]: {raw[key]!r} ({exc})"
            ) from exc
    return values


@dataclass(frozen=True)
class RunManifest:
    command: str
    config_text: str
    seed: int
    out_dir: str
    fmt: str
    expectation: bool
    input_bytes: bytes | None = None  # the [fourier] input= file, read once

    def hash(self) -> str:
        fields = {
            "command": self.command,
            "config": self.config_text,
            "expectation": self.expectation,
            "format": self.fmt,
            "seed": self.seed,
            "version": __version__,
        }
        if self.input_bytes is not None:
            fields["input_sha256"] = hashlib.sha256(self.input_bytes).hexdigest()
        payload = json.dumps(fields, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def meta(self) -> dict[str, object]:
        return {
            "command": self.command,
            "manifest_sha256": self.hash(),
            "seed": self.seed,
            "version": __version__,
        }


def _output_paths(manifest: RunManifest) -> tuple[Path, Path]:
    out = Path(manifest.out_dir)
    ext = "csv" if manifest.fmt == "csv" else "json"
    return out / f"{manifest.command}.{ext}", out / f"{manifest.command}_summary.json"


def _check_overwrite(paths: tuple[Path, ...], force: bool) -> None:
    clashes = [str(p) for p in paths if p.exists()]
    if clashes and not force:
        raise ConfigError(
            f"refusing to overwrite existing outputs {clashes}; pass --force"
        )


def _write_outputs(
    manifest: RunManifest,
    paths: tuple[Path, Path],
    columns: tuple[str, ...],
    rows: list,
    summary: dict[str, object],
    index: list[int] | None = None,
) -> None:
    """The one place outputs are written: the table is ``rows``, or ``rows[k]``
    for each ``k`` in ``index``. Both files are staged under hidden names in
    ``--out`` and renamed into place once both are complete. An ``OSError``
    (``--out`` below a regular file, say) is a ``ConfigError``. A failed write
    removes its staged files and the directories it made."""
    staged = [path.with_name(f".{path.name}.partial") for path in paths]
    out_dir = paths[0].parent
    made = next((d for d in (*reversed(out_dir.parents), out_dir) if not d.exists()), None)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        meta = manifest.meta()
        if manifest.fmt == "csv":
            write_table_csv(staged[0], columns, rows, meta, index)
        else:
            dicts = [dict(zip(columns, row)) for row in rows]
            dicts = dicts if index is None else [dicts[k] for k in index]
            write_json(staged[0], {"meta": meta, "rows": dicts})
        write_json(staged[1], {"schema_version": SCHEMA_VERSION, "meta": meta, **summary})
        for written, path in zip(staged, paths):
            written.replace(path)
        made = None  # complete: the directories stay
    except OSError as exc:
        raise ConfigError(f"cannot write outputs to --out {manifest.out_dir}: {exc}") from exc
    finally:
        for written in staged:
            if written.exists():  # unlink(missing_ok=True) raises below a regular file
                written.unlink()
        if made is not None:  # the topmost directory this failed write created
            shutil.rmtree(made, ignore_errors=True)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

# What every subcommand returns: table columns, table rows (a list, one
# sequence per row) and the summary fields besides schema_version and meta;
# ``ramsey`` adds its table's index into the rows (see ``trial_rows``) or None.
Outputs = tuple[tuple[str, ...], list, dict[str, object]]
RamseyOutputs = tuple[tuple[str, ...], list, dict[str, object], list[int] | None]


def cmd_ramsey(manifest: RunManifest, values: dict) -> RamseyOutputs:
    if values["noise_mode"] is not None and values["gamma"] == 0.0:
        raise ConfigError("[ramsey] noise_mode needs gamma > 0; a noiseless run ignores it")
    for key in ("shots", "allow_wrap") if manifest.expectation else ("scan_points", "scan_t_max"):
        if values[key] is not None:
            mode = "with" if manifest.expectation else "without"
            raise ConfigError(f"[ramsey] {key} has no effect {mode} --expectation-mode")
    noise = NoiseSpec(gamma=values["gamma"], mode=values["noise_mode"] or "independent")
    cfg = RamseyConfig(
        n_ions=values["n_ions"],
        t_ramsey=values["t_ramsey"],
        omega_r=values["omega_r"],
        omega_0=values["omega_0"],
        noise=noise if noise.gamma != 0.0 else None,
        imperfection=values["epsilon"],
        protocol=Protocol.named(values["protocol"], values["readout"]),
        final_phase=values["final_phase"],
        phi0=values["phi0"],
        shots=1000 if values["shots"] is None else values["shots"],
        allow_wrap=bool(values["allow_wrap"]),
    )
    summary: dict[str, object] = {
        "protocol": cfg.protocol.family,
        "n_ions": cfg.n_ions,
        "t_ramsey": cfg.t_ramsey,
        "omega_r": cfg.omega_r,
        "delta_omega": cfg.delta_omega,
        "readout": cfg.protocol.readout,
        "expectation_mode": manifest.expectation,
    }
    if manifest.expectation:
        if cfg.noise is not None:
            raise ConfigError(
                "[ramsey] gamma must be 0 with --expectation-mode: the scan is "
                "noiseless and would ignore it"
            )
        points = 64 if values["scan_points"] is None else values["scan_points"]
        t_max = cfg.t_ramsey if values["scan_t_max"] is None else values["scan_t_max"]
        fringe = abs(cfg.delta_omega) * cfg.protocol.multiplier(cfg.n_ions)
        low = np.pi / t_max
        high = np.pi * points / t_max - low  # half a bin under the Nyquist frequency
        # The fit's own guards see only the fitted frequency, so they miss a fringe
        # above Nyquist that aliases well below it, or no fringe at all; only here
        # is the fringe known. Below ``low`` the scan spans under half a fringe.
        if not low <= fringe < high:
            msg = f"[ramsey] fringe frequency {fringe:.6g} rad/s is outside [pi/scan_t_max,"
            raise ConfigError(f"{msg} Nyquist - pi/scan_t_max) = [{low:.6g}, {high:.6g}) rad/s")
        t_grid = t_max * np.arange(1, points + 1) / points
        signal = fringe_scan(cfg, t_grid)
        fit = fit_fringe_frequency(t_grid, signal)
        family, n_ions, omega_r = cfg.protocol.family, str(cfg.n_ions), _fmt(cfg.omega_r)
        index = None
        rows = [
            [family, n_ions, _fmt(t), omega_r, "", _fmt(s), "", ""]
            for t, s in zip(t_grid.tolist(), signal.tolist())
        ]
        summary["fitted_fringe_frequency"] = fit.frequency
        summary["expected_fringe_frequency"] = fringe
        summary["fitted_amplitude"] = fit.amplitude
    else:
        trials = run_ramsey(cfg, *_run_stream(manifest.seed, 0))
        summary["shots"] = cfg.shots
        summary["mean_outcome"] = float(np.mean(trials.outcomes))
        est = None
        try:
            est = estimate_frequency(trials)
            summary["estimate_delta_omega"] = est.estimate
            summary["estimate_sigma"] = est.sigma
        except IonRamseyError as exc:
            summary["estimate_error"] = f"{type(exc).__name__}: {exc}"
        rows, index = trial_rows(trials, est)
    return CSV_COLUMNS, rows, summary, index


def cmd_scaling(manifest: RunManifest, values: dict) -> Outputs:
    l_values, trials, t_ramsey = values["l_values"], values["trials"], values["t_ramsey"]
    columns = ("protocol", "L", "T_R", "tau", "sigma_measured", "sigma_theory", "ratio")
    if manifest.expectation:
        # No sampling noise to measure: emit the analytic limits themselves.
        rows = []
        slopes = {}
        for protocol in PROTOCOLS:
            sigmas = []
            for n_ions in l_values:
                tau = trials * t_ramsey
                sig = theory_sigma(protocol, n_ions, t_ramsey, tau)
                sigmas.append(sig)
                rows.append((protocol.family, n_ions, t_ramsey, tau, sig, sig, 1.0))
            slopes[protocol.family] = _loglog_slope(l_values, sigmas)[0]
        summary = {"expectation_mode": True, "slopes": slopes, "trials": trials}
        return columns, rows, summary
    report = scan_scaling(
        l_values, trials, t_ramsey=t_ramsey, omega_0=values["omega_0"], seed=manifest.seed
    )
    rows = [
        (p.protocol, p.n_ions, p.t_ramsey, p.tau, p.sigma_measured, p.sigma_theory, p.ratio)
        for p in report.points
    ]
    summary = {
        "expectation_mode": False,
        "slopes": report.slopes,
        "slope_sigma": report.slope_sigma,
        "trials": report.trials,
        "low_statistics": report.low_statistics,
    }
    return columns, rows, summary


def cmd_dephasing(manifest: RunManifest, values: dict) -> Outputs:
    t_min, t_max = values["t_min"], values["t_max"]
    if t_max <= t_min:
        raise ConfigError(f"[dephasing] t_max must be > t_min, got {t_max} <= {t_min}")
    report = dephasing_benchmark(
        values["gamma"],
        values["n_ions"],
        np.geomspace(t_min, t_max, values["grid_points"]),
        values["trials"],
        seed=manifest.seed,
        mode="analytic" if manifest.expectation else values["mode"],
        refine=values["refine"],
    )
    columns = ("protocol", "T_R", "sigma_sqrt_tau")
    rows = []
    for family, curve in report.curves.items():
        rows.extend(
            (family, float(t), float(v)) for t, v in zip(curve.t_grid, curve.sigma_tau)
        )
    summary = {
        "gamma": values["gamma"],
        "n_ions": values["n_ions"],
        "mode": report.mode,
        "trials": report.trials,
        "t_opt": {p: report.curves[p].t_opt for p in report.curves},
        "min_sigma_sqrt_tau": {
            p: report.curves[p].min_value for p in report.curves
        },
        "argmin_on_boundary": {
            p: report.curves[p].argmin_on_boundary for p in report.curves
        },
        "t_opt_ratio": report.t_opt_ratio,
        "min_ratio": report.min_ratio,
    }
    return columns, rows, summary


def cmd_calibrate(manifest: RunManifest, values: dict) -> Outputs:
    n_ions, omega_0, bias_tc = values["n_ions"], values["omega_0"], values["bias_tc"]
    cal = CalibrationState(
        omega_r1=values["omega_r1"],
        omega_r2=values["omega_r2"],
        t_r1=values["t_r1"],
        t_r2=values["t_r2"],
    )
    cfg = RamseyConfig(
        n_ions=n_ions,
        t_ramsey=cal.t_r2,
        omega_r=cal.omega_r1,
        omega_0=omega_0,
        phi0=values["phi0"],
    )
    bias = (lambda t: float(np.exp(-t / bias_tc))) if bias_tc > 0 else None
    sim = make_truth_simulator(cfg, bias=bias)
    history: list = []
    tol, max_iter = values["tol"], values["max_iter"]
    result = two_point_calibrate(
        sim, cal, n_ions, tol=tol, max_iter=max_iter, history=history
    )
    columns = ("iteration", "omega_r1", "omega_r2", "phi_f", "omega0_estimate")
    fringe_width = float(np.pi / (n_ions * cal.t_r2))
    naive = naive_single_point_omega0(sim, cal.omega_r2, cal.t_r2, n_ions)
    summary = {
        "n_ions": n_ions,
        "bias_tc": bias_tc,
        "iterations": result.iterations,
        "omega0_estimate": result.omega0,
        "omega0_truth": omega_0,
        "abs_error": abs(result.omega0 - omega_0),
        "fringe_width": fringe_width,
        "error_in_fringe_widths": abs(result.omega0 - omega_0) / fringe_width,
        "phi_f": result.phi_f,
        "naive_single_point_estimate": naive,
        "naive_offset": abs(naive - omega_0),
    }
    return columns, history, summary


def _read_input(path: str | None) -> bytes | None:
    """The bytes of the ``[fourier] input=`` file, or None without one."""
    if path is None:
        return None
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read signal file {path}: {exc}") from exc


def _read_signal_csv(text: str, path: str) -> tuple[np.ndarray, np.ndarray]:
    """``t, signal`` rows; ``#`` comments and one leading header row are skipped."""
    ts, ss, first = [], [], True
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            t, s = map(_float, line.split(",")[:2])
        except ValueError:
            if not first:
                raise ConfigError(
                    f"bad signal row {line!r} in {path} (line {lineno})"
                ) from None
        else:
            ts.append(t)
            ss.append(s)
        first = False
    if not ts:
        raise ConfigError(f"no samples found in {path}")
    return np.array(ts), np.array(ss)


def cmd_fourier(manifest: RunManifest, values: dict) -> Outputs:
    n_ions, delta_omega = values["n_ions"], values["delta_omega"]
    sources = [key for key in ("input", "c", "epsilon") if values[key] is not None]
    if len(sources) != 1:
        raise ConfigError(
            f"[fourier] needs exactly one of input=, c=, epsilon=; got {sources}"
        )
    if values["xi"] is not None and values["c"] is None:
        raise ConfigError("[fourier] xi is the phase list of c= and needs c")
    if values["input"] is not None and values["grid_points"] is not None:
        raise ConfigError("[fourier] grid_points has no effect with input=, which sets the grid")
    period = 2 * np.pi / abs(delta_omega)
    points = 128 if values["grid_points"] is None else values["grid_points"]
    if values["input"] is not None:
        t_grid, signal = _read_signal_csv(manifest.input_bytes.decode(), values["input"])
        source = "file"
    elif values["c"] is not None:
        c = values["c"]
        xi = [0.0] * len(c) if values["xi"] is None else values["xi"]
        if len(c) != n_ions or len(xi) != n_ions:
            raise ConfigError("c and xi must list one value per harmonic (n_ions)")
        t_grid = period * np.arange(points) / points
        signal = synthesize_signal(t_grid, delta_omega, c, xi)
        source = "synthetic"
    else:
        t_grid = period * np.arange(1, points + 1) / points
        cfg = RamseyConfig(
            n_ions=n_ions,
            t_ramsey=1.0,
            omega_r=delta_omega,
            omega_0=0.0,
            imperfection=values["epsilon"],
        )
        signal = expected_signal(cfg, t_ramsey=t_grid)
        source = "state_vector"
    fit = fourier_decompose(t_grid, signal, n_ions, delta_omega)
    columns = ("p", "C_p", "xi_p")
    rows = [(p, float(fit.c[p - 1]), float(fit.xi[p - 1])) for p in range(1, n_ions + 1)]
    summary = {
        "source": source,
        "n_ions": n_ions,
        "delta_omega": delta_omega,
        "n_samples": int(len(t_grid)),
        "residual_rms": fit.residual,
        "dominant_p": int(np.argmax(fit.c)) + 1,
        "large_admixture_flag": flag_large_admixture(fit, values["threshold"]),
    }
    return columns, rows, summary


_COMMANDS = {
    "ramsey": cmd_ramsey,
    "scaling": cmd_scaling,
    "dephasing": cmd_dephasing,
    "calibrate": cmd_calibrate,
    "fourier": cmd_fourier,
}

# Exit code by error class; the most specific class in an error's MRO wins.
# A ValueError is a config value that a library check rejected.
_EXIT_CODES = {
    CapacityError: 3,
    ConvergenceError: 4,
    AmbiguousFringeError: 4,
    IonRamseyError: 2,
    ValueError: 2,
}


@lru_cache(maxsize=None)
def _build_argparser() -> argparse.ArgumentParser:
    """The command-line parser, built at the first :func:`main` call of a
    process and reused; it dispatches through ``_COMMANDS`` by name only."""
    ap = argparse.ArgumentParser(
        prog="ionramsey",
        description="Ramsey spectroscopy simulations on entangled trapped-ion registers",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment/benchmark")
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--seed", type=int, default=None, help="global seed (overrides [run] seed)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument(
            "--expectation-mode",
            action="store_true",
            help="exact expectations instead of sampled shots "
            "(scaling/dephasing: analytic curves)",
        )
        p.add_argument(
            "--threads", type=int, default=1, help="must be >= 1; runs are single-threaded"
        )
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        text, parser = _load_config(args.config, args.command)
        values = _read_section(parser, args.command)
        seed = _read_section(parser, "run")["seed"]
        manifest = RunManifest(
            command=args.command,
            config_text=text,
            seed=seed if args.seed is None else args.seed,
            out_dir=args.out,
            fmt=args.format,
            expectation=args.expectation_mode,
            input_bytes=_read_input(values.get("input")),
        )
        paths = _output_paths(manifest)
        _check_overwrite(paths, args.force)
        result = _COMMANDS[args.command](manifest, values)
        if isinstance(result, int):
            # A stand-in command (perfbench's set-up probe) has nothing to write.
            return result
        _write_outputs(manifest, paths, *result)
        return 0
    except (IonRamseyError, ValueError) as exc:
        code = next(_EXIT_CODES[k] for k in type(exc).__mro__ if k in _EXIT_CODES)
        _fail(exc if isinstance(exc, IonRamseyError) else ConfigError(str(exc)))
        return code


def _fail(exc: Exception) -> None:
    sys.stderr.write(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
    )


if __name__ == "__main__":
    sys.exit(main())
