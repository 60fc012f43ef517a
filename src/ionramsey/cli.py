"""Command-line front end.

Subcommands wrap the library's protocols and benchmarks::

    ionramsey ramsey     --config cfg.ini [--expectation-mode] ...
    ionramsey scaling    --config cfg.ini ...
    ionramsey dephasing  --config cfg.ini ...
    ionramsey calibrate  --config cfg.ini ...
    ionramsey fourier    --config cfg.ini ...

Configs are INI files (flat key-value with sections, diff-friendly for
experiment logs): a command reads its own section plus the optional [run]
section; unknown sections or keys are rejected. Every successful run
writes ``<command>.csv`` (or ``.json`` with ``--format json``) plus
``<command>_summary.json`` into ``--out``; existing files are never
overwritten unless ``--force`` is given. Each ``cmd_*`` function only
computes a table and a summary; :func:`main` writes both once the command
has returned, so a run that fails writes nothing. All outputs embed the
library version and a manifest hash (sha256 over command, seed, format,
flags, the config text and the bytes of a ``[fourier] input=`` file), and
are byte-identical for equal seeds at any ``--threads`` value.

Exit codes: 0 success, 2 configuration error (including a config value a
library check rejects with ``ValueError``), 3 register-capacity error,
4 non-convergence or ambiguous-fringe error. Errors are reported as one
JSON object on stderr.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .bench import (
    PROTOCOLS,
    SCHEMA_VERSION,
    _loglog_slope,
    _run_batches,
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
    CalibrationState,
    Protocol,
    RamseyConfig,
    ensemble_contrast,
    estimate_frequency,
    expected_signal,
    fit_fringe_frequency,
    flag_large_admixture,
    fourier_decompose,
    fringe_scan,
    make_truth_simulator,
    naive_single_point_omega0,
    synthesize_signal,
    two_point_calibrate,
)
from .records import CSV_COLUMNS, _fmt, trial_rows, write_json, write_table_csv

_RUN_KEYS = {"seed"}
_SECTION_KEYS = {
    "ramsey": {
        "protocol",
        "n_ions",
        "t_ramsey",
        "omega_0",
        "omega_r",
        "readout",
        "final_phase",
        "phi0",
        "shots",
        "gamma",
        "noise_mode",
        "epsilon",
        "allow_wrap",
        "scan_points",
        "scan_t_max",
    },
    "scaling": {"l_values", "trials", "t_ramsey", "omega_0"},
    "dephasing": {
        "gamma",
        "n_ions",
        "t_min",
        "t_max",
        "grid_points",
        "trials",
        "mode",
        "refine",
    },
    "calibrate": {
        "n_ions",
        "omega_0",
        "omega_r1",
        "omega_r2",
        "t_r1",
        "t_r2",
        "bias_tc",
        "tol",
        "max_iter",
        "phi0",
    },
    "fourier": {
        "input",
        "n_ions",
        "delta_omega",
        "grid_points",
        "c",
        "xi",
        "epsilon",
        "threshold",
    },
}


@dataclass(frozen=True)
class RunManifest:
    command: str
    config_path: str
    config_text: str
    seed: int
    out_dir: str
    fmt: str
    expectation: bool
    threads: int
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


def _load_config(path: str, command: str) -> configparser.ConfigParser:
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
        allowed = _RUN_KEYS if section == "run" else _SECTION_KEYS[command]
        for key in parser[section]:
            if key not in allowed:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}] (allowed: {sorted(allowed)})"
                )
    if not parser.has_section(command):
        raise ConfigError(f"config is missing the [{command}] section")
    return parser


def _get(parser, section: str, key: str, conv, default):
    if not parser.has_option(section, key):
        if default is None:
            raise ConfigError(f"missing required key {key!r} in [{section}]")
        return default
    raw = parser.get(section, key)
    try:
        return conv(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(
            f"bad value for {key!r} in [{section}]: {raw!r} ({exc})"
        ) from exc


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError("not a boolean")


def _count(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise ValueError("must be >= 1")
    return value


def _nonzero(raw: str) -> float:
    value = float(raw)
    if value == 0.0:
        raise ValueError("must be nonzero")
    return value


def _parse_epsilon(raw: str) -> ImperfectionSpec:
    """Admixture list: whitespace-separated ``p:amplitude[:phase]`` items."""
    eps: dict[int, complex] = {}
    for item in raw.split():
        parts = item.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(item)
        p = int(parts[0])
        amp = float(parts[1])
        phase = float(parts[2]) if len(parts) == 3 else 0.0
        eps[p] = amp * np.exp(1j * phase)
    return ImperfectionSpec(epsilon=eps)


def _parse_floats(raw: str) -> list[float]:
    return [float(x) for x in raw.replace(",", " ").split()]


def _parse_ints(raw: str) -> list[int]:
    return [int(x) for x in raw.replace(",", " ").split()]


def _resolve_seed(parser, cli_seed: int | None) -> int:
    if cli_seed is not None:
        return cli_seed
    if parser.has_section("run") and parser.has_option("run", "seed"):
        return _get(parser, "run", "seed", int, 0)
    return 0


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
) -> None:
    """The one place outputs are written: the table, then the summary."""
    table_path, summary_path = paths
    table_path.parent.mkdir(parents=True, exist_ok=True)
    meta = manifest.meta()
    if manifest.fmt == "csv":
        write_table_csv(table_path, columns, rows, meta)
    else:
        dicts = [dict(zip(columns, row)) for row in rows]
        write_json(table_path, {"meta": meta, "rows": dicts})
    write_json(summary_path, {"schema_version": SCHEMA_VERSION, "meta": meta, **summary})


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

# What every subcommand returns: table columns, table rows (a list, one
# sequence per row) and the summary fields besides schema_version and meta.
Outputs = tuple[tuple[str, ...], list, dict[str, object]]


def _ramsey_config(parser) -> tuple[RamseyConfig, int, float]:
    sec = "ramsey"
    protocol = Protocol.named(
        _get(parser, sec, "protocol", str, "ghz"),
        _get(parser, sec, "readout", str, "final_pulse"),
    )
    noise = NoiseSpec(
        gamma=_get(parser, sec, "gamma", float, 0.0),
        mode=_get(parser, sec, "noise_mode", str, "independent"),
    )
    imperfection = None
    if parser.has_option(sec, "epsilon"):
        imperfection = _get(parser, sec, "epsilon", _parse_epsilon, None)
    cfg = RamseyConfig(
        n_ions=_get(parser, sec, "n_ions", int, None),
        t_ramsey=_get(parser, sec, "t_ramsey", float, None),
        omega_r=_get(parser, sec, "omega_r", float, None),
        omega_0=_get(parser, sec, "omega_0", float, 0.0),
        noise=noise if noise.gamma != 0.0 else None,
        imperfection=imperfection,
        protocol=protocol,
        final_phase=_get(parser, sec, "final_phase", float, 0.0),
        phi0=_get(parser, sec, "phi0", float, 0.0),
        shots=_get(parser, sec, "shots", int, 1000),
        allow_wrap=_get(parser, sec, "allow_wrap", _parse_bool, False),
    )
    scan_points = _get(parser, sec, "scan_points", int, 64)
    scan_t_max = _get(parser, sec, "scan_t_max", float, cfg.t_ramsey)
    return cfg, scan_points, scan_t_max


def cmd_ramsey(manifest: RunManifest, parser) -> Outputs:
    cfg, scan_points, scan_t_max = _ramsey_config(parser)
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
        t_grid = scan_t_max * np.arange(1, scan_points + 1) / scan_points
        signal = fringe_scan(replace(cfg, allow_wrap=True), t_grid)
        fit = fit_fringe_frequency(t_grid, signal)
        config = [cfg.protocol.family, str(cfg.n_ions)]
        rows = [
            [*config, _fmt(t), _fmt(cfg.omega_r), "", _fmt(s), "", ""]
            for t, s in zip(t_grid, signal)
        ]
        mult = cfg.protocol.multiplier(cfg.n_ions)
        summary["fitted_fringe_frequency"] = fit.frequency
        summary["expected_fringe_frequency"] = abs(cfg.delta_omega) * mult
        summary["fitted_amplitude"] = fit.amplitude
    else:
        trials = _run_batches(cfg, cfg.shots, manifest.seed, (0,), manifest.threads)
        summary["shots"] = cfg.shots
        summary["mean_outcome"] = float(np.mean(trials.outcomes))
        contrast = ensemble_contrast(cfg.n_ions, cfg.noise, cfg.t_ramsey, cfg.protocol)
        est = None
        try:
            est = estimate_frequency(
                trials, contrast=contrast, final_phase=cfg.final_phase
            )
            summary["estimate_delta_omega"] = est.estimate
            summary["estimate_sigma"] = est.sigma
        except IonRamseyError as exc:
            summary["estimate_error"] = f"{type(exc).__name__}: {exc}"
        rows = trial_rows(trials, est)
    return CSV_COLUMNS, rows, summary


def cmd_scaling(manifest: RunManifest, parser) -> Outputs:
    sec = "scaling"
    l_values = _get(parser, sec, "l_values", _parse_ints, None)
    trials = _get(parser, sec, "trials", _count, 10_000)
    template = RamseyConfig(
        n_ions=1,
        t_ramsey=_get(parser, sec, "t_ramsey", float, 1.0),
        omega_r=0.0,
        omega_0=_get(parser, sec, "omega_0", float, 0.0),
    )
    columns = ("protocol", "L", "T_R", "tau", "sigma_measured", "sigma_theory", "ratio")
    if manifest.expectation:
        # No sampling noise to measure: emit the analytic limits themselves.
        rows = []
        slopes = {}
        for protocol in PROTOCOLS:
            sigmas = []
            for n_ions in l_values:
                tau = trials * template.t_ramsey
                sig = theory_sigma(protocol, n_ions, template.t_ramsey, tau)
                sigmas.append(sig)
                rows.append(
                    (protocol.family, n_ions, template.t_ramsey, tau, sig, sig, 1.0)
                )
            slopes[protocol.family] = _loglog_slope(l_values, sigmas)[0]
        summary = {"expectation_mode": True, "slopes": slopes, "trials": trials}
        return columns, rows, summary
    report = scan_scaling(
        l_values, template, trials, seed=manifest.seed, threads=manifest.threads
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


def cmd_dephasing(manifest: RunManifest, parser) -> Outputs:
    sec = "dephasing"
    gamma = _get(parser, sec, "gamma", float, None)
    n_ions = _get(parser, sec, "n_ions", int, None)
    t_min = _get(parser, sec, "t_min", float, None)
    t_max = _get(parser, sec, "t_max", float, None)
    points = _get(parser, sec, "grid_points", int, 12)
    trials = _get(parser, sec, "trials", _count, 5000)
    mode = _get(parser, sec, "mode", str, "sampled")
    refine = _get(parser, sec, "refine", _parse_bool, True)
    if manifest.expectation:
        mode = "analytic"
    if t_min <= 0 or t_max <= t_min:
        raise ConfigError("need 0 < t_min < t_max")
    t_grid = np.geomspace(t_min, t_max, points)
    report = dephasing_benchmark(
        gamma,
        n_ions,
        t_grid,
        trials,
        seed=manifest.seed,
        threads=manifest.threads,
        mode=mode,
        refine=refine,
    )
    columns = ("protocol", "T_R", "sigma_sqrt_tau")
    rows = []
    for family, curve in report.curves.items():
        rows.extend(
            (family, float(t), float(v)) for t, v in zip(curve.t_grid, curve.sigma_tau)
        )
    summary = {
        "gamma": gamma,
        "n_ions": n_ions,
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


def cmd_calibrate(manifest: RunManifest, parser) -> Outputs:
    sec = "calibrate"
    n_ions = _get(parser, sec, "n_ions", int, None)
    omega_0 = _get(parser, sec, "omega_0", float, None)
    cal = CalibrationState(
        omega_r1=_get(parser, sec, "omega_r1", float, None),
        omega_r2=_get(parser, sec, "omega_r2", float, None),
        t_r1=_get(parser, sec, "t_r1", float, None),
        t_r2=_get(parser, sec, "t_r2", float, None),
    )
    bias_tc = _get(parser, sec, "bias_tc", float, 0.0)
    tol = _get(parser, sec, "tol", float, 0.0) or None
    max_iter = _get(parser, sec, "max_iter", _count, 50)
    cfg = RamseyConfig(
        n_ions=n_ions,
        t_ramsey=cal.t_r2,
        omega_r=cal.omega_r1,
        omega_0=omega_0,
        phi0=_get(parser, sec, "phi0", float, 0.0),
    )
    bias = (lambda t: float(np.exp(-t / bias_tc))) if bias_tc > 0 else None
    sim = make_truth_simulator(cfg, bias=bias)
    history: list = []
    result = two_point_calibrate(
        sim, cal, cfg, tol=tol, max_iter=max_iter, history=history
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


def _read_input(parser, command: str) -> bytes | None:
    """The bytes of the ``[fourier] input=`` file, or None without one."""
    if command != "fourier" or not parser.has_option(command, "input"):
        return None
    path = parser.get(command, "input")
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read signal file {path}: {exc}") from exc


def _read_signal_csv(text: str, path: str) -> tuple[np.ndarray, np.ndarray]:
    ts, ss = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) < 2:
            raise ConfigError(f"bad signal row {line!r} in {path} (line {lineno})")
        try:
            t, s = float(parts[0]), float(parts[1])
        except ValueError:
            if not ts:  # column-header row before the first sample
                continue
            raise ConfigError(
                f"bad signal row {line!r} in {path} (line {lineno})"
            ) from None
        ts.append(t)
        ss.append(s)
    if not ts:
        raise ConfigError(f"no samples found in {path}")
    return np.array(ts), np.array(ss)


def cmd_fourier(manifest: RunManifest, parser) -> Outputs:
    sec = "fourier"
    n_ions = _get(parser, sec, "n_ions", int, None)
    delta_omega = _get(parser, sec, "delta_omega", _nonzero, None)
    threshold = _get(parser, sec, "threshold", float, 0.1)
    if parser.has_option(sec, "input"):
        t_grid, signal = _read_signal_csv(
            manifest.input_bytes.decode(), parser.get(sec, "input")
        )
        source = "file"
    elif parser.has_option(sec, "c"):
        c = _get(parser, sec, "c", _parse_floats, None)
        xi = _get(parser, sec, "xi", _parse_floats, [0.0] * len(c))
        if len(c) != n_ions or len(xi) != n_ions:
            raise ConfigError("c and xi must list one value per harmonic (n_ions)")
        points = _get(parser, sec, "grid_points", int, 128)
        period = 2 * np.pi / abs(delta_omega)
        t_grid = period * np.arange(points) / points
        signal = synthesize_signal(t_grid, delta_omega, c, xi)
        source = "synthetic"
    elif parser.has_option(sec, "epsilon"):
        imperfection = _get(parser, sec, "epsilon", _parse_epsilon, None)
        points = _get(parser, sec, "grid_points", int, 128)
        period = 2 * np.pi / abs(delta_omega)
        t_grid = period * np.arange(1, points + 1) / points
        cfg = RamseyConfig(
            n_ions=n_ions,
            t_ramsey=1.0,
            omega_r=delta_omega,
            omega_0=0.0,
            imperfection=imperfection,
            allow_wrap=True,
        )
        signal = np.array([expected_signal(cfg, t_ramsey=float(t)) for t in t_grid])
        source = "state_vector"
    else:
        raise ConfigError("[fourier] needs one of: input=, c=, or epsilon=")
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
        "large_admixture_flag": flag_large_admixture(fit, threshold),
    }
    return columns, rows, summary


_COMMANDS = {
    "ramsey": cmd_ramsey,
    "scaling": cmd_scaling,
    "dephasing": cmd_dephasing,
    "calibrate": cmd_calibrate,
    "fourier": cmd_fourier,
}


def _build_argparser() -> argparse.ArgumentParser:
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
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        parser = _load_config(args.config, args.command)
        manifest = RunManifest(
            command=args.command,
            config_path=args.config,
            config_text=Path(args.config).read_text(),
            seed=_resolve_seed(parser, args.seed),
            out_dir=args.out,
            fmt=args.format,
            expectation=args.expectation_mode,
            threads=args.threads,
            input_bytes=_read_input(parser, args.command),
        )
        paths = _output_paths(manifest)
        _check_overwrite(paths, args.force)
        result = _COMMANDS[args.command](manifest, parser)
        if isinstance(result, int):
            # A stand-in command (perfbench's set-up probe) has nothing to write.
            return result
        _write_outputs(manifest, paths, *result)
        return 0
    except ConfigError as exc:
        _fail(exc)
        return 2
    except CapacityError as exc:
        _fail(exc)
        return 3
    except (ConvergenceError, AmbiguousFringeError) as exc:
        _fail(exc)
        return 4
    except IonRamseyError as exc:  # residual library errors: config-level
        _fail(exc)
        return 2
    except ValueError as exc:  # a library check rejected a config value
        _fail(ConfigError(str(exc)))
        return 2


def _fail(exc: Exception) -> None:
    sys.stderr.write(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
    )


if __name__ == "__main__":
    sys.exit(main())
