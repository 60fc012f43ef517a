"""Command-line front end.

Subcommands wrap the library's protocols and benchmarks::

    ionramsey ramsey     --config cfg.ini [--expectation-mode] ...
    ionramsey scaling    --config cfg.ini ...
    ionramsey dephasing  --config cfg.ini ...
    ionramsey calibrate  --config cfg.ini ...
    ionramsey fourier    --config cfg.ini ...

An ``argv`` that starts with a command is parsed by that command's parser
alone, in one pass; any other goes to the top-level parser for its help or error.
Configs are INI files in the README's grammar, read in one pass by
:func:`_read_ini`: a command reads its own section plus the optional [run]
section. ``_SCHEMA`` declares every key once, with its parser, default,
range and the runs that read it; :func:`main` parses both sections against
it before the command runs, so unknown sections or keys, missing required
keys, malformed, non-finite or out-of-range values and keys the run's mode
does not read are rejected up front. Every successful run writes
``<command>.csv`` (or ``.json`` with ``--format json``) plus
``<command>_summary.json`` into ``--out``; existing files are never
overwritten unless ``--force`` is given. Each ``cmd_*`` function takes the
parsed values and only computes a table and a summary; :func:`main` writes
both once the command has returned, so a run that fails writes nothing, through
:func:`_write_outputs`, which stages and renames them with plain ``os`` calls. All
outputs embed the library version and a manifest hash (sha256 over command,
seed, format, flags, the config text and the bytes of a ``[fourier] input=``
file), and are byte-identical for equal seeds, which must be >= 0. ``--threads`` is
accepted and must be >= 1, but every run is single-threaded, so it cannot change an output.

Exit codes (``_EXIT_CODES``): 0 success, 2 configuration error (including
a config value a library check rejects with ``ValueError``, and an
``--out`` that cannot be created or written), 3 register-capacity error,
4 non-convergence or ambiguous-fringe error. A bad flag is a configuration
error too. Errors are reported as one JSON object on stderr; ``--help``
exits 0.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import os
import re
import shutil
import sys
from collections import ChainMap
from dataclasses import dataclass
from functools import lru_cache
from itertools import takewhile
from pathlib import Path

import numpy as np

from . import __version__, streams
from .bench import SCHEMA_VERSION, dephasing_benchmark, scan_scaling
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
    _class_outcomes,
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
from .records import CSV_COLUMNS, _fmt, trial_rows, write_json, write_table_csv

# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------


def _float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


# The eight spellings that INI readers take for a boolean.
_BOOLEANS = {"1": True, "yes": True, "true": True, "on": True,
             "0": False, "no": False, "false": False, "off": False}


def _bool(raw: str) -> bool:
    try:
        return _BOOLEANS[raw.strip().lower()]
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
_AT_LEAST_0 = ("must be >= 0", lambda v: v >= 0)
_AT_LEAST_1 = ("must be >= 1", lambda v: v >= 1)
_AT_LEAST_2 = ("must be >= 2 (a standard error needs two)", lambda v: v >= 2)
_POSITIVE = ("must be > 0", lambda v: v > 0)
_NONZERO = ("must be nonzero", lambda v: v != 0)
_TWO_L = (
    "needs at least two distinct values, each >= 1",
    lambda v: min(v, default=0) >= 1 and len(set(v)) >= 2,
)
_REQUIRED = object()  # the default of a key the section must set

# Every config key and its default, once: section -> key -> (parser,
# default, range, runs). A None default means "unset"; the key's comment says
# what then. The runs that read a key: all (None), only those without
# --expectation-mode (_SAMPLED) or only those with it; main refuses it in others.
_SAMPLED, _EXPECTATION = False, True
_SCHEMA: dict[str, dict[str, tuple]] = {
    "run": {"seed": (int, 0, _AT_LEAST_0, None)},
    "ramsey": {
        "protocol": (str, "ghz", None, None),
        "n_ions": (int, _REQUIRED, None, None),
        "t_ramsey": (_float, _REQUIRED, None, None),
        "omega_0": (_float, 0.0, None, None),
        "omega_r": (_float, _REQUIRED, None, None),
        "readout": (str, "final_pulse", None, None),
        "final_phase": (_float, 0.0, None, None),  # not with readout = time_reversed
        "phi0": (_float, 0.0, None, None),
        "shots": (int, 1000, _AT_LEAST_2, _SAMPLED),
        "gamma": (_float, 0.0, None, _SAMPLED),
        "noise_mode": (str, "independent", None, _SAMPLED),  # needs gamma > 0
        "epsilon": (_epsilon, None, None, None),  # unset: no admixture
        "allow_wrap": (_bool, False, None, _SAMPLED),
        "scan_points": (int, 64, _AT_LEAST_1, _EXPECTATION),
        "scan_t_max": (_float, None, _POSITIVE, _EXPECTATION),  # unset: t_ramsey
    },
    "scaling": {
        "l_values": (_ints, _REQUIRED, _TWO_L, None),
        "trials": (int, 10_000, _AT_LEAST_2, None),
        "t_ramsey": (_float, 1.0, _POSITIVE, None),
        "omega_0": (_float, 0.0, None, None),
    },
    "dephasing": {
        "gamma": (_float, _REQUIRED, None, None),
        "n_ions": (int, _REQUIRED, None, None),
        "t_min": (_float, _REQUIRED, _POSITIVE, None),
        "t_max": (_float, _REQUIRED, None, None),  # > t_min, checked by the command
        "grid_points": (int, 12, None, None),
        "trials": (int, 5000, _AT_LEAST_2, _SAMPLED),  # not with mode = analytic
        "mode": (str, "sampled", None, _SAMPLED),  # --expectation-mode: analytic
        "refine": (_bool, True, None, None),
    },
    "calibrate": {
        "n_ions": (int, _REQUIRED, None, None),
        "omega_0": (_float, _REQUIRED, None, None),
        "omega_r1": (_float, _REQUIRED, None, None),
        "omega_r2": (_float, _REQUIRED, None, None),
        "t_r1": (_float, _REQUIRED, None, None),
        "t_r2": (_float, _REQUIRED, None, None),
        "bias_tc": (_float, 0.0, _AT_LEAST_0, None),  # 0: no bias
        "tol": (_float, None, _POSITIVE, None),  # unset: the calibration's own default
        "max_iter": (int, DEFAULT_MAX_ITER, _AT_LEAST_1, None),
    },
    "fourier": {  # set exactly one source: input, c (with optional xi) or epsilon
        "input": (str, None, None, None),
        "n_ions": (int, _REQUIRED, None, None),
        "delta_omega": (_float, _REQUIRED, _NONZERO, None),
        "grid_points": (int, 128, None, None),  # not with input
        "c": (_floats, None, None, None),
        "xi": (_floats, None, None, None),  # unset: zeros
        "epsilon": (_epsilon, None, None, None),
        "threshold": (_float, 0.1, _POSITIVE, None),
    },
}


def _read_ini(text: str, path: str) -> dict[str, dict[str, str]]:
    """``{section: {key: raw value}}`` by the README's grammar. Refused too: a repeated
    section or key, and an indented line after a key (other readers join it to the value)."""

    def refuse(why: str) -> ConfigError:
        return ConfigError(f"config parse error in {path}: line {lineno}: {why}")

    sections: dict[str, dict[str, str]] = {}
    section, key, indent = None, None, 0
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped[0] in "#;":
            continue
        level, indent = indent, len(line) - len(line.lstrip())
        if key is not None and indent > level:
            raise refuse("an indented line would continue the value above it")
        if stripped[0] == "[":
            name, key = stripped[1:-1], None
            if stripped[-1] != "]" or not name or name in sections:
                raise refuse("a section header is [name], with each name once")
            section = sections[name] = {}
        else:
            match = re.match(r"([^=:]*)[=:](.*)", stripped)  # split at the first = or :
            key = match and match[1].rstrip().lower()
            if section is None or not key or key in section:
                raise refuse("a key line is 'key = value' below a [section], each key once")
            section[key] = match[2].strip()
    return sections


def _pathlib_names(exc: OSError) -> OSError:
    """``exc`` naming its files as pathlib does (``./a//b`` as ``a/b``), as it always has."""
    for attr in ("filename", "filename2"):
        if getattr(exc, attr) is not None:  # a name set to None would print as 'None'
            setattr(exc, attr, str(Path(getattr(exc, attr))))
    return exc


def _read(path: str, what: str, mode: str = "r") -> str | bytes:
    """``path``'s bytes (mode "rb") or text, read as the manifest hash always has."""
    try:
        with open(path or os.curdir, mode) as file:
            return file.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {_pathlib_names(exc)}") from exc


def _load_config(path: str, command: str) -> tuple[str, dict[str, dict[str, str]]]:
    text = _read(path, "config")
    sections = _read_ini(text, path)
    for section in sections:
        if section not in ("run", command):
            allowed = sorted({"run", command})
            raise ConfigError(
                f"unknown section [{section}] for command {command!r} (allowed: {allowed})"
            )
    if command not in sections:
        raise ConfigError(f"config is missing the [{command}] section")
    return text, sections


def _read_section(sections: dict[str, dict[str, str]], section: str) -> ChainMap:
    """Every key of one section: the keys the config sets, parsed and
    range-checked against its table, over the table's defaults. The commands
    read ``values.maps[0]``, the keys set, to refuse one that has no effect,
    even when it is set to its default."""
    table = _SCHEMA[section]
    raw = sections.get(section, {})
    for key in raw:
        if key not in table:
            raise ConfigError(
                f"unknown key {key!r} in [{section}] (allowed: {sorted(table)})"
            )
    given = {}
    for key, (parse, default, valid, _) in table.items():
        if key not in raw:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {key!r} in [{section}]")
            continue
        try:
            given[key] = parse(raw[key])
            if valid is not None and not valid[1](given[key]):
                raise ValueError(valid[0])
        except (ValueError, TypeError) as exc:
            raise ConfigError(
                f"bad value for {key!r} in [{section}]: {raw[key]!r} ({exc})"
            ) from exc
    return ChainMap(given, {key: row[1] for key, row in table.items()})


# Uncached, RamseyConfig's signature takes about 70 us (2-core Xeon, CPython 3.11).
_signature = lru_cache(maxsize=None)(inspect.signature)


def _by_name(target, values, **derived):
    """``target`` called with each value whose key names one of its
    parameters (a dataclass's fields), and with ``derived``, which wins."""
    params = _signature(target).parameters
    return target(**{**{k: v for k, v in values.items() if k in params}, **derived})


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


def _output_paths(manifest: RunManifest) -> tuple[str, str]:
    ext = "csv" if manifest.fmt == "csv" else "json"
    names = f"{manifest.command}.{ext}", f"{manifest.command}_summary.json"
    return tuple(os.path.join(manifest.out_dir, name) for name in names)


def _write_outputs(
    manifest: RunManifest,
    paths: tuple[str, str],
    columns: tuple[str, ...],
    rows: list,
    summary: dict[str, object],
    index: list[int] | None = None,
) -> None:
    """The one place outputs are written: the table is ``rows``, or ``rows[k]``
    for each ``k`` in ``index``. Both files are staged under hidden names in
    ``--out`` and renamed into place once both are complete. An ``OSError``
    (``--out`` below a regular file, say) is a ``ConfigError``. A failed write
    removes the staged files it began, the table it renamed into place and
    the directories it made."""
    out_dir = os.path.dirname(paths[0]) or os.curdir
    staged = [os.path.join(out_dir, f".{os.path.basename(path)}.partial") for path in paths]
    made, begun = None, []
    try:
        try:
            os.mkdir(out_dir)
            made = out_dir
        except FileExistsError:
            if not os.path.isdir(out_dir):
                raise
        except FileNotFoundError:  # its parent is missing too: make the topmost missing one
            made = [*takewhile(lambda d: not d.exists(), Path(out_dir).parents)][-1]
            Path(out_dir).mkdir(parents=True, exist_ok=True)
        meta = manifest.meta()
        begun.append(staged[0])
        if manifest.fmt == "csv":
            write_table_csv(staged[0], columns, rows, meta, index)
        else:
            dicts = [dict(zip(columns, row)) for row in rows]
            dicts = dicts if index is None else [dicts[k] for k in index]
            write_json(staged[0], {"meta": meta, "rows": dicts})
        begun.append(staged[1])
        write_json(staged[1], {"schema_version": SCHEMA_VERSION, "meta": meta, **summary})
        for written, path in zip(staged, paths):
            os.replace(written, path)
            begun.append(path)  # a failed second rename takes the table back out
        made, begun = None, []  # complete: the directories stay, no staged file is left
    except OSError as exc:
        why = _pathlib_names(exc)
        raise ConfigError(f"cannot write outputs to --out {manifest.out_dir}: {why}") from exc
    finally:
        for written in begun:
            if os.path.isfile(written):  # not a directory in its way, nor a missing file
                os.unlink(written)
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


def cmd_ramsey(manifest: RunManifest, values: ChainMap) -> RamseyOutputs:
    given = values.maps[0]
    if "noise_mode" in given and values["gamma"] == 0.0:
        raise ConfigError("[ramsey] noise_mode needs gamma > 0; a noiseless run ignores it")
    if "final_phase" in given and values["readout"] == "time_reversed":
        raise ConfigError("[ramsey] final_phase has no effect with readout = time_reversed")
    cfg = _by_name(
        RamseyConfig,
        values,
        noise=NoiseSpec(gamma=values["gamma"], mode=values["noise_mode"]),
        imperfection=values["epsilon"],
        protocol=Protocol.named(values["protocol"], values["readout"]),
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
        points = values["scan_points"]
        t_max = values["scan_t_max"] or cfg.t_ramsey  # a set scan_t_max is > 0
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
        signal = expected_signal(cfg, t_ramsey=t_grid)
        fit = fit_fringe_frequency(t_grid, signal)
        family, n_ions, omega_r = cfg.protocol.family, str(cfg.n_ions), _fmt(cfg.omega_r)
        cells = np.column_stack((t_grid, signal))  # the table's float cells, in its order
        if not np.isfinite(cells).all():
            _fmt(cells[~np.isfinite(cells)][0])  # raises _fmt's error on the first one
        index = None
        rows = [
            [family, n_ions, t, omega_r, "", s, "", ""]
            for t, s in zip(map(repr, t_grid.tolist()), map(repr, signal.tolist()))
        ]
        summary["fitted_fringe_frequency"] = fit.frequency
        summary["expected_fringe_frequency"] = fringe
        summary["fitted_amplitude"] = fit.amplitude
    else:
        seed = manifest.seed
        classes = run_ramsey(cfg, streams.stream(seed, 0, 0))
        counts = np.bincount(classes, minlength=2 * cfg.n_ions)
        summary["shots"] = cfg.shots
        # Outcomes are integers or half-integers: the dot's sum is exact, as np.mean's is.
        outcomes = _class_outcomes(cfg.protocol, cfg.n_ions)
        summary["mean_outcome"] = float(counts @ outcomes) / cfg.shots
        est = None
        try:
            est = estimate_frequency(cfg, counts)
            summary["estimate_delta_omega"] = est.estimate
            summary["estimate_sigma"] = est.sigma
        except IonRamseyError as exc:
            summary["estimate_error"] = f"{type(exc).__name__}: {exc}"
        rows, index = trial_rows(cfg, f"{seed}/0/0", classes, est)
    return CSV_COLUMNS, rows, summary, index


def cmd_scaling(manifest: RunManifest, values: ChainMap) -> Outputs:
    columns = ("protocol", "L", "T_R", "tau", "sigma_measured", "sigma_theory", "ratio")
    mode = "analytic" if manifest.expectation else "sampled"
    report = scan_scaling(**values, seed=manifest.seed, mode=mode)
    rows = [
        (p.protocol, p.n_ions, p.t_ramsey, p.tau, p.sigma_measured, p.sigma_theory, p.ratio)
        for p in report.points
    ]
    summary = {
        "expectation_mode": manifest.expectation,
        "slopes": report.slopes,
        "trials": values["trials"],
    }
    if not manifest.expectation:  # only shots have a spread to quote
        summary.update(slope_sigma=report.slope_sigma, low_statistics=report.low_statistics)
    return columns, rows, summary


def cmd_dephasing(manifest: RunManifest, values: ChainMap) -> Outputs:
    t_min, t_max = values["t_min"], values["t_max"]
    if t_max <= t_min:
        raise ConfigError(f"[dephasing] t_max must be > t_min, got {t_max} <= {t_min}")
    if "trials" in values.maps[0] and values["mode"] == "analytic":
        raise ConfigError("[dephasing] trials has no effect with mode = analytic")
    mode = "analytic" if manifest.expectation else values["mode"]
    report = _by_name(
        dephasing_benchmark,
        values,
        t_grid=np.geomspace(t_min, t_max, values["grid_points"]),
        seed=manifest.seed,
        mode=mode,
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
        "mode": mode,
        "trials": values["trials"],
        "t_opt": {p: curve.t_opt for p, curve in report.curves.items()},
        "min_sigma_sqrt_tau": {p: curve.min_value for p, curve in report.curves.items()},
        "argmin_on_boundary": {p: curve.argmin_on_boundary for p, curve in report.curves.items()},
        "t_opt_ratio": report.t_opt_ratio,
        "min_ratio": report.min_ratio,
    }
    return columns, rows, summary


def cmd_calibrate(manifest: RunManifest, values: ChainMap) -> Outputs:
    n_ions, omega_0, bias_tc = values["n_ions"], values["omega_0"], values["bias_tc"]
    cal = _by_name(CalibrationState, values)
    # The simulator reads no t_ramsey or omega_r of its config: placeholders.
    cfg = _by_name(RamseyConfig, values, t_ramsey=cal.t_r2, omega_r=cal.omega_r1)
    bias = (lambda t: float(np.exp(-t / bias_tc))) if bias_tc > 0 else None
    sim = make_truth_simulator(cfg, bias=bias)
    history: list = []
    result = _by_name(two_point_calibrate, values, truth_simulator=sim, cal=cal, history=history)
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


def _read_signal_csv(text: str, path: str) -> tuple[np.ndarray, np.ndarray]:
    """``t, signal`` rows of finite numbers; ``#`` comments are skipped, and so
    is a first row whose two cells do not both read as numbers (a header)."""
    ts, ss, first = [], [], True
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        header, first = first, False
        try:
            t, s = map(float, line.split(",")[:2])
        except ValueError:
            if header:
                continue
            t = s = math.nan
        if not (math.isfinite(t) and math.isfinite(s)):
            raise ConfigError(f"bad signal row {line!r} in {path} (line {lineno})")
        ts.append(t)
        ss.append(s)
    if not ts:
        raise ConfigError(f"no samples found in {path}")
    return np.array(ts), np.array(ss)


def cmd_fourier(manifest: RunManifest, values: ChainMap) -> Outputs:
    given = values.maps[0]
    n_ions, delta_omega = values["n_ions"], values["delta_omega"]
    sources = [key for key in ("input", "c", "epsilon") if key in given]
    if len(sources) != 1:
        raise ConfigError(
            f"[fourier] needs exactly one of input=, c=, epsilon=; got {sources}"
        )
    if "xi" in given and "c" not in given:
        raise ConfigError("[fourier] xi is the phase list of c= and needs c")
    if "input" in given and "grid_points" in given:
        raise ConfigError("[fourier] grid_points has no effect with input=, which sets the grid")
    period = 2 * np.pi / abs(delta_omega)
    points = values["grid_points"]
    if "input" in given:
        t_grid, signal = _read_signal_csv(manifest.input_bytes.decode(), values["input"])
        source = "file"
    elif "c" in given:
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


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors raise ConfigError (exit 2, one JSON line); subparsers share the class."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


@lru_cache(maxsize=None)
def _build_argparser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The command-line parser and each subcommand's own by name, built at the first
    :func:`main` call of a process and reused; main runs ``_COMMANDS`` by name only."""
    ap = _ArgumentParser(
        prog="ionramsey",
        description="Ramsey spectroscopy simulations on entangled trapped-ion registers",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    subparsers = {}
    for name in _COMMANDS:
        p = subparsers[name] = sub.add_parser(name, help=f"run the {name} experiment/benchmark")
        p.set_defaults(command=name)
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--seed", type=int, default=None, help="global seed (overrides [run] seed)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument(
            "--expectation-mode",
            action="store_true",
            help="exact expectations instead of sampled shots "
            "(scaling/dephasing: sigma from the Born masses, not drawn counts)",
        )
        p.add_argument(
            "--threads", type=int, default=1, help="must be >= 1; runs are single-threaded"
        )
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")
    return ap, subparsers


def main(argv: list[str] | None = None) -> int:
    try:
        ap, subparsers = _build_argparser()
        argv = sys.argv[1:] if argv is None else argv
        sub = argv and subparsers.get(argv[0])  # a command first: one pass, by its own parser
        args, extra = sub.parse_known_args(argv[1:]) if sub else ap.parse_known_args(argv)
        if extra:  # as ap.parse_args would refuse them, naming the top-level program
            ap.error(f"unrecognized arguments: {' '.join(extra)}")
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        text, sections = _load_config(args.config, args.command)
        values = _read_section(sections, args.command)
        for key in values.maps[0]:
            if _SCHEMA[args.command][key][3] not in (None, args.expectation_mode):
                mode = "with" if args.expectation_mode else "without"
                raise ConfigError(f"[{args.command}] {key} has no effect {mode} --expectation-mode")
        seed = _read_section(sections, "run")["seed"]
        source = values.get("input")  # the [fourier] input= file
        manifest = RunManifest(
            command=args.command,
            config_text=text,
            seed=seed if args.seed is None else args.seed,
            out_dir=args.out,
            fmt=args.format,
            expectation=args.expectation_mode,
            input_bytes=None if source is None else _read(source, "signal file", "rb"),
        )
        paths = _output_paths(manifest)
        clashes = [str(Path(p)) for p in paths if os.path.exists(p)]
        if clashes and not args.force:
            raise ConfigError(f"refusing to overwrite existing outputs {clashes}; pass --force")
        result = _COMMANDS[args.command](manifest, values)
        if isinstance(result, int):
            # A stand-in command (perfbench's set-up probe) has nothing to write.
            return result
        _write_outputs(manifest, paths, *result)
        return 0
    except (IonRamseyError, ValueError) as exc:
        code = next(_EXIT_CODES[k] for k in type(exc).__mro__ if k in _EXIT_CODES)
        err = exc if isinstance(exc, IonRamseyError) else ConfigError(str(exc))
        sys.stderr.write(json.dumps({"error": type(err).__name__, "message": str(err)}) + "\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
