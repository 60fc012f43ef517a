"""Trial and estimate records, and their CSV serialization.

One fixed column order serves both record kinds::

    protocol,L,T_R,omega_R,seed,outcome,estimate,sigma

Trial rows fill ``outcome`` and leave ``estimate``/``sigma`` empty; estimate
rows do the opposite. ``outcome`` is protocol-dependent:

* ``standard``      — the number of ions found |dn> in that shot (0..L);
* ``ghz_parity``    — the normalized parity sign of that shot (+1 or -1);
* ``ghz_reversed``  — the measured spin of ion 1 (+0.5 or -0.5).

Floats are serialized with ``repr`` (shortest round-trip form), so equal
runs produce byte-identical files. Metadata rides in ``# key=value`` comment
lines before the header, gnuplot-compatible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Union

CSV_COLUMNS = ("protocol", "L", "T_R", "omega_R", "seed", "outcome", "estimate", "sigma")


@dataclass(frozen=True)
class TrialRecord:
    protocol: str
    n_ions: int
    t_ramsey: float
    omega_r: float
    seed: str
    outcome: float


@dataclass(frozen=True)
class EstimateRecord:
    protocol: str
    n_ions: int
    t_ramsey: float
    omega_r: float
    seed: str
    estimate: float
    sigma: float
    n_trials: int
    method: str


Record = Union[TrialRecord, EstimateRecord]


def _fmt(value: float | int | str) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def record_row(rec: Record) -> list[str]:
    if isinstance(rec, TrialRecord):
        return [
            rec.protocol,
            str(rec.n_ions),
            _fmt(rec.t_ramsey),
            _fmt(rec.omega_r),
            rec.seed,
            _fmt(rec.outcome),
            "",
            "",
        ]
    return [
        rec.protocol,
        str(rec.n_ions),
        _fmt(rec.t_ramsey),
        _fmt(rec.omega_r),
        rec.seed,
        "",
        _fmt(rec.estimate),
        _fmt(rec.sigma),
    ]


def write_table_csv(
    path: str | Path,
    columns: tuple[str, ...],
    rows: Iterable[Iterable[object]],
    meta: dict[str, object] | None = None,
) -> None:
    """CSV with ``# key=value`` provenance comments, then a header row.

    Record tables pass ``CSV_COLUMNS`` and one :func:`record_row` per record.
    """
    lines: list[str] = []
    for key in sorted((meta or {})):
        lines.append(f"# {key}={meta[key]}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(path: str | Path, payload: dict[str, object]) -> None:
    """Deterministic JSON: sorted keys, fixed layout, trailing newline."""
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
