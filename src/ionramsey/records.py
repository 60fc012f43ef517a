"""Record tables and their CSV/JSON serialization.

A sampled run (:class:`~ionramsey.protocols.Trials`) becomes a table with one
fixed column order::

    protocol,L,T_R,omega_R,seed,outcome,estimate,sigma

:func:`trial_rows` writes one row per shot, which fills ``outcome`` and
leaves ``estimate``/``sigma`` empty, then optionally one estimate row, which
does the opposite. ``seed`` is the label of the run's random stream, the
same on every row. ``outcome`` is protocol-dependent:

* ``standard``      — the number of ions found |dn> in that shot (0..L);
* ``ghz_parity``    — the normalized parity sign of that shot (+1 or -1);
* ``ghz_reversed``  — the measured spin of ion 1 (+0.5 or -0.5).

Every cell of a record row is a string, so JSON tables carry the same text
as CSV ones. Floats are serialized with ``repr`` (shortest round-trip form),
so equal runs produce byte-identical files; a non-finite float is refused
(``ValueError``) by both writers, so no table or summary holds NaN or inf. Metadata rides in
``# key=value`` comment lines before the header, gnuplot-compatible.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from .protocols import Estimate, Trials

CSV_COLUMNS = ("protocol", "L", "T_R", "omega_R", "seed", "outcome", "estimate", "sigma")


def _fmt(value: float | int | str) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"refusing to write the non-finite value {value!r}")
    return repr(value)


def trial_rows(trials: Trials, estimate: Estimate | None = None) -> list[list[str]]:
    """The ``CSV_COLUMNS`` rows of a sampled run, in shot order, then the
    estimate row when ``estimate`` is given."""
    cfg = trials.cfg
    config = [
        cfg.protocol.value,
        str(cfg.n_ions),
        _fmt(cfg.t_ramsey),
        _fmt(cfg.omega_r),
        trials.seed_label,
    ]
    rows = [[*config, repr(v), "", ""] for v in trials.outcomes.tolist()]
    if estimate is not None:
        rows.append([*config, "", _fmt(estimate.estimate), _fmt(estimate.sigma)])
    return rows


def write_table_csv(
    path: str | Path,
    columns: tuple[str, ...],
    rows: Iterable[Sequence[object]],
    meta: dict[str, object] | None = None,
) -> None:
    """CSV with ``# key=value`` provenance comments, then a header row.

    Record tables pass ``CSV_COLUMNS`` and the rows of :func:`trial_rows`.
    """
    lines: list[str] = []
    for key in sorted((meta or {})):
        lines.append(f"# {key}={meta[key]}")
    lines.append(",".join(columns))
    for row in rows:
        try:  # record rows are all strings: join them as they are
            lines.append(",".join(row))
        except TypeError:
            lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(path: str | Path, payload: dict[str, object]) -> None:
    """Deterministic JSON: sorted keys, fixed layout, trailing newline; a
    non-finite float raises ``ValueError``."""
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n")
