"""Record tables and their CSV/JSON serialization.

A sampled run (:class:`~ionramsey.protocols.Trials`) becomes a table with one
fixed column order::

    protocol,L,T_R,omega_R,seed,outcome,estimate,sigma

The table holds one line per shot, which fills ``outcome`` and leaves
``estimate``/``sigma`` empty, then optionally one estimate line, which does
the opposite. Only ``outcome`` varies, over at most 2L values, so
:func:`trial_rows` returns the distinct rows and each line's index into them,
and the writers format each distinct row once. ``seed`` is the label of the
run's random stream, the same on every line. ``outcome`` is protocol-dependent:

* ``standard``      — the number of ions found |dn> in that shot (0..L);
* ``ghz_parity``    — the normalized parity sign of that shot (+1 or -1);
* ``ghz_reversed``  — the measured spin of ion 1 (+0.5 or -0.5).

Every cell of a record row is a string, so JSON tables carry the same text
as CSV ones. Floats are serialized with ``repr`` (shortest round-trip form),
so equal runs produce byte-identical files; a non-finite float is refused
(``ValueError``) wherever it is formatted, so no table or summary holds NaN or inf.
Metadata rides in ``# key=value`` comment lines before the header, gnuplot-compatible.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

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


def trial_rows(trials: Trials, estimate: Estimate | None = None) -> tuple[list, list[int]]:
    """``(rows, index)``: a ``CSV_COLUMNS`` row per distinct outcome, then the
    estimate row if one is given; the table is ``[rows[k] for k in index]``."""
    cfg = trials.cfg
    config = [
        cfg.protocol.value,
        str(cfg.n_ions),
        _fmt(cfg.t_ramsey),
        _fmt(cfg.omega_r),
        trials.seed_label,
    ]
    # Classes by bit pattern, so -0.0 and 0.0 stay apart as ``repr`` keeps them.
    bits, index = np.unique(trials.outcomes.view(np.int64), return_inverse=True)
    rows = [[*config, _fmt(v), "", ""] for v in bits.view(np.float64).tolist()]
    index = index.tolist()
    if estimate is not None:
        index.append(len(rows))
        rows.append([*config, "", _fmt(estimate.estimate), _fmt(estimate.sigma)])
    return rows, index


def write_table_csv(
    path: str | Path,
    columns: tuple[str, ...],
    rows: Iterable[Sequence[object]],
    meta: dict[str, object] | None = None,
    index: Sequence[int] | None = None,
) -> None:
    """CSV with ``# key=value`` provenance comments, a header row, then one
    line per row, or the line of ``rows[k]`` for each ``k`` in ``index``.

    Record tables pass ``CSV_COLUMNS`` and the ``rows, index`` of :func:`trial_rows`.
    """
    lines = [f"# {key}={meta[key]}" for key in sorted(meta or {})]
    lines.append(",".join(columns))
    body = []
    for row in rows:
        try:  # record rows are all strings: join them as they are
            body.append(",".join(row))
        except TypeError:
            body.append(",".join(_fmt(v) for v in row))
    lines += body if index is None else [body[k] for k in index]
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(path: str | Path, payload: dict[str, object]) -> None:
    """Deterministic JSON: sorted keys, fixed layout, trailing newline; a
    non-finite float raises ``ValueError``."""
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n")
