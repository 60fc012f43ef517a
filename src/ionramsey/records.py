"""Record tables and their CSV/JSON serialization.

A sampled run's shot classes (:func:`~ionramsey.protocols.run_ramsey`) become a
table with one fixed column order::

    protocol,L,T_R,omega_R,seed,outcome,estimate,sigma

The table holds one line per shot, which fills ``outcome`` and leaves
``estimate``/``sigma`` empty, then optionally one estimate line, which does
the opposite. A shot is its readout class, one of 2L, whose outcome
:meth:`~ionramsey.protocols.Protocol.outcomes` gives, so :func:`trial_rows`
returns one row per class and each line's class, and the writers format each
class's row once. ``seed`` is the label of the run's random stream, the same
on every line. ``outcome`` is protocol-dependent:

* ``standard``      — the number of ions found |dn> in that shot (0..L);
* ``ghz_parity``    — the normalized parity sign of that shot (+1 or -1);
* ``ghz_reversed``  — the measured spin of ion 1 (+0.5 or -0.5).

Every cell of a record row is a string, so JSON tables carry the same text as
CSV ones. Floats are serialized with ``repr`` (shortest round-trip form), so equal
runs produce byte-identical files; no table or summary holds NaN or inf (``ValueError``).
Metadata rides in ``# key=value`` comment lines before the header, gnuplot-compatible.
JSON is the text of ``json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)``,
built by :func:`_json`, which formats a repeated row once, so a JSON table costs about
what writing its text does. :func:`_write` writes every file in raw ``os`` calls.
"""

from __future__ import annotations

import math
import os
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .protocols import Estimate, RamseyConfig

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


def trial_rows(
    cfg: RamseyConfig, seed_label: str, classes: np.ndarray, estimate: Estimate | None = None
) -> tuple[list, list[int]]:
    """``(rows, index)`` of the shots ``classes`` of a run of ``cfg`` on the
    stream ``seed_label``: a ``CSV_COLUMNS`` row per readout class, then the
    estimate row if one is given; the table is ``[rows[k] for k in index]``."""
    config = [
        cfg.protocol.value,
        str(cfg.n_ions),
        _fmt(cfg.t_ramsey),
        _fmt(cfg.omega_r),
        seed_label,
    ]
    outcomes = cfg.protocol.outcomes(np.arange(2 * cfg.n_ions), cfg.n_ions)
    rows = [[*config, _fmt(v), "", ""] for v in outcomes.tolist()]
    index = classes.tolist()
    if estimate is not None:
        index.append(len(rows))
        rows.append([*config, "", _fmt(estimate.estimate), _fmt(estimate.sigma)])
    return rows, index


def write_table_csv(
    path: str | os.PathLike,
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
    _write(path, "\n".join(lines) + "\n")


def write_json(path: str | os.PathLike, payload: dict[str, object]) -> None:
    """Deterministic JSON: sorted keys, fixed layout, trailing newline; a
    non-finite float raises ``ValueError``."""
    _write(path, _json(payload) + "\n")


def _json(value: object, pad: str = "") -> str:
    """``json.dumps(value, sort_keys=True, indent=2, allow_nan=False)`` at indent
    ``pad``, with its errors, for the str-keyed dicts and the lists a payload holds."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    inner = pad + "  "
    if isinstance(value, dict):  # _quote raises TypeError on a key that is not a str
        items = [f"{_quote(k)}: {_json(v, inner)}" for k, v in sorted(value.items())]
    elif isinstance(value, (list, tuple)):  # a record table repeats one dict per readout class
        text = {k: _json(v, inner) for k, v in {id(v): v for v in value}.items()}
        items = [text[id(v)] for v in value]
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    ends, sep = "{}" if isinstance(value, dict) else "[]", ",\n" + inner
    return f"{ends[0]}\n{inner}{sep.join(items)}\n{pad}{ends[1]}" if items else ends


def _write(path: str | os.PathLike, text: str) -> None:
    """``text`` (ASCII: its bytes in any locale) as all of ``path``, made with open()'s 0o666."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        data = memoryview(text.encode())
        while data:  # a write may take less than it is given
            data = data[os.write(fd, data) :]
    finally:
        os.close(fd)
