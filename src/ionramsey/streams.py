"""Deterministic random-number streams for reproducible Monte Carlo runs.

Every stochastic entry point in the package draws from a
``numpy.random.Generator``. Streams are derived from a single user seed plus
a structural path (e.g. ``(protocol_index, point_index, 0)``) through
``SeedSequence.spawn_key``, backed by the counter-based Philox bit generator.
The same seed and path always yield the same draws, independent of how many
other streams were created before, so each sampled run, drawing all of its
shots from the one stream its path names, is reproducible on its own and in
any order.
"""

from __future__ import annotations

import numpy as np


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the Generator for ``path`` under ``seed``.

    ``path`` is a tuple of non-negative integers naming the consumer, e.g.
    ``stream(seed, p, k, 0)`` for scan point ``k`` of protocol ``p``.
    """
    ss = np.random.SeedSequence(seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(ss))
