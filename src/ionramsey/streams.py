"""Deterministic random-number streams for reproducible Monte Carlo runs.

Every stochastic entry point in the package draws from a
``numpy.random.Generator``. Streams are derived from a single user seed plus
a structural path (e.g. ``(point_index, trial_block)``) through
``SeedSequence.spawn_key``, backed by the counter-based Philox bit generator.
Two properties follow:

* the same seed and path always yield the same draws, independent of how many
  other streams were created before, and
* work can be split into any number of pieces and merged in path order
  with byte-identical results, because no stream's state depends on
  scheduling.
"""

from __future__ import annotations

import numpy as np


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the Generator for ``path`` under ``seed``.

    ``path`` is a tuple of non-negative integers naming the consumer, e.g.
    ``stream(seed, k, b)`` for trial block ``b`` of scan point ``k``.
    """
    ss = np.random.SeedSequence(seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(ss))
