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

from typing import Callable, TypeVar

import numpy as np

T = TypeVar("T")


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the Generator for ``path`` under ``seed``.

    ``path`` is a tuple of non-negative integers naming the consumer, e.g.
    ``stream(seed, k, b)`` for trial block ``b`` of scan point ``k``.
    """
    ss = np.random.SeedSequence(seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(ss))


def parallel_map(
    fn: Callable[[int], T],
    n_items: int,
    threads: int = 1,
) -> list[T]:
    """Evaluate ``fn(i)`` for ``i in range(n_items)``, results in index order.

    ``fn`` must derive any randomness it needs from its index (via
    :func:`stream`), never from shared state; then the returned list is
    identical for every ``threads`` value. ``threads`` is checked, but the
    items run in order on the calling thread: a pool of two threads measured
    slower than one on the sampled scans.
    """
    if n_items < 0:
        raise ValueError(f"n_items must be >= 0, got {n_items}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return [fn(i) for i in range(n_items)]
