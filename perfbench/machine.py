"""Machine-speed sampler and machine description.

The benchmark machine's speed drifts by up to ~1.75x within seconds, and its
two cores drift independently, while CPU time stays equal to wall time. Raw
job times from two runs are therefore not comparable. ``SpeedSampler``
measures the drift while the jobs run: a helper thread wakes every
``PERIOD_S``, pins itself to one of the CPUs the current job uses, and
times a fixed kernel of tiny numpy ops by its own thread CPU time, which
waiting for the interpreter lock does not inflate. A job's latency is
rescaled by the kernel's nominal time over its mean time sampled during the job,
so the benchmark reports seconds at the kernel's nominal speed. The kernel
never calls ionramsey, so no program change moves it.
"""

from __future__ import annotations

import bisect
import os
import platform
import threading
import time

import numpy as np

PERIOD_S = 0.025
KERNEL_ITERATIONS = 30
MEMORY_LEN = 1 << 19  # complex128, 8 MB: a 19-ion state
# Typical in-run part times on a 2-core Intel Xeon sandbox, numpy 2.4.
NOMINAL_S = {"interp": 0.0015, "memory": 0.001}
MIN_SAMPLES = 4


class SpeedSampler:
    """Samples the kernel time on the CPUs in ``cpus`` from a helper thread.

    Assign ``cpus`` before each job; samples alternate over those CPUs.
    With ``memory`` the kernel adds an in-place product over an 8 MB
    vector, for workloads bound by memory bandwidth rather than by the
    interpreter; the vector stays allocated while the sampler runs.
    Use as a context manager; the thread is joined on exit.
    """

    def __init__(self, cpus: tuple[int, ...], memory: bool = False):
        self.cpus = cpus
        self.nominal_s = NOMINAL_S["interp"] + (NOMINAL_S["memory"] if memory else 0.0)
        self._amps = np.ones(MEMORY_LEN, dtype=np.complex128) if memory else None
        self.times: list[float] = []  # sample midpoints, perf_counter seconds
        self.kernel_s: list[float] = []
        rng = np.random.default_rng(12345)
        self._small = [rng.standard_normal((2,) * 4) + 0j for _ in range(4)]
        self._mat = np.array([[0.6, -0.8j], [-0.8j, 0.6]])
        self._probs = np.full(16, 1 / 16)
        self._rng = np.random.default_rng(1)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-sampler", daemon=True)

    def _loop(self) -> None:
        turn = 0
        while not self._stop.wait(PERIOD_S):
            cpus = self.cpus
            os.sched_setaffinity(0, {cpus[turn % len(cpus)]})  # this thread only
            turn += 1
            start, cpu0 = time.perf_counter(), time.thread_time()
            self._kernel()
            self.kernel_s.append(time.thread_time() - cpu0)
            self.times.append((start + time.perf_counter()) / 2)  # second, so indices align

    def _kernel(self) -> None:
        """Tiny tensor ops and a weighted draw, like the per-shot simulation loop."""
        for i in range(KERNEL_ITERATIONS):
            axis = i & 3
            psi = np.moveaxis(np.tensordot(self._mat, self._small[axis], axes=([1], [axis])), 0, axis)
            float(np.abs(np.ascontiguousarray(psi)).sum())
            self._rng.choice(16, p=self._probs)
        if self._amps is not None:
            np.multiply(self._amps, 1.0, out=self._amps)

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean kernel time sampled in [start, end].

        Short jobs widen the window to the MIN_SAMPLES samples nearest
        their midpoint.
        """
        times = self.times[:]
        mid = (start + end) / 2
        lo, hi = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(times)):
            if hi >= len(times) or (lo > 0 and mid - times[lo - 1] <= times[hi] - mid):
                lo -= 1
            else:
                hi += 1
        window = self.kernel_s[lo:hi]
        if not window:
            raise RuntimeError("speed sampler recorded no samples")
        return self.nominal_s * len(window) / sum(window)

    def median_kernel_s(self) -> float:
        ordered = sorted(self.kernel_s)
        return ordered[len(ordered) // 2]


def describe(thread_vars: tuple[str, ...]) -> dict[str, object]:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {var: os.environ.get(var) for var in thread_vars},
        "sampler": {"period_s": PERIOD_S, "kernel_iterations": KERNEL_ITERATIONS,
                    "memory_len": MEMORY_LEN, "nominal_s": NOMINAL_S},
    }
