"""Span tracer wrapped around ionramsey's public functions from outside.

``Tracer.install()`` replaces every public function of the traced modules
with a recording wrapper, in *every* ``ionramsey.*`` namespace that holds
it (modules import names from each other, and ``cli._COMMANDS`` keeps the
subcommand functions in a dict), then verifies that no original is left
reachable and raises ``TraceError`` if one is. Spans are kept in memory
as ``[id, name, job, parent, start, end, excluded]`` and turned
into per-layer metrics at the end; ``excluded`` is the tracer's own
bookkeeping time inside the span, so a span's self time is its duration
minus the union of its children's intervals minus that bookkeeping.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("register", "gates", "noise", "protocols", "bench", "streams", "records", "cli")
EXTRA = {"protocols.brentq": ("protocols", "brentq")}  # scipy root finder as protocols uses it
REPEAT_TRACKED = ("register.excitation_counts", "gates.prepare_ghz")
WRITERS = ("records.write_records_csv", "records.write_table_csv", "records.write_json")
# Metric groups: a kernel's public helpers count toward the kernel itself.
GROUPS = {
    "register.apply_rotation": ("register.apply_rotation", "register.rotation_matrix",
                                "register.apply_matrix_on_axis"),
    "register.expect": ("register.expect_jz", "register.expect_parity",
                        "register.expect_parity_normalized", "register.expect_sz_ion",
                        "register.prob_down_ion"),
    "protocols.fit": ("protocols.fit_fringe_frequency", "protocols.fourier_decompose"),
    "records.write": (*WRITERS, "records.record_row"),
    "cli.cmd": ("cli.cmd_ramsey", "cli.cmd_scaling", "cli.cmd_dephasing",
                "cli.cmd_calibrate", "cli.cmd_fourier"),
}
GROUP_OF = {name: group for group, names in GROUPS.items() for name in names}

ID, NAME, JOB, PARENT, START, END, EXCLUDED = range(7)


class TraceError(RuntimeError):
    pass


def _fingerprint(value: object) -> object:
    """Hashable identity of a call argument; arrays and registers by content."""
    if isinstance(value, np.ndarray):
        return (value.shape, hashlib.blake2b(value.tobytes(), digest_size=16).digest())
    if hasattr(value, "amplitudes") and hasattr(value, "n_ions"):
        return (value.n_ions, value.has_bus, _fingerprint(value.amplitudes))
    return repr(value)


def _module_containers(module) -> list[tuple[object, object, object]]:
    """(container, key, value) for module attributes and module-level collections."""
    found = []
    for attr, value in vars(module).items():
        found.append((module, attr, value))
        if isinstance(value, dict):
            found.extend((value, k, v) for k, v in value.items())
        elif isinstance(value, (list, tuple, set, frozenset)):
            found.extend((value, i, v) for i, v in enumerate(value))
    return found


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.job: int | None = None
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._seen: set[tuple] = set()
        self._bindings: list[tuple[object, object, object]] = []
        self._originals: dict[int, tuple[str, object]] = {}

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _before(self, name: str, sig, args, kwargs) -> None:
        if name in REPEAT_TRACKED:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            key = (self.job, name, tuple(_fingerprint(v) for v in bound.arguments.values()))
            with self._lock:
                self.counters[f"{name}.repeats"] += key in self._seen
                self._seen.add(key)
        if name.startswith("register.") and args and hasattr(args[0], "amplitudes"):
            nbytes = 16 * args[0].dim
            with self._lock:
                self.counters["register.amp_bytes_computed"] += nbytes
                peak = self.counters["register.peak_state_bytes"]
                self.counters["register.peak_state_bytes"] = max(peak, nbytes)

    def _after(self, name: str, args, kwargs, result) -> None:
        """Result-based counters; the calls they count run on one thread."""
        if name == "bench.golden_section":
            self.counters["bench.golden_section.evals"] += len(result)
        elif name == "protocols.two_point_calibrate":
            self.counters["protocols.two_point_calibrate.iterations"] += result.iterations
        elif name in WRITERS:
            path = Path(kwargs["path"] if "path" in kwargs else args[0])
            if name == "records.write_json":
                rows = args[1].get("rows", ()) if len(args) > 1 else ()
            else:
                rows = args[1] if name == "records.write_records_csv" else args[2]
            self.counters["records.rows"] += len(rows) if isinstance(rows, (list, tuple)) else 0
            self.counters["records.bytes"] += path.stat().st_size

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        is_pool = name == "streams.parallel_map"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            stack = self._stack()
            parent = stack[-1] if stack else None
            span = [next(self._ids), name, self.job, parent[ID] if parent else None, 0.0, 0.0, 0.0]
            self._before(name, sig, args, kwargs)
            if is_pool:
                args = (self._pool_item(span, args[0]), *args[1:])
            stack.append(span)
            span[START] = time.perf_counter()
            result, ok = None, False
            try:
                result, ok = fn(*args, **kwargs), True
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if ok:
                    self._after(name, args, kwargs, result)
                with self._lock:
                    self.spans.append(span)
                    if parent is not None:
                        parent[EXCLUDED] += (span[START] - entered) + (time.perf_counter() - span[END])
            return result

        return wrapper

    def _pool_item(self, pool_span: list, fn):
        """Per-item wrapper: parents worker spans and measures busy/GIL wait."""

        def item(i):
            stack = self._stack()
            pushed = not stack or stack[-1] is not pool_span
            if pushed:
                stack.append(pool_span)
            wall, cpu = time.perf_counter(), time.thread_time()
            try:
                return fn(i)
            finally:
                wall, cpu = time.perf_counter() - wall, time.thread_time() - cpu
                if pushed:
                    stack.pop()
                with self._lock:
                    self.counters["streams.parallel_map.busy_s"] += wall
                    self.counters["streams.parallel_map.gil_wait_s"] += max(0.0, wall - cpu)

        return item

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        targets: dict[str, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"ionramsey.{layer}")
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    targets[f"{layer}.{attr}"] = value
        for name, (layer, attr) in EXTRA.items():
            targets[name] = getattr(importlib.import_module(f"ionramsey.{layer}"), attr)
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in targets.items()}
        self._originals = {id(fn): (name, fn) for name, fn in targets.items()}
        for module in self._ionramsey_modules():
            for container, key, value in _module_containers(module):
                if id(value) in wrappers and value is self._originals[id(value)][1]:
                    self._rebind(container, key, wrappers[id(value)])
                    self._bindings.append((container, key, value))
        self.verify()

    @staticmethod
    def _rebind(container, key, value) -> None:
        """Tuples and sets cannot be rebound; ``verify`` reports them."""
        if isinstance(container, (dict, list)):
            container[key] = value
        elif not isinstance(container, (tuple, set, frozenset)):
            setattr(container, key, value)

    @staticmethod
    def _ionramsey_modules():
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == "ionramsey" or n.startswith("ionramsey."))]

    def verify(self) -> None:
        """Raise TraceError if any namespace still reaches an unwrapped original."""
        misses = []
        for module in self._ionramsey_modules():
            for container, key, value in _module_containers(module):
                entry = self._originals.get(id(value))
                if entry is not None and value is entry[1]:
                    where = module.__name__ if container is module else f"{module.__name__}.<{type(container).__name__}>"
                    misses.append(f"{entry[0]} still bound as {where}[{key!r}]")
        if misses:
            raise TraceError("tracer missed bindings: " + "; ".join(misses))

    def uninstall(self) -> None:
        for container, key, original in reversed(self._bindings):
            self._rebind(container, key, original)
        self._bindings.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span[PARENT] is not None:
                children[span[PARENT]].append((span[START], span[END]))
        out = {}
        for span in self.spans:
            covered, reach = 0.0, span[START]
            for start, end in sorted(children.get(span[ID], ())):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            out[span[ID]] = max(0.0, span[END] - span[START] - covered - span[EXCLUDED])
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Aggregate spans and counters into the per-layer metric names."""
        self_s = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        selfsum: dict[str, float] = defaultdict(float)
        group_of = {span[ID]: GROUP_OF.get(span[NAME], span[NAME]) for span in self.spans}
        for span in self.spans:
            group = group_of[span[ID]]
            if group_of.get(span[PARENT]) != group:  # nested calls in a group count once
                calls[group] += 1
            selfsum[group] += self_s[span[ID]]
        m: dict[str, float] = {}
        for name in ("register.apply_rotation", "register.free_evolve",
                     "register.sample_measurement", "register.expect",
                     "register.excitation_counts", "gates.prepare_ghz", "gates.reverse_prep",
                     "noise.sample_dephasing_phases", "noise.apply_phase_noise",
                     "noise.perturb_ghz", "protocols.run_ghz_ramsey",
                     "protocols.run_standard_ramsey", "protocols.ghz_signal",
                     "protocols.estimate_frequency", "protocols.two_point_calibrate"):
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.self_s"] = selfsum[name]
        for name in REPEAT_TRACKED:
            m[f"{name}.repeat_frac"] = self.counters[f"{name}.repeats"] / calls[name] if calls[name] else 0.0
        m["register.amp_bytes_computed"] = int(self.counters["register.amp_bytes_computed"])
        m["register.peak_state_bytes"] = int(self.counters["register.peak_state_bytes"])
        m["protocols.two_point_calibrate.iterations"] = int(self.counters["protocols.two_point_calibrate.iterations"])
        m["protocols.brentq.calls"] = calls["protocols.brentq"]
        m["protocols.fit.self_s"] = selfsum["protocols.fit"]
        m["bench.dephasing_benchmark.self_s"] = selfsum["bench.dephasing_benchmark"]
        m["bench.scan_scaling.self_s"] = selfsum["bench.scan_scaling"]
        m["bench.golden_section.evals"] = int(self.counters["bench.golden_section.evals"])
        m["streams.stream.calls"] = calls["streams.stream"]
        m["streams.parallel_map.self_s"] = selfsum["streams.parallel_map"]
        m["streams.parallel_map.busy_s"] = self.counters["streams.parallel_map.busy_s"]
        m["streams.parallel_map.gil_wait_s"] = self.counters["streams.parallel_map.gil_wait_s"]
        m["records.rows"] = int(self.counters["records.rows"])
        m["records.bytes"] = int(self.counters["records.bytes"])
        m["records.write_self_s"] = selfsum["records.write"]
        m["cli.config_self_s"] = selfsum["cli.main"]
        m["cli.cmd_self_s"] = selfsum["cli.cmd"]
        return m

    def write(self, path: Path) -> None:
        """Spans as JSON lines: id, name, job, parent, start, end, self."""
        self_s = self.self_times()
        with path.open("w") as fh:
            for span in sorted(self.spans, key=lambda s: s[START]):
                fh.write(json.dumps([span[ID], span[NAME], span[JOB], span[PARENT],
                                     span[START], span[END], self_s[span[ID]]]) + "\n")
