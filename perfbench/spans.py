"""Host-time span recorder for the traced benchmark run.

The recorder wraps the functions of the simulator's layers at the class
and module level, from outside the program: ``src/`` carries no
benchmark hooks. Each call into a wrapped function is one span with a
parent (the enclosing wrapped call), host start/end and simulated
start/end. Aggregates (self time and calls per layer) cover every span;
full span records are kept in memory for the first :data:`SPAN_BUDGET`
spans and written out as a Chrome trace at exit.

A layer's self time is the sum over its spans of the span's duration
minus the durations of its direct child spans. Host time outside every
top-level span (the benchmark's own loop) is *unattributed*; by
construction ``sum(self) + unattributed == timed phase``.

Wrappers must be installed before any system boots: kernels capture
some entry points as bound methods at construction (the fault handler
handed to ``VirtualMemory.attach_kernel``, the page manager's and the
repair manager's timer callbacks), and a bound method taken before
installation never reaches the wrapper.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer -> module prefixes whose functions count as that layer. A
#: module not listed (``repro.common.units``, ``repro.harness`` ...) is
#: not wrapped: its time lands in the self time of its caller's layer.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "serve": ("repro.serve",),
    "sim": ("repro.sim", "repro.core.spec"),
    "apps": ("repro.apps",),
    "alloc": ("repro.alloc",),
    "mem.vm": ("repro.mem.vm", "repro.mem.batch", "repro.mem.tlb",
               "repro.mem.frames", "repro.core.api"),
    "mem.addrspace": ("repro.mem.addrspace",),
    "mem.page_table": ("repro.mem.page_table", "repro.mem.pte"),
    "core.fault": ("repro.core.dilos", "repro.core.comm",
                   "repro.core.prefetch", "repro.core.guides"),
    "core.page_manager": ("repro.core.page_manager",),
    "common.clock": ("repro.common.clock",),
    "net.qp": ("repro.net.qp", "repro.net.latency", "repro.net.rnic"),
    "net.reliable": ("repro.net.reliable", "repro.net.faults"),
    "net.topology": ("repro.net.topology",),
    "mem.pool": ("repro.mem.pool",),
    "mem.cluster": ("repro.mem.cluster", "repro.mem.repair"),
    "mem.remote": ("repro.mem.remote",),
    "obs": ("repro.obs", "repro.common.stats"),
}

LAYER_NAMES: Tuple[str, ...] = tuple(LAYERS)

#: Private methods that other layers call back into (timer callbacks
#: armed with ``Clock.call_after``). Public methods are wrapped anyway.
CALLBACKS = frozenset({
    "PageManager._tick",
    "RepairManager._resilver_tick",
    "RepairManager._scrub_tick",
})

#: Full span records kept for the Chrome trace; aggregates cover all.
SPAN_BUDGET = 20_000


def layer_of(module: str) -> Optional[str]:
    """The layer a module belongs to (no two prefixes overlap)."""
    for layer, prefixes in LAYERS.items():
        for prefix in prefixes:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return None


def import_layers() -> None:
    """Import every module the layer map names, so installation sees
    all of them before anything boots."""
    import pkgutil

    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if layer_of(info.name) is not None:
            importlib.import_module(info.name)


class SpanRecorder:
    """Per-layer self time and call counts, plus the first spans."""

    def __init__(self) -> None:
        n = len(LAYER_NAMES)
        self.self_s: List[float] = [0.0] * n
        self.calls: List[int] = [0] * n
        #: Enclosing spans: ``[child_seconds, span_id]`` frames.
        self.stack: List[List[Any]] = []
        self.spans: List[Tuple[Any, ...]] = []
        self.next_id = 1
        #: Reads the simulated clock stamped on recorded spans (set
        #: once the workload's cluster exists).
        self.sim_now: Callable[[], float] = lambda: 0.0
        self.origin = perf_counter()
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- accounting ----------------------------------------------------------

    def reset(self) -> None:
        """Zero the aggregates and spans (start of the timed phase)."""
        n = len(LAYER_NAMES)
        self.self_s = [0.0] * n
        self.calls = [0] * n
        self.spans = []
        self.next_id = 1
        self.origin = perf_counter()

    def wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        """``fn`` wrapped so every call is a span of ``layer``."""
        lid = LAYER_NAMES.index(layer)
        rec = self
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            keep = len(rec.spans) < SPAN_BUDGET
            sid = 0
            if keep:
                sid = rec.next_id
                rec.next_id = sid + 1
                parent = stack[-1][1] if stack else 0
                sim0 = rec.sim_now()
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                rec.self_s[lid] += dur - frame[0]
                rec.calls[lid] += 1
                if stack:
                    stack[-1][0] += dur
                if keep:
                    rec.spans.append((name, lid, sid, parent, t0, t1,
                                      sim0, rec.sim_now()))

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function and method (see module doc)."""
        import_layers()
        originals: Dict[int, Callable] = {}
        modules = [(name, mod) for name, mod in sorted(sys.modules.items())
                   if name.startswith("repro") and mod is not None]
        for modname, module in modules:
            layer = layer_of(modname)
            if layer is None:
                continue
            for attr, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != modname:
                    continue
                if inspect.isclass(value):
                    self._wrap_class(value, layer)
                elif inspect.isfunction(value) and not attr.startswith("_"):
                    wrapped = self.wrap(value, layer, value.__qualname__)
                    originals[id(value)] = wrapped
                    self._set(module, attr, wrapped)
        # ``from module import function`` copies the reference: rebind
        # those copies too, or callers keep reaching the original.
        for modname, module in modules:
            for attr, value in list(vars(module).items()):
                wrapped = originals.get(id(value))
                if wrapped is not None and inspect.isfunction(value):
                    self._set(module, attr, wrapped)

    def _wrap_class(self, cls: type, layer: str) -> None:
        if issubclass(cls, (BaseException, enum.Enum)) \
                or getattr(cls, "_is_protocol", False):
            return
        for attr, value in list(vars(cls).items()):
            qualname = f"{cls.__name__}.{attr}"
            if attr.startswith("_") and qualname not in CALLBACKS:
                continue
            if isinstance(value, staticmethod):
                wrapped: Any = staticmethod(
                    self.wrap(value.__func__, layer, qualname))
            elif isinstance(value, classmethod):
                wrapped = classmethod(
                    self.wrap(value.__func__, layer, qualname))
            elif inspect.isfunction(value):
                wrapped = self.wrap(value, layer, qualname)
            else:
                continue
            self._set(cls, attr, wrapped)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every original, newest first."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- export --------------------------------------------------------------

    def write_chrome_trace(self, path: str, process_name: str,
                           windows: List[Tuple[float, float]]) -> int:
        """Write the kept spans that start inside ``windows`` (the timed
        chunks) through the program's own exporter: host time on the
        time axis; layer, parent and simulated times in each span's
        args. Returns the number of spans written."""
        from repro.obs.export import write_chrome_trace
        from repro.obs.tracer import TraceRecord

        records = [
            TraceRecord(f"{LAYER_NAMES[lid]} {name}", "host", "X",
                        (t0 - self.origin) * 1e6, (t1 - t0) * 1e6,
                        {"layer": LAYER_NAMES[lid], "id": sid,
                         "parent": parent, "sim_start_us": sim0,
                         "sim_end_us": sim1})
            for name, lid, sid, parent, t0, t1, sim0, sim1 in self.spans
            if any(lo <= t0 <= hi for lo, hi in windows)]
        write_chrome_trace(records, path, process_name=process_name)
        return len(records)
