"""The AIFM runtime: remoteable pointers over object-granular far memory.

Three modeled costs drive every AIFM result in the paper:

* ``aifm_deref_check`` on *every* dereference — the "extra instructions to
  check whether accessing objects are in local or remote memory" that make
  AIFM 50-83% slower than paging systems when everything fits locally
  (§6.2, Figure 8);
* object-granular fetches over the TCP transport (+14,000 cycles per
  transfer vs RDMA);
* background evacuation — object write-back happens off the critical path
  (dedicated threads), so memory pressure costs AIFM almost nothing, which
  is why it wins at 12.5% local memory.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import partial
from typing import Dict, Optional

from repro.common.clock import Clock
from repro.common.errors import OutOfMemoryError
from repro.baselines.aifm.config import AifmConfig
from repro.core.spec import BackendSpec, make_backend
from repro.mem.remote import NodeFailedError
from repro.net.qp import Completion, NetStats
from repro.net.reliable import open_qp
from repro.obs import MetricsSnapshot, Observability

#: Fraction of the heap budget one evacuation round frees.
EVACUATION_BATCH_FRAC = 0.05


class _Object:
    """One far-memory object."""

    __slots__ = ("oid", "size", "remote_off", "local", "dirty", "inflight")

    def __init__(self, oid: int, size: int, remote_off: int) -> None:
        self.oid = oid
        self.size = size
        self.remote_off = remote_off
        self.local: Optional[bytearray] = None
        self.dirty = False
        self.inflight: Optional[Completion] = None


class RemPtr:
    """A remoteable pointer; every access goes through a presence check."""

    __slots__ = ("_runtime", "_oid")

    def __init__(self, runtime: "AifmRuntime", oid: int) -> None:
        self._runtime = runtime
        self._oid = oid

    @property
    def size(self) -> int:
        return self._runtime._objects[self._oid].size

    def read(self, offset: int = 0, size: Optional[int] = None) -> bytes:
        """Dereference for reading."""
        return self._runtime.deref_read(self._oid, offset, size)

    def write(self, data: bytes, offset: int = 0) -> None:
        """Dereference for writing."""
        self._runtime.deref_write(self._oid, data, offset)

    def prefetch(self) -> None:
        """Hint: start fetching this object in the background."""
        self._runtime.prefetch(self._oid)

    def is_local(self) -> bool:
        return self._runtime._objects[self._oid].local is not None

    def free(self) -> None:
        self._runtime.free(self._oid)


class AifmRuntime:
    """The user-level far-memory runtime (one application, one memory node)."""

    def __init__(self, config: Optional[AifmConfig] = None,
                 obs: Optional[Observability] = None,
                 memory_backend: BackendSpec = None,
                 clock: Optional[Clock] = None) -> None:
        """Boot the runtime; ``memory_backend`` is a backend spec string
        or ``None``, resolved by :func:`~repro.core.spec.make_backend` (a
        cluster's object reads/writes split at page boundaries inside
        the backend). A ready backend object raises ``ValueError``: AIFM
        bump-allocates from offset 0, over slots others allocate.
        ``clock`` injects a shared timeline."""
        self.config = config or AifmConfig()
        self.config.validate()
        self.clock = clock or Clock()
        self.model = self.config.latency
        self.node = make_backend(memory_backend, self.config.remote_mem_bytes)
        if self.node is memory_backend:
            raise ValueError(
                "AIFM bump-allocates its remote heap from offset 0 and "
                "cannot share a slot-allocated backend object; give it a "
                "backend spec string and run AIFM single-node")
        self.stats = NetStats()
        self.obs = obs or Observability.default()
        self.registry = self.obs.registry
        self.tracer = self.obs.tracer
        for key in ("fault.major", "fault.minor", "deref.total",
                    "prefetch.issued", "reclaim.pages_evicted",
                    "reclaim.pages_cleaned"):
            self.registry.counter(key)
        self.registry.gauge("net.bytes_read", lambda: self.stats.bytes_read)
        self.registry.gauge("net.bytes_written",
                            lambda: self.stats.bytes_written)
        self.registry.gauge("heap.bytes_used", lambda: self.heap_used)
        extra = self.model.tcp_extra if self.config.transport == "tcp" else 0.0
        connection = partial(open_qp, clock=self.clock, model=self.model,
                             remote=self.node, stats=self.stats,
                             plan=self.config.net_faults,
                             policy=self.config.net_retry,
                             registry=self.registry, tracer=self.tracer,
                             fabric=self.config.fabric,
                             extra_completion_delay=extra)
        #: Demand fetches and streaming prefetches ride separate connections
        #: (AIFM's prefetcher threads own their own sockets).
        self._qp = connection("aifm-app")
        self._prefetch_qp = connection("aifm-prefetch")
        self._evac_qp = connection("aifm-evac")
        self._objects: Dict[int, _Object] = {}
        self._lru: "OrderedDict[int, None]" = OrderedDict()
        self._next_oid = 1
        self._remote_bump = 0
        self.heap_used = 0

    @property
    def name(self) -> str:
        return "AIFM" if self.config.transport == "tcp" else "AIFM-RDMA"

    # -- allocation -----------------------------------------------------------

    def allocate(self, size: int, data: Optional[bytes] = None) -> RemPtr:
        """Allocate a far-memory object (local until evacuated)."""
        if size <= 0:
            raise ValueError("object size must be positive")
        if self._remote_bump + size > self.node.capacity:
            raise OutOfMemoryError("remote heap exhausted")
        oid = self._next_oid
        self._next_oid += 1
        obj = _Object(oid, size, self._remote_bump)
        self._remote_bump += size
        obj.local = bytearray(size)
        obj.dirty = True
        if data is not None:
            if len(data) > size:
                raise ValueError("initializer larger than object")
            obj.local[:len(data)] = data
            self.clock.advance(len(data) * self.model.cpu_copy_per_byte)
        self._objects[oid] = obj
        self._lru[oid] = None
        self.heap_used += size
        self.registry.add("heap.objects_allocated")
        self._maybe_evacuate()
        return RemPtr(self, oid)

    def free(self, oid: int) -> None:
        obj = self._objects.pop(oid, None)
        if obj is None:
            raise ValueError(f"free of unknown object {oid}")
        if obj.local is not None:
            self.heap_used -= obj.size
        self._lru.pop(oid, None)
        self.registry.add("heap.objects_freed")

    # -- dereferencing ------------------------------------------------------------

    def _resolve(self, oid: int) -> _Object:
        """Presence check + fetch-on-miss: the core of a dereference."""
        self.clock.advance(self.model.aifm_deref_check)
        self.registry.add("deref.total")
        obj = self._objects.get(oid)
        if obj is None:
            raise ValueError(f"dereference of freed object {oid}")
        if obj.local is None:
            self._fetch(obj)
        elif obj.inflight is not None:
            # A prefetch is in flight; wait out the remainder (usually 0).
            inflight = obj.inflight
            try:
                self._prefetch_qp.wait(inflight)
            except NodeFailedError:
                # The node died with the prefetch in flight: the reserved
                # buffer never got its bytes. Drop the reservation so the
                # object is cleanly remote again.
                obj.local = None
                obj.inflight = None
                self.heap_used -= obj.size
                self.registry.add("net.fetch_node_failures")
                raise
            obj.inflight = None
        self._lru[oid] = None
        self._lru.move_to_end(oid)
        return obj

    def deref_read(self, oid: int, offset: int = 0,
                   size: Optional[int] = None) -> bytes:
        obj = self._resolve(oid)
        end = obj.size if size is None else offset + size
        if offset < 0 or end > obj.size:
            raise ValueError("dereference outside object bounds")
        data = bytes(obj.local[offset:end])
        self.clock.advance(len(data) * self.model.cpu_copy_per_byte)
        return data

    def deref_write(self, oid: int, data: bytes, offset: int = 0) -> None:
        obj = self._resolve(oid)
        if offset < 0 or offset + len(data) > obj.size:
            raise ValueError("dereference outside object bounds")
        obj.local[offset:offset + len(data)] = data
        obj.dirty = True
        self.clock.advance(len(data) * self.model.cpu_copy_per_byte)

    def _fetch(self, obj: _Object) -> None:
        """Demand-fetch a remote object (synchronous, user-level)."""
        assert obj.inflight is None, "in-flight objects are local-reserved"
        fetch_start = self.clock.now
        self.clock.advance(self.model.aifm_object_fetch_sw)
        completion = self._qp.post_read(obj.remote_off, obj.size)
        self.registry.add("fault.major")
        try:
            self._qp.wait(completion)
        except NodeFailedError:
            self.registry.add("net.fetch_node_failures")
            raise
        if self.tracer.enabled:
            self.tracer.complete("fault.major", "fault", fetch_start,
                                 self.clock.now - fetch_start,
                                 {"oid": obj.oid, "bytes": obj.size})
        obj.local = bytearray(completion.data)
        obj.dirty = False
        self.heap_used += obj.size
        self._maybe_evacuate()

    # -- prefetching -----------------------------------------------------------------

    def prefetch(self, oid: int) -> None:
        """Async object fetch on the prefetcher's own connection."""
        obj = self._objects.get(oid)
        if obj is None or obj.local is not None or obj.inflight is not None:
            return
        completion = self._prefetch_qp.post_read(obj.remote_off, obj.size)
        self.registry.add("prefetch.issued")
        if self.tracer.enabled:
            self.tracer.instant("prefetch.issue", "prefetch", self.clock.now,
                                {"oid": oid, "bytes": obj.size})
        # Reserve heap now; the data buffer materializes at arrival.
        obj.local = bytearray(obj.size)
        obj.dirty = False
        obj.inflight = completion
        self.heap_used += obj.size
        data_target = obj

        def install(c: Completion) -> None:
            if c.failed:
                return  # the response was lost; _resolve cleans up
            if data_target.local is not None:
                data_target.local[:] = c.data
            data_target.inflight = None

        self.clock.call_at(completion.time, lambda: install(completion))
        self._lru[oid] = None
        self._maybe_evacuate()

    # -- evacuation -------------------------------------------------------------------

    def _maybe_evacuate(self) -> None:
        """Background evacuator: keep the local heap under budget.

        Runs on AIFM's dedicated threads — costs the application no CPU
        time, only wire bytes (and correctness: dirty data is written back
        before the local copy is dropped).
        """
        budget = self.config.local_mem_bytes
        if self.heap_used <= budget:
            return
        target = budget * (1.0 - EVACUATION_BATCH_FRAC)
        evac_start = self.clock.now
        evacuated = 0
        for oid in list(self._lru.keys()):
            if self.heap_used <= target:
                break
            obj = self._objects[oid]
            if obj.local is None or obj.inflight is not None:
                continue
            if obj.dirty:
                self._evac_qp.post_write(obj.remote_off, bytes(obj.local))
                self.registry.add("reclaim.pages_cleaned")
            obj.local = None
            self.heap_used -= obj.size
            self._lru.pop(oid, None)
            self.registry.add("reclaim.pages_evicted")
            evacuated += 1
        if evacuated and self.tracer.enabled:
            self.tracer.complete("reclaim.evacuate", "reclaim", evac_start,
                                 self.clock.now - evac_start,
                                 {"evacuated": evacuated})

    # -- harness surface ----------------------------------------------------------------

    def cpu(self, microseconds: float) -> None:
        self.clock.advance(microseconds)

    def cpu_cycles(self, cycles: float) -> None:
        self.clock.advance(self.model.cycles(cycles))

    def metrics(self) -> MetricsSnapshot:
        return self.registry.snapshot(self.name, self.clock.now)
