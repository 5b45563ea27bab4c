"""Memory-trace recording and replay.

A recorded trace captures an application's *memory behaviour* — every
load/store with its virtual address, size, and the compute gap since the
previous access — decoupled from the application code. Replaying the same
trace on different kernels (DiLOS vs Fastswap, different prefetchers,
different media) compares paging subsystems on byte-identical access
sequences, the methodology behind trace-driven studies like the paper's
motivation experiments (§3).

Traces serialize to JSON-lines, so they can be stored with experiment
results and replayed later. A ``munmap`` is an event too: the trace's
layout lists every region in ``mmap`` order, freed ones included, so a
replay maps each at its recorded base and frees it where the recording
did.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.api import BaseSystem


@dataclass(frozen=True)
class TraceEvent:
    """One memory access, ``gap_us`` of compute after the previous one
    (a ``munmap`` names the region's base and size)."""

    op: str  # "read" | "write" | "touch" | "munmap"
    va: int
    size: int
    gap_us: float


class Trace:
    """A recorded region layout plus an ordered access sequence."""

    def __init__(self, regions: List[Tuple[int, bool, str]],
                 events: List[TraceEvent]) -> None:
        self.regions = regions
        self.events = events

    def __len__(self) -> int:
        return len(self.events)

    @property
    def bytes_accessed(self) -> int:
        return sum(e.size for e in self.events if e.op != "munmap")

    # -- persistence --------------------------------------------------------

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"regions": self.regions}) + "\n")
            for event in self.events:
                fh.write(json.dumps([event.op, event.va, event.size,
                                     event.gap_us]) + "\n")

    @classmethod
    def load(cls, path) -> "Trace":
        with open(path) as fh:
            header = json.loads(fh.readline())
            regions = [tuple(r) for r in header["regions"]]
            events = [TraceEvent(*json.loads(line))
                      for line in fh if line.strip()]
        return cls(regions, events)

    # -- replay ----------------------------------------------------------------

    def replay(self, system: BaseSystem):
        """Re-create the regions and drive the accesses; returns the
        system's :class:`~repro.obs.MetricsSnapshot` with the replay's
        simulated duration in ``extra["replay_us"]``."""
        regions = {}
        for size, ddc, name in self.regions:
            region = system.mmap(size, ddc=ddc, name=name)
            regions[region.base] = region
        start = system.clock.now
        memory = system.memory
        for event in self.events:
            if event.gap_us:
                system.cpu(event.gap_us)
            if event.op == "read":
                memory.read(event.va, event.size)
            elif event.op == "write":
                # Replay stores deterministic filler: the trace captures
                # behaviour, not payloads.
                memory.write(event.va, b"\xA7" * event.size)
            elif event.op == "touch":
                memory.touch(event.va, event.size)
            elif event.op == "munmap":
                system.munmap(regions.pop(event.va))
            else:
                raise ValueError(f"unknown trace op {event.op!r}")
        metrics = system.metrics()
        metrics.extra["replay_us"] = system.clock.now - start
        return metrics


class RecordingMemory:
    """A proxy over :class:`VirtualMemory` that logs every access.

    ``read``, ``write`` and ``touch`` log one event per call. The batch
    calls (``read_batch``, ``write_batch``) issue one recorded
    ``read``/``write`` per element: the VM's batch contract makes that the
    same simulation, so a trace does not depend on how the accesses were
    grouped.
    """

    def __init__(self, system: BaseSystem) -> None:
        self._inner = system.vm
        self._clock = system.clock
        self._events: List[TraceEvent] = []
        self._last_time = system.clock.now

    def _log(self, op: str, va: int, size: int) -> None:
        now = self._clock.now
        self._events.append(TraceEvent(op, va, size,
                                       max(0.0, now - self._last_time)))

    def read(self, va: int, size: int) -> bytes:
        self._log("read", va, size)
        data = self._inner.read(va, size)
        self._last_time = self._clock.now
        return data

    def write(self, va: int, data: bytes) -> None:
        self._log("write", va, len(data))
        self._inner.write(va, data)
        self._last_time = self._clock.now

    def touch(self, va: int, size: int) -> None:
        self._log("touch", va, size)
        self._inner.touch(va, size)
        self._last_time = self._clock.now

    def read_batch(self, vas: Sequence[int],
                   sizes: Sequence[int]) -> List[bytes]:
        if len(vas) != len(sizes):
            raise ValueError("vas and sizes must have equal length")
        return [self.read(va, size) for va, size in zip(vas, sizes)]

    def write_batch(self, vas: Sequence[int],
                    datas: Sequence[bytes]) -> None:
        if len(vas) != len(datas):
            raise ValueError("vas and datas must have equal length")
        for va, data in zip(vas, datas):
            self.write(va, data)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class TraceRecorder:
    """Attach to a system, run the application, then ``finish()``.

    While attached, the system's ``mmap`` and ``munmap`` go through the
    recorder: the layout keeps the regions mapped at attach and then
    every region mapped since, freed or not, and each ``munmap`` is an
    event.
    """

    def __init__(self, system: BaseSystem) -> None:
        self._system = system
        self._proxy = RecordingMemory(system)
        self._regions = system.addr_space.regions()
        system.vm = self._proxy  # apps reach memory via system.memory
        system.mmap = self._mmap
        system.munmap = self._munmap

    def _mmap(self, *args, **kwargs):
        region = type(self._system).mmap(self._system, *args, **kwargs)
        self._regions.append(region)
        return region

    def _munmap(self, region) -> None:
        self._proxy._log("munmap", region.base, region.size)
        type(self._system).munmap(self._system, region)
        self._proxy._last_time = self._system.clock.now

    def finish(self) -> Trace:
        """Detach and return the recorded trace."""
        self._system.vm = self._proxy._inner
        del self._system.mmap, self._system.munmap
        regions = [(r.size, r.ddc, r.name) for r in self._regions]
        return Trace(regions, list(self._proxy._events))
