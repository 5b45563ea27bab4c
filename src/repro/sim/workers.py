"""Cooperative multi-worker execution over one simulated machine.

The simulator's application normally runs as one thread. Real deployments
run many (§5.2: DiLOS supports pthreads across cores).

:class:`Workers` models threads as generators of memory operations and
interleaves them round-robin, one operation per turn, on the shared clock.
The quantum is one memory access, so the interleaving models what threads
share between accesses: cache pressure (one worker's faults evict
another's pages), prefetch benefit, and waits on pages that another
worker's prefetch left FETCHING (§4.2's minor fault). A demand fault
completes inside one worker's turn, so two workers touching one cold page
never meet its fetch in flight: the first faults it in, the second hits.

Ops are built with the helpers::

    def worker(base):
        yield write(base, b"hello")
        yield cpu(1.5)
        data = yield read(base, 5)
        assert data == b"hello"

    Workers([worker(r1.base), worker(r2.base)]).run(system)

``yield read(...)`` evaluates to the loaded bytes, so workers can make
data-dependent accesses (pointer chasing, tree walks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Iterable, List, Optional

from repro.core.api import BaseSystem


@dataclass(frozen=True)
class Op:
    """One worker operation."""

    kind: str  # "read" | "write" | "touch" | "cpu"
    va: int = 0
    size: int = 0
    data: bytes = b""
    us: float = 0.0


def read(va: int, size: int) -> Op:
    """A load op; ``yield read(...)`` evaluates to the bytes."""
    return Op("read", va=va, size=size)


def write(va: int, data: bytes) -> Op:
    """A store op."""
    return Op("write", va=va, data=data)


def touch(va: int, size: int) -> Op:
    """Fault a range in without moving bytes."""
    return Op("touch", va=va, size=size)


def cpu(us: float) -> Op:
    """Charge compute time between memory operations."""
    return Op("cpu", us=us)


WorkerGen = Generator[Op, Any, None]


class Workers:
    """Round-robin interleaving of worker generators on one system."""

    def __init__(self, workers: Iterable[WorkerGen]) -> None:
        self._workers: List[Optional[WorkerGen]] = list(workers)
        if not self._workers:
            raise ValueError("need at least one worker")
        self.ops_executed = 0

    def run(self, system: BaseSystem) -> float:
        """Drive all workers to completion; returns elapsed simulated us."""
        start = system.clock.now
        memory = system.memory
        pending: List[Any] = [None] * len(self._workers)
        live = len(self._workers)
        while live:
            for index, worker in enumerate(self._workers):
                if worker is None:
                    continue
                try:
                    op = worker.send(pending[index])
                except StopIteration:
                    self._workers[index] = None
                    live -= 1
                    continue
                pending[index] = self._execute(system, memory, op)
                self.ops_executed += 1
        return system.clock.now - start

    @staticmethod
    def _execute(system: BaseSystem, memory, op: Op):
        if op.kind == "read":
            return memory.read(op.va, op.size)
        if op.kind == "write":
            memory.write(op.va, op.data)
            return None
        if op.kind == "touch":
            memory.touch(op.va, op.size)
            return None
        if op.kind == "cpu":
            system.cpu(op.us)
            return None
        raise ValueError(f"unknown op kind {op.kind!r}")
