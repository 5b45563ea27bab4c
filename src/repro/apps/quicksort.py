"""Quicksort over a far-memory integer array (Figure 7(a)).

The paper sorts a vector of random integers with ``std::sort``. Here the
array lives in disaggregated memory and is sorted with an external
quicksort: three-way partitioning passes stream the array through the
paging subsystem chunk by chunk (reads of the input, partitioned writes to
a scratch array, copy-back), and small segments are sorted in-memory after
a single load. Comparison work is charged in CPU cycles per element, so
completion time reflects both compute and paging — exactly the trade-off
Figure 7(a) sweeps across local-memory ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.api import BaseSystem
from repro.apps.views import PagedArray
from repro.obs.snapshot import MetricsSnapshot

#: Segments at or below this many elements are loaded and sorted in memory.
SMALL_SEGMENT = 2048
#: Elements processed per streaming chunk (one 4 KiB page of int64).
CHUNK = 512
#: Charged compute: cycles per element per partition pass / per in-memory
#: sort comparison (branch + compare + move).
PARTITION_CYCLES = 3.0
SORT_CYCLES = 4.0


@dataclass
class QuicksortResult:
    count: int
    elapsed_us: float
    metrics: MetricsSnapshot


class QuicksortWorkload:
    """Sort ``count`` random 64-bit integers living in far memory."""

    def __init__(self, count: int = 1 << 17, seed: int = 1234) -> None:
        if count < 4:
            raise ValueError("need at least 4 elements")
        self.count = count
        self.seed = seed

    @property
    def footprint_bytes(self) -> int:
        # Input array + partition scratch.
        return 2 * self.count * 8

    def run(self, system: BaseSystem, verify: bool = True) -> QuicksortResult:
        arr = PagedArray(system, self.count, np.int64, name="qsort-data")
        scratch = PagedArray(system, self.count, np.int64, name="qsort-scratch")
        rng = np.random.default_rng(self.seed)
        for start, stop in arr.chunks(CHUNK * 8):
            values = rng.integers(0, 2 ** 62, size=stop - start, dtype=np.int64)
            arr.store(start, values)

        begin = system.clock.now
        self._quicksort(system, arr, scratch)
        elapsed = system.clock.now - begin

        if verify:
            previous_max = None
            for start, stop in arr.chunks(CHUNK * 8):
                values = arr.load(start, stop)
                if np.any(values[1:] < values[:-1]):
                    raise AssertionError("array not sorted within chunk")
                if previous_max is not None and values[0] < previous_max:
                    raise AssertionError("array not sorted across chunks")
                previous_max = values[-1]
        return QuicksortResult(count=self.count, elapsed_us=elapsed,
                               metrics=system.metrics())

    # -- sorting --------------------------------------------------------------

    def _quicksort(self, system: BaseSystem, arr: PagedArray,
                   scratch: PagedArray) -> None:
        stack = [(0, self.count)]
        while stack:
            lo, hi = stack.pop()
            n = hi - lo
            if n <= 1:
                continue
            if n <= SMALL_SEGMENT:
                segment = arr.load(lo, hi)
                segment.sort()
                arr.store(lo, segment)
                system.cpu_cycles(n * max(1.0, math.log2(n)) * SORT_CYCLES)
                continue
            lt, gt = self._partition(system, arr, scratch, lo, hi)
            # Recurse smaller side last so the stack stays shallow.
            sides = sorted([(lo, lt), (gt, hi)], key=lambda s: s[1] - s[0])
            stack.extend(sides)

    def _partition(self, system: BaseSystem, arr: PagedArray,
                   scratch: PagedArray, lo: int, hi: int):
        """Three-way partition of ``[lo, hi)`` via the scratch array.

        Returns ``(lt, gt)``: elements in ``[lt, gt)`` equal the pivot.
        """
        pivot = self._median_of_three(system, arr, lo, hi)
        front = lo
        back = hi
        equal_count = 0
        for start in range(lo, hi, CHUNK):
            stop = min(start + CHUNK, hi)
            chunk = arr.load(start, stop)
            system.cpu_cycles(len(chunk) * PARTITION_CYCLES)
            less = chunk[chunk < pivot]
            greater = chunk[chunk > pivot]
            equal_count += len(chunk) - len(less) - len(greater)
            if len(less):
                scratch.store(front, less)
                front += len(less)
            if len(greater):
                back -= len(greater)
                scratch.store(back, greater)
        # Lay out less | equal | greater back into the input array.
        lt, gt = front, front + equal_count
        for start in range(lo, lt, CHUNK):
            stop = min(start + CHUNK, lt)
            arr.store(start, scratch.load(start, stop))
        if equal_count:
            for start in range(lt, gt, CHUNK):
                stop = min(start + CHUNK, gt)
                arr.store(start, np.full(stop - start, pivot, dtype=np.int64))
        for start in range(gt, hi, CHUNK):
            stop = min(start + CHUNK, hi)
            arr.store(start, scratch.load(start, stop))
        return lt, gt

    @staticmethod
    def _median_of_three(system: BaseSystem, arr: PagedArray,
                         lo: int, hi: int):
        a = arr.get(lo)
        b = arr.get((lo + hi) // 2)
        c = arr.get(hi - 1)
        system.cpu_cycles(8)
        return sorted((a, b, c))[1]
