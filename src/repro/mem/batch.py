"""Batch execution over the MMU (the batch access engine).

Applications touch far memory through per-page Python loops in
:meth:`repro.mem.vm.VirtualMemory.read` / ``write``; at hundreds of
nanoseconds of interpreter overhead per page those loops dominate wall
time once the simulated machinery around them has been optimized. This
module executes whole batches instead:

* a **sub-page** element (one inside a single page, such as a 128-byte
  KV entry) runs in one shared loop over the batch, with no
  ``vm.read``/``vm.write`` call of its own: the loop performs that
  call's one-page step, copying the bytes as soon as the page is
  translated;
* any other element (one that crosses a page, or an empty one) takes
  one scalar ``vm.read``/``vm.write`` call.

:func:`read_span_into` (``vm.read_into``) moves one whole run straight
into any writable C-contiguous byte buffer, a numpy array or a
``bytearray``. It copies each page through a ``memoryview`` slice of
the frame pool into the buffer as soon as the page is translated, so a
caller that wants its result in an array of its own (``PagedArray``)
gets no ``bytes`` per page. Writing from a buffer needs no engine call:
``vm.write`` takes any bytes-like object and slices it per page. The
engine needs no numpy.

Determinism contract (pinned by ``tests/test_batch_differential.py`` and
the golden masters):

* **Identical accounting.** Per page: one TLB hit count and one LRU
  refresh, in access order. Per element: one clock charge of
  ``size * cpu_copy_per_byte`` *after* the element's pages. Timers
  therefore fire at the same simulated instants, in the same states, as
  under per-element scalar calls.
* **Copy at translation.** A page's bytes move before the next page is
  translated: a later fault may evict and reuse an earlier page's frame,
  so data movement never outlives the translation that produced it.
* **No new metrics.** The engine adds no counters of its own; a batch run
  and the equivalent scalar run produce byte-identical metrics snapshots.

The engine is on unless :func:`force` switches it off in-process; ported
call sites then take their original scalar loops. The differential
suites and the golden master's scalar twins compare both paths that way.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import repeat
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.common.units import PAGE_SHIFT, PAGE_SIZE

_PAGE_MASK = PAGE_SIZE - 1

#: Engine switch, flipped only through :func:`force`.
ENABLED = True


@contextmanager
def force(on: bool):
    """Temporarily force the engine on or off (tests/differential runs)."""
    global ENABLED
    saved, ENABLED = ENABLED, on
    try:
        yield
    finally:
        ENABLED = saved


# -- one run into or out of a caller's buffer --------------------------------


def read_span_into(vm, va: int, out) -> None:
    """Fill ``out`` with the bytes at ``va``.

    ``out`` is any writable C-contiguous buffer (a numpy array, a
    ``bytearray``); its size in bytes is the read size. Each page is
    copied as soon as it is translated. Accounting is exactly one scalar
    ``vm.read(va, size)`` call.
    """
    dst = memoryview(out).cast("B")
    size = len(dst)
    if size == 0:
        return
    tlb = vm.tlb
    tlb_get = tlb.entries.get
    tlb_move = tlb.entries.move_to_end
    frame_bufs = vm._frames._data
    translate = vm._translate
    pos = 0
    remaining = size
    hits = 0
    while remaining > 0:
        vpn = va >> PAGE_SHIFT
        offset = va & _PAGE_MASK
        length = PAGE_SIZE - offset
        if length > remaining:
            length = remaining
        entry = tlb_get(vpn)
        if entry is not None:
            tlb_move(vpn)
            hits += 1
            frame = entry[0]
        else:
            # Hits flush before the slow path, so accounting is exact
            # even if translation raises mid-access.
            tlb.hits += hits
            hits = 0
            frame = translate(vpn, False)
        dst[pos:pos + length] = frame_bufs[frame][offset:offset + length]
        pos += length
        va += length
        remaining -= length
    tlb.hits += hits
    vm._clock.advance(size * vm._copy_cost)


# -- element-batch API -------------------------------------------------------


def read_batch(vm, vas: Sequence[int], sizes: Sequence[int]) -> List[bytes]:
    """Batched loads: ``[vm.read(va, size) for va, size in zip(...)]``."""
    if len(vas) != len(sizes):
        raise ValueError("vas and sizes must have equal length")
    return _execute(vm, zip(repeat("r"), vas, sizes))


def write_batch(vm, vas: Sequence[int], datas: Sequence[bytes]) -> None:
    """Batched stores: ``[vm.write(va, data) for va, data in zip(...)]``."""
    if len(vas) != len(datas):
        raise ValueError("vas and datas must have equal length")
    _execute(vm, zip(repeat("w"), vas, datas))


def apply_trace(vm, ops: Iterable[Tuple]) -> List[Optional[bytes]]:
    """Execute an access trace of ``("r", va, size)`` / ``("w", va, data)``
    tuples in order; returns the read results (None for writes).

    Element ordering — including clock charges and therefore timer firing
    points — matches issuing the same scalar calls one by one.
    """
    return _execute(vm, ops)


def _execute(vm, ops: Iterable[Tuple]) -> List[Optional[bytes]]:
    """The engine behind the three batch calls (see the module doc)."""
    advance = vm._clock.advance
    tlb = vm.tlb
    tlb_get = tlb.entries.get
    tlb_move = tlb.entries.move_to_end
    frame_bufs = vm._frames._data
    translate = vm._translate
    copy_cost = vm._copy_cost
    results: List[Optional[bytes]] = []
    append = results.append
    for kind, va, arg in ops:
        if kind == "r":
            is_write = False
            size = arg
        elif kind == "w":
            is_write = True
            size = len(arg)
        else:
            raise ValueError(f"unknown trace op {kind!r}")
        offset = va & _PAGE_MASK
        end = offset + size
        if size <= 0 or end > PAGE_SIZE:
            # Empty, negative or page-crossing: one scalar call.
            append(vm.write(va, arg) if is_write else vm.read(va, size))
            continue
        # A sub-page element: vm.read / vm.write's one-page step, in its
        # order (hit, bytes, clock charge).
        vpn = va >> PAGE_SHIFT
        entry = tlb_get(vpn)
        if entry is not None and (not is_write or entry[1] and entry[2]):
            tlb_move(vpn)
            tlb.hits += 1
            frame = entry[0]
        else:
            frame = translate(vpn, is_write)
        if is_write:
            frame_bufs[frame][offset:end] = arg
            advance(size * copy_cost)
            append(None)
        else:
            data = bytes(frame_bufs[frame][offset:end])
            advance(size * copy_cost)
            append(data)
    return results
