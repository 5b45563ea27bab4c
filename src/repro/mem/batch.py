"""Vectorized batch execution over the MMU (the batch access engine).

Applications touch far memory through per-page Python loops in
:meth:`repro.mem.vm.VirtualMemory.read` / ``write``; at hundreds of
nanoseconds of interpreter overhead per page those loops dominate wall
time once the simulated machinery around them has been optimized. This
module executes whole batches instead:

* an element larger than :data:`SPAN_THRESHOLD` is split into **spans
  of consecutive TLB hits**, and each span's bytes move with a single
  numpy fancy-index gather/scatter over the frame pool's shared 2-D view
  (:meth:`repro.mem.frames.FramePool.as_ndarray`), falling back to the
  scalar fault path (:meth:`VirtualMemory._translate`) only at span
  boundaries;
* a **sub-page** element (one inside a single page, such as a 128-byte
  KV entry) runs in one shared loop over the batch, with no
  ``vm.read``/``vm.write`` call of its own: the loop performs that
  call's one-page step, copying the bytes as soon as the page is
  translated;
* any other element (empty, or crossing a page boundary within
  :data:`SPAN_THRESHOLD`) takes one scalar ``vm.read``/``vm.write``
  call.

Determinism contract (pinned by ``tests/test_batch_differential.py`` and
the golden masters):

* **Identical accounting.** Per page: one TLB hit count and one LRU
  refresh, in access order. Per element: one clock charge of
  ``size * cpu_copy_per_byte`` *after* the element's pages, and one
  ``bytes_read`` / ``bytes_written`` counter add. Timers therefore fire
  at the same simulated instants, in the same states, as under
  per-element scalar calls.
* **Copy-before-fault.** Bytes are copied before the next slow-path
  translation: a later fault may evict and reuse an earlier page's
  frame, so data movement never outlives the translation that produced
  it. Within a pure-hit span nothing advances the clock, so deferring
  the gather to the span boundary is safe.
* **No new metrics.** The engine adds no counters of its own; a batch run
  and the equivalent scalar run produce byte-identical metrics snapshots.

``REPRO_BATCH=0`` in the environment disables the engine; ported call
sites then take their original scalar loops. The differential suite uses
the same switch (via :func:`force`) to compare both paths in-process.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from itertools import repeat
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.common.units import PAGE_SHIFT, PAGE_SIZE

_PAGE_MASK = PAGE_SIZE - 1

#: Engine kill switch (``REPRO_BATCH=0`` restores the scalar loops).
ENABLED = os.environ.get("REPRO_BATCH", "1") not in ("0", "false", "off")

#: Elements at or below this size never take the span gathers: a span of
#: one or two pages cannot amortize numpy's per-call overhead, and every
#: path is accounting-identical, so the choice is pure wall-clock
#: strategy.
SPAN_THRESHOLD = 2 * PAGE_SIZE


@contextmanager
def force(on: bool):
    """Temporarily force the engine on or off (tests/differential runs)."""
    global ENABLED
    saved, ENABLED = ENABLED, on
    try:
        yield
    finally:
        ENABLED = saved


# -- span execution ----------------------------------------------------------


def read_span_into(vm, va: int, out) -> None:
    """Read ``out.nbytes`` bytes at ``va`` into uint8 array ``out``.

    ``out`` must be a writable C-contiguous 1-D uint8 numpy array; its
    length is the read size. Accounting is exactly one scalar
    ``vm.read(va, len(out))`` call.
    """
    size = len(out)
    if size == 0:
        return
    tlb = vm.tlb
    tlb_get = tlb.entries.get
    tlb_move = tlb.entries.move_to_end
    frames_nd = vm._frames.as_ndarray()
    translate = vm._translate
    pos = 0
    remaining = size
    hits = 0
    span_frames: List[int] = []
    span_pos = 0
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
            if length == PAGE_SIZE:  # implies offset == 0
                if not span_frames:
                    span_pos = pos
                span_frames.append(entry[0])
            else:
                if span_frames:
                    _gather(frames_nd, span_frames, out, span_pos)
                    span_frames = []
                out[pos:pos + length] = \
                    frames_nd[entry[0], offset:offset + length]
        else:
            # Span and hit flush before the slow path: the fault may evict
            # span frames, and accounting must be exact if it raises.
            if span_frames:
                _gather(frames_nd, span_frames, out, span_pos)
                span_frames = []
            tlb.hits += hits
            hits = 0
            frame = translate(vpn, False)
            out[pos:pos + length] = frames_nd[frame, offset:offset + length]
        pos += length
        va += length
        remaining -= length
    if span_frames:
        _gather(frames_nd, span_frames, out, span_pos)
    tlb.hits += hits
    vm._clock.advance(size * vm._copy_cost)
    vm.counters.add("bytes_read", size)


def write_span_from(vm, va: int, values) -> None:
    """Write uint8 array ``values`` at ``va``; one scalar ``vm.write``'s
    worth of accounting (first write through a clean translation walks the
    PTE via the slow path, exactly like the scalar loop)."""
    size = len(values)
    if size == 0:
        return
    tlb = vm.tlb
    tlb_get = tlb.entries.get
    tlb_move = tlb.entries.move_to_end
    frames_nd = vm._frames.as_ndarray()
    translate = vm._translate
    pos = 0
    remaining = size
    hits = 0
    span_frames: List[int] = []
    span_pos = 0
    while remaining > 0:
        vpn = va >> PAGE_SHIFT
        offset = va & _PAGE_MASK
        length = PAGE_SIZE - offset
        if length > remaining:
            length = remaining
        entry = tlb_get(vpn)
        if entry is not None and entry[1] and entry[2]:
            tlb_move(vpn)
            hits += 1
            if length == PAGE_SIZE:
                if not span_frames:
                    span_pos = pos
                span_frames.append(entry[0])
            else:
                if span_frames:
                    _scatter(frames_nd, span_frames, values, span_pos)
                    span_frames = []
                frames_nd[entry[0], offset:offset + length] = \
                    values[pos:pos + length]
        else:
            if span_frames:
                _scatter(frames_nd, span_frames, values, span_pos)
                span_frames = []
            tlb.hits += hits
            hits = 0
            frame = translate(vpn, True)
            frames_nd[frame, offset:offset + length] = values[pos:pos + length]
        pos += length
        va += length
        remaining -= length
    if span_frames:
        _scatter(frames_nd, span_frames, values, span_pos)
    tlb.hits += hits
    vm._clock.advance(size * vm._copy_cost)
    vm.counters.add("bytes_written", size)


def _gather(frames_nd, span_frames: List[int], out, pos: int) -> None:
    """One fancy-index gather of whole frames into ``out`` at ``pos``."""
    k = len(span_frames)
    if k == 1:
        out[pos:pos + PAGE_SIZE] = frames_nd[span_frames[0]]
    else:
        out[pos:pos + k * PAGE_SIZE].reshape(k, PAGE_SIZE)[:] = \
            frames_nd[span_frames]


def _scatter(frames_nd, span_frames: List[int], values, pos: int) -> None:
    """One fancy-index scatter of whole frames from ``values`` at ``pos``."""
    k = len(span_frames)
    if k == 1:
        frames_nd[span_frames[0]] = values[pos:pos + PAGE_SIZE]
    else:
        frames_nd[span_frames] = \
            values[pos:pos + k * PAGE_SIZE].reshape(k, PAGE_SIZE)


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
    count = vm.counters.add
    tlb = vm.tlb
    tlb_get = tlb.entries.get
    tlb_move = tlb.entries.move_to_end
    frame_bufs = vm._frames._data
    translate = vm._translate
    copy_cost = vm._copy_cost
    span_threshold = SPAN_THRESHOLD
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
            # Empty, negative or page-crossing: one scalar call, or the
            # span engine past SPAN_THRESHOLD.
            if size <= span_threshold:
                append(vm.write(va, arg) if is_write else vm.read(va, size))
            else:
                import numpy as np
                if is_write:
                    write_span_from(vm, va, np.frombuffer(arg, dtype=np.uint8))
                    append(None)
                else:
                    out = np.empty(size, dtype=np.uint8)
                    read_span_into(vm, va, out)
                    append(out.tobytes())
            continue
        # A sub-page element: vm.read / vm.write's one-page step, in its
        # order (hit, bytes, clock charge, byte counter).
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
            count("bytes_written", size)
            append(None)
        else:
            data = bytes(frame_bufs[frame][offset:end])
            advance(size * copy_cost)
            count("bytes_read", size)
            append(data)
    return results
