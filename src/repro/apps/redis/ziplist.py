"""Ziplists — Redis's packed list encoding [66].

Layout in far memory:

    [zlbytes: u32][zllen: u16] then per entry: [len: u16][data ...]

A ziplist is one contiguous allocation, so fetching a list segment is a
couple of sequential pages — *if* the prefetcher knows where the ziplist
lives and how big it is, which is exactly what the quicklist guide learns
from the node header and the ziplist's own ``zlbytes`` field (Figure 11).
"""

from __future__ import annotations

from typing import List

from repro.alloc.mimalloc import Mimalloc
from repro.core.api import BaseSystem

ZL_HEADER = 6


def ziplist_new(system: BaseSystem, alloc: Mimalloc,
                values: List[bytes]) -> int:
    """Pack ``values`` into a fresh ziplist; returns its VA."""
    if len(values) > 0xFFFF:
        raise ValueError("too many entries for a ziplist")
    body = bytearray()
    for value in values:
        if len(value) > 0xFFFF:
            raise ValueError("entry too large for a ziplist")
        body.extend(len(value).to_bytes(2, "little"))
        body.extend(value)
    total = ZL_HEADER + len(body)
    va = alloc.malloc(total)
    system.memory.write(va, total.to_bytes(4, "little")
                        + len(values).to_bytes(2, "little") + bytes(body))
    return va


def ziplist_entries(system: BaseSystem, va: int) -> int:
    """Number of entries (the ``zllen`` header field)."""
    return int.from_bytes(system.memory.read(va + 4, 2), "little")


def ziplist_read_range(system: BaseSystem, va: int, count: int) -> List[bytes]:
    """Read up to ``count`` leading entries."""
    total = ziplist_entries(system, va)
    out: List[bytes] = []
    cursor = va + ZL_HEADER
    for _ in range(min(count, total)):
        length = int.from_bytes(system.memory.read(cursor, 2), "little")
        out.append(system.memory.read(cursor + 2, length))
        cursor += 2 + length
    return out


def ziplist_free(alloc: Mimalloc, va: int) -> None:
    """Release a ziplist allocation."""
    alloc.free(va)
