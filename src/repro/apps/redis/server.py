"""The Redis-shaped server: GET/SET/DEL/RPUSH/LRANGE over far memory.

The keyspace index (Redis's top-level dict) stays in local memory — at
datacenter scale the working set is dominated by values, which all live in
disaggregated memory through the bitmap-tracking allocator. Command
dispatch costs a few hundred cycles, as in Redis.

When an app-aware guide is attached, the server itself tells it where
each traversal starts: GET calls ``guide.begin_get`` and LRANGE calls
``guide.begin_lrange``, and both call ``guide.end_op`` when done. The
paper's loader injects such hooks into an unmodified binary; here they
are call sites the server itself makes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.alloc.mimalloc import Mimalloc
from repro.core.api import BaseSystem
from repro.apps.redis.guide import RedisPrefetchGuide
from repro.apps.redis.quicklist import Quicklist
from repro.apps.redis.sds import sds_free, sds_len, sds_new, sds_read

#: Command dispatch + dict lookup + reply marshalling.
COMMAND_CYCLES = 500
#: Entries per quicklist node (Redis's ``list-max-ziplist-size``).
QUICKLIST_FILL = 16


class RedisServer:
    """One single-threaded Redis instance."""

    def __init__(self, system: BaseSystem, alloc: Mimalloc,
                 guide: Optional[RedisPrefetchGuide] = None) -> None:
        self.system = system
        self.alloc = alloc
        self.guide = guide
        self._db: Dict[bytes, Tuple[str, object]] = {}
        if guide is not None:
            kernel = getattr(system, "kernel", None)
            register = getattr(kernel, "register_prefetch_guide", None)
            if register is None:
                raise ValueError(
                    f"{system.name} does not support app-aware guides")
            register(guide)

    def _charge(self) -> None:
        self.system.cpu_cycles(COMMAND_CYCLES)

    # -- string commands ----------------------------------------------------

    def set(self, key: bytes, value: bytes) -> None:
        self._charge()
        self.delete(key, charge=False)
        self._db[key] = ("string", sds_new(self.system, self.alloc, value))

    def get(self, key: bytes) -> Optional[bytes]:
        self._charge()
        entry = self._db.get(key)
        if entry is None:
            return None
        kind, va = entry
        if kind != "string":
            raise TypeError(f"WRONGTYPE key {key!r} holds a {kind}")
        if self.guide is not None:
            self.guide.begin_get(va)
        try:
            return sds_read(self.system, va)
        finally:
            if self.guide is not None:
                self.guide.end_op()

    def delete(self, key: bytes, charge: bool = True) -> bool:
        if charge:
            self._charge()
        entry = self._db.pop(key, None)
        if entry is None:
            return False
        kind, payload = entry
        if kind == "string":
            # Redis inspects the object before freeing it (type/encoding/
            # refcount live in the robj+sds header) — a real access that
            # faults the page in if it was evicted.
            sds_len(self.system, payload)
            sds_free(self.alloc, payload)
        else:
            payload.free()
        return True

    # -- list commands ----------------------------------------------------------

    def rpush(self, key: bytes, values: List[bytes]) -> int:
        self._charge()
        entry = self._db.get(key)
        if entry is None:
            quicklist = Quicklist(self.system, self.alloc,
                                  fill=QUICKLIST_FILL)
            self._db[key] = ("list", quicklist)
        else:
            kind, quicklist = entry
            if kind != "list":
                raise TypeError(f"WRONGTYPE key {key!r} holds a {kind}")
        quicklist.push_values(values)
        return quicklist.length

    def lrange(self, key: bytes, count: int) -> List[bytes]:
        """LRANGE key 0 count-1 — the paper's LRANGE_100 query shape."""
        self._charge()
        entry = self._db.get(key)
        if entry is None:
            return []
        kind, quicklist = entry
        if kind != "list":
            raise TypeError(f"WRONGTYPE key {key!r} holds a {kind}")
        if self.guide is not None:
            self.guide.begin_lrange(quicklist.head)
        try:
            return quicklist.lrange(count)
        finally:
            if self.guide is not None:
                self.guide.end_op()
