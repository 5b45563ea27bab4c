"""The app-aware prefetch guide for Redis (§6.3, Figures 5 and 11).

Shipped as a third-party module. The guide learns where traversals begin
from two calls the server makes on it (``begin_get``/``begin_lrange``)
around its command handlers, where the paper's loader would hook them.
It then conveys data-structure layout to the paging subsystem:

* **GET**: on the first fault into an SDS value, subpage-fetch the 9-byte
  header; its length field tells the guide exactly how many pages the
  value spans, which are prefetched at once.

* **LRANGE**: on a fault during a quicklist traversal, subpage-fetch the
  32-byte node struct; it reveals the ziplist pointer (whose ``zlbytes``
  header sizes the ziplist's pages) and the next node, which is chased
  recursively a few nodes ahead. Each subpage arrives well before any full
  4 KiB page, so the chain stays ahead of the application (Figure 11).
"""

from __future__ import annotations

from typing import Optional, Set

from repro.common.units import PAGE_SIZE
from repro.core.guides import GuideContext, PrefetchGuide
from repro.apps.redis.quicklist import NODE_SIZE, node_unpack
from repro.apps.redis.sds import SDS_HEADER

#: How many quicklist nodes the chain runs ahead of the traversal.
CHAIN_DEPTH = 4


class RedisPrefetchGuide(PrefetchGuide):
    """App-aware prefetching for GET and LRANGE."""

    def __init__(self) -> None:
        self._mode: Optional[str] = None
        self._value_va = 0
        self._frontier = 0
        self._chased: Set[int] = set()
        self.get_prefetches = 0
        self.chain_fetches = 0

    # -- called by the server around its handlers ----------------------------

    def begin_get(self, value_va: int) -> None:
        self._mode = "get"
        self._value_va = value_va

    def begin_lrange(self, head_node_va: int) -> None:
        self._mode = "lrange"
        self._frontier = head_node_va
        self._chased.clear()

    def end_op(self) -> None:
        self._mode = None

    # -- the guide proper ---------------------------------------------------------

    def on_fault(self, ctx: GuideContext, va: int) -> bool:
        if self._mode == "get":
            return self._on_get_fault(ctx, va)
        if self._mode == "lrange":
            self._chase(ctx, self._frontier, CHAIN_DEPTH)
            return True
        return False

    def _on_get_fault(self, ctx: GuideContext, va: int) -> bool:
        base = self._value_va
        if not base <= va < base + PAGE_SIZE:
            # A later page of the value (or something else): the pages we
            # issued below cover it; nothing app-specific left to add.
            return False
        first_page = base - (base % PAGE_SIZE)

        def on_header(raw: bytes) -> None:
            length = int.from_bytes(raw[:4], "little")
            total = SDS_HEADER + length + 1
            last_page = (base + total - 1) - ((base + total - 1) % PAGE_SIZE)
            page = first_page + PAGE_SIZE
            while page <= last_page:
                if ctx.prefetch_page(page):
                    self.get_prefetches += 1
                page += PAGE_SIZE

        ctx.fetch_subpage(base, 4, on_header)
        return True

    def _chase(self, ctx: GuideContext, node_va: int, depth: int) -> None:
        """Figure 11: subpage-fetch node -> prefetch its ziplist -> recurse."""
        if depth <= 0 or node_va == 0 or node_va in self._chased:
            return
        self._chased.add(node_va)
        self.chain_fetches += 1

        def on_node(raw: bytes) -> None:
            _prev, next_va, zl, _count = node_unpack(raw)
            ctx.prefetch_page(node_va)
            if zl:
                self._prefetch_ziplist(ctx, zl)
            self._frontier = next_va
            self._chase(ctx, next_va, depth - 1)

        ctx.fetch_subpage(node_va, NODE_SIZE, on_node)

    def _prefetch_ziplist(self, ctx: GuideContext, zl_va: int) -> None:
        def on_zl_header(raw: bytes) -> None:
            zlbytes = int.from_bytes(raw[:4], "little")
            page = zl_va - (zl_va % PAGE_SIZE)
            end = zl_va + zlbytes
            while page < end:
                ctx.prefetch_page(page)
                page += PAGE_SIZE

        ctx.fetch_subpage(zl_va, 4, on_zl_header)
