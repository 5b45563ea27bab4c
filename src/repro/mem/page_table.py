"""A four-level radix page table over 48-bit virtual addresses.

Matches the Intel layout the paper's unified page table rides on: four
levels of 512-entry tables indexed by 9-bit slices of the virtual page
number. Tables are materialized lazily; the tree is the structure of
record. Each leaf table is a 512-slot list, and a flat *leaf index*
keyed by ``vpn >> 9`` holds the same list objects, so a PTE read or write
is one dict probe plus one list index instead of a four-level walk.

All methods are keyed by *virtual page number* (``va >> 12``); byte-address
plumbing lives in :mod:`repro.mem.vm`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

_LEVEL_BITS = 9
_LEVEL_MASK = (1 << _LEVEL_BITS) - 1
_LEVEL_SLOTS = 1 << _LEVEL_BITS
_VPN_BITS = 36  # 48-bit VA, 4 KiB pages
_LEAF_KEYS = 1 << (_VPN_BITS - _LEVEL_BITS)

# Mirrors of repro.mem.pte's bit layout (kept literal so this module stays
# dependency-free): present = bit 0, dirty = bit 6.
_PTE_PRESENT = 1 << 0
_PRESENT_DIRTY = (1 << 0) | (1 << 6)


class PageTable:
    """Sparse 4-level radix tree of integer PTEs.

    Besides the mapping itself, two aggregates are maintained exactly on
    every mutation, for O(1) "is there anything to do?" checks by the
    page manager's background passes:

    * :attr:`dirty_vpns` — the VPNs whose PTEs are currently present
      *and* dirty (anywhere in the table);
    * :attr:`unmap_epoch` — bumped each time a present PTE is replaced
      by a non-present one (eviction, munmap), i.e. each event
      that can leave a stale entry in an external LRU list.
    """

    __slots__ = ("_root", "_leaves", "leaf_tables", "dirty_vpns",
                 "unmap_epoch")

    def __init__(self) -> None:
        self._root: Dict[int, Dict] = {}
        #: ``vpn >> 9`` -> that leaf's 512-slot list (the same object the
        #: tree links at level 3).
        self._leaves: Dict[int, List[int]] = {}
        #: Count of materialized leaf tables, for footprint reporting.
        self.leaf_tables = 0
        #: VPNs of present PTEs with the dirty bit set, maintained exactly.
        self.dirty_vpns: set = set()
        #: Present -> non-present transition counter.
        self.unmap_epoch = 0

    # -- walking -----------------------------------------------------------

    def _new_leaf(self, key: int) -> List[int]:
        """Walk the tree to leaf ``key`` (= ``vpn >> 9``), building the
        missing tables, and index the new leaf."""
        if not 0 <= key < _LEAF_KEYS:
            raise ValueError(f"page {key << _LEVEL_BITS:#x} is outside the "
                             f"{_VPN_BITS}-bit page-number space")
        node = self._root
        for shift in (2 * _LEVEL_BITS, _LEVEL_BITS):
            index = (key >> shift) & _LEVEL_MASK
            child = node.get(index)
            if child is None:
                child = node[index] = {}
            node = child
        leaf = node[key & _LEVEL_MASK] = [0] * _LEVEL_SLOTS
        self._leaves[key] = leaf
        self.leaf_tables += 1
        return leaf

    # -- access -------------------------------------------------------------

    def get(self, vpn: int) -> int:
        """The PTE for ``vpn`` (0 = invalid/unmapped)."""
        leaf = self._leaves.get(vpn >> _LEVEL_BITS)
        if leaf is None:
            return 0
        return leaf[vpn & _LEVEL_MASK]

    def set(self, vpn: int, pte: int) -> None:
        """Install ``pte`` for ``vpn`` (0 clears the entry)."""
        leaf = self._leaves.get(vpn >> _LEVEL_BITS)
        if leaf is None:
            leaf = self._new_leaf(vpn >> _LEVEL_BITS)
        index = vpn & _LEVEL_MASK
        old = leaf[index]
        if old == pte:
            return
        leaf[index] = pte
        # Maintain dirty_vpns / unmap_epoch (see the class docstring).
        if old & _PRESENT_DIRTY == _PRESENT_DIRTY:
            if pte & _PRESENT_DIRTY != _PRESENT_DIRTY:
                self.dirty_vpns.discard(vpn)
        elif pte & _PRESENT_DIRTY == _PRESENT_DIRTY:
            self.dirty_vpns.add(vpn)
        if old & _PTE_PRESENT and not pte & _PTE_PRESENT:
            self.unmap_epoch += 1

    def update(self, vpn: int, old: int, new: int) -> bool:
        """Compare-and-set; models the atomic PTE transitions of §4.2.

        Returns False (and changes nothing) if the current PTE is not
        ``old`` — e.g. another core already flipped REMOTE to FETCHING.
        """
        leaf = self._leaves.get(vpn >> _LEVEL_BITS)
        if leaf is None:
            leaf = self._new_leaf(vpn >> _LEVEL_BITS)
        if leaf[vpn & _LEVEL_MASK] != old:
            return False
        self.set(vpn, new)
        return True

    def entries(self) -> Iterator[Tuple[int, int]]:
        """Iterate all ``(vpn, pte)`` pairs with non-zero PTEs."""
        for i1, l2 in self._root.items():
            for i2, l3 in l2.items():
                for i3, leaf in l3.items():
                    base = ((i1 << _LEVEL_BITS | i2) << _LEVEL_BITS | i3) << _LEVEL_BITS
                    for i4, pte in enumerate(leaf):
                        if pte:
                            yield base | i4, pte
