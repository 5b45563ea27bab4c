"""Unit + property tests for the 4-level radix page table."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem import pte
from repro.mem.page_table import PageTable


class TestBasics:
    def test_unmapped_is_zero(self):
        assert PageTable().get(12345) == 0

    def test_set_get(self):
        pt = PageTable()
        pt.set(100, pte.make_local(5))
        assert pt.get(100) == pte.make_local(5)

    def test_set_zero_clears(self):
        pt = PageTable()
        pt.set(100, pte.make_local(5))
        pt.set(100, 0)
        assert pt.get(100) == 0
        assert list(pt.entries()) == []

    def test_distant_vpns_do_not_alias(self):
        pt = PageTable()
        a, b = 0x1, 0x1 + (1 << 27)  # differ only in the top-level index
        pt.set(a, pte.make_local(1))
        pt.set(b, pte.make_local(2))
        assert pte.frame_of(pt.get(a)) == 1
        assert pte.frame_of(pt.get(b)) == 2

    def test_vpn_outside_36_bits_rejected(self):
        """A 48-bit VA has a 36-bit page number; a larger one must not
        alias a real page's leaf."""
        pt = PageTable()
        with pytest.raises(ValueError):
            pt.set(1 << 36, pte.make_local(1))
        assert pt.get(1 << 36) == 0
        assert pt.leaf_tables == 0

    def test_get_then_set_uncached_leaf(self):
        """A miss through the read path must not orphan a later set()."""
        pt = PageTable()
        assert pt.get(777) == 0  # reads never materialize a leaf
        pt.set(777, pte.make_local(9))
        assert pte.frame_of(pt.get(777)) == 9
        assert dict(pt.entries()) == {777: pte.make_local(9)}


class TestCompareAndSet:
    def test_success(self):
        pt = PageTable()
        old = pte.make_remote(3)
        pt.set(50, old)
        assert pt.update(50, old, pte.make_fetching(1))
        assert pte.classify(pt.get(50)) is pte.Tag.FETCHING

    def test_failure_leaves_entry(self):
        pt = PageTable()
        pt.set(50, pte.make_fetching(9))
        assert not pt.update(50, pte.make_remote(3), pte.make_fetching(1))
        assert pt.get(50) == pte.make_fetching(9)

    def test_update_to_zero_clears(self):
        pt = PageTable()
        pt.set(50, pte.make_remote(3))
        assert pt.update(50, pte.make_remote(3), 0)
        assert pt.get(50) == 0


class TestEntries:
    def test_iteration_matches_sets(self):
        pt = PageTable()
        expected = {}
        for vpn in [0, 1, 511, 512, 513, 1 << 18, (1 << 27) + 5]:
            p = pte.make_local(vpn + 1)
            pt.set(vpn, p)
            expected[vpn] = p
        assert dict(pt.entries()) == expected


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(
    keys=st.integers(min_value=0, max_value=(1 << 36) - 1),
    values=st.integers(min_value=1, max_value=2 ** 30),
    max_size=64,
))
def test_pagetable_behaves_like_dict_property(mapping):
    pt = PageTable()
    for vpn, frame in mapping.items():
        pt.set(vpn, pte.make_local(frame))
    for vpn, frame in mapping.items():
        assert pte.frame_of(pt.get(vpn)) == frame
    assert dict(pt.entries()) == {
        vpn: pte.make_local(frame) for vpn, frame in mapping.items()}


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(
    st.integers(min_value=0, max_value=1023),
    st.integers(min_value=0, max_value=2 ** 20)), max_size=100))
def test_last_write_wins_property(writes):
    pt = PageTable()
    shadow = {}
    for vpn, frame in writes:
        value = pte.make_local(frame)
        pt.set(vpn, value)
        shadow[vpn] = value
    for vpn, value in shadow.items():
        assert pt.get(vpn) == value


class _ReferencePageTable:
    """The dict-of-dicts page table :mod:`repro.mem.page_table` used to
    ship (leaves as ``{index: pte}`` dicts behind a one-entry leaf cache),
    kept with its behaviour unchanged as the reference for the list-leaf
    implementation."""

    def __init__(self):
        self._root = {}
        self._leaf_cache_key = -1
        self._leaf_cache = {}
        self.leaf_tables = 0
        self.dirty_vpns = set()
        self.unmap_epoch = 0

    def _leaf_for(self, vpn, create):
        key = vpn >> 9
        if key == self._leaf_cache_key:
            return self._leaf_cache
        node = self._root
        for shift in (27, 18, 9):
            index = (vpn >> shift) & 511
            child = node.get(index)
            if child is None:
                if not create:
                    return {}
                child = {}
                node[index] = child
                if shift == 9:
                    self.leaf_tables += 1
            node = child
        self._leaf_cache_key = key
        self._leaf_cache = node
        return node

    def get(self, vpn):
        return self._leaf_for(vpn, create=False).get(vpn & 511, 0)

    def set(self, vpn, value):
        leaf = self._leaf_for(vpn, create=True)
        index = vpn & 511
        old = leaf.get(index, 0)
        if value == 0:
            leaf.pop(index, None)
        else:
            leaf[index] = value
        if old != value:
            self._account(vpn, old, value)

    def update(self, vpn, old, new):
        leaf = self._leaf_for(vpn, create=True)
        index = vpn & 511
        if leaf.get(index, 0) != old:
            return False
        if new == 0:
            leaf.pop(index, None)
        else:
            leaf[index] = new
        if old != new:
            self._account(vpn, old, new)
        return True

    def _account(self, vpn, old, new):
        present_dirty = pte.PTE_PRESENT | pte.PTE_DIRTY
        old_pd = old & present_dirty == present_dirty
        if old_pd != (new & present_dirty == present_dirty):
            if old_pd:
                self.dirty_vpns.discard(vpn)
            else:
                self.dirty_vpns.add(vpn)
        if old & pte.PTE_PRESENT and not new & pte.PTE_PRESENT:
            self.unmap_epoch += 1

    def entries(self):
        for i1, l2 in self._root.items():
            for i2, l3 in l2.items():
                for i3, leaf in l3.items():
                    base = ((i1 << 9 | i2) << 9 | i3) << 9
                    for i4, value in leaf.items():
                        yield base | i4, value


# Five leaves, three of which share upper-level tables, and a few slots
# in each so that operations collide.
_LEAF_BASES = (0, 3 << 9, 1 << 18, (1 << 27) + (5 << 9), (1 << 36) - 512)
_vpns = st.builds(lambda base, slot: base + slot,
                  st.sampled_from(_LEAF_BASES),
                  st.sampled_from((0, 1, 2, 7, 511)))
_ptes = st.one_of(
    st.just(0),  # INVALID
    st.builds(pte.make_local, st.integers(0, 1 << 20), st.booleans(),
              st.booleans(), st.booleans()),
    st.builds(pte.make_remote, st.integers(0, 1 << 20)),
    st.builds(pte.make_fetching, st.integers(1, 1 << 20)),
    st.builds(pte.make_action, st.integers(0, 1 << 20)),
)
_ops = st.lists(st.one_of(
    st.tuples(st.just("get"), _vpns),
    st.tuples(st.just("set"), _vpns, _ptes),
    st.tuples(st.just("clear"), _vpns),
    # (vpn, new, compare against the current PTE?, stale value otherwise)
    st.tuples(st.just("update"), _vpns, _ptes, st.booleans(), _ptes),
), max_size=80)


@settings(max_examples=200, deadline=None)
@given(_ops)
def test_matches_reference_page_table(ops):
    """Random get/set/update sequences drive the leaf-list page table and
    the old dict-of-dicts one in lockstep; every observable agrees after
    every step."""
    pt = PageTable()
    ref = _ReferencePageTable()
    for op in ops:
        kind, vpn = op[0], op[1]
        if kind == "set":
            pt.set(vpn, op[2])
            ref.set(vpn, op[2])
        elif kind == "clear":
            pt.set(vpn, 0)
            ref.set(vpn, 0)
        elif kind == "update":
            _, _, new, use_current, stale = op
            old = ref.get(vpn) if use_current else stale
            assert pt.update(vpn, old, new) == ref.update(vpn, old, new)
        assert pt.get(vpn) == ref.get(vpn)
        assert dict(pt.entries()) == dict(ref.entries())
        assert pt.leaf_tables == ref.leaf_tables
        assert pt.dirty_vpns == ref.dirty_vpns
        assert pt.unmap_epoch == ref.unmap_epoch
