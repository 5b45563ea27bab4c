"""Stateful model checking of the DiLOS paging subsystem.

A hypothesis rule machine drives an arbitrary interleaving of mmap,
munmap, reads, writes, and idle time against a reference model (a plain
dict of byte values), checking after every step that:

* every read returns the last value written (or zeros if never written);
* the fault path never reclaims (the core DiLOS claim);
* frame accounting never leaks (used frames == LRU-resident + in-flight);
* local DRAM usage never exceeds the pool;
* transient network faults (random drops/corruption and ``link_flap``
  outage windows) never surface: the reliable transport absorbs them,
  so every paging invariant above holds on a lossy wire too.
"""

import hypothesis.strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import settings

from repro.common.units import MIB, PAGE_SIZE
from repro.core import DilosConfig, DilosSystem
from repro.net.faults import FaultPlan, RetryPolicy


class PagingMachine(RuleBasedStateMachine):
    MAX_REGIONS = 4
    REGION_PAGES = 192  # 768 KiB per region vs a 512 KiB local pool

    @initialize(prefetcher=st.sampled_from(["none", "readahead", "trend",
                                            "stride"]),
                guided=st.booleans(),
                faulty=st.booleans())
    def boot(self, prefetcher, guided, faulty):
        # Half the machines run on a lossy wire: random drops/corruption
        # (capped per verb so the retry budget always wins) plus the
        # link_flap rule's outage windows.
        self.plan = FaultPlan(seed=1234, drop=0.03, corrupt=0.02,
                              max_consecutive=2) if faulty else None
        self.system = DilosSystem(DilosConfig(
            local_mem_bytes=512 * 1024,
            remote_mem_bytes=64 * MIB,
            prefetcher=prefetcher,
            guided_paging=guided,
            net_faults=self.plan,
            net_retry=RetryPolicy(max_attempts=10)))
        self.regions = []
        self.shadow = {}  # (region_index, page) -> 16-byte value
        self.counter = 0

    # -- rules ---------------------------------------------------------------

    @rule()
    def map_region(self):
        if len(self.regions) >= self.MAX_REGIONS:
            return
        region = self.system.mmap(self.REGION_PAGES * PAGE_SIZE,
                                  name=f"r{len(self.regions)}")
        self.regions.append(region)

    @precondition(lambda self: self.regions)
    @rule(index=st.integers(min_value=0, max_value=9))
    def unmap_region(self, index):
        if len(self.regions) <= 1:
            return
        region = self.regions.pop(index % len(self.regions))
        self.system.munmap(region)
        # Keys are (region_object, page); drop the dead region's pages.
        self.shadow = {key: value for key, value in self.shadow.items()
                       if key[0] is not region}

    @precondition(lambda self: self.regions)
    @rule(region_pick=st.integers(min_value=0, max_value=9),
          page=st.integers(min_value=0, max_value=REGION_PAGES - 1))
    def write_page(self, region_pick, page):
        region = self.regions[region_pick % len(self.regions)]
        self.counter += 1
        value = self.counter.to_bytes(8, "little") * 2
        self.system.memory.write(region.base + page * PAGE_SIZE, value)
        self.shadow[(region, page)] = value

    @precondition(lambda self: self.regions)
    @rule(region_pick=st.integers(min_value=0, max_value=9),
          page=st.integers(min_value=0, max_value=REGION_PAGES - 1))
    def read_page(self, region_pick, page):
        region = self.regions[region_pick % len(self.regions)]
        got = self.system.memory.read(region.base + page * PAGE_SIZE, 16)
        expected = self.shadow.get((region, page), b"\x00" * 16)
        assert got == expected, "read returned stale or foreign data"

    @rule(idle=st.floats(min_value=1.0, max_value=500.0))
    def let_background_run(self, idle):
        self.system.clock.advance(idle)

    @precondition(lambda self: self.plan is not None)
    @rule(down=st.floats(min_value=5.0, max_value=200.0))
    def link_flap(self, down):
        """Drop the link for a transient window starting now. The retry
        budget (10 attempts, 50 us timeouts) out-waits any window this
        rule can schedule, so the interleaving must still satisfy every
        invariant and every read must still see its shadow value."""
        self.plan.flap(self.system.clock.now, down)

    # -- invariants ------------------------------------------------------------

    @invariant()
    def no_verb_ever_exhausts_its_retry_budget(self):
        if self.plan is not None:
            assert self.system.kernel.registry.value("net.giveup") == 0

    @invariant()
    def fault_path_never_reclaims(self):
        assert self.system.kernel.registry.value("reclaim.direct") == 0

    @invariant()
    def frames_never_exceed_pool(self):
        assert self.system.frames.used_frames <= \
            self.system.frames.total_frames

    @invariant()
    def frame_accounting_consistent(self):
        frames = self.system.frames
        assert frames.used_frames + frames.free_frames == frames.total_frames

    @invariant()
    def reserve_eventually_maintained(self):
        # The free list may dip between ticks but can never go negative,
        # and the LRU can't reference more frames than exist.
        manager = self.system.kernel.page_manager
        assert manager.resident_pages <= self.system.frames.used_frames


PagingMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=40, deadline=None)
TestPagingModel = PagingMachine.TestCase
