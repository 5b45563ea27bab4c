"""Cross-kernel telemetry contract: every kernel reports through a
:class:`~repro.obs.MetricsRegistry` and the shared concepts land on
*identical* canonical keys — a DiLOS major fault, a Fastswap major fault,
and an AIFM object miss are all ``fault.major``. This is what lets the
harness build cross-system tables without per-kernel key translation
(the metric-name drift the unified API fixed)."""

import pytest

from repro.common.units import KIB, MIB, PAGE_SIZE
from repro.baselines.aifm import AifmConfig, AifmRuntime
from repro.baselines.fastswap import FastswapConfig, FastswapSystem
from repro.core import DilosConfig, DilosSystem
from repro.obs import (
    SHARED_KEYS,
    MetricsRegistry,
    MetricsSnapshot,
    Observability,
)
from repro.harness import make_system


def exercised_dilos(obs=None):
    system = DilosSystem(DilosConfig(local_mem_bytes=1 * MIB,
                                     remote_mem_bytes=64 * MIB), obs=obs)
    region = system.mmap(4 * MIB)
    for i in range(region.size // PAGE_SIZE):
        system.memory.write(region.base + i * PAGE_SIZE, b"d")
    system.memory.read(region.base, 64)
    return system


def exercised_fastswap(obs=None):
    system = FastswapSystem(FastswapConfig(local_mem_bytes=1 * MIB,
                                           remote_mem_bytes=64 * MIB),
                            obs=obs)
    region = system.mmap(4 * MIB)
    for i in range(region.size // PAGE_SIZE):
        system.memory.write(region.base + i * PAGE_SIZE, b"f")
    system.memory.read(region.base, 64)
    return system


def exercised_aifm(obs=None):
    runtime = AifmRuntime(AifmConfig(local_heap_bytes=256 * KIB,
                                     remote_mem_bytes=64 * MIB), obs=obs)
    ptrs = [runtime.allocate(16 * KIB, data=b"a" * 16) for _ in range(32)]
    for ptr in ptrs:
        ptr.read(0, 16)
    return runtime


ALL_KERNELS = [exercised_dilos, exercised_fastswap, exercised_aifm]


class TestSharedKeyContract:
    @pytest.mark.parametrize("build", ALL_KERNELS,
                             ids=["dilos", "fastswap", "aifm"])
    def test_shared_keys_present(self, build):
        snap = build().metrics()
        assert isinstance(snap, MetricsSnapshot)
        missing = SHARED_KEYS - set(snap.counters)
        assert not missing, f"missing canonical keys: {sorted(missing)}"

    @pytest.mark.parametrize("build", ALL_KERNELS,
                             ids=["dilos", "fastswap", "aifm"])
    def test_kernel_reports_through_registry(self, build):
        system = build()
        assert isinstance(system.obs.registry, MetricsRegistry)
        assert system.metrics().counters["fault.major"] > 0

    @staticmethod
    def traced(build, event):
        """Run ``build`` traced: its snapshot and the count of ``event``."""
        obs = Observability.tracing()
        snap = build(obs).metrics()
        assert obs.tracer.dropped == 0
        return snap, sum(r.name == event for r in obs.tracer.events())

    def test_major_fault_key_identical_across_kernels(self):
        # One canonical spelling, three kernels: a DiLOS or Fastswap
        # major fault and an AIFM object miss each count once on
        # fault.major, once per fault.major span the kernel traces.
        for build in ALL_KERNELS:
            snap, spans = self.traced(build, "fault.major")
            assert snap.counters["fault.major"] == spans > 0, build.__name__

    def test_prefetch_issued_unified(self):
        # Fastswap readahead and DiLOS prefetches both count on
        # prefetch.issued, once per traced prefetch.issue; no readahead
        # counter exists beside it.
        for build in (exercised_fastswap, exercised_dilos):
            snap, issued = self.traced(build, "prefetch.issue")
            assert snap.counters["prefetch.issued"] == issued > 0
            assert not [key for key in snap.counters if "readahead" in key]

    def test_eviction_unified(self):
        # AIFM evacuation counts as reclaim.pages_evicted, like paging
        # kernels' evictions: 512 KiB of objects through a 256 KiB heap
        # evacuate at least 16 of them. Fastswap frontswap write-backs
        # land on reclaim.pages_cleaned: 4 MiB of dirty pages through
        # 1 MiB of local memory write back at least 768.
        aifm = exercised_aifm().metrics()
        assert aifm.counters["reclaim.pages_evicted"] >= 16
        fs = exercised_fastswap().metrics()
        assert fs.counters["reclaim.pages_cleaned"] >= 768

    def test_net_bytes_flow_on_all_kernels(self):
        for build in ALL_KERNELS:
            snap = build().metrics()
            assert snap.counters["net.bytes_read"] > 0


class TestMakeSystemObs:
    @pytest.mark.parametrize("kind", ["fastswap", "dilos-readahead", "aifm"])
    def test_obs_injected(self, kind):
        from repro.obs import Observability
        obs = Observability.tracing(capacity=128)
        system = make_system(kind, local_bytes=1 * MIB)
        assert system.obs is not None
        traced = make_system(kind, local_bytes=1 * MIB, obs=obs)
        assert traced.obs is obs
        assert traced.obs.tracer.enabled

    def test_default_obs_is_fresh_per_system(self):
        a = make_system("dilos-readahead", local_bytes=1 * MIB)
        b = make_system("dilos-readahead", local_bytes=1 * MIB)
        assert a.obs is not b.obs
        assert a.obs.registry is not b.obs.registry
