"""Tests for the declarative boot layer (repro.core.spec)."""

import pytest

from repro.common.clock import Clock
from repro.common.units import KIB, MIB, PAGE_SIZE
from repro.core.spec import (
    BACKEND_SPEC_EXAMPLES,
    BACKENDS,
    KERNELS,
    SystemSpec,
    backend_label,
    make_backend,
    split_kind,
)
from repro.harness import SYSTEM_KINDS, make_system
from repro.mem.cluster import (
    ParityStripedMemory,
    ReplicatedMemory,
    ShardedMemory,
)
from repro.mem.remote import MemoryNode


class TestKernelRegistry:
    def test_all_presentation_kinds_registered(self):
        assert SYSTEM_KINDS == tuple(KERNELS)
        # Presentation order matches the paper's figure legends.
        assert SYSTEM_KINDS[0] == "fastswap"
        assert SYSTEM_KINDS[-1] == "aifm-rdma"

    def test_unknown_kind_raises_with_choices(self):
        with pytest.raises(ValueError, match="unknown system kind"):
            SystemSpec(kind="linux", local_mem_bytes=2 * MIB).boot()

    def test_spec_boot_matches_legacy_flavors(self):
        assert SystemSpec(kind="dilos-stride",
                          local_mem_bytes=2 * MIB).boot() \
            .config.prefetcher == "stride"
        tcp = SystemSpec(kind="dilos-tcp", local_mem_bytes=2 * MIB).boot()
        assert tcp.config.tcp_emulation and tcp.config.prefetcher == \
            "readahead"
        assert SystemSpec(kind="aifm-rdma", local_mem_bytes=2 * MIB).boot() \
            .config.transport == "rdma"


class TestBackendRegistry:
    def test_registered_kinds(self):
        assert set(BACKENDS) == {"node", "sharded", "replicated", "parity"}
        with pytest.raises(ValueError, match="unknown backend kind"):
            make_backend("pool:2", 8 * MIB)

    def test_node_backend(self):
        backend = make_backend("node", 8 * MIB)
        assert isinstance(backend, MemoryNode)
        assert backend.capacity == 8 * MIB

    def test_none_means_node(self):
        assert isinstance(make_backend(None, 8 * MIB), MemoryNode)

    def test_sharded_splits_capacity(self):
        backend = make_backend("sharded:4", 8 * MIB)
        assert isinstance(backend, ShardedMemory)
        assert len(backend.nodes) == 4
        assert backend.capacity >= 8 * MIB
        for node in backend.nodes:
            assert node.capacity % PAGE_SIZE == 0

    def test_replicated_full_capacity_per_mirror(self):
        backend = make_backend("replicated:3", 8 * MIB)
        assert isinstance(backend, ReplicatedMemory)
        assert len(backend.mirrors) == 2
        assert backend.primary.capacity == 8 * MIB

    def test_parity_k_plus_one(self):
        backend = make_backend("parity:4+1", 8 * MIB)
        assert isinstance(backend, ParityStripedMemory)
        assert len(backend.data_nodes) == 4

    def test_ready_object_passes_through(self):
        node = MemoryNode(4 * MIB)
        assert make_backend(node, 64 * MIB) is node

    def test_bad_specs_raise(self):
        for bad in ("mesh:3", "sharded:x", "sharded:1", "replicated:1",
                    "parity:1+1", "parity:2+2", "node:3"):
            with pytest.raises(ValueError):
                make_backend(bad, 8 * MIB)
        with pytest.raises(TypeError):
            make_backend(object(), 8 * MIB)
        with pytest.raises(ValueError):
            make_backend("node", 0)

    def test_help_examples_name_every_table_entry(self):
        """``--backend`` help prints BACKEND_SPEC_EXAMPLES and
        ARRIVAL_SPEC_EXAMPLES lists the arrival kinds: a table entry
        missing from its tuple would be missing from the help."""
        from repro.serve import ARRIVAL_SPEC_EXAMPLES, ARRIVALS

        assert tuple(split_kind(example)[0]
                     for example in BACKEND_SPEC_EXAMPLES) == tuple(BACKENDS)
        assert tuple(split_kind(example)[0]
                     for example in ARRIVAL_SPEC_EXAMPLES) == tuple(ARRIVALS)

    def test_backend_label(self):
        assert backend_label(None) == "node"
        assert backend_label("sharded:4") == "sharded:4"
        assert backend_label(MemoryNode(1 * MIB)) == "MemoryNode"


class TestSpecBoot:
    def test_injected_clock_is_shared(self):
        clock = Clock()
        system = SystemSpec(kind="dilos-readahead", local_mem_bytes=2 * MIB,
                            clock=clock).boot()
        assert system.clock is clock

    def test_injected_backend_is_shared(self):
        backend = make_backend("sharded:2", 32 * MIB)
        a = SystemSpec(kind="dilos-readahead", local_mem_bytes=1 * MIB,
                       backend=backend).boot()
        b = SystemSpec(kind="fastswap", local_mem_bytes=1 * MIB,
                       backend=backend).boot()
        assert a.node is backend and b.node is backend

    def test_net_faults_spec_string_parsed_once(self):
        system = SystemSpec(kind="dilos-readahead", local_mem_bytes=2 * MIB,
                            overrides={"net_faults": "drop=0.01,seed=7"}
                            ).boot()
        plan = system.config.net_faults
        assert plan is not None and plan.drop == pytest.approx(0.01)

    def test_overrides_reach_config(self):
        system = SystemSpec(kind="dilos-readahead", local_mem_bytes=2 * MIB,
                            overrides={"cleaner_period_us": 10.0}).boot()
        assert system.config.cleaner_period_us == 10.0


def smoke_io(system):
    """Write and read back a 2 MiB working set on a paging kernel."""
    region = system.mmap(2 * MIB, name="smoke")
    for i in range(0, 2 * MIB, PAGE_SIZE):
        system.memory.write(region.base + i, b"%08d" % i)
    for i in range(0, 2 * MIB, PAGE_SIZE):
        assert system.memory.read(region.base + i, 8) == b"%08d" % i
    # With 512 KiB local against a 2 MiB working set the smoke run must
    # actually exercise the backend's data path.
    assert system.metrics().value("fault.major") > 0


class TestBackendSmoke:
    """Every kernel boots and runs real IO on every backend kind."""

    @pytest.mark.parametrize("kind", SYSTEM_KINDS)
    @pytest.mark.parametrize("backend", BACKEND_SPEC_EXAMPLES)
    def test_kernel_runs_on_backend(self, kind, backend):
        system = make_system(kind, 512 * KIB, remote_bytes=16 * MIB,
                             backend=backend)
        if kind.startswith("aifm"):
            ptr = system.allocate(PAGE_SIZE, data=b"q" * PAGE_SIZE)
            assert ptr.read(0, 8) == b"qqqqqqqq"
        else:
            smoke_io(system)

    def test_default_backend_unchanged(self):
        """`make_system` without a backend still boots the historical
        single node (the golden-master suite pins exact digests)."""
        system = make_system("dilos-readahead", 2 * MIB)
        assert isinstance(system.node, MemoryNode)


class TestSweepBackend:
    def test_sweep_stamps_and_forwards_backend(self):
        from repro.harness.experiment import Measurement, sweep_ratios

        seen = []

        def runner(kind, ratio, backend="node"):
            seen.append(backend)
            return Measurement("", "", 0.0, value=1.0, unit="ms")

        rows = sweep_ratios("toy", runner, ["dilos-readahead"],
                            ratios=[0.25], backend="sharded:2")
        assert seen == ["sharded:2"]
        assert rows[0].extra["backend"] == "sharded:2"

    def test_sweep_legacy_runner_without_backend_param(self):
        from repro.harness.experiment import Measurement, sweep_ratios

        def runner(kind, ratio):
            return Measurement("", "", 0.0, value=1.0, unit="ms")

        rows = sweep_ratios("toy", runner, ["fastswap"], ratios=[0.5])
        assert rows[0].extra["backend"] == "node"
