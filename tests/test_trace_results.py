"""Tests for trace record/replay and result persistence."""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.apps.views import PagedArray
from repro.common.units import MIB, PAGE_SIZE
from repro.core import DilosConfig, DilosSystem
from repro.harness import Measurement, make_system
from repro.harness.results import load_json, save_json
from repro.harness.trace import Trace, TraceEvent, TraceRecorder
from tests.test_batch_differential import scalar_batches


def record_sequential(ws_mib=2):
    system = DilosSystem(DilosConfig(local_mem_bytes=1 * MIB,
                                     remote_mem_bytes=32 * MIB))
    recorder = TraceRecorder(system)
    region = system.mmap(ws_mib * MIB, name="traced")
    pages = region.size // PAGE_SIZE
    for i in range(pages):
        system.memory.write(region.base + i * PAGE_SIZE, b"w" * 64)
        system.cpu(0.5)
    for i in range(pages):
        system.memory.read(region.base + i * PAGE_SIZE, 64)
    return recorder.finish(), pages


class TestRecording:
    def test_captures_all_accesses(self):
        trace, pages = record_sequential()
        assert len(trace) == 2 * pages
        assert trace.bytes_accessed == 2 * pages * 64
        assert trace.events[0].op == "write"
        assert trace.events[-1].op == "read"

    def test_gaps_reflect_compute(self):
        trace, pages = record_sequential()
        write_gaps = [e.gap_us for e in trace.events[1:pages]]
        # Each write was preceded by 0.5 us of compute (plus fault time
        # excluded, since gaps measure time *between* accesses).
        assert all(g >= 0.5 for g in write_gaps)

    def test_recorder_detaches(self):
        system = DilosSystem(DilosConfig(local_mem_bytes=1 * MIB,
                                         remote_mem_bytes=32 * MIB))
        recorder = TraceRecorder(system)
        region = system.mmap(1 * MIB)
        system.memory.write(region.base, b"x")
        trace = recorder.finish()
        system.memory.write(region.base, b"y")  # not recorded
        assert len(trace) == 1

    def test_paged_array_accesses_recorded(self):
        """``PagedArray`` loads and stores are one recorded access each."""
        system = DilosSystem(DilosConfig(local_mem_bytes=1 * MIB,
                                         remote_mem_bytes=32 * MIB))
        recorder = TraceRecorder(system)
        arr = PagedArray(system, 4 * PAGE_SIZE // 8, np.int64)
        arr.store(0, np.arange(arr.count))
        assert arr.load(1, 3).tolist() == [1, 2]
        arr.load(0, arr.count)
        trace = recorder.finish()
        assert [(e.op, e.va - arr.base, e.size) for e in trace.events] == [
            ("write", 0, 4 * PAGE_SIZE), ("read", 8, 16),
            ("read", 0, 4 * PAGE_SIZE)]

    @pytest.mark.parametrize("mode", ["read", "write"])
    @pytest.mark.parametrize("engine", [True, False], ids=["batch", "scalar"])
    def test_batch_calls_recorded(self, engine, mode):
        """``read_batch``/``write_batch`` calls, with sub-page and
        page-crossing elements, are recorded one event per element,
        exactly as the scalar loop (``scalar_batches``) records, and
        recording moves no simulated time."""
        # Offsets and sizes within a 64-page region: sub-page elements,
        # one that ends on a page boundary and ones that cross 1-2 pages.
        cells = [(8, 128), (PAGE_SIZE - 64, 64), (PAGE_SIZE - 16, 32),
                 (3 * PAGE_SIZE + 100, 2 * PAGE_SIZE), (40 * PAGE_SIZE, 8),
                 (63 * PAGE_SIZE, PAGE_SIZE)]

        def run(batched, record):
            system = make_system("dilos-readahead", 32 * PAGE_SIZE)
            region = system.mmap(64 * PAGE_SIZE, name="batched")
            vas = [region.base + offset for offset, _size in cells]
            with nullcontext() if batched else scalar_batches():
                recorder = TraceRecorder(system) if record else None
                for _ in range(2):
                    if mode == "write":
                        system.memory.write_batch(
                            vas, [b"\x5A" * size for _off, size in cells])
                    else:
                        system.memory.read_batch(
                            vas, [size for _off, size in cells])
                    system.cpu(0.5)
            events = recorder.finish().events if recorder else []
            return ([(e.op, e.va - region.base, e.size, e.gap_us)
                     for e in events], system.clock.now)

        want, want_clock = run(False, record=True)
        got, got_clock = run(engine, record=True)
        assert [event[:3] for event in want] == 2 * [
            (mode, offset, size) for offset, size in cells]
        assert got == want
        assert got_clock == want_clock == run(engine, record=False)[1]

    def test_regions_recorded(self):
        trace, _ = record_sequential(ws_mib=3)
        assert trace.regions == [(3 * MIB, True, "traced")]


class TestReplay:
    def test_replay_reproduces_fault_behaviour(self):
        trace, pages = record_sequential()
        replay_system = make_system("dilos-readahead", 1 * MIB)
        metrics = trace.replay(replay_system)
        # Same layout + same accesses => same first-touch count; majors
        # appear because the read pass follows eviction, as originally.
        assert metrics.value("fault.first_touch") == pages
        assert metrics.value("fault.major") > 0
        assert metrics.extra["replay_us"] > 0

    def test_replay_is_deterministic(self):
        trace, _ = record_sequential()
        a = trace.replay(make_system("fastswap", 1 * MIB))
        b = trace.replay(make_system("fastswap", 1 * MIB))
        assert a.digest() == b.digest()
        assert a.extra == b.extra

    def test_cross_kernel_comparison(self):
        """The tool's purpose: same trace, different kernels."""
        trace, _ = record_sequential()
        dilos = trace.replay(make_system("dilos-readahead", 1 * MIB))
        fast = trace.replay(make_system("fastswap", 1 * MIB))
        assert dilos.extra["replay_us"] < fast.extra["replay_us"]

    def test_bad_op_rejected(self):
        trace = Trace([(PAGE_SIZE, True, "r")],
                      [TraceEvent("jump", 0x10000000, 8, 0.0)])
        with pytest.raises(ValueError):
            trace.replay(make_system("dilos-none", 1 * MIB))


class TestTracePersistence:
    def test_save_load_roundtrip(self, tmp_path):
        trace, _ = record_sequential()
        path = tmp_path / "seq.trace"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.regions == trace.regions
        assert loaded.events == trace.events

    def test_loaded_trace_replays(self, tmp_path):
        trace, _ = record_sequential()
        path = tmp_path / "seq.trace"
        trace.save(path)
        metrics = Trace.load(path).replay(make_system("dilos-none", 1 * MIB))
        assert metrics.value("fault.major") > 0


class TestResultsPersistence:
    @staticmethod
    def sample():
        return [Measurement("fastswap", "seq", 0.125, 0.98, "GB/s",
                            extra={"note": "paper"}),
                Measurement("dilos-readahead", "seq", 0.125, 3.74, "GB/s")]

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "results.json"
        save_json(self.sample(), path)
        loaded = load_json(path)
        assert loaded == self.sample()
