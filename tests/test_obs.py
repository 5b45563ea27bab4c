"""Tests for the observability layer: registry, snapshot, tracer, export.

Covers the unified-telemetry contract: canonical namespacing, typed
snapshots read by canonical name, ring-buffered tracing with
zero-overhead-when-disabled dispatch, exporter validity (JSONL and Chrome
``trace_event``), and the E-F6 regression — fault-handler span sums must
agree with the Fig.-6 latency breakdown.
"""

import json
from collections.abc import Mapping

import pytest

from repro.common.units import MIB
from repro.apps.seqrw import SequentialWorkload
from repro.core import DilosConfig, DilosSystem
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    MetricsSnapshot,
    Observability,
    Tracer,
    chrome_trace,
    fault_breakdown_from_spans,
    to_jsonl,
    validate_chrome_trace,
    validate_name,
    write_chrome_trace,
    write_jsonl,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now


class TestNames:
    def test_valid_names_pass_through(self):
        assert validate_name("fault.major") == "fault.major"
        assert validate_name("net.bytes_read") == "net.bytes_read"
        assert validate_name("a.b.c_2") == "a.b.c_2"

    @pytest.mark.parametrize("bad", [
        "major_faults",       # no namespace
        "Fault.major",        # uppercase
        "fault.",             # empty segment
        ".major",             # leading dot
        "fault..major",       # double dot
        "fault.2major",       # segment starts with a digit
        "",                   # empty
        42,                   # not a string
    ])
    def test_invalid_names_rejected(self, bad):
        with pytest.raises(ValueError):
            validate_name(bad)


class TestRegistry:
    def test_counter_identity_and_add(self):
        registry = MetricsRegistry()
        c = registry.counter("fault.major")
        assert registry.counter("fault.major") is c
        registry.add("fault.major", 3)
        registry.add("fault.major")
        assert registry.value("fault.major") == 4

    def test_unregistered_value_is_zero(self):
        assert MetricsRegistry().value("no.such") == 0

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("fault.major")
        with pytest.raises(ValueError):
            registry.gauge("fault.major")
        with pytest.raises(ValueError):
            registry.histogram("fault.major")

    def test_invalid_name_rejected_at_registration(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("major_faults")

    def test_gauge_binds_callable_lazily(self):
        registry = MetricsRegistry()
        box = {"v": 1}
        registry.gauge("swapcache.size", fn=lambda: box["v"])
        assert registry.value("swapcache.size") == 1
        box["v"] = 7
        assert registry.value("swapcache.size") == 7

    def test_value_on_histogram_raises(self):
        registry = MetricsRegistry()
        registry.histogram("fault.wait_us")
        with pytest.raises(TypeError):
            registry.value("fault.wait_us")

    def test_reset_zeroes_counters_keeps_gauges(self):
        registry = MetricsRegistry()
        registry.add("fault.major", 9)
        registry.gauge("net.bytes_read", fn=lambda: 123)
        registry.histogram("fault.wait_us").record(1.5)
        registry.reset()
        assert registry.value("fault.major") == 0
        assert registry.value("net.bytes_read") == 123
        assert registry.histogram("fault.wait_us").count == 0

    def test_snapshot_carries_counters_and_gauges(self):
        registry = MetricsRegistry()
        registry.add("fault.major", 5)
        registry.gauge("heap.bytes_used", fn=lambda: 4096)
        snap = registry.snapshot("toy", time_us=12.5)
        assert snap.system == "toy"
        assert snap.time_us == 12.5
        assert snap.counters == {"fault.major": 5, "heap.bytes_used": 4096}


class TestSnapshotMapping:
    def make(self):
        registry = MetricsRegistry()
        registry.add("fault.major", 3)
        return registry.snapshot("toy", 1.0)

    def test_typed_value_accessor(self):
        snap = self.make()
        assert snap.value("fault.major") == 3
        assert snap.value("fault.minor", default=-1) == -1

    def test_metrics_snapshot_is_not_a_mapping(self):
        # Values are read by canonical name through value()/counters;
        # presentation values go in ``extra``, which the digest skips.
        snap = self.make()
        assert isinstance(snap, MetricsSnapshot)
        assert not isinstance(snap, Mapping)
        digest = snap.digest()
        snap.extra["replay_us"] = 42.0
        assert snap.digest() == digest
        assert "extra" not in json.loads(snap.canonical_json())


class TestTracer:
    def test_disabled_by_default_and_null_tracer(self):
        assert Tracer().enabled is False
        assert NULL_TRACER.enabled is False
        NULL_TRACER.instant("x.y", "x", 1.0)
        NULL_TRACER.complete("x.y", "x", 1.0, 2.0)
        with NULL_TRACER.span("x.y", "x", FakeClock()):
            pass
        assert len(NULL_TRACER) == 0

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.instant("a.b", "a", 1.0)
        tracer.complete("a.b", "a", 1.0, 1.0)
        assert len(tracer) == 0
        assert tracer.dropped == 0

    def test_instant_and_complete_shapes(self):
        tracer = Tracer(enabled=True)
        tracer.instant("prefetch.issue", "prefetch", 2.0, {"vpn": 7})
        tracer.complete("fault.major", "fault", 1.0, 3.5, {"vpn": 7})
        instant, span = tracer.events()
        assert instant.ph == "i" and instant.dur == 0.0
        assert span.ph == "X" and span.dur == 3.5
        assert span.as_dict()["dur"] == 3.5
        assert "dur" not in instant.as_dict()

    def test_ring_overflow_drops_oldest_and_counts(self):
        tracer = Tracer(capacity=4, enabled=True)
        for i in range(10):
            tracer.instant("e.v", "cat", float(i))
        assert len(tracer) == 4
        assert tracer.dropped == 6
        assert [r.ts for r in tracer.events()] == [6.0, 7.0, 8.0, 9.0]

    def test_span_measures_clock_delta(self):
        tracer = Tracer(enabled=True)
        clock = FakeClock(10.0)
        with tracer.span("reclaim.direct", "reclaim", clock, {"n": 1}):
            clock.now = 13.0
        (record,) = tracer.events()
        assert record.ts == 10.0
        assert record.dur == 3.0
        assert record.args == {"n": 1}

    def test_span_emits_on_exception(self):
        tracer = Tracer(enabled=True)
        clock = FakeClock()
        with pytest.raises(RuntimeError):
            with tracer.span("a.b", "a", clock):
                clock.now = 1.0
                raise RuntimeError("boom")
        assert len(tracer) == 1


class TestExport:
    def traced(self):
        tracer = Tracer(enabled=True)
        tracer.instant("prefetch.issue", "prefetch", 0.5, {"vpn": 1})
        tracer.complete("fault.major", "fault", 1.0, 2.0,
                        {"components": {"fetch": 1.5, "exception": 0.5}})
        tracer.complete("fault.major", "fault", 4.0, 1.0,
                        {"components": {"fetch": 0.6, "exception": 0.4}})
        return tracer

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert write_jsonl(self.traced(), path) == 3
        lines = [json.loads(line) for line in
                 path.read_text().strip().splitlines()]
        assert [l["ph"] for l in lines] == ["i", "X", "X"]
        assert lines[1]["dur"] == 2.0
        assert to_jsonl([]) == ""

    def test_chrome_trace_structure(self):
        doc = chrome_trace(self.traced())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "M"]
        assert "process_name" in names
        assert "thread_name" in names
        body = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        # Per-category tids; all events carry pid/tid.
        tids = {e["tid"] for e in body}
        assert len(tids) == 2
        instant = next(e for e in body if e["ph"] == "i")
        assert instant["s"] == "t"

    def test_chrome_trace_sorted_despite_buffer_order(self):
        # An enclosing span is buffered at exit, *after* events its body
        # emitted — the exporter must restore timestamp order.
        tracer = Tracer(enabled=True)
        tracer.complete("reclaim.cleaner_pass", "reclaim", 58.0, 0.2)
        tracer.complete("reclaim.direct", "reclaim", 55.0, 4.0)
        doc = validate_chrome_trace(chrome_trace(tracer))
        body = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        assert [e["ts"] for e in body] == [55.0, 58.0]

    def test_validate_accepts_json_string(self):
        doc = chrome_trace(self.traced())
        assert validate_chrome_trace(json.dumps(doc))["traceEvents"]

    @pytest.mark.parametrize("doc,message", [
        ("[not json", "not valid JSON"),
        ({}, "traceEvents"),
        ({"traceEvents": {}}, "must be a list"),
        ({"traceEvents": [{"ph": "X"}]}, "missing"),
        ({"traceEvents": [{"name": "a", "ph": "B", "pid": 1, "tid": 1,
                           "ts": 0}]}, "unsupported ph"),
        ({"traceEvents": [{"name": "a", "ph": "i", "pid": 1, "tid": 1,
                           "ts": -1}]}, "non-negative"),
        ({"traceEvents": [{"name": "a", "ph": "X", "pid": 1, "tid": 1,
                           "ts": 0}]}, "dur"),
        ({"traceEvents": [
            {"name": "a", "ph": "i", "pid": 1, "tid": 1, "ts": 5},
            {"name": "b", "ph": "i", "pid": 1, "tid": 1, "ts": 4},
        ]}, "backwards"),
    ])
    def test_validate_rejects_bad_documents(self, doc, message):
        with pytest.raises(ValueError, match=message):
            validate_chrome_trace(doc)

    def test_write_chrome_trace_validates_and_writes(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(self.traced(), path)
        validate_chrome_trace(path.read_text())

    def test_fault_breakdown_from_spans(self):
        report = fault_breakdown_from_spans(self.traced())
        assert report["count"] == 2
        assert report["avg_total_us"] == pytest.approx(1.5)
        assert report["components"]["fetch"] == pytest.approx(1.05)
        assert report["span_total_us"] == pytest.approx(3.0)
        assert report["component_total_us"] == pytest.approx(3.0)
        assert fault_breakdown_from_spans([])["count"] == 0


class TestObservabilityBundle:
    def test_default_has_null_tracer(self):
        obs = Observability.default()
        assert obs.tracer is NULL_TRACER
        assert isinstance(obs.registry, MetricsRegistry)

    def test_tracing_enables_ring_buffer(self):
        obs = Observability.tracing(capacity=16)
        assert obs.tracer.enabled
        assert obs.tracer.capacity == 16


def run_traced_seq_read(ws_mib=2, ratio=0.25):
    obs = Observability.tracing()
    ws = ws_mib * MIB
    system = DilosSystem(DilosConfig(local_mem_bytes=int(ws * ratio),
                                     remote_mem_bytes=64 * MIB), obs=obs)
    result = SequentialWorkload(ws).run(system, mode="read")
    return system, obs, result


class TestTracedDilos:
    """E-F6 regression: trace spans must agree with the Fig.-6 breakdown."""

    def test_span_sums_match_breakdown_within_5pct(self):
        system, obs, _ = run_traced_seq_read()
        report = fault_breakdown_from_spans(obs.tracer.events())
        snap = system.metrics()
        count = snap.breakdown_counts["fault.breakdown"]
        assert report["count"] == count == snap.counters["fault.major"] > 0
        reported_total = sum(snap.breakdowns["fault.breakdown"].values())
        reported_sum = reported_total * count
        assert report["span_total_us"] == pytest.approx(reported_sum,
                                                        rel=0.05)
        assert report["component_total_us"] == pytest.approx(reported_sum,
                                                             rel=0.05)

    def test_trace_exports_valid_chrome_trace(self, tmp_path):
        _, obs, _ = run_traced_seq_read()
        doc = write_chrome_trace(obs.tracer, tmp_path / "t.json")
        body = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        assert body
        categories = {e["name"] for e in doc["traceEvents"]
                      if e["ph"] == "M" and e["name"] == "thread_name"}
        assert categories  # per-subsystem tracks exist

    def test_trace_survives_memory_pressure(self, tmp_path):
        # Direct reclaim overlaps background cleaner ticks; the exporter
        # must still produce a monotonic trace (regression for nested
        # same-category spans).
        _, obs, _ = run_traced_seq_read(ratio=0.125)
        write_chrome_trace(obs.tracer, tmp_path / "t.json")

    def test_untraced_system_records_nothing(self):
        ws = 2 * MIB
        system = DilosSystem(DilosConfig(local_mem_bytes=ws // 4,
                                         remote_mem_bytes=64 * MIB))
        SequentialWorkload(ws).run(system, mode="read")
        assert len(system.obs.tracer) == 0
        assert system.metrics().value("fault.major") > 0
