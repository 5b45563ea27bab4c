"""The open-loop serving layer: arrivals, admission, balancing, SLO
accounting, and the end-to-end red/green overload story."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.units import KIB, MIB
from repro.core.spec import SystemSpec
from repro.harness.scenarios import SCENARIOS
from repro.obs.registry import MetricsRegistry
from repro.serve import (
    ARRIVALS,
    ARRIVAL_SPEC_EXAMPLES,
    BALANCERS,
    ServeSpec,
    coerce_serve_spec,
    make_admission,
    make_arrivals,
    make_balancer,
    parse_duration_us,
    parse_scaled,
)
from repro.serve.admission import (
    NoAdmission,
    QueueDepthAdmission,
    TokenBucketAdmission,
)
from repro.sim.tenancy import ComputeCluster


# -- spec grammar ------------------------------------------------------------

class TestServeSpec:
    def test_scaled_numbers(self):
        assert parse_scaled("5k") == 5_000.0
        assert parse_scaled("1.5m") == 1_500_000.0
        assert parse_scaled("2G") == 2e9
        assert parse_scaled("250") == 250.0
        with pytest.raises(ValueError, match="k/m/g"):
            parse_scaled("5x")

    def test_durations_normalize_to_us(self):
        assert parse_duration_us("2ms") == 2_000.0
        assert parse_duration_us("500us") == 500.0
        assert parse_duration_us("1s") == 1_000_000.0
        assert parse_duration_us("750") == 750.0
        with pytest.raises(ValueError, match="duration"):
            parse_duration_us("fast")

    def test_full_spec_parses(self):
        spec = ServeSpec.from_spec(
            "bursty:rate=2k,burst_rate=20k,on=50ms,off=200ms,slo=500us,"
            "clients=1m,requests=4k,seed=9,admission=depth/64,balance=least")
        assert spec.kind == "bursty"
        assert spec.rate_rps == 2_000.0
        assert spec.clients == 1_000_000
        assert spec.slo_us == 500.0
        assert spec.requests == 4_000
        assert spec.seed == 9
        assert spec.admission == "depth/64"
        assert spec.balance == "least"
        assert spec.params == {"burst_rate": 20_000.0, "on": 50_000.0,
                               "off": 200_000.0}

    def test_round_trip(self):
        spec = ServeSpec.from_spec(
            "diurnal:rate=8k,floor=500,period=1s,slo=1ms,requests=300")
        again = ServeSpec.from_spec(spec.to_spec())
        assert again == spec

    def test_rejects_unknown_kind_and_key(self):
        with pytest.raises(ValueError, match="unknown arrival kind"):
            ServeSpec.from_spec("uniform:rate=1k")
        with pytest.raises(ValueError, match="unknown serve spec key"):
            ServeSpec.from_spec("poisson:rate=1k,think=5ms")

    def test_rejects_keys_the_kind_never_reads(self):
        # Both used to parse and play a stream that ignored the key: no
        # poisson stream reads a burst window, and no kind read idle_rate.
        with pytest.raises(ValueError, match="unknown serve spec key 'on'"):
            ServeSpec.from_spec("poisson:rate=5k,on=3ms")
        with pytest.raises(ValueError, match="idle_rate"):
            ServeSpec.from_spec("bursty:rate=2k,idle_rate=10")
        with pytest.raises(ValueError, match="own keys: floor, period"):
            ServeSpec(kind="diurnal", params={"burst_rate": 5e3})

    def test_every_shipped_spec_parses(self):
        texts = list(ARRIVAL_SPEC_EXAMPLES) + [
            scenario.params["serve"] for scenario in SCENARIOS.values()
            if "serve" in scenario.params]
        assert len(texts) > len(ARRIVAL_SPEC_EXAMPLES)
        for text in texts:
            spec = ServeSpec.from_spec(text)
            assert ServeSpec.from_spec(spec.to_spec()) == spec

    def test_rejects_nonpositive_fields(self):
        for bad in ("rate=0", "clients=0", "slo=0", "requests=0"):
            with pytest.raises(ValueError):
                ServeSpec.from_spec(f"poisson:{bad}")

    def test_coercion(self):
        assert coerce_serve_spec(None) is None
        spec = ServeSpec()
        assert coerce_serve_spec(spec) is spec
        assert coerce_serve_spec("poisson:rate=1k").rate_rps == 1_000.0
        with pytest.raises(TypeError):
            coerce_serve_spec(42)

    def test_registered_kinds(self):
        assert set(ARRIVALS) >= {"poisson", "bursty", "diurnal"}


# -- arrival processes -------------------------------------------------------

class TestArrivals:
    def test_poisson_exact_seeded_timestamps(self):
        # Pinned against random.Random(7).expovariate — the generators
        # are part of the determinism contract, so these exact floats
        # must never drift.
        spec = ServeSpec.from_spec(
            "poisson:rate=100k,clients=1000,requests=5,seed=7,slo=1ms")
        got = [(a.t_us, a.client_id) for a in make_arrivals(spec)]
        assert got == [
            (3.9131484423480427, 154),
            (8.935499662850612, 49),
            (9.687437595250067, 548),
            (10.676032769159363, 596),
            (11.273521398942373, 519),
        ]

    def test_bursty_exact_seeded_timestamps(self):
        spec = ServeSpec.from_spec(
            "bursty:rate=50k,burst_rate=500k,on=1ms,off=2ms,clients=1000,"
            "requests=5,seed=3,slo=1ms")
        got = [(a.t_us, a.client_id) for a in make_arrivals(spec)]
        assert got == [
            (15.715305658195428, 378),
            (65.24093951156213, 485),
            (84.89597773335402, 67),
            (103.5037470318352, 930),
            (139.8414876576045, 265),
        ]

    @pytest.mark.parametrize("spec_text", [
        "poisson:rate=50k,clients=100,requests=400,seed=5",
        "bursty:rate=20k,burst_rate=200k,on=2ms,off=4ms,requests=400,seed=5",
        "diurnal:rate=50k,floor=5k,period=10ms,requests=400,seed=5",
    ])
    def test_streams_are_deterministic_and_well_formed(self, spec_text):
        spec = ServeSpec.from_spec(spec_text)
        first = list(make_arrivals(spec))
        second = list(make_arrivals(spec))
        assert first == second
        assert len(first) == spec.requests
        assert all(a.client_id < spec.clients for a in first)
        times = [a.t_us for a in first]
        assert times == sorted(times)
        assert times[0] > 0

    def test_seed_changes_the_stream(self):
        base = ServeSpec.from_spec("poisson:rate=10k,requests=50,seed=1")
        other = base.with_overrides(seed=2)
        assert list(make_arrivals(base)) != list(make_arrivals(other))

    def test_bursty_bursts_are_denser(self):
        # Mean gap during a burst must be well below the quiet mean gap;
        # compare medians of the shortest/longest halves as a proxy.
        spec = ServeSpec.from_spec(
            "bursty:rate=10k,burst_rate=1m,on=5ms,off=5ms,requests=2000,"
            "seed=11")
        times = [a.t_us for a in make_arrivals(spec)]
        gaps = sorted(b - a for a, b in zip(times, times[1:]))
        # Bursts (1M rps, ~1 us gaps) dominate the stream; the quiet
        # state (10k rps, ~100 us gaps) survives only in the far tail.
        assert gaps[len(gaps) // 2] < 5.0
        assert gaps[-1] > 50.0

    def test_diurnal_floor_must_not_exceed_peak(self):
        spec = ServeSpec.from_spec(
            "diurnal:rate=1k,floor=5k,period=1s,requests=10")
        with pytest.raises(ValueError, match="floor"):
            list(make_arrivals(spec))


# -- admission ---------------------------------------------------------------

class TestAdmission:
    def test_parse(self):
        assert isinstance(make_admission("none"), NoAdmission)
        depth = make_admission("depth/64")
        assert isinstance(depth, QueueDepthAdmission)
        assert depth.max_depth == 64
        bucket = make_admission("bucket/5k/32")
        assert isinstance(bucket, TokenBucketAdmission)
        assert bucket.burst == 32.0
        with pytest.raises(ValueError, match="unknown admission"):
            make_admission("random/0.5")
        with pytest.raises(ValueError, match="depth"):
            make_admission("depth")

    def test_depth_policy(self):
        policy = QueueDepthAdmission(2)
        assert policy.admit(0.0, 0)
        assert policy.admit(0.0, 1)
        assert not policy.admit(0.0, 2)

    def test_token_bucket_refills_on_virtual_time(self):
        policy = TokenBucketAdmission(rate_rps=1_000_000.0, burst=2)
        # Burst of 2 admits back-to-back, the third is shed...
        assert policy.admit(0.0, 0)
        assert policy.admit(0.0, 0)
        assert not policy.admit(0.0, 0)
        # ...and exactly one token returns after 1 us at 1 token/us.
        assert policy.admit(1.0, 0)
        assert not policy.admit(1.0, 0)
        policy.reset()
        assert policy.admit(0.0, 0)


# -- balancers ---------------------------------------------------------------

class TestBalancers:
    def test_kinds(self):
        assert set(BALANCERS) >= {"round_robin", "least", "hash"}
        with pytest.raises(ValueError, match="unknown balancer"):
            make_balancer("random", ["a"])

    @given(st.integers(min_value=1, max_value=7),
           st.integers(min_value=1, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_round_robin_is_exactly_fair(self, n, k):
        balancer = make_balancer(
            "round_robin", [f"t{i}" for i in range(n)])
        counts = [0] * n
        for _ in range(k):
            counts[balancer.pick(b"key", [0] * n)] += 1
        assert max(counts) - min(counts) <= 1

    @given(st.lists(st.integers(min_value=0, max_value=50),
                    min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_least_joins_a_shortest_queue(self, depths):
        balancer = make_balancer(
            "least", [f"t{i}" for i in range(len(depths))])
        pick = balancer.pick(b"key", depths)
        assert depths[pick] == min(depths)
        # Ties go to the earliest-enrolled tenant of minimal depth.
        assert pick == depths.index(min(depths))

    @given(st.binary(min_size=1, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_hash_gives_stable_affinity(self, key):
        tenants = ["a", "b", "c", "d"]
        first = make_balancer("hash", tenants)
        second = make_balancer("hash", tenants)
        pick = first.pick(key, [0] * 4)
        # Same key -> same tenant, across calls and across instances
        # (no dependence on hash() randomization).
        assert first.pick(key, [9, 9, 9, 9]) == pick
        assert second.pick(key, [0] * 4) == pick

    def test_hash_spreads_the_keyspace(self):
        balancer = make_balancer("hash", ["a", "b", "c"])
        rng = random.Random(5)
        picks = {balancer.pick(rng.randrange(1 << 32).to_bytes(4, "big"),
                               [0, 0, 0])
                 for _ in range(200)}
        assert picks == {0, 1, 2}

    def test_hash_remaps_a_minority_on_membership_change(self):
        # The consistent-hashing property: growing the fleet by one
        # tenant moves only ~1/N of the keyspace.
        small = make_balancer("hash", ["a", "b", "c"])
        grown = make_balancer("hash", ["a", "b", "c", "d"])
        rng = random.Random(6)
        keys = [rng.randrange(1 << 32).to_bytes(4, "big")
                for _ in range(400)]
        moved = sum(
            1 for key in keys
            if small.pick(key, [0] * 3) != grown.pick(key, [0] * 4)
            and grown.pick(key, [0] * 4) != 3)
        assert moved < len(keys) * 0.15


# -- the LogHistogram instrument --------------------------------------------

class TestLogHistogram:
    def test_quantile_error_is_bounded(self):
        registry = MetricsRegistry()
        hist = registry.log_histogram("serve.latency_us")
        rng = random.Random(3)
        samples = sorted(rng.uniform(1.0, 50_000.0) for _ in range(5000))
        for value in samples:
            hist.record(value)
        for pct in (50.0, 99.0, 99.9):
            exact = samples[min(len(samples) - 1,
                                int(pct / 100.0 * len(samples)))]
            assert hist.pct(pct) == pytest.approx(exact, rel=0.09)

    def test_memory_is_bounded_by_buckets_not_samples(self):
        registry = MetricsRegistry()
        hist = registry.log_histogram("serve.latency_us")
        for i in range(20_000):
            hist.record(1.0 + (i % 977))
        # 8 buckets per octave over [1, 978) spans ~10 octaves.
        assert len(hist._counts) < 100
        assert hist.count == 20_000

    def test_snapshot_summary_has_p999(self):
        registry = MetricsRegistry()
        hist = registry.log_histogram("serve.latency_us")
        for value in (1.0, 2.0, 4.0, 1000.0):
            hist.record(value)
        snap = registry.snapshot("test", 0.0)
        summary = snap.histograms["serve.latency_us"]
        assert summary["count"] == 4.0
        assert {"p50", "p99", "p999", "mean", "min", "max"} <= set(summary)


# -- the frontend over a real cluster ---------------------------------------

def _tiny_cluster() -> ComputeCluster:
    cluster = ComputeCluster(backend="sharded:2",
                             remote_mem_bytes=32 * MIB)
    spec = SystemSpec(kind="dilos-readahead", local_mem_bytes=256 * KIB)
    cluster.add_service("web1", spec, "redis", n_keys=200, value_bytes=2048)
    cluster.add_service("web2", spec, "redis", n_keys=200, value_bytes=2048)
    return cluster


class TestServeFrontend:
    OVERLOAD = ("bursty:rate=50k,burst_rate=3m,on=2ms,off=3ms,clients=1m,"
                "slo=500us,requests=1500,seed=7")

    def test_admission_red_green(self):
        # Red: open-loop overload with no admission lets the backlog grow
        # for the whole burst, so the p99 blows through the SLO.
        red = _tiny_cluster().serve(self.OVERLOAD)
        assert red.shed == 0
        assert red.latency["p99"] > red.spec.slo_us
        assert red.slo_violations > 0
        # Green: bounding the queue bounds the tail; everything served
        # meets the SLO and the overflow is shed, visibly, on the counter.
        green = _tiny_cluster().serve(self.OVERLOAD + ",admission=depth/16")
        assert green.shed > 0
        assert green.latency["p99"] < green.spec.slo_us
        assert green.slo_violations == 0
        assert green.snapshot.value("serve.shed") == green.shed
        assert green.goodput_rps > red.goodput_rps

    def test_canonical_metrics_are_registered(self):
        report = _tiny_cluster().serve(
            "poisson:rate=20k,requests=300,seed=5,slo=2ms")
        snap = report.snapshot
        assert snap.value("serve.offered") == 300
        assert snap.value("serve.admitted") == 300
        assert (snap.value("serve.completed")
                == snap.value("serve.goodput") + report.slo_violations
                + report.errors)
        assert snap.histograms["serve.latency_us"]["count"] == 300
        assert "serve.queue_depth" in snap.histograms
        assert snap.value("serve.offered_rps") > 0
        assert (snap.value("tenant.web1.served")
                + snap.value("tenant.web2.served") == 300)

    def test_trace_and_metrics_digests_are_stable(self):
        spec = "poisson:rate=20k,requests=300,seed=5,slo=2ms"
        first = _tiny_cluster().serve(spec)
        second = _tiny_cluster().serve(spec)
        assert first.trace_digest == second.trace_digest
        assert first.snapshot.digest() == second.snapshot.digest()
        third = _tiny_cluster().serve(
            "poisson:rate=20k,requests=300,seed=6,slo=2ms")
        assert third.trace_digest != first.trace_digest

    def test_serve_requires_service_tenants(self):
        cluster = ComputeCluster(backend="sharded:2",
                                 remote_mem_bytes=32 * MIB)
        with pytest.raises(RuntimeError, match="no tenants enrolled|no "
                                               "service tenants"):
            cluster.serve("poisson:rate=1k,requests=10,seed=1")

    def test_add_service_rejects_non_services(self):
        cluster = ComputeCluster(backend="sharded:2",
                                 remote_mem_bytes=32 * MIB)
        spec = SystemSpec(kind="dilos-readahead", local_mem_bytes=1 * MIB)
        with pytest.raises(TypeError, match="Service protocol"):
            cluster.add_service("bad", spec, service=object())


class TestServePresets:
    def test_registry_shape(self):
        presets = {name for name, scenario in SCENARIOS.items()
                   if scenario.contrast is not None}
        assert presets == {"flash_crowd", "hot_key_skew",
                           "slow_tenant_isolation", "llm_flash_crowd"}

    def test_naive_override_applies(self):
        scenario = SCENARIOS["flash_crowd"]
        green = scenario.build(serve=self_spec()).report
        red = scenario.build(serve=self_spec(), naive=True).report
        assert green.spec.admission == "depth/64"
        assert red.spec.admission == "none"
        # The contrast lands on top of the given spec, not the preset's.
        assert red.spec.requests == green.spec.requests == 800

    def test_cli_serve_runs_the_preset(self, capsys):
        from repro.cli import main
        code = main(["run", "flash_crowd", "--spec", self_spec(), "--once"])
        out = capsys.readouterr().out
        assert code == 0
        assert "serve.shed" in out
        assert re.search(r"^latency\.p99 +[0-9.]+$", out, re.MULTILINE)
        assert "request-trace digest" in out
        assert "preset vs naive" not in out  # --once skips the contrast

    def test_cli_serve_rejects_unknown_preset(self, capsys):
        from repro.cli import main
        assert main(["run", "thundering_herd", "--once"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_cli_contrast_applies_on_top_of_spec(self, capsys):
        """Regression: ``--spec`` used to replace the naive run's spec
        wholesale, so the "no admission" column repeated the preset's
        admission-controlled numbers."""
        from repro.cli import main
        assert main(["run", "flash_crowd", "--spec", self_spec()]) == 0
        out = capsys.readouterr().out
        table = out.split("report: preset vs naive (no admission)")[1]
        shed = next(line.split() for line in table.splitlines()
                    if line.startswith("shed"))
        assert int(shed[1]) > 0
        assert shed[2] == "0"
        assert "determinism: OK" in out


def replayed(name):
    """Serve preset ``name`` twice; the request trace and the metrics
    digest must match. Returns the first run's report."""
    first, second = SCENARIOS[name].build(), SCENARIOS[name].build()
    assert second.report.trace_digest == first.report.trace_digest
    assert second.digest() == first.digest()
    return first.report


@pytest.mark.slow
class TestPresetStories:
    """Each preset's full-size run tells the story its description
    claims, against the naive contrast run, and replays byte-identically
    (llm_flash_crowd's story lives in :class:`TestLlmServing`)."""

    def test_flash_crowd_admission_holds_the_slo(self):
        green = replayed("flash_crowd")
        red = SCENARIOS["flash_crowd"].build(naive=True).report
        assert green.slo_violations == 0
        assert green.shed > 0
        assert red.latency["p99"] > red.spec.slo_us
        assert red.violation_rate > 0.5
        # Shedding early beats serving late on goodput.
        assert green.goodput_rps > red.goodput_rps

    def test_least_outstanding_routes_around_the_laggard(self):
        green = replayed("slow_tenant_isolation")
        red = SCENARIOS["slow_tenant_isolation"].build(naive=True).report
        served = green.per_tenant
        assert served["laggard"] < min(served["fast1"], served["fast2"])
        assert green.latency["p99"] < red.latency["p99"]

    def test_consistent_hash_concentrates_the_hot_head(self):
        shares = sorted(replayed("hot_key_skew").per_tenant.values())
        assert shares[-1] > 2 * shares[0]


class TestLlmServing:
    """Token-level SLOs: the llm preset's red/green story and the
    determinism of its request traces."""

    def test_llm_flash_crowd_red_green(self):
        # Red: no admission lets the burst backlog compound, so the
        # time-to-first-token tail (queueing included) blows through
        # the SLO by orders of magnitude.
        red = SCENARIOS["llm_flash_crowd"].build(naive=True).report
        assert red.shed == 0
        assert red.ttft["count"] > 0, "llm responses must carry ttft_us"
        assert red.ttft["p99"] > red.spec.slo_us
        assert red.violation_rate > 0.1
        # Green: the preset's token bucket sheds the overhang; TTFT p99
        # stays bounded and nothing served misses the SLO.
        green = SCENARIOS["llm_flash_crowd"].build().report
        assert green.shed > 0
        assert green.ttft["p99"] < green.spec.slo_us
        assert green.slo_violations == 0
        assert green.snapshot.value("serve.shed") == green.shed

    def test_llm_token_metrics_reach_the_snapshot(self):
        report = SCENARIOS["llm_flash_crowd"].build(
            serve="poisson:rate=2k,requests=120,seed=9,slo=5ms").report
        snap = report.snapshot
        assert snap.histograms["serve.ttft_us"]["count"] == report.admitted
        assert snap.histograms["serve.tpot_us"]["count"] == report.admitted
        assert (snap.value("tenant.gen1.llm.requests")
                + snap.value("tenant.gen2.llm.requests")
                == report.admitted)
        assert report.summary()["ttft_p99_us"] == report.ttft["p99"]
        # TPOT measures steady-state decode; TTFT carries prefill and
        # queueing on top, so its tail dominates.
        assert report.ttft["p99"] > report.tpot["p99"]

    def test_llm_trace_is_deterministic(self):
        first = SCENARIOS["llm_flash_crowd"].build().report
        second = SCENARIOS["llm_flash_crowd"].build().report
        assert first.trace_digest == second.trace_digest
        assert first.snapshot.digest() == second.snapshot.digest()
        assert first.ttft == second.ttft
        reseeded = SCENARIOS["llm_flash_crowd"].build(
            serve=("bursty:rate=4k,burst_rate=1m,on=3ms,off=5ms,"
                   "clients=100k,slo=1ms,requests=1200,seed=24,"
                   "admission=bucket/5k/16")).report
        assert reseeded.trace_digest != first.trace_digest


def self_spec() -> str:
    """A small spec so the CLI test stays fast on the tier-1 path."""
    return ("bursty:rate=100k,burst_rate=3m,on=2ms,off=3ms,clients=1m,"
            "slo=1ms,requests=800,seed=7,admission=depth/64")
