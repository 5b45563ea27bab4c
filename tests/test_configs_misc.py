"""Validation and small-utility tests: configs, RNG helpers, latency
model derivations, and system naming."""

import inspect
from dataclasses import fields

import pytest

from repro.apps.llm import build_llm_service
from repro.apps.redis import RedisServer, build_redis_service
from repro.common.rng import make_rng, zipf_weights
from repro.common.units import MIB
from repro.baselines.aifm import AifmConfig
from repro.baselines.fastswap import FastswapConfig
from repro.core import DilosConfig
from repro.core.config import KernelConfig
from repro.harness import make_system
from repro.net.latency import CPU_GHZ, LatencyModel, cycles_to_us


class TestDilosConfig:
    def test_defaults_valid(self):
        DilosConfig().validate()

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            DilosConfig(local_mem_bytes=0).validate()
        with pytest.raises(ValueError):
            DilosConfig(remote_mem_bytes=-1).validate()

    def test_bad_prefetcher(self):
        with pytest.raises(ValueError):
            DilosConfig(prefetcher="psychic").validate()

    def test_all_prefetchers_accepted(self):
        for name in ("none", "readahead", "trend", "stride"):
            DilosConfig(prefetcher=name).validate()


class TestFastswapConfig:
    def test_defaults_valid(self):
        FastswapConfig().validate()


class TestAifmConfig:
    def test_defaults_valid(self):
        AifmConfig().validate()

    def test_bad_transport(self):
        with pytest.raises(ValueError):
            AifmConfig(transport="carrier-pigeon").validate()

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            AifmConfig(prefetch_depth=-1).validate()


class TestSettableSurface:
    """Every kernel's settable fields, pinned: a new knob shows up here as
    a reviewed edit, and a value no run varies belongs in a constant
    beside the code that reads it."""

    def test_shared_fields(self):
        assert [f.name for f in fields(KernelConfig)] == [
            "local_mem_bytes", "remote_mem_bytes", "net_faults",
            "net_retry", "fabric", "latency"]

    @pytest.mark.parametrize("config, own", [
        (DilosConfig, ["prefetcher", "cleaner_period_us", "tcp_emulation",
                       "shared_single_qp", "swap_cache_mode",
                       "direct_reclaim_only"]),
        (FastswapConfig, []),
        (AifmConfig, ["transport", "prefetch_depth"]),
    ], ids=["dilos", "fastswap", "aifm"])
    def test_own_fields(self, config, own):
        assert issubclass(config, KernelConfig)
        shared = {f.name for f in fields(KernelConfig)}
        assert [f.name for f in fields(config)
                if f.name not in shared] == own

    @pytest.mark.parametrize("surface, deps, settable", [
        (build_redis_service, ["system"],
         ["n_keys", "value_bytes", "skew", "write_fraction"]),
        (RedisServer, ["system", "alloc"], ["guide"]),
        (build_llm_service, ["system"], ["capacity_tokens"]),
    ], ids=["build_redis_service", "RedisServer", "build_llm_service"])
    def test_service_surfaces(self, surface, deps, settable):
        """What a service builder takes beyond the objects it builds on."""
        params = list(inspect.signature(surface).parameters)
        assert params == deps + settable


class TestSystemNames:
    def test_presentation_names(self):
        assert make_system("fastswap", 2 * MIB).name == "Fastswap"
        assert "readahead" in make_system("dilos-readahead", 2 * MIB).name
        assert make_system("dilos-tcp", 2 * MIB).name == "DiLOS-TCP"
        assert make_system("aifm", 2 * MIB).name == "AIFM"
        assert make_system("aifm-rdma", 2 * MIB).name == "AIFM-RDMA"


class TestRng:
    def test_make_rng_independent_streams(self):
        a, b = make_rng(1), make_rng(1)
        assert [a.random() for _ in range(5)] == \
            [b.random() for _ in range(5)]
        assert make_rng(2).random() != make_rng(3).random()

    def test_zipf_weights_shape(self):
        weights = zipf_weights(10, skew=1.0)
        assert len(weights) == 10
        assert weights[0] == 1.0
        assert weights == sorted(weights, reverse=True)

    def test_zipf_weights_bad_n(self):
        with pytest.raises(ValueError):
            zipf_weights(0)


class TestLatencyModel:
    def test_cycles_roundtrip(self):
        model = LatencyModel()
        assert model.cycles(2300) == pytest.approx(1.0)
        assert cycles_to_us(CPU_GHZ * 1000) == pytest.approx(1.0)

    def test_tcp_extra_is_14k_cycles(self):
        assert LatencyModel().tcp_extra == pytest.approx(
            cycles_to_us(14_000))

    def test_sg_overhead_zero_for_single_segment(self):
        model = LatencyModel()
        assert model.sg_overhead(1) == 0.0
        assert model.sg_overhead(0) == 0.0

    def test_exception_sum_matches_figure1(self):
        model = LatencyModel()
        assert model.hw_exception + model.os_fault_entry == \
            pytest.approx(0.57)
