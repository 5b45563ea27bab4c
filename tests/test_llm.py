"""Unit tests for the LLM inference workload (:mod:`repro.apps.llm`):
the pure token/KV model, the KV-cache engines, the generate loop, the
serving port with finished-sequence eviction, and the P:D plumbing.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.apps.api import Request, build_service
from repro.apps.llm import (
    KvCache,
    LlmConfig,
    LlmWorkload,
    PdSweepRunner,
    TieringPolicy,
    attn_positions,
    best_split_per_ratio,
    generate,
    kv_entry,
    make_kv_cache,
    next_token,
    parse_pd_split,
    prompt_tokens,
    sample_requests,
    token_stream_digest,
)
from repro.common.units import MIB
from repro.harness import make_system

_CFG = LlmConfig(layers=2, heads=2, head_dim=16, max_tokens=32,
                 attn_window=4)


def _system(kind: str = "dilos-readahead"):
    return make_system(kind, 256 * 1024, remote_bytes=16 * MIB)


# -- config / policy validation ----------------------------------------------

def test_config_geometry():
    cfg = LlmConfig(layers=3, heads=4, head_dim=8, max_tokens=16)
    assert cfg.entry_bytes == 32
    assert cfg.kv_token_bytes == 2 * 3 * 32
    assert cfg.seq_bytes == 16 * cfg.kv_token_bytes


@pytest.mark.parametrize("bad", [
    dict(layers=0), dict(heads=-1), dict(head_dim=0), dict(vocab=0),
    dict(max_tokens=0), dict(attn_window=0), dict(attn_window=17),
])
def test_config_rejects_bad_dimensions(bad):
    with pytest.raises(ValueError):
        LlmConfig(**bad)


def test_tiering_policy_validation():
    TieringPolicy(hot_layers=0, capacity_tokens=None)
    with pytest.raises(ValueError):
        TieringPolicy(hot_layers=-1)
    with pytest.raises(ValueError):
        TieringPolicy(capacity_tokens=0)


# -- the pure model -----------------------------------------------------------

def test_kv_entry_deterministic_and_tiled():
    a = kv_entry(7, 3, 1, 0, 32)
    assert a == kv_entry(7, 3, 1, 0, 32)
    assert len(a) == 32
    assert a != kv_entry(7, 3, 1, 1, 32), "K and V must differ"
    big = kv_entry(7, 3, 1, 0, 100)
    assert len(big) == 100
    assert big[64:] == big[:36], "entries beyond one block tile it"


def test_prompt_tokens_are_a_prefix_stable_stream():
    short = prompt_tokens(5, 4, 1000)
    long = prompt_tokens(5, 40, 1000)
    assert short == long[:4]
    assert all(0 <= t < 1000 for t in long)
    assert prompt_tokens(6, 4, 1000) != short


def test_attn_positions_bounded_by_history_and_window():
    assert attn_positions(1, 0, 0, 8) == []
    few = attn_positions(1, 3, 0, 8)
    assert len(few) == 3 and all(0 <= p < 3 for p in few)
    full = attn_positions(1, 100, 0, 8)
    assert len(full) == 8 and all(0 <= p < 100 for p in full)
    assert full == attn_positions(1, 100, 0, 8)
    assert full != attn_positions(1, 100, 1, 8), "layers draw differently"


def test_next_token_depends_on_gathered_bytes():
    assert 0 <= next_token(b"abc", 5, 100) < 100
    assert next_token(b"abc", 5, 1 << 20) != next_token(b"abd", 5, 1 << 20)
    assert next_token(b"abc", 5, 1 << 20) != next_token(b"abc", 6, 1 << 20)


def test_token_stream_digest_is_order_and_framing_sensitive():
    assert token_stream_digest([[1, 2], [3]]) \
        != token_stream_digest([[1], [2, 3]])
    assert token_stream_digest([[1, 2]]) == token_stream_digest([[1, 2]])


# -- KV-cache engines ---------------------------------------------------------

def test_kv_cache_round_trips_model_bytes():
    system = _system()
    cache = KvCache(system, _CFG)
    prompt = prompt_tokens(9, 6, _CFG.vocab)
    cache.write_prompt(prompt)
    assert cache.n_tokens == 6
    cache.append(1234)
    want = b"".join(
        kv_entry(tok, pos, 1, 0, _CFG.entry_bytes)
        for pos, tok in [(2, prompt[2]), (6, 1234)]) + b"".join(
        kv_entry(tok, pos, 1, 1, _CFG.entry_bytes)
        for pos, tok in [(2, prompt[2]), (6, 1234)])
    assert cache.gather(1, [2, 6]) == want
    cache.free()


def test_kv_cache_rejects_misuse():
    system = _system()
    cache = KvCache(system, _CFG)
    cache.write_prompt([1, 2, 3])
    with pytest.raises(ValueError):
        cache.write_prompt([4])          # prompt must come first, once
    with pytest.raises(ValueError):
        KvCache(system, _CFG, name="big").write_prompt(
            list(range(_CFG.max_tokens + 1)))
    cache.free()


def test_aifm_engine_matches_paged_engine_digest():
    paged = make_kv_cache(_system("dilos-readahead"), _CFG)
    ported = make_kv_cache(_system("aifm-rdma"), _CFG)
    assert type(paged).__name__ == "KvCache"
    assert type(ported).__name__ == "AifmKvCache"
    prompt = prompt_tokens(3, 5, _CFG.vocab)
    for cache in (paged, ported):
        cache.write_prompt(prompt)
        cache.append(77)
        cache.append(9999)
    assert paged.gather(0, [1, 4]) == ported.gather(0, [1, 4])
    assert paged.kv_digest() == ported.kv_digest()


def test_pd_transfer_units_round_trip():
    system = _system()
    src = KvCache(system, _CFG, name="src")
    dst = KvCache(system, _CFG, name="dst")
    src.write_prompt(prompt_tokens(2, 7, _CFG.vocab))
    for layer in range(_CFG.layers):
        for half in (0, 1):
            dst.write_layer(layer, half, src.read_layer(layer, half), 7)
    assert dst.n_tokens == 7
    assert dst.kv_digest() == src.kv_digest()
    with pytest.raises(ValueError):
        dst.write_layer(0, 0, b"xx", 7)


# -- the generate loop --------------------------------------------------------

def test_generate_validates_lengths():
    system = _system()
    cache = KvCache(system, _CFG)
    with pytest.raises(ValueError):
        generate(system, cache, _CFG, seed=1, prompt_len=0, out_len=2)
    with pytest.raises(ValueError):
        generate(system, cache, _CFG, seed=1, prompt_len=30, out_len=10)


def test_generate_zero_output_prefills_only():
    system = _system()
    cache = KvCache(system, _CFG)
    run = generate(system, cache, _CFG, seed=1, prompt_len=8, out_len=0)
    assert run.output == []
    assert run.tpot_us == 0.0
    assert run.ttft_us > 0.0
    assert cache.n_tokens == 8


def test_workload_counters_and_result_shape():
    workload = LlmWorkload(n_requests=3, seed=7, config=_CFG,
                           prompt_min=4, prompt_max=8, out_min=2, out_max=4)
    system = _system()
    result = workload.run(system)
    assert result.requests == 3
    assert result.decoded_tokens == sum(len(o) for o in result.outputs)
    snap = system.metrics()
    assert snap.value("llm.requests") == 3
    assert snap.value("llm.prefill_tokens") == result.prefill_tokens
    assert snap.value("llm.decode_tokens") == result.decoded_tokens
    assert snap.value("llm.kv_bytes_written") > 0
    assert snap.value("llm.kv_bytes_gathered") > 0


# -- the serving port ---------------------------------------------------------

def test_llm_service_handles_generate_and_rejects_junk():
    service = build_service("llm", _system())
    bad = service.handle(Request("get", key=b"x"))
    assert not bad.ok and "generate" in bad.error
    malformed = service.handle(Request("generate", args=(1, 2)))
    assert not malformed.ok
    invalid = service.handle(Request("generate", args=(1, 0, 2)))
    assert not invalid.ok
    good = service.handle(Request("generate", args=(11, 6, 3)))
    assert good.ok
    assert good.value["tokens"] == 3
    assert good.value["ttft_us"] > 0.0
    again = service.handle(Request("generate", args=(11, 6, 3)))
    assert again.value["last_token"] == good.value["last_token"]


#: What a leaked KV cache leaves behind on each engine: a mapped region
#: (paged kernels) or remote heap the bump allocator never returns (AIFM).
_KV_FOOTPRINT = {
    "dilos-readahead": lambda system: len(system.addr_space.regions()),
    "aifm-rdma": lambda system: system._remote_bump,
}


@pytest.mark.parametrize("kind", sorted(_KV_FOOTPRINT))
def test_llm_service_rejected_request_maps_no_kv_cache(kind):
    """A generate that fails length validation maps no KV cache, but
    still counts as a request."""
    system = _system(kind)
    service = build_service("llm", system)  # max_tokens=64
    footprint = _KV_FOOTPRINT[kind]
    before = footprint(system)
    for seed in range(5):
        reply = service.handle(Request("generate", args=(seed, 60, 10)))
        assert not reply.ok and "exceeds max_tokens" in reply.error
    assert footprint(system) == before
    assert system.metrics().value("llm.requests") == 5


def test_llm_service_evicts_finished_sequences_beyond_capacity():
    system = _system()
    service = build_service("llm", system, capacity_tokens=24)
    rng = random.Random(3)
    for _ in range(8):
        assert service.handle(service.sample_request(rng)).ok
    assert system.metrics().value("llm.seqs_evicted") > 0
    assert service._cached_tokens <= 24 or len(service._finished) == 1


# -- P:D plumbing -------------------------------------------------------------

def test_parse_pd_split():
    assert parse_pd_split("3:1") == (3, 1)
    for bad in ("31", "3:1:2", "a:b", "0:2", "2:-1"):
        with pytest.raises(ValueError):
            parse_pd_split(bad)


def test_sweep_runner_is_picklable_and_rejects_aifm():
    runner = PdSweepRunner("dilos-readahead", n_requests=4)
    assert pickle.loads(pickle.dumps(runner)).kind == "dilos-readahead"
    with pytest.raises(ValueError):
        PdSweepRunner("aifm-rdma")("1:1", 0.5)


def test_best_split_per_ratio_picks_minimum():
    class Cell:
        def __init__(self, system, ratio, value):
            self.system, self.ratio, self.value = system, ratio, value

    cells = [Cell("1:1", 0.25, 5.0), Cell("1:3", 0.25, 3.0),
             Cell("1:1", 1.0, 2.0), Cell("1:3", 1.0, 4.0)]
    assert best_split_per_ratio(cells) == {0.25: "1:3", 1.0: "1:1"}


def test_sample_requests_bounds_and_determinism():
    reqs = sample_requests(16, seed=5, prompt_min=4, prompt_max=9,
                           out_min=0, out_max=3)
    assert reqs == sample_requests(16, seed=5, prompt_min=4, prompt_max=9,
                                   out_min=0, out_max=3)
    assert all(4 <= r.prompt_len <= 9 and 0 <= r.out_len <= 3
               for r in reqs)
    with pytest.raises(ValueError):
        sample_requests(4, seed=5, prompt_min=0, prompt_max=3)
