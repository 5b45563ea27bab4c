"""Differential suite: the LLM workload's determinism invariant.

The token-level inference model (:mod:`repro.apps.llm`) derives every
KV-cache byte and every sampled token from seeds alone, so the *token
stream* and the *KV-cache bytes* (both folded into digests) are a pure
function of ``(config, request seeds)`` — never of where the bytes
lived or how they moved. This suite checks that invariant everywhere
the simulator can vary placement and movement:

* across kernels (DiLOS, Fastswap, the AIFM port) and local-memory
  ratios — paging and eviction must not perturb a byte;
* the KV cache's batch calls vs the scalar loops they stand for, byte-,
  clock- and digest-exact;
* under seeded ``net_faults`` plans, where remote transfers ride the
  reliable transport's drop/delay schedule — timing moves, data never;
* single-node vs every prefill/decode disaggregation split, where KV
  caches are handed between tenants through explicit transfers.
"""

from __future__ import annotations

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.llm import PD_CONFIG, LlmConfig, LlmWorkload, run_pd
from repro.harness import local_bytes_for, make_system
from repro.net.faults import RetryPolicy
from tests.test_batch_differential import scalar_batches

#: Small enough that one generate() run is milliseconds, big enough
#: that quarter-local runs actually page (4 layers of KV per token).
_CONFIG = LlmConfig(layers=2, heads=2, head_dim=16, max_tokens=64,
                    attn_window=4)
_KINDS = ["dilos-readahead", "fastswap", "aifm-rdma"]


def _run_single(kind: str, seed: int, ratio: float = 0.25,
                n: int = 3, net_faults=None,
                backend="node", config: LlmConfig = _CONFIG,
                **bounds):
    workload = LlmWorkload(n_requests=n, seed=seed, config=config,
                           prompt_min=bounds.get("prompt_min", 8),
                           prompt_max=bounds.get("prompt_max", 24),
                           out_min=bounds.get("out_min", 3),
                           out_max=bounds.get("out_max", 8))
    extra = {}
    if net_faults is not None:
        extra = {"net_faults": net_faults,
                 "net_retry": RetryPolicy(max_attempts=12)}
    system = make_system(kind,
                         local_bytes_for(workload.footprint_bytes, ratio),
                         backend=backend, **extra)
    return workload.run(system), system


@functools.lru_cache(maxsize=None)
def _reference(seed: int):
    """Ground truth: everything local, DiLOS."""
    result, _ = _run_single("dilos-readahead", seed, ratio=1.0)
    return result.token_digest, result.kv_digest, result.decoded_tokens


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 16),
       kind=st.sampled_from(_KINDS),
       ratio=st.sampled_from([0.125, 0.5, 1.0]))
def test_tokens_invariant_across_kernels_and_ratios(seed, kind, ratio):
    """Same seeds -> same token stream and KV bytes on every kernel at
    every memory ratio: paging/eviction never perturbs a byte."""
    want_tok, want_kv, want_n = _reference(seed)
    result, _ = _run_single(kind, seed, ratio=ratio)
    assert result.token_digest == want_tok, (
        f"{kind}@{ratio}: token stream diverged from the all-local run")
    assert result.kv_digest == want_kv, (
        f"{kind}@{ratio}: KV-cache bytes diverged")
    assert result.decoded_tokens == want_n


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 16),
       kind=st.sampled_from(["dilos-readahead", "fastswap"]))
def test_batch_matches_scalar_exactly(seed, kind):
    """The KV cache's batch calls are invisible: run as scalar loops,
    not just tokens but the simulated clock and the full metrics digest
    must collide."""
    b, b_sys = _run_single(kind, seed)
    with scalar_batches():
        s, s_sys = _run_single(kind, seed)
    assert b.token_digest == s.token_digest
    assert b.kv_digest == s.kv_digest
    assert b_sys.clock.now == s_sys.clock.now
    assert b_sys.metrics().digest() == s_sys.metrics().digest()


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2 ** 12),
       fault_seed=st.integers(0, 2 ** 16))
def test_net_faults_change_timing_never_tokens(seed, fault_seed):
    """Dropped and delayed remote transfers (with retries) on a sharded
    backend: the wire gets slower, the answer stays identical."""
    want_tok, want_kv, _ = _reference(seed)
    plan = f"drop=0.03,delay=0.03,delay_us=12,seed={fault_seed}"
    result, _ = _run_single("dilos-readahead", seed, net_faults=plan,
                            backend="sharded:2")
    assert result.token_digest == want_tok, (
        f"net-fault plan {plan!r} corrupted the token stream")
    assert result.kv_digest == want_kv


@functools.lru_cache(maxsize=None)
def _pd_reference(seed: int):
    """Single-node ground truth matching run_pd's request distribution."""
    result, _ = _run_single("dilos-readahead", seed, ratio=1.0, n=6,
                            config=PD_CONFIG, prompt_min=24, prompt_max=56,
                            out_min=8, out_max=16)
    return result.token_digest, result.kv_digest, result.decoded_tokens


@settings(max_examples=6, deadline=None)
@given(split=st.sampled_from(["1:1", "3:1", "1:3", "2:2"]),
       kind=st.sampled_from(["dilos-readahead", "fastswap"]),
       seed=st.integers(0, 2 ** 10),
       ratio=st.sampled_from([0.25, 1.0]))
def test_pd_split_matches_single_node(split, kind, seed, ratio):
    """Prefill/decode disaggregation relocates the KV cache through
    explicit transfers and re-orders work across tenants — the token
    stream and KV bytes still match the single-node run exactly."""
    want_tok, want_kv, want_n = _pd_reference(seed)
    pd = run_pd(kind, ratio=ratio, split=split, n_requests=6, seed=seed)
    assert pd.token_digest == want_tok, (
        f"{kind} {split}@{ratio}: disaggregated token stream diverged")
    assert pd.kv_digest == want_kv
    assert pd.decoded_tokens == want_n
    assert pd.kv_transfer_bytes > 0, "P:D ran without any KV transfer"


@settings(max_examples=3, deadline=None)
@given(fault_seed=st.integers(0, 2 ** 16))
def test_pd_under_net_faults_matches_single_node(fault_seed):
    """The full gauntlet at once: disaggregated, sharded, faulty wire."""
    want_tok, want_kv, _ = _pd_reference(31)
    plan = f"drop=0.02,delay=0.02,delay_us=10,seed={fault_seed}"
    pd = run_pd("dilos-readahead", ratio=0.25, split="1:2",
                n_requests=6, seed=31, net_faults=plan,
                net_retry=RetryPolicy(max_attempts=12))
    assert pd.token_digest == want_tok
    assert pd.kv_digest == want_kv
