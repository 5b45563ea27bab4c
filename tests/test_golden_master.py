"""Golden-master determinism suite.

Every scenario pinned below runs from the registry
(:data:`repro.harness.scenarios.SCENARIOS`) with fixed seeds, and must
reproduce a SHA-256 digest of its full
:class:`~repro.obs.snapshot.MetricsSnapshot` (every counter, gauge,
breakdown and histogram summary) plus its final simulated clock. The
pins cover DiLOS, Fastswap and AIFM over sequential, Redis, k-means,
dataframe and LLM workloads, the replicated KV chaos run, and every
``python -m repro perf`` case, whose checksums and simulated times are
thereby held bit-identical.

The first digests were captured on the *unoptimized* hot path, before
the coalesced-TLB/fast-clock work landed. Any refactor that shifts
simulated time or any canonical metric — even by one count — fails here
loudly; that is the contract that lets the hot path be rewritten freely.

If a change *intentionally* alters simulated behavior (a new latency
component, a new metric), print fresh pins for the affected scenarios::

    PYTHONPATH=src python tests/test_golden_master.py [NAME ...]

paste them over the stale rows of ``GOLDEN`` (re-run ``python -m repro
perf`` when perf cases moved, so ``BENCH_perf.json`` agrees), and
explain why in the commit message. A new registry scenario is pinned
the same way: print its row and add it.
"""

from __future__ import annotations

import sys

import pytest

from repro.harness.scenarios import SCENARIOS

#: registry scenario -> (metrics digest, final simulated clock in us).
GOLDEN = {
    "seqread_dilos_small": (
        "82f68d85aa88a847569fcc953fea561e461c6a6a5fc87d10657f3567a82ee93f",
        527.5879199999995),
    "seqread_fastswap_small": (
        "0db0fcfbc87f7b421a57c0bb0ccedfd6b19c8fb0d70cd826ee735dfe9da36217",
        2187.0835519999628),
    "seqscan_aifm_small": (
        "aa8168eb9db9d59bb2918a03a064a9fc4913fc233216b8b708a07a95610eb6f1",
        14.888069565217304),
    "redis_get_dilos_small": (
        "4688a2b5e4f86b069c0c959b6ba52a7bbaeaacaa779d5a8c3fb21813dc8c7965",
        5362.223680695648),
    "redis_get_fastswap_small": (
        "16bcfef36370161a3ea18e9e18dfe35d8f705ffe8f6e06c62614731a61947533",
        5899.989016695649),
    "kmeans_dilos_small": (
        "e6414fdf35a08e3e53cdf640213262d32dfe4727e999788af7a98f9712b748c6",
        160.3185391304348),
    "dataframe_dilos_small": (
        "6cdd6fe25f70a1a625f18c3b97e96ddb2f1d910873306d682f2a41d0a9a3456c",
        372.0654045217385),
    # The *_batch scenarios force the vectorized batch engine on and are
    # pinned to the SAME digests as their *_small scalar twins above: the
    # batch engine's exactness contract (see repro/mem/batch.py) is that
    # span-vectorized execution changes nothing the simulation observes.
    "redis_get_dilos_batch": (
        "4688a2b5e4f86b069c0c959b6ba52a7bbaeaacaa779d5a8c3fb21813dc8c7965",
        5362.223680695648),
    "kmeans_dilos_batch": (
        "e6414fdf35a08e3e53cdf640213262d32dfe4727e999788af7a98f9712b748c6",
        160.3185391304348),
    "dataframe_dilos_batch": (
        "6cdd6fe25f70a1a625f18c3b97e96ddb2f1d910873306d682f2a41d0a9a3456c",
        372.0654045217385),
    # LLM inference: prefill writes + windowed random decode gathers over
    # the paged KV cache (see repro/apps/llm.py).
    "llm_dilos": (
        "5c2712afaa8e365d5c16c9c60a3759f9c31db2523afc6698f165dc924d5667a9",
        106.2514086956507),
    "llm_fastswap": (
        "93abac674986ec97196d24fecff9c2ca99376c2c35b29e52e679f604386f7944",
        126.0914086956507),
    "llm_aifm": (
        "f9ff1806039b972ddc774f3ecaf25cb4a9c59f7ad1d9527288f26313a69e588c",
        125.61444730435211),
    # Deliberately the SAME row as llm_dilos: a healthy sharded backend
    # changes page *placement*, never anything the simulation observes.
    "llm_dilos_sharded": (
        "5c2712afaa8e365d5c16c9c60a3759f9c31db2523afc6698f165dc924d5667a9",
        106.2514086956507),
    # Batch twin, same digest as the scalar run — the exactness contract.
    "llm_dilos_batch": (
        "5c2712afaa8e365d5c16c9c60a3759f9c31db2523afc6698f165dc924d5667a9",
        106.2514086956507),
    # The replicated KV service under the full chaos schedule (lossy
    # wire, lease-holder kill, rejoin + background resilver at serving
    # load); the digest includes the end-of-run lost-update audit.
    "kv_failover": (
        "69916c60cde3dfb0b14a49af9278085817846c0d68ebc85aa35095375ac6b507",
        1006.9989255652341),
    # The perf suite's cases (``python -m repro perf``), pinned to the
    # checksums and simulated times in BENCH_perf.json.
    "seqread_dilos": (
        "f2112cf86807e048fcb052200cfe308111027c234cb8043b38004025d2e35c52",
        1293.1071999999942),
    "seqread_dilos_cold": (
        "ae520dc3652b00b38dd01aed1fb9c4282b001064258195464f28fe5b5555867a",
        870.426623999977),
    "seqwrite_dilos": (
        "96d22aabc481f296ecfd11e36b7fb674ec1d9c33597a776476ed2bbdd2579c1d",
        870.426623999977),
    "seqread_fastswap": (
        "b7060fb39ee67122c40239c9108f264173e7c76d405c2050fa38e6f8471de520",
        4213.588528000009),
    "seqscan_aifm": (
        "196cc8cf3257533f4db2969d6859bb95c91b95c105852137502e71d20e635dfd",
        220.38768417390605),
    "quicksort_dilos": (
        "d77366519ef14aec80f587fef03ddae6161b11876ab2241a4035e7f80e7fc20e",
        314.87032542493654),
    "redis_get_dilos": (
        "b9f7929081adb42591ba16674931c693e9227b00850d8895e9114bd57b66c5ac",
        9855.08205843394),
    "redis_get_fastswap": (
        "2823a71abb88203892daa2b69e035bbecb857b27cf0db906649bbbeb6e703a15",
        20147.906122433225),
    "kmeans_dilos": (
        "fd28ffc2c0c56c70d07fcd789690119dbcd584a9bc93912615c98ca56f56811a",
        5523.134733217407),
    "dataframe_dilos": (
        "6d22243ca124a8bf98a4fefd33f7ab36bf2ccb9a5fcee128bc6b99b5bc8679a6",
        2655.1676681739054),
    "llm_decode_dilos": (
        "7e8c01e138845ebe0416d0c96ace45f4035ace99eefc494de9a74801ae8745bf",
        1486.9782316524168),
    "rack_redis_pool": (
        "49f9ae7bb1c427fa690c051c5d36614bcca6146ef712bd7acf0fea2047198403",
        1999.4197405216028),
    "kv_get_replicated": (
        "787c19fa327006b0bf90fc26c5669a0a666e948bc987d45a902a82a2abbffc82",
        559.1403457391355),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_master(name):
    run = SCENARIOS[name].build()
    want_digest, want_clock = GOLDEN[name]
    assert run.sim_us == want_clock, (
        f"{name}: simulated clock moved — {run.sim_us} us, "
        f"golden {want_clock} us. A hot-path change altered simulated "
        "time; fix it or deliberately re-capture (see module docstring).")
    snapshot = run.target.metrics()
    assert snapshot.digest() == want_digest, (
        f"{name}: metrics digest changed while the clock matched — some "
        "counter/gauge/histogram shifted. Diff the canonical JSON:\n"
        f"{snapshot.canonical_json()}")


def test_digest_is_stable_within_process():
    """Two identical runs in one process must collide on the digest."""
    first = SCENARIOS["seqread_dilos_small"].build().digest()
    second = SCENARIOS["seqread_dilos_small"].build().digest()
    assert first == second


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(GOLDEN):
        run = SCENARIOS[name].build()
        print(f'    "{name}": (\n'
              f'        "{run.digest()}",\n'
              f'        {run.sim_us!r}),')
