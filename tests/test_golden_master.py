"""Golden-master determinism suite.

Every scenario pinned below runs from the registry
(:data:`repro.harness.scenarios.SCENARIOS`) with fixed seeds, and must
reproduce a SHA-256 digest of its full
:class:`~repro.obs.snapshot.MetricsSnapshot` (every counter, gauge,
breakdown and histogram summary) plus its final simulated clock. The
pins cover DiLOS, Fastswap and AIFM over sequential, Redis, k-means,
dataframe and LLM workloads (the P:D run the benchmark times included),
the replicated KV chaos run, the serve and tenancy presets, the repair
demo, and every ``python -m repro perf`` case, whose checksums and
simulated times are thereby held bit-identical. Every serve scenario
pinned in ``TRACE_DIGESTS`` must also reproduce its per-request trace
digest, which holds routing, admission and the trace-line format fixed.

The first digests were captured on the *unoptimized* hot path, before
the coalesced-TLB/fast-clock work landed. Any refactor that shifts
simulated time or any canonical metric — even by one count — fails here
loudly; that is the contract that lets the hot path be rewritten freely.

If a change *intentionally* alters simulated behavior (a new latency
component, a new metric), print fresh pins for the affected scenarios::

    PYTHONPATH=src python tests/test_golden_master.py [NAME ...]

paste them over the stale rows of ``GOLDEN`` and ``TRACE_DIGESTS``
(re-run ``python -m repro perf`` when perf cases moved, so
``BENCH_perf.json`` agrees; ``test_bench_perf_rows_match_golden``
checks that it does), and explain why in the commit message. A new
registry scenario is pinned the same way: print its rows and add them.

A change that alters only the digest's *format* (what
``MetricsSnapshot.canonical_json`` serializes) and no simulated result
re-pins with a proof rather than an assertion. In a scratch copy of the
parent commit, apply only the format change to ``canonical_json``, run
this file as a script there, and check that it prints exactly the
change's ``GOLDEN`` rows; ``perfbench/run.py --workload all --seed 1
--seconds 1 --trace 0`` must print the same ``fingerprint`` lines on both
trees too. The clocks and ``TRACE_DIGESTS`` do not move. Then paste the
digests here and into the ``checksum`` fields of ``BENCH_perf.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.harness.scenarios import SCENARIOS

#: registry scenario -> (metrics digest, final simulated clock in us).
GOLDEN = {
    "seqread_dilos_small": (
        "2fbec84365ccb96b9e5fdac74f44b22556f8a94406ed954389e1db4fb7702bf2",
        527.5879199999995),
    "seqread_fastswap_small": (
        "3f5de7ce3cea54b0c8f15daf02d8359a03f0c2161dc179402ffb96d133599d64",
        2187.0835519999628),
    "seqscan_aifm_small": (
        "7490ad2722c6ae4625d089a9e6b94abf8b4fb54c3ff3e7b17fc4b05f10ee9462",
        14.888069565217304),
    "redis_get_dilos_small": (
        "b86bc46688f06da110df4d46419149e8c598e83174235e746c65a63b5edf0cb2",
        5362.223680695648),
    "redis_get_fastswap_small": (
        "8225c78f09ea96ba7690e5ea897d278fa50e729a6538b6aeb587fe5f1a4e9dab",
        5899.989016695649),
    "kmeans_dilos_small": (
        "aef5b1968470991932ca89059c4e3d5edaf74a3adaff5a4c6479fa86bc8427f0",
        160.3185391304348),
    "dataframe_dilos_small": (
        "218b6c08018427cef9838d165a185dca01e79fe648c69697523e7fe1fd924680",
        372.0654045217385),
    # LLM inference: prefill writes + windowed random decode gathers over
    # the paged KV cache (see repro/apps/llm.py).
    "llm_dilos": (
        "c787bb267157a0f0d69087078f17aba8edf65e79de42173ad1b6629debdfd6de",
        106.2514086956507),
    "llm_fastswap": (
        "b2804aec630773a195ad790871547e9781adae5e481840e41e7cf3e07ab437e3",
        126.0914086956507),
    "llm_aifm": (
        "4176a25d3e6768e650d5a42a7fcf15a64b4e04c1c70fd70e4004c36eee1e3dd9",
        125.61444730435211),
    # Deliberately the SAME row as llm_dilos: a healthy sharded backend
    # changes page *placement*, never anything the simulation observes.
    "llm_dilos_sharded": (
        "c787bb267157a0f0d69087078f17aba8edf65e79de42173ad1b6629debdfd6de",
        106.2514086956507),
    # The replicated KV service under the full chaos schedule (lossy
    # wire, lease-holder kill, rejoin + background resilver at serving
    # load); the digest includes the end-of-run lost-update audit.
    "kv_failover": (
        "d41afa6b0ee825fb24bab650e11f1ff4723af19ddaf5c8deda23f03b414d294e",
        1006.9989255652341),
    # The perf suite's cases (``python -m repro perf``), pinned to the
    # checksums and simulated times in BENCH_perf.json.
    "seqread_dilos": (
        "b78a19fa0337e2ee3e90103a3c30175faf7e377f380065024e434cc75504ff1d",
        1293.1071999999942),
    "seqread_dilos_cold": (
        "6c814568a879f168527008a026a89304357c660a180ffb64056e5ac84d6cba77",
        870.426623999977),
    "seqwrite_dilos": (
        "fd961790af1e87fb8116326cd3c07a20ee758a55a3bc7d9124854f8371f4e9e3",
        870.426623999977),
    "seqread_fastswap": (
        "64464f8aa4c96fdc9de015dfe64db6d81f0567f14c8adc95b8faffcd62541e66",
        4213.588528000009),
    "seqscan_aifm": (
        "d1d1a1598cded6c5e405acb35e37f68eece13e233a5151c209709cb3425e2d0b",
        220.38768417390605),
    "quicksort_dilos": (
        "238afe06b92df5a94a7f5f45e0330adcc722cc77d19d24c91aebe06eb8bde439",
        314.87032542493654),
    "redis_get_dilos": (
        "a780bba3e6e8b5063a54a062bd196f965acb5f6a3dc010cd063e7c9f085f2b70",
        9855.08205843394),
    "redis_get_fastswap": (
        "4ce3fa8ba6b11557459148fd7326bdb8e9830dfb63cdaa253a691871a7759a77",
        20147.906122433225),
    "kmeans_dilos": (
        "9b67a0fb7a34af5b068961a9aa1a54804b19742181d03b877d7f11b554506596",
        5523.134733217407),
    "dataframe_dilos": (
        "85c96ef31e9cb72147e286c5791f3a0dd2037389502329b1b78116029cf952b2",
        2655.1676681739054),
    "llm_decode_dilos": (
        "aff07399b027e7a0525ddd6e0cb08a0aed4ea0dbc3a93616f5fc123a1715b385",
        1486.9782316524168),
    # The run_pd call perfbench's llm_pd workload times, at seed 31: the
    # benchmark itself only compares tokens and KV bytes, so this row is
    # what holds P:D's clock and metrics fixed.
    "llm_pd": (
        "0e5954c04d2a0accb17ddbb9290df21cc9e71bc480b0a7cc0678e6f40450ba8c",
        4262.0802379130155),
    "rack_redis_pool": (
        "bc265f9e660c9e4911762f003909c191d4c75725467c420ee1b9346836e14b8e",
        1999.4197405216028),
    "kv_get_replicated": (
        "ca179a610aa0e77140625a5b1789da1b54ba4793b440502fe377dd79ae26415c",
        559.1403457391355),
    # The serve presets: admission shedding (flash_crowd), the token
    # bucket with TTFT/TPOT recording (llm_flash_crowd), hash routing
    # (hot_key_skew), least-outstanding routing around a laggard
    # (slow_tenant_isolation), and the default rack preset.
    "flash_crowd": (
        "6fc5765f3faa6bf31aee011d37ffcdb75eceab7726830b01dde10ac230fc0c73",
        6880.394209391396),
    "llm_flash_crowd": (
        "cd16d34cf99752a8fb09f5a182795f74596830879e1f3f2673e0352de3c53282",
        793.8481739130189),
    "hot_key_skew": (
        "4ccf1edabf49be7195606061bbee4cabea4ab523126579914df2cce0e590b558",
        11390.122527307478),
    "slow_tenant_isolation": (
        "cff206dba0ccc50282091d673770a82f31aaef7f4eb1f8001cb116f8436806dd",
        7654.423551304407),
    "rack": (
        "ae47dfdbfcf358238f6ec199f9189d2993fd21702c4286b13cf8bfe8f1eb6fdd",
        8014.499804521779),
    # The repro tenants presets (round-robin tenants bound to the
    # cluster's backend) and the single-node repair demo (a repair
    # manager built right after boot).
    "kmeans+redis": (
        "789c9b725a29c3c2e2abeca7a70d389d08eea236d23bcf38b2439f6201aec0ba",
        3735.825035826087),
    "stream-duo": (
        "89915269f865e5b27d48f6a2d5f9a2307dd67f5a550939e59b267d7ac9d880e7",
        5988.13811199984),
    "mixed-trio": (
        "bde221053a597404ecf7f975b6ba251b0c8dc7f5e9d4838c50cea24688755912",
        5336.850971825899),
    "repair_demo": (
        "9cac6539d70a2103d94d2a3e7b14287f48631b03b57ff2850a72e0db1c3ab172",
        34607.48518400448),
}

#: serve scenario -> SHA-256 of its per-request trace lines (arrival
#: time, client, tenant, op, routing key, admit/shed, latency), which
#: pins the trace-line format and every routing and admission decision.
TRACE_DIGESTS = {
    "flash_crowd":
        "f87723d01a87233c6d18b42c555a3e73354a29a9d2b7bb5cd62c2f15b3841429",
    "llm_flash_crowd":
        "2fac100de7a60eed4cb8885f20f23accd572d7a1e45cb1a039eba4e919ac10cc",
    "hot_key_skew":
        "bc9bf4f638f0d02f661e509bf078ca64a82d8e4be1d9177a107a235473ab5737",
    "slow_tenant_isolation":
        "1aba7050d7a09f0f143771fd9d4b8fcdf58cdfbe6f6fc78cbe39a15f826562f1",
    "rack":
        "bc4a941992a5241a5a64d983e2cd70d7a05b9e183212dc6fb484f21c97ec6cc2",
    "kv_failover":
        "ab14f13d7adc39e36d6efb2387e8b5c69ef8598638008a0596577eeae003b38f",
    "kv_get_replicated":
        "0870c36377793d13445ca8eba746565895f2f465eac4940b927a6d5d38038f74",
    "rack_redis_pool":
        "db4737c2c8985fdf272ec94423809af11ed5b55f31fd831207a6d8ac5788ce24",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_master(name):
    run = SCENARIOS[name].build()
    want_digest, want_clock = GOLDEN[name]
    # A numpy scalar in the clock would make it depend on numpy's math
    # library, and would print as ``np.float64(...)`` below.
    assert type(run.sim_us) is float, type(run.sim_us)
    assert run.sim_us == want_clock, (
        f"{name}: simulated clock moved — {run.sim_us} us, "
        f"golden {want_clock} us. A hot-path change altered simulated "
        "time; fix it or deliberately re-capture (see module docstring).")
    snapshot = run.target.metrics()
    assert snapshot.digest() == want_digest, (
        f"{name}: metrics digest changed while the clock matched — some "
        "counter/gauge/histogram shifted. Diff the canonical JSON:\n"
        f"{snapshot.canonical_json()}")
    if name in TRACE_DIGESTS:
        assert run.report.trace_digest == TRACE_DIGESTS[name], (
            f"{name}: serve trace digest changed while the metrics held — "
            "a request's arrival, routing, admission or latency moved, or "
            "the trace-line format did.")


def test_every_trace_pin_is_a_golden_scenario():
    assert set(TRACE_DIGESTS) <= set(GOLDEN)


def test_bench_perf_rows_match_golden():
    """Every ``BENCH_perf.json`` row carries its scenario's pinned metrics
    digest (as ``checksum``) and simulated clock; no simulation runs."""
    path = Path(__file__).resolve().parents[1] / "BENCH_perf.json"
    rows = json.loads(path.read_text())["benchmarks"]
    assert rows
    for row in rows:
        assert (row["checksum"], row["sim_us"]) == GOLDEN[row["name"]], \
            row["name"]


def test_digest_is_stable_within_process():
    """Two identical runs in one process must collide on the digest."""
    first = SCENARIOS["seqread_dilos_small"].build().digest()
    second = SCENARIOS["seqread_dilos_small"].build().digest()
    assert first == second


if __name__ == "__main__":
    traces = {}
    print("GOLDEN = {")
    for name in sys.argv[1:] or sorted(GOLDEN):
        run = SCENARIOS[name].build()
        print(f'    "{name}": (\n'
              f'        "{run.digest()}",\n'
              f'        {run.sim_us!r}),')
        digest = getattr(run.report, "trace_digest", None)
        if digest is not None:
            traces[name] = digest
    print("}\n\nTRACE_DIGESTS = {")
    for name, digest in traces.items():
        print(f'    "{name}":\n        "{digest}",')
    print("}")
