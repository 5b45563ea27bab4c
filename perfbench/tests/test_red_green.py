"""Red-green self-test: a slowed layer turns its own row red.

For one entry point from each group (fault path, network, topology) a
fixed host delay is added and the benchmark re-run:

* the stressed workload's ``host_ops_per_s`` must drop by more than its
  bound, and the slowed layer's ``self_us_per_op`` must rise by more
  than that bound;
* the workload that bypasses the layer must keep ``host_ops_per_s``
  within the bound.

Run from the repository root (takes about three minutes):

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from functools import lru_cache
from typing import Dict

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
SECONDS = "2"

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}["host_ops_per_s"]

#: (entry point, delay µs, stressed workload, its layer, bypass workload)
CASES = [
    ("repro.mem.page_table:PageTable.get", 20.0, "rack_redis",
     "mem.page_table", "kv_chaos"),
    ("repro.net.reliable:ReliableQP.post_write", 50.0, "kv_chaos",
     "net.reliable", "rack_redis"),
    ("repro.net.topology:FabricPort.charge", 40.0, "rack_redis",
     "net.topology", "llm_pd"),
]


@lru_cache(maxsize=None)
def bench(workload: str, trace: int, slow: str = "",
          delay_us: float = 0.0) -> Dict[str, float]:
    """One benchmark run's metrics (optionally with a slowed method)."""
    args = ["--workload", workload, "--seed", "7", "--seconds", SECONDS,
            "--trace", str(trace)]
    if slow:
        cmd = [sys.executable, os.path.join(HERE, "slowed.py"), slow,
               str(delay_us)] + args
    else:
        cmd = [sys.executable, os.path.join(BENCH, "run.py")] + args
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=300, check=False)
    assert proc.returncode == 0, proc.stdout[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: m["value"] for k, m in result["metrics"].items()}


@pytest.mark.parametrize("target,delay_us,stressed,layer,bypass", CASES)
def test_slowed_layer_turns_its_row_red(target, delay_us, stressed, layer,
                                        bypass):
    clean = bench(stressed, 0)["host_ops_per_s"]
    slowed = bench(stressed, 0, target, delay_us)["host_ops_per_s"]
    assert slowed < clean * (1 - BOUND), (
        f"{stressed}: {clean:.1f} -> {slowed:.1f} ops/s")

    key = f"{layer}.self_us_per_op"
    clean_self = bench(stressed, 1)[key]
    slowed_self = bench(stressed, 1, target, delay_us)[key]
    assert slowed_self > clean_self * (1 + BOUND), (
        f"{key}: {clean_self:.2f} -> {slowed_self:.2f} us")

    clean = bench(bypass, 0)["host_ops_per_s"]
    slowed = bench(bypass, 0, target, delay_us)["host_ops_per_s"]
    assert abs(slowed - clean) <= clean * BOUND, (
        f"bypass {bypass}: {clean:.1f} -> {slowed:.1f} ops/s")


def test_benchmark_json_lists_every_traced_metric():
    sys.path.insert(0, BENCH)
    import run

    listed = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert listed == run.per_layer_units()
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] \
        == list(run.END_TO_END)
