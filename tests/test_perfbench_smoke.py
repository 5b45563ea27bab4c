"""Each benchmark workload in ``perfbench/`` builds and runs one checked
chunk.

The benchmark reads more of the program than its outputs: the shims in
``perfbench/workloads.py`` check every answer against the service's own
model of its keyspace. This test runs each workload the way
``perfbench/run.py`` does, for one chunk at seed 1, so a change that
stops the program giving the benchmark what it reads fails here.
The module is loaded by path under another name, so no module named
``workloads`` becomes importable.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_chunk_runs_and_checks(name):
    workload = WORKLOADS[name](seed=1)
    workload.setup()
    workload.prepare(0)
    workload.run_chunk()
    workload.account(0)
    assert workload.mismatches + workload.check() == []
    assert workload.failed == 0
    assert workload.ok == workload.attempted > 0
    assert workload.fingerprint
