"""The serving and paging paths boot and run without numpy.

Importing numpy takes longer than building most serving scenarios, so only
the numpy-native apps and parity XOR import it, and only when they run.
Each case runs in a fresh interpreter, because an earlier test in this
process has long since loaded numpy.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Prepended to every child script: exits non-zero naming the first step
#: after which numpy is loaded.
_PROBE = """\
import sys

def check(step):
    if "numpy" in sys.modules:
        sys.exit(f"numpy was loaded by: {step}")
"""

_IMPORTS = _PROBE + """\
import repro
check("import repro")
import repro.cli
check("import repro.cli")
import repro.harness.scenarios
check("import repro.harness.scenarios")
import repro.harness.figures
check("import repro.harness.figures")
"""

_BUILDS = _PROBE + """\
from repro.harness.scenarios import SCENARIOS
for name in sys.argv[1:]:
    SCENARIOS[name].build()
    check(f"building {name}")
"""

# ``python -m repro ARGS``, with the check after the command returns.
_MAIN = _PROBE + """\
import runpy
command = "python -m repro " + " ".join(sys.argv[1:])
sys.argv = ["repro"] + sys.argv[1:]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    if exc.code:
        raise
check(command)
"""


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH"))
                           if p)
    return subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))


def test_imports_do_not_load_numpy():
    proc = _run(_IMPORTS)
    assert proc.returncode == 0, proc.stderr


def test_serving_kv_rack_and_repair_scenarios_do_not_load_numpy():
    proc = _run(_BUILDS, "kv_failover", "rack_redis_pool", "flash_crowd",
                "repair_demo")
    assert proc.returncode == 0, proc.stderr


def test_llm_scenarios_page_through_the_batch_engine_without_numpy():
    proc = _run(_BUILDS, "llm_pd", "llm_dilos")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command", [
    "systems", "run", "run kv_failover --once", "run llm_pd --once",
    "run llm_dilos --once", "figure",
    "figure table2-read --systems dilos-readahead --size 1"])
def test_cli_command_does_not_load_numpy(command):
    proc = _run(_MAIN, *command.split())
    assert proc.returncode == 0, proc.stderr
