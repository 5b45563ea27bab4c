"""Every script in ``examples/`` runs to completion.

Each runs in a fresh interpreter, the way a reader runs it
(``python examples/NAME.py``), and must exit 0; the examples assert their
own results, so a metric read under a name the registry does not hold
fails here.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Examples that take seconds rather than a fraction of one.
SLOW = {"redis_app_aware.py"}


@pytest.mark.parametrize("script", [
    pytest.param(path, id=path.stem,
                 marks=[pytest.mark.slow] if path.name in SLOW else [])
    for path in sorted((ROOT / "examples").glob("*.py"))])
def test_example_exits_zero(script):
    path = os.pathsep.join(p for p in (str(ROOT / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT,
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
