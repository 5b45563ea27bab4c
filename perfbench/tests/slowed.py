"""Run the benchmark with a fixed host delay added at one entry point.

    python3 perfbench/tests/slowed.py repro.mem.page_table:PageTable.get 5 \\
        --workload rack_redis --seed 1 --seconds 2 --trace 0

The delay (µs, busy-waited on the host clock) is installed on the class
before anything boots, so the traced run's recorder wraps the slowed
method and charges the delay to that method's layer. Used by the
red-green self-test; the benchmark itself has no such option.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402  (records the process start first)


def slow_down(target: str, delay_us: float) -> None:
    """Add ``delay_us`` of host busy-wait to ``module:Class.method``."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for name in path:
        owner = getattr(owner, name)
    original = vars(owner)[attr]
    delay_s = delay_us / 1e6

    @functools.wraps(original)
    def slowed(*args, **kwargs):
        end = perf_counter() + delay_s
        while perf_counter() < end:
            pass
        return original(*args, **kwargs)

    setattr(owner, attr, slowed)


def main() -> int:
    target, delay_us, *argv = sys.argv[1:]
    sys.path.insert(0, run.SRC)
    slow_down(target, float(delay_us))
    return run.main(argv)


if __name__ == "__main__":
    sys.exit(main())
