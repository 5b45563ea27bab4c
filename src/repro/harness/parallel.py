"""Multiprocessing fan-out for benchmark grids.

``repro figure`` and ``repro sweep`` evaluate independent cells (one
booted system per figure × kernel × ratio, one cluster per P:D split ×
ratio, or one rack per placement × oversubscription);
each cell is deterministic given its spec, so the grid can be
distributed across cores without changing a single result. This module
is the one place that policy lives: :func:`fanout` is an
order-preserving parallel map over picklable cells. ``jobs <= 1`` (or a
single cell) degrades to the plain serial loop, so serial and parallel
runs share one code path and produce identical merged results.

Workers must be module-level functions and cells must be picklable; the
pool uses ``fork`` where available (no re-import cost) and falls back to
``spawn``.
"""

from __future__ import annotations

import multiprocessing as mp
from typing import Callable, List, Optional, Sequence, TypeVar

Cell = TypeVar("Cell")
Result = TypeVar("Result")


def fanout(worker: Callable[[Cell], Result], cells: Sequence[Cell],
           jobs: Optional[int] = None) -> List[Result]:
    """Run ``worker(cell)`` for every cell; results in input order.

    ``jobs`` of ``None``, 0 or 1 means serial (same code path the pool
    workers take, so outputs are identical by construction). ``worker``
    must be a module-level function and every cell picklable when
    ``jobs > 1``.
    """
    cells = list(cells)
    if jobs is None or jobs <= 1 or len(cells) <= 1:
        return [worker(cell) for cell in cells]
    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    ctx = mp.get_context(method)
    with ctx.Pool(processes=min(jobs, len(cells))) as pool:
        # pool.map preserves input order regardless of completion order.
        return pool.map(worker, cells)
