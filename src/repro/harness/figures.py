"""The paper's evaluation grids as data: one entry per table or figure.

§6 has one shape, a workload swept over systems x local-memory ratios.
:data:`FIGURES` holds each grid over a single-system builder of
:mod:`repro.harness.scenarios`; ``python -m repro figure <id>`` and the
benchmarks both run it through :func:`run_figure`. Importing this module
loads no app module.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.units import KIB
from repro.core.spec import BackendSpec
from repro.harness import scenarios
from repro.harness.experiment import (APP_AWARE, PAPER_RATIOS, Measurement,
                                      sweep_ratios)
from repro.harness.scenarios import Run


def _ms(report: Any) -> float:
    return report.elapsed_us / 1000.0


@dataclass(frozen=True)
class Figure:
    """One paper table or figure: a builder swept over a grid."""

    title: str
    #: A single-system builder of :mod:`repro.harness.scenarios`.
    builder: Callable[..., Run]
    systems: Tuple[str, ...]
    ratios: Tuple[float, ...]
    #: The builder's workload arguments.
    params: Mapping[str, Any]
    #: The entry of ``params`` that ``--size`` sets.
    size: str
    #: The cell's value, read from the builder's report.
    value: Callable[[Any], float]
    unit: str


_PAGING = ("fastswap", "dilos-none", "dilos-readahead", "dilos-trend")
_ACROSS = ("fastswap", "dilos-readahead", "dilos-tcp", "aifm")
_SPREAD = (0.125, 0.50, 1.0)
_TIGHT = (0.125,)
_REDIS = ("fastswap", "dilos-none", "dilos-readahead", "dilos-trend",
          APP_AWARE)
_GRAPH = dict(nodes=8192, edges=120_000)
_SNAPPY = dict(n_files=3, file_bytes=384 * KIB)


def _seq(mode: str) -> Figure:
    return Figure(f"Table 2: sequential {mode} throughput, 12.5% local",
                  scenarios.seqrw, _PAGING, _TIGHT,
                  dict(mib=16, mode=mode), "mib", attrgetter("gb_per_s"),
                  "GB/s")


def _redis(panel: str, requests: str, **params: Any) -> Figure:
    return Figure(f"Figure 10({panel}): Redis {requests} throughput, "
                  "12.5% local", scenarios.redis, _REDIS, _TIGHT, params,
                  "n_queries", attrgetter("requests_per_second"), "req/s")


#: figure id -> grid, in the paper's order.
FIGURES: Dict[str, Figure] = {
    "table2-read": _seq("read"),
    "table2-write": _seq("write"),
    "fig7a": Figure("Figure 7(a): quicksort completion time",
                    scenarios.quicksort, _PAGING, PAPER_RATIOS,
                    dict(count=1 << 16), "count", _ms, "ms"),
    "fig7b": Figure("Figure 7(b): k-means completion time",
                    scenarios.kmeans, _PAGING, PAPER_RATIOS,
                    dict(n_points=1 << 15, clusters=10, iterations=3),
                    "n_points", _ms, "ms"),
    "fig7c": Figure("Figure 7(c): snappy compression", scenarios.snappy,
                    _ACROSS, _SPREAD, dict(_SNAPPY, mode="compress"),
                    "n_files", _ms, "ms"),
    "fig7d": Figure("Figure 7(d): snappy decompression", scenarios.snappy,
                    _ACROSS, _SPREAD, dict(_SNAPPY, mode="decompress"),
                    "n_files", _ms, "ms"),
    "fig8": Figure("Figure 8: NYC taxi on DataFrame, completion time",
                   scenarios.dataframe, _ACROSS, PAPER_RATIOS,
                   dict(rows=1 << 16), "rows", _ms, "ms"),
    "fig9a": Figure("Figure 9(a): GAPBS PageRank processing time",
                    scenarios.gapbs, ("fastswap", "dilos-readahead"), _SPREAD,
                    dict(_GRAPH, algorithm="pagerank"), "nodes", _ms, "ms"),
    "fig9b": Figure("Figure 9(b): GAPBS betweenness centrality time",
                    scenarios.gapbs, ("fastswap", "dilos-readahead"), _SPREAD,
                    dict(_GRAPH, algorithm="bc"), "nodes", _ms, "ms"),
    "fig10a": _redis("a", "GET 4KB", value_size=4096, n_keys=900,
                     n_queries=1800),
    "fig10b": _redis("b", "GET 64KB", value_size=65536, n_keys=120,
                     n_queries=400),
    "fig10c": _redis("c", "GET mixed", value_size="mixed", n_keys=220,
                     n_queries=700),
    "fig10d": _redis("d", "LRANGE", lrange=True, n_keys=400,
                     n_queries=700),
}


def report_fields(report: Any) -> Dict[str, Any]:
    """A report's scalar fields and dicts (the taxi answers): all but
    its metrics snapshot and latency histogram."""
    return {name: value for name, value in vars(report).items()
            if isinstance(value, (int, float, str, dict))}


def report_rows(report: Any, prefix: str = "") -> List[List[Any]]:
    """A report as ``[field, value]`` rows, one per scalar leaf: a dict
    report reads as it is, any other as its :func:`report_fields`, and
    nested dicts flatten to dotted fields (``latency.p99``,
    ``per_tenant.decode0.major_faults``). ``None`` has no rows."""
    if report is None:
        return []
    rows: List[List[Any]] = []
    fields = report if isinstance(report, dict) else report_fields(report)
    for key, value in fields.items():
        if isinstance(value, dict):
            rows.extend(report_rows(value, f"{prefix}{key}."))
        elif isinstance(value, (int, float, str)):
            rows.append([f"{prefix}{key}", value])
    return rows


def _figure(name: str, size: Optional[int]) -> Figure:
    if name not in FIGURES:
        raise ValueError(f"unknown figure {name!r}; pick from "
                         f"{list(FIGURES)}")
    if size is not None and size <= 0:
        raise ValueError(f"size {size} is not positive")
    return FIGURES[name]


def run_cell(name: str, kind: str, ratio: float, size: Optional[int] = None,
             **boot: Any) -> Run:
    """Boot and run one cell of figure ``name``; ``boot`` goes to the
    builder (``backend``, ``net_faults``, ``obs``)."""
    figure = _figure(name, size)
    params = dict(figure.params)
    if size is not None:
        params[figure.size] = size
    return figure.builder(kind=kind, ratio=ratio, **params, **boot)


class _Cell:
    """Picklable cell runner: ``--jobs`` ships it to pool workers, which
    look the figure up by name."""

    def __init__(self, name: str, size: Optional[int],
                 boot: Mapping[str, Any]) -> None:
        self.name = name
        self.size = size
        self.boot = dict(boot)

    def __call__(self, kind: str, ratio: float,
                 backend: BackendSpec) -> Measurement:
        figure = FIGURES[self.name]
        run = run_cell(self.name, kind, ratio, self.size, backend=backend,
                       **self.boot)
        measurement = Measurement(
            "", "", 0.0, value=figure.value(run.report), unit=figure.unit,
            extra={"result": report_fields(run.report)})
        return measurement.record_metrics(run.target)


def run_figure(name: str, systems: Optional[Sequence[str]] = None,
               ratios: Optional[Sequence[float]] = None,
               size: Optional[int] = None, jobs: Optional[int] = None,
               backend: BackendSpec = "node",
               **boot: Any) -> List[Measurement]:
    """Run figure ``name``'s grid (or ``systems`` x ``ratios``), with
    ``size`` as its size parameter if given, in ``jobs`` processes.

    Each :class:`Measurement` carries the cell's metrics snapshot in
    ``extra["metrics"]`` and its :func:`report_fields` in
    ``extra["result"]``. An unknown id, a size below one or a system a
    builder refuses raises ``ValueError``. Give ``net_faults`` as a spec
    string: each cell then parses its own plan, so a cell's faults do not
    depend on the cells run before it.
    """
    figure = _figure(name, size)
    return sweep_ratios(name, _Cell(name, size, boot),
                        systems or figure.systems, ratios or figure.ratios,
                        backend=backend, jobs=jobs)


__all__ = [
    "FIGURES",
    "Figure",
    "report_fields",
    "report_rows",
    "run_cell",
    "run_figure",
]
