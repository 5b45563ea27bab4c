"""A column-store DataFrame library + the NYC-taxi analytics workload
(Figure 8).

The paper runs the C++ DataFrame library over the New York City taxi-trip
data set (40 GB working set, AIFM's own benchmark). We build the pieces
from scratch at simulation scale:

* :class:`DataFrame` — typed columns living in far memory, with chunked
  scan/filter/groupby/reduce operators (compute charged per element);
* :func:`generate_taxi` — a synthetic generator shaped like the taxi data
  (timestamps, passenger counts, trip distances, fares with realistic
  correlations);
* :class:`TaxiAnalyticsWorkload` — the query mix of the AIFM benchmark:
  derive trip duration, aggregate by passenger count, filter long trips,
  and compute fare statistics;
* the AIFM port, whose columns are remoteable arrays paying a presence
  check per element — the cost that makes AIFM 50-83% slower than the
  paging systems when memory is plentiful (§6.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.core.api import BaseSystem
from repro.baselines.aifm import AifmRuntime, RemArray
from repro.apps.views import PagedArray
from repro.obs.snapshot import MetricsSnapshot

#: Elements per processed chunk (4 pages of float64).
CHUNK = 2048
#: Charged compute per element for a simple columnar operator.
OP_CYCLES = 3.0


class DataFrame:
    """Named, typed far-memory columns of equal length."""

    def __init__(self, system: BaseSystem, length: int) -> None:
        if length <= 0:
            raise ValueError("length must be positive")
        self.system = system
        self.length = length
        self._columns: Dict[str, PagedArray] = {}

    def add_column(self, name: str, dtype=np.float64) -> PagedArray:
        if name in self._columns:
            raise ValueError(f"column {name!r} already exists")
        column = PagedArray(self.system, self.length, dtype,
                            name=f"df-{name}")
        self._columns[name] = column
        return column

    def column(self, name: str) -> PagedArray:
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(f"no column {name!r}") from None

    # -- chunked operators ----------------------------------------------------

    def _scan(self, names: List[str]):
        columns = [self.column(n) for n in names]
        for start in range(0, self.length, CHUNK):
            stop = min(start + CHUNK, self.length)
            yield start, stop, [c.load(start, stop) for c in columns]

    def reduce(self, name: str, func: Callable[[np.ndarray], float],
               combine: Callable[[float, float], float], init: float) -> float:
        """Chunked reduction of one column."""
        acc = init
        for start, stop, (chunk,) in self._scan([name]):
            self.system.cpu_cycles((stop - start) * OP_CYCLES)
            acc = combine(acc, float(func(chunk)))
        return acc

    def mean(self, name: str) -> float:
        total = self.reduce(name, np.sum, lambda a, b: a + b, 0.0)
        return total / self.length

    def max(self, name: str) -> float:
        return self.reduce(name, np.max, max, -np.inf)

    def min(self, name: str) -> float:
        return self.reduce(name, np.min, min, np.inf)

    def filter_count(self, name: str,
                     predicate: Callable[[np.ndarray], np.ndarray]) -> int:
        """Count rows where ``predicate(chunk)`` is true."""
        count = 0
        for start, stop, (chunk,) in self._scan([name]):
            self.system.cpu_cycles((stop - start) * OP_CYCLES)
            count += int(predicate(chunk).sum())
        return count

    def groupby_count(self, name: str, n_groups: int) -> np.ndarray:
        """Histogram of an integer column over ``[0, n_groups)``."""
        counts = np.zeros(n_groups, dtype=np.int64)
        for start, stop, (chunk,) in self._scan([name]):
            self.system.cpu_cycles((stop - start) * OP_CYCLES)
            counts += np.bincount(chunk.astype(np.int64),
                                  minlength=n_groups)[:n_groups]
        return counts

    def derive(self, out_name: str, in_names: List[str],
               func: Callable[..., np.ndarray], dtype=np.float64) -> None:
        """Materialize ``out = func(*columns)`` as a new column."""
        out = self.add_column(out_name, dtype)
        for start, stop, chunks in self._scan(in_names):
            self.system.cpu_cycles((stop - start) * OP_CYCLES * len(in_names))
            out.store(start, func(*chunks).astype(dtype))

    def covariance(self, a: str, b: str) -> float:
        """Chunked covariance of two columns."""
        n = self.length
        s_a = s_b = s_ab = 0.0
        for start, stop, (ca, cb) in self._scan([a, b]):
            self.system.cpu_cycles((stop - start) * OP_CYCLES * 2)
            s_a += float(ca.sum())
            s_b += float(cb.sum())
            s_ab += float((ca * cb).sum())
        return s_ab / n - (s_a / n) * (s_b / n)


# -- the taxi data set --------------------------------------------------------

TAXI_COLUMNS: Tuple[str, ...] = (
    "pickup_ts", "dropoff_ts", "passenger_count", "trip_distance", "fare")

MAX_PASSENGERS = 7


def taxi_chunk(rng: np.random.Generator, rows: int) -> Dict[str, np.ndarray]:
    """One chunk of synthetic taxi trips with realistic correlations."""
    pickup = rng.integers(1_540_000_000, 1_570_000_000, size=rows)
    distance = rng.gamma(shape=2.0, scale=1.6, size=rows)
    duration = (distance * 180 + rng.normal(300, 120, rows)).clip(60, None)
    fare = 2.5 + distance * 2.0 + rng.normal(0, 1.5, rows).clip(-2, None)
    passengers = rng.integers(1, MAX_PASSENGERS, size=rows)
    return {
        "pickup_ts": pickup.astype(np.int64),
        "dropoff_ts": (pickup + duration).astype(np.int64),
        "passenger_count": passengers.astype(np.int64),
        "trip_distance": distance,
        "fare": fare,
    }


def generate_taxi(system: BaseSystem, rows: int, seed: int = 5) -> DataFrame:
    """Build the taxi DataFrame in far memory."""
    df = DataFrame(system, rows)
    dtypes = {"pickup_ts": np.int64, "dropoff_ts": np.int64,
              "passenger_count": np.int64, "trip_distance": np.float64,
              "fare": np.float64}
    for name in TAXI_COLUMNS:
        df.add_column(name, dtypes[name])
    rng = np.random.default_rng(seed)
    for start in range(0, rows, CHUNK):
        stop = min(start + CHUNK, rows)
        chunk = taxi_chunk(rng, stop - start)
        for name in TAXI_COLUMNS:
            df.column(name).store(start, chunk[name])
    return df


@dataclass
class TaxiResult:
    rows: int
    elapsed_us: float
    answers: Dict[str, float]
    metrics: MetricsSnapshot


class TaxiAnalyticsWorkload:
    """The Figure 8 query mix over the synthetic taxi data."""

    def __init__(self, rows: int = 1 << 17, seed: int = 5) -> None:
        self.rows = rows
        self.seed = seed

    @property
    def footprint_bytes(self) -> int:
        # 5 source columns + 1 derived, 8 bytes each.
        return 6 * self.rows * 8

    def run(self, system: BaseSystem) -> TaxiResult:
        df = generate_taxi(system, self.rows, self.seed)
        begin = system.clock.now
        answers = {}
        df.derive("duration", ["dropoff_ts", "pickup_ts"],
                  lambda d, p: d - p, dtype=np.int64)
        answers["mean_distance"] = df.mean("trip_distance")
        by_passengers = df.groupby_count("passenger_count", MAX_PASSENGERS)
        answers["busiest_party_size"] = float(by_passengers.argmax())
        answers["long_trips"] = float(
            df.filter_count("trip_distance", lambda d: d > 10.0))
        answers["max_duration"] = df.max("duration")
        answers["mean_fare"] = df.mean("fare")
        answers["fare_distance_cov"] = df.covariance("trip_distance", "fare")
        elapsed = system.clock.now - begin
        return TaxiResult(rows=self.rows, elapsed_us=elapsed, answers=answers,
                          metrics=system.metrics())

    # -- AIFM port ---------------------------------------------------------------

    def run_aifm(self, runtime: AifmRuntime) -> TaxiResult:
        rng = np.random.default_rng(self.seed)
        columns: Dict[str, RemArray] = {
            name: RemArray(runtime, self.rows, item_size=8)
            for name in TAXI_COLUMNS}
        for start in range(0, self.rows, CHUNK):
            stop = min(start + CHUNK, self.rows)
            chunk = taxi_chunk(rng, stop - start)
            for name in TAXI_COLUMNS:
                self._store_np(columns[name], start, chunk[name])
        deref = runtime.model.aifm_deref_check

        def scan(name: str):
            """Chunked scan paying a remoteable-pointer check per element."""
            arr = columns[name]
            for ci, raw in enumerate(arr.scan_chunks()):
                runtime.clock.advance(len(raw) // 8 * deref)
                yield ci, np.frombuffer(raw, dtype=np.float64)

        def scan_i64(name: str):
            for ci, chunk in scan(name):
                yield ci, chunk.view(np.int64)

        begin = runtime.clock.now
        answers: Dict[str, float] = {}
        # Derive duration.
        duration = RemArray(runtime, self.rows, item_size=8)
        columns["duration"] = duration
        pickups = dict(scan_i64("pickup_ts"))
        for ci, drop in scan_i64("dropoff_ts"):
            runtime.cpu_cycles(len(drop) * OP_CYCLES * 2)
            values = (drop - pickups[ci]).astype(np.int64)
            runtime.clock.advance(len(values) * deref)
            duration.write_chunk(ci, values.tobytes())
        del pickups
        # Aggregations.
        total = 0.0
        for _ci, chunk in scan("trip_distance"):
            runtime.cpu_cycles(len(chunk) * OP_CYCLES)
            total += float(chunk.sum())
        answers["mean_distance"] = total / self.rows
        counts = np.zeros(MAX_PASSENGERS, dtype=np.int64)
        for _ci, chunk in scan_i64("passenger_count"):
            runtime.cpu_cycles(len(chunk) * OP_CYCLES)
            counts += np.bincount(chunk, minlength=MAX_PASSENGERS)[:MAX_PASSENGERS]
        answers["busiest_party_size"] = float(counts.argmax())
        long_trips = 0
        for _ci, chunk in scan("trip_distance"):
            runtime.cpu_cycles(len(chunk) * OP_CYCLES)
            long_trips += int((chunk > 10.0).sum())
        answers["long_trips"] = float(long_trips)
        peak = -np.inf
        for _ci, chunk in scan_i64("duration"):
            runtime.cpu_cycles(len(chunk) * OP_CYCLES)
            peak = max(peak, float(chunk.max()))
        answers["max_duration"] = peak
        total_fare = 0.0
        for _ci, chunk in scan("fare"):
            runtime.cpu_cycles(len(chunk) * OP_CYCLES)
            total_fare += float(chunk.sum())
        answers["mean_fare"] = total_fare / self.rows
        s_a = s_b = s_ab = 0.0
        fares = dict(scan("fare"))
        for ci, dist in scan("trip_distance"):
            runtime.cpu_cycles(len(dist) * OP_CYCLES * 2)
            s_a += float(dist.sum())
            s_b += float(fares[ci].sum())
            s_ab += float((dist * fares[ci]).sum())
        answers["fare_distance_cov"] = (s_ab / self.rows
                                        - (s_a / self.rows) * (s_b / self.rows))
        elapsed = runtime.clock.now - begin
        return TaxiResult(rows=self.rows, elapsed_us=elapsed, answers=answers,
                          metrics=runtime.metrics())

    @staticmethod
    def _store_np(arr: RemArray, start: int, values: np.ndarray) -> None:
        raw = values.astype(values.dtype.newbyteorder("=")).tobytes()
        per_chunk = arr.items_per_chunk * arr.item_size
        cursor = 0
        index = start
        while cursor < len(raw):
            ci = index // arr.items_per_chunk
            offset = (index % arr.items_per_chunk) * arr.item_size
            take = min(per_chunk - offset, len(raw) - cursor)
            arr._chunks[ci].write(raw[cursor:cursor + take], offset)
            cursor += take
            index += take // arr.item_size
        arr._runtime.registry.add("dataframe.bulk_stores")


# -- the Service port ----------------------------------------------------------

class DataFrameService:
    """The taxi DataFrame behind the unified Service protocol.

    Serving-shaped analytics: each request is a *windowed* aggregate over
    one column (``mean``/``max``/``min``/``count_over`` of rows
    ``[start, stop)``), the dashboard-query analogue of the batch Figure 8
    mix. Windows page the addressed column stripe in through the MMU and
    charge compute per element, so a request's cost scales with its
    window — and the request key (``column:window``) gives consistent-hash
    balancers real locality to exploit.
    """

    name = "taxi"

    #: Columns a request may address (duration is derived at build time).
    QUERY_COLUMNS = ("trip_distance", "fare", "duration")
    OPS = ("mean", "max", "min", "count_over")

    def __init__(self, df: "DataFrame", window: int = 4096) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.df = df
        self.window = window

    # -- the Service protocol ------------------------------------------------

    def handle(self, request):
        from repro.apps.api import Response

        if request.op not in self.OPS:
            return Response.fail(f"unknown op {request.op!r}; "
                                 f"have {sorted(self.OPS)}")
        column_name = request.key.decode() if request.key else "fare"
        try:
            column = self.df.column(column_name)
        except KeyError as exc:
            return Response.fail(str(exc))
        start, stop = (request.args[0], request.args[1]) if \
            len(request.args) >= 2 else (0, self.df.length)
        start = max(0, min(int(start), self.df.length))
        stop = max(start, min(int(stop), self.df.length))
        if stop == start:
            return Response.fail("empty window")
        total = count = 0.0
        peak = -np.inf
        trough = np.inf
        threshold = float(request.args[2]) if len(request.args) > 2 else 10.0
        for lo in range(start, stop, CHUNK):
            hi = min(lo + CHUNK, stop)
            chunk = column.load(lo, hi)
            self.df.system.cpu_cycles((hi - lo) * OP_CYCLES)
            total += float(chunk.sum())
            peak = max(peak, float(chunk.max()))
            trough = min(trough, float(chunk.min()))
            count += float((chunk > threshold).sum())
        answers = {"mean": total / (stop - start), "max": peak,
                   "min": trough, "count_over": count}
        return Response(value=answers[request.op])

    def sample_request(self, rng):
        """A seeded draw over (op, column, window): uniform ops/columns,
        window starts aligned to the service's window size."""
        from repro.apps.api import Request

        op = self.OPS[rng.randrange(len(self.OPS))]
        column = self.QUERY_COLUMNS[rng.randrange(len(self.QUERY_COLUMNS))]
        windows = max(1, self.df.length // self.window)
        start = rng.randrange(windows) * self.window
        stop = min(start + self.window, self.df.length)
        return Request(op, key=column.encode(), args=(start, stop))


def build_taxi_service(system, rows: int = 1 << 14, window: int = 4096,
                       seed: int = 5) -> DataFrameService:
    """Boot + populate one taxi analytics service on ``system``.

    Generates the synthetic taxi columns in far memory (deterministic in
    ``seed``) and derives the duration column, then serves windowed
    aggregates over them.
    """
    df = generate_taxi(system, rows, seed)
    df.derive("duration", ["dropoff_ts", "pickup_ts"],
              lambda d, p: d - p, dtype=np.int64)
    return DataFrameService(df, window=window)


# Self-register with the global service registry (late import: repro.apps
# .api knows this module by name, so `SERVICES.build("taxi", ...)` works
# without importing repro.apps.dataframe up front).
from repro.apps.api import SERVICES as _SERVICES  # noqa: E402

_SERVICES.register("taxi", build_taxi_service)
