"""Machine-speed probe: a fixed pure-Python loop timed between chunks.

The reference host is a shared container whose speed drifts: the loop
below takes ~5 ms or ~8.5 ms depending on which vCPU runs it and what
shares that core, and the two swap within seconds. Measured in plain
host seconds, two sets of ten runs of unchanged code put kv_chaos at
medians of 24.4k and then 19.2k ops/s, with spreads (inter-quartile
range over median) up to 0.20. The probe's time, taken right before and
after every timed interval, rescales that interval to a nominal machine
speed: drift slows the probe and the simulator alike and cancels. With
rescaling, two sets of ten runs spread by 0.05-0.09 on every workload
and their medians agreed within 8%. A change to the simulator does not
touch the probe, which runs none of its code.
"""

from __future__ import annotations

from time import perf_counter

#: Probe time that defines a nominal second: an interval of ``seconds``
#: measured while the probe takes ``probe_s`` counts as
#: ``seconds * NOMINAL_S / probe_s`` nominal seconds. Close to the
#: probe's time on the reference host, so nominal seconds read like
#: host seconds there.
NOMINAL_S = 0.008

#: Loop trips per probe.
_TRIPS = 4000


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _loop() -> int:
    """Interpreter work of the kind the simulator does: calls, slot
    attributes, dict and list traffic, small bytes and int arithmetic."""
    table = {}
    cells = []
    buf = bytearray(4096)
    x = 1
    acc = 0
    for i in range(_TRIPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        cell = _Cell(x & 0x3FF, i)
        table[cell.key] = cell
        cells.append(cell)
        other = table.get((x >> 10) & 0x3FF)
        if other is not None:
            acc += other.value
        buf[x & 0xFFF] = i & 0xFF
        acc += len(bytes(buf[(x & 0x7FF):(x & 0x7FF) + 64]))
        if len(cells) > 512:
            cells.pop(0)
    return acc


def probe() -> float:
    """Fastest of three timings of the fixed loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _loop()
        best = min(best, perf_counter() - t0)
    return best


def nominal(seconds: float, before: float, after: float) -> float:
    """``seconds`` of host time, measured between probes taking
    ``before`` and ``after``, in nominal seconds."""
    return seconds * NOMINAL_S * 2.0 / (before + after)
