"""Shared substrate: units, simulated time, RNG, statistics, and errors."""

from repro.common.clock import Clock
from repro.common.errors import (
    ReproError,
    FaultError,
    InvalidAddressError,
    OutOfMemoryError,
    ProtectionError,
)
from repro.common.stats import Histogram, LatencyBreakdown, percentile
from repro.common.units import (
    KIB,
    MIB,
    GIB,
    PAGE_SHIFT,
    PAGE_SIZE,
    align_down,
    align_up,
    format_bytes,
    pages_spanned,
)

__all__ = [
    "Clock",
    "FaultError",
    "GIB",
    "Histogram",
    "InvalidAddressError",
    "KIB",
    "LatencyBreakdown",
    "MIB",
    "OutOfMemoryError",
    "PAGE_SHIFT",
    "PAGE_SIZE",
    "ProtectionError",
    "ReproError",
    "align_down",
    "align_up",
    "format_bytes",
    "pages_spanned",
    "percentile",
]
