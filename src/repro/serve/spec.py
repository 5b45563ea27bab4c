"""The serving spec grammar and the table of arrival processes.

One spec string describes a whole open-loop serving configuration, the
same way ``backend=``/``repair=`` spec strings describe backends and
repair policies; a run takes it as ``cluster.serve(spec)``::

    "poisson:rate=5k,clients=1m,slo=2ms,requests=4000,seed=7"
    "bursty:rate=2k,burst_rate=20k,on=50ms,off=200ms,slo=500us"
    "diurnal:rate=8k,floor=500,period=1s,clients=1m,slo=1ms"

The text before the colon picks an arrival process from
:data:`ARRIVALS` (a new process is one more entry); the ``key=value``
pairs fill the :class:`ServeSpec`. Scaled numbers accept ``k``/``m``/
``g`` suffixes (``5k`` = 5 000, ``1m`` = 1 000 000 — a million
simulated clients is just a bigger modulus, not a bigger allocation);
durations accept ``us``/``ms``/``s`` and normalize to microseconds.

Common keys: ``rate`` (requests/second), ``clients`` (simulated client
population), ``slo`` (latency objective), ``requests`` (how many
arrivals to generate), ``seed``, ``admission`` (e.g. ``depth/64`` or
``bucket/5k/32``), ``balance`` (``round_robin``/``least``/``hash``).
Kind-specific keys (``burst_rate``, ``on``, ``off`` for ``bursty``;
``floor``, ``period`` for ``diurnal``) land in :attr:`ServeSpec.params`.
Each arrival kind's :data:`ARRIVALS` entry lists the kind-specific keys
it reads, with their value parsers, and a spec carrying any other is
rejected: a key the stream never reads would otherwise be silently
ignored.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Dict, Iterator, Optional, Tuple, Union

from repro.common.specparse import parse_kv_spec, split_kind
from repro.serve.arrivals import (
    Arrival,
    bursty_arrivals,
    diurnal_arrivals,
    poisson_arrivals,
)

#: Spec templates for help text: every kind in :data:`ARRIVALS` with its
#: flavor.
ARRIVAL_SPEC_EXAMPLES = (
    "poisson:rate=5k,clients=1m,slo=2ms",
    "bursty:rate=2k,burst_rate=20k,on=50ms,off=200ms",
    "diurnal:rate=8k,floor=500,period=1s",
)

_SCALED_RE = re.compile(r"^(\d+(?:\.\d+)?)([kmg]?)$", re.IGNORECASE)
_DURATION_RE = re.compile(r"^(\d+(?:\.\d+)?)(us|ms|s)$", re.IGNORECASE)

_SCALE = {"": 1.0, "k": 1e3, "m": 1e6, "g": 1e9}
_TIME_US = {"us": 1.0, "ms": 1e3, "s": 1e6}


def _fmt(value: float) -> str:
    """A float as spec-string text: never exponent notation, so the
    canonical form always re-parses (``1e6`` -> ``"1000000"``)."""
    return str(int(value)) if value == int(value) else repr(value)


def parse_scaled(text: str, what: str = "value") -> float:
    """``"5k"`` -> 5000.0, ``"1.5m"`` -> 1.5e6, ``"250"`` -> 250.0."""
    match = _SCALED_RE.match(text.strip())
    if not match:
        raise ValueError(
            f"bad {what} {text!r}: expected a number with an optional "
            "k/m/g suffix (e.g. '5k', '1m')")
    return float(match.group(1)) * _SCALE[match.group(2).lower()]


def parse_duration_us(text: str, what: str = "duration") -> float:
    """``"2ms"`` -> 2000.0 µs; bare numbers are already microseconds."""
    match = _DURATION_RE.match(text.strip())
    if match:
        return float(match.group(1)) * _TIME_US[match.group(2).lower()]
    try:
        return parse_scaled(text, what)
    except ValueError:
        raise ValueError(
            f"bad {what} {text!r}: expected a duration like '2ms', "
            "'500us', '1s' or a bare microsecond count") from None


@dataclass
class ServeSpec:
    """A declarative description of one open-loop serving run."""

    #: Arrival-process kind, one of :data:`ARRIVALS`.
    kind: str = "poisson"
    #: Mean offered load in requests per second.
    rate_rps: float = 1_000.0
    #: Simulated client population (client ids are drawn from it).
    clients: int = 1_000_000
    #: Latency objective in µs; requests slower than this violate SLO.
    slo_us: float = 2_000.0
    #: How many arrivals to generate.
    requests: int = 2_000
    #: Seed for the arrival/client/request randomness.
    seed: int = 42
    #: Admission policy spec (``"none"``, ``"depth/64"``,
    #: ``"bucket/5k/32"``) — parsed by :mod:`repro.serve.admission`.
    admission: str = "none"
    #: Balancer policy name — parsed by :mod:`repro.serve.balancer`.
    balance: str = "round_robin"
    #: Kind-specific extras (``burst_rate``, ``on``, ``off``, ...); only
    #: the keys the kind's :data:`ARRIVALS` entry lists are accepted.
    params: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        own = _arrival(self.kind)[1]
        stray = sorted(set(self.params) - set(own))
        if stray:
            raise ValueError(
                f"{self.kind} arrivals do not read {', '.join(stray)}; "
                f"{self.kind}'s own keys: {', '.join(own) or 'none'}")
        if self.rate_rps <= 0:
            raise ValueError("rate must be positive")
        if self.clients <= 0:
            raise ValueError("clients must be positive")
        if self.slo_us <= 0:
            raise ValueError("slo must be positive")
        if self.requests <= 0:
            raise ValueError("requests must be positive")

    #: Common spec keys -> (dataclass field, value cast) — the
    #: declarative half of the shared grammar in
    #: :mod:`repro.common.specparse`. Kind-specific keys and their
    #: parsers are listed with the kind in :data:`ARRIVALS`.
    _SPEC_KEYS = {
        "rate": ("rate_rps", lambda v: parse_scaled(v, "rate")),
        "clients": ("clients", lambda v: int(parse_scaled(v, "clients"))),
        "slo": ("slo_us", lambda v: parse_duration_us(v, "slo")),
        "requests": ("requests", lambda v: int(parse_scaled(v, "requests"))),
        "seed": ("seed", int),
        "admission": ("admission", str),
        "balance": ("balance", str),
    }

    @classmethod
    def from_spec(cls, spec: str) -> "ServeSpec":
        """Parse a serve spec string (see the module docstring)."""
        kind, args = split_kind(spec, default="poisson")
        own = _arrival(kind)[1]
        casts = {key: cast for key, (_target, cast) in cls._SPEC_KEYS.items()}
        casts.update((key, partial(parse, what=key))
                     for key, parse in own.items())
        parsed = parse_kv_spec(args, casts, what="serve spec")
        params: Dict[str, float] = {}
        fields: Dict[str, Any] = {"kind": kind, "params": params}
        for key, value in parsed.items():
            if key in own:
                params[key] = value
            else:
                fields[cls._SPEC_KEYS[key][0]] = value
        return cls(**fields)

    def to_spec(self) -> str:
        """The canonical spec-string form (round-trips via from_spec)."""
        parts = [f"rate={_fmt(self.rate_rps)}", f"clients={self.clients}",
                 f"slo={_fmt(self.slo_us)}", f"requests={self.requests}",
                 f"seed={self.seed}"]
        if self.admission != "none":
            parts.append(f"admission={self.admission}")
        if self.balance != "round_robin":
            parts.append(f"balance={self.balance}")
        for key in sorted(self.params):
            parts.append(f"{key}={_fmt(self.params[key])}")
        return f"{self.kind}:{','.join(parts)}"

    def with_overrides(self, **changes: Any) -> "ServeSpec":
        """A copy with fields replaced (presets' naive variants)."""
        return replace(self, **changes)


def coerce_serve_spec(
        value: Union[None, str, ServeSpec]) -> Optional[ServeSpec]:
    """``None``/spec-string/ready-spec -> Optional[ServeSpec]."""
    if value is None or isinstance(value, ServeSpec):
        return value
    if isinstance(value, str):
        return ServeSpec.from_spec(value)
    raise TypeError(f"cluster.serve(spec) expects a spec string or "
                    f"ServeSpec, got {type(value).__name__}")


# -- the arrival processes ---------------------------------------------------

#: An arrival factory: spec -> deterministic iterator of Arrivals.
ArrivalFactory = Callable[[ServeSpec], Iterator[Arrival]]

#: A kind-specific key's value parser: ``(text, what) -> float``, like
#: :func:`parse_scaled` and :func:`parse_duration_us`.
KeyParser = Callable[[str, str], float]

#: Arrival kind -> (its stream, the kind-specific spec keys the stream
#: reads with their value parsers). Those keys land in
#: :attr:`ServeSpec.params`; a spec of the kind carrying any other key is
#: rejected.
ARRIVALS: Dict[str, Tuple[ArrivalFactory, Dict[str, KeyParser]]] = {
    "poisson": (poisson_arrivals, {}),
    "bursty": (bursty_arrivals, {"burst_rate": parse_scaled,
                                 "on": parse_duration_us,
                                 "off": parse_duration_us}),
    "diurnal": (diurnal_arrivals, {"floor": parse_scaled,
                                   "period": parse_duration_us}),
}


def _arrival(kind: str) -> Tuple[ArrivalFactory, Dict[str, KeyParser]]:
    """The :data:`ARRIVALS` entry of ``kind`` (unknown kinds raise)."""
    try:
        return ARRIVALS[kind]
    except KeyError:
        raise ValueError(f"unknown arrival kind {kind!r}; "
                         f"pick from {tuple(ARRIVALS)}") from None


def make_arrivals(spec: ServeSpec) -> Iterator[Arrival]:
    """The deterministic arrival stream described by ``spec``."""
    stream, _keys = _arrival(spec.kind)
    return stream(spec)


__all__ = [
    "ARRIVALS",
    "ARRIVAL_SPEC_EXAMPLES",
    "ArrivalFactory",
    "ServeSpec",
    "coerce_serve_spec",
    "make_arrivals",
    "parse_duration_us",
    "parse_scaled",
]
