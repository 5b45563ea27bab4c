"""Admission control: decide, per arrival, whether to serve or shed.

Open-loop overload has no natural backpressure — arrivals keep coming at
the process rate no matter how far behind the servers fall, so an
unprotected queue grows without bound and the p99 latency grows with it.
Admission control trades a little throughput (shed requests count on
``serve.shed``) for a bounded queue and therefore a bounded tail: the
flash-crowd preset demonstrates exactly this, with the naive no-admission
run violating the SLO that the depth-limited run meets.

Policies parse from slash-separated spec strings, the compact form used
inside the serve spec of ``cluster.serve(spec)`` (commas are taken by
``key=value`` pairs)::

    "none"          -> NoAdmission
    "depth/64"      -> QueueDepthAdmission(max_depth=64)
    "bucket/5k/32"  -> TokenBucketAdmission(rate_rps=5000, burst=32)

Every policy is deterministic state on virtual time: same arrival stream,
same admit/shed sequence.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from repro.serve.spec import parse_scaled


class AdmissionPolicy:
    """Base: admit everything; subclasses override :meth:`admit`."""

    #: Parsed-spec label, used in reports (`"none"`, `"depth/64"`, ...).
    label = "none"

    def admit(self, t_us: float, queue_depth: int) -> bool:
        """True to serve the arrival at ``t_us``, False to shed it.

        ``queue_depth`` is the chosen tenant's outstanding request count
        at the arrival instant (virtual time).
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Forget all state (fresh policy for a fresh run)."""


class NoAdmission(AdmissionPolicy):
    """The naive baseline: every arrival is served, queues be damned."""

    def admit(self, t_us: float, queue_depth: int) -> bool:
        return True


class QueueDepthAdmission(AdmissionPolicy):
    """Shed when the chosen tenant's outstanding queue is full."""

    def __init__(self, max_depth: int) -> None:
        if max_depth <= 0:
            raise ValueError("admission depth must be positive")
        self.max_depth = max_depth
        self.label = f"depth/{max_depth}"

    def admit(self, t_us: float, queue_depth: int) -> bool:
        return queue_depth < self.max_depth


class TokenBucketAdmission(AdmissionPolicy):
    """Classic token bucket on virtual time: sustained ``rate_rps`` with
    bursts of up to ``burst`` back-to-back admissions."""

    def __init__(self, rate_rps: float, burst: int) -> None:
        if rate_rps <= 0:
            raise ValueError("token bucket rate must be positive")
        if burst <= 0:
            raise ValueError("token bucket burst must be positive")
        self.rate_per_us = rate_rps / 1e6
        self.burst = float(burst)
        self.label = f"bucket/{rate_rps:g}/{burst}"
        self._tokens = self.burst
        self._last_us = 0.0

    def admit(self, t_us: float, queue_depth: int) -> bool:
        self._tokens = min(
            self.burst,
            self._tokens + (t_us - self._last_us) * self.rate_per_us)
        self._last_us = t_us
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def reset(self) -> None:
        self._tokens = self.burst
        self._last_us = 0.0


AdmissionFactory = Callable[[Sequence[str]], AdmissionPolicy]


def _make_none(args: Sequence[str]) -> AdmissionPolicy:
    if args:
        raise ValueError("admission 'none' takes no arguments")
    return NoAdmission()


def _make_depth(args: Sequence[str]) -> AdmissionPolicy:
    if len(args) != 1:
        raise ValueError("admission 'depth' needs exactly one argument, "
                         "e.g. 'depth/64'")
    return QueueDepthAdmission(int(parse_scaled(args[0], "admission depth")))


def _make_bucket(args: Sequence[str]) -> AdmissionPolicy:
    if len(args) != 2:
        raise ValueError("admission 'bucket' needs rate and burst, "
                         "e.g. 'bucket/5k/32'")
    return TokenBucketAdmission(
        parse_scaled(args[0], "token bucket rate"),
        int(parse_scaled(args[1], "token bucket burst")))


#: Admission kind (the spec text before the first ``/``) -> factory over
#: the ``/``-separated arguments after it.
ADMISSIONS: Dict[str, AdmissionFactory] = {
    "none": _make_none,
    "depth": _make_depth,
    "bucket": _make_bucket,
}


def make_admission(spec: str) -> AdmissionPolicy:
    """Parse a slash-separated admission spec (``"depth/64"``, ...)."""
    head, *args = spec.strip().split("/")
    try:
        factory = ADMISSIONS[head]
    except KeyError:
        raise ValueError(f"unknown admission policy {head!r}; pick from "
                         f"{tuple(ADMISSIONS)}") from None
    return factory(args)


__all__ = [
    "ADMISSIONS",
    "AdmissionPolicy",
    "NoAdmission",
    "QueueDepthAdmission",
    "TokenBucketAdmission",
    "make_admission",
]
