"""The canonical metric namespace.

Canonical names are dotted and lowercase (``fault.major``,
``net.bytes_read``), and they are the only names a counter has. Shared
concepts use *identical* keys on every kernel, so cross-system tables and
dashboards never need per-kernel key translation:

* a DiLOS major fault, a Fastswap major fault and an AIFM object miss all
  land on ``fault.major``;
* DiLOS prefetches, Fastswap readahead and AIFM prefetches on
  ``prefetch.issued``;
* page eviction and AIFM object evacuation on ``reclaim.pages_evicted``;
* page cleaning, Fastswap frontswap write-backs and AIFM evacuation
  write-backs on ``reclaim.pages_cleaned``.

``docs/OBSERVABILITY.md`` lists every key and the kernel concept behind it.
"""

from __future__ import annotations

import re

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")


def validate_name(name: str) -> str:
    """Return ``name`` if it is a valid canonical dotted metric name.

    Valid names have at least two dot-separated segments, each starting
    with a lowercase letter and containing only ``[a-z0-9_]``.
    """
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ValueError(
            f"invalid canonical metric name {name!r}: expected dotted "
            "lowercase segments like 'fault.major'")
    return name


#: Canonical keys every kernel must register, even when the value stays 0.
#: This is the cross-kernel contract the harness and reports rely on.
SHARED_KEYS = frozenset({
    "fault.major",
    "fault.minor",
    "prefetch.issued",
    "net.bytes_read",
    "net.bytes_written",
    "reclaim.pages_evicted",
})

#: Canonical reliability keys registered (at zero) by every kernel that
#: routes remote IO through the reliable transport (``net_faults`` set).
#: Kept out of :data:`SHARED_KEYS` on purpose: perfect-wire runs never
#: create a ``ReliableQP``, so the keys only exist on fault-injected runs.
NET_RELIABILITY_KEYS = frozenset({
    "net.ops",
    "net.retry",
    "net.timeout",
    "net.corrupt_detected",
    "net.failover",
    "net.giveup",
})

#: Canonical serving-layer keys minted by
#: :class:`repro.serve.frontend.ServeFrontend` in the cluster registry.
#: Counters unless noted: ``serve.offered`` (open-loop arrivals),
#: ``serve.admitted``, ``serve.shed`` (admission drops),
#: ``serve.completed``, ``serve.errors`` (non-ok responses),
#: ``serve.slo_violations``, ``serve.goodput`` (completed within SLO);
#: ``serve.latency_us`` (bounded log-histogram: p50/p99/p999);
#: ``serve.queue_depth`` (log-histogram of depth seen at admission);
#: ``serve.offered_rps`` / ``serve.goodput_rps`` (gauges, set at the end
#: of a run from the virtual serving timeline).
SERVE_KEYS = frozenset({
    "serve.offered",
    "serve.admitted",
    "serve.shed",
    "serve.completed",
    "serve.errors",
    "serve.slo_violations",
    "serve.goodput",
    "serve.latency_us",
    "serve.queue_depth",
    "serve.offered_rps",
    "serve.goodput_rps",
})

#: Cluster memory backends (:mod:`repro.mem.cluster`): the counters every
#: backend registers at boot, at zero. Backends also mint
#: ``cluster.sync_writes`` lazily, on a parity backend's first sync write.
CLUSTER_KEYS = frozenset({
    "cluster.failover_reads",
    "cluster.replicated_writes",
    "cluster.writes_skipped_dead_replica",
    "cluster.degraded_reads",
    "cluster.degraded_writes",
    "cluster.reconstruction_bytes",
    "cluster.parity_writes_skipped",
    "cluster.stale_reads_avoided",
    "cluster.rejoins",
})

#: Repair/scrub keys minted by :class:`repro.mem.repair.RepairManager`
#: in the backend's registry (documented here; created lazily):
#: ``repair.pages_resilvered``, ``repair.bytes_resilvered``,
#: ``repair.source_stalls``, ``repair.nodes_syncing`` (gauge),
#: ``repair.nodes_promoted``, ``scrub.pages_checked``,
#: ``scrub.mismatches``, ``scrub.repaired``, ``scrub.quarantined``,
#: ``scrub.passes``.
