"""The declarative boot layer: one spec, one table of kernels, one of
backends.

Historically each entry point (``repro.harness.experiment.make_system``,
the CLI, ad-hoc scripts) privately rebuilt the same boot sequence with a
string-kind ``if/elif`` ladder, a fresh :class:`~repro.common.clock.Clock`
and a single :class:`~repro.mem.remote.MemoryNode`. That made the
multi-node backends in :mod:`repro.mem.cluster` unreachable from every
standard path, and meant no two computing nodes could share a timeline or
a memory pool. This module replaces those parallel ladders:

* :class:`SystemSpec` — a declarative description of one computing node:
  kernel kind, memory sizes, backend spec, observability and config
  overrides (a fault plan is one of them). ``spec.boot()`` is the only
  boot path. What tenants share (clock, backend, pool client, fabric
  port) is bound by the clusters in :mod:`repro.sim`, never set here by
  hand.
* :data:`KERNELS` — presentation keys (``"fastswap"``,
  ``"dilos-readahead"``, ``"aifm-rdma"``, ...) map to a loader of the
  kernel's system and config classes and the config fields the key
  fixes; a new kernel is one more entry.
* :data:`BACKENDS` — backend spec prefixes (``"node"``, ``"sharded"``,
  ``"replicated"``, ``"parity"``) map to factories over
  :mod:`repro.mem.cluster`. :func:`make_backend` builds from a spec
  string, or checks and passes through a ready backend object so many
  specs can share one cluster. Every kernel constructor resolves its
  ``memory_backend`` through it, so the default node and the check run
  on every boot path.

``make_system`` in :mod:`repro.harness.experiment` builds a
:class:`SystemSpec` from keyword arguments and boots it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.common.clock import Clock
# The shared ``kind:key=value,...`` grammar that backend specs, the spec
# of ``cluster.serve(spec)``, repair policies and RackCluster's
# ``topology=`` parse with. It lives in repro.common so the modules below
# us in the import graph can use it too; this re-export is the public
# face for spec authors.
from repro.common.specparse import Cast, parse_kv_spec, split_kind
from repro.common.units import MIB, PAGE_SIZE, align_up
from repro.mem.cluster import (
    ParityStripedMemory,
    ReplicatedMemory,
    ShardedMemory,
)
from repro.mem.remote import MemoryNode
from repro.net.topology import FabricPort
from repro.obs import Observability

#: A backend is anything with the :class:`~repro.mem.remote.MemoryNode`
#: data/slot surface: ``alloc_slot``/``free_slot``/``slot_offset`` and
#: ``read_bytes``/``write_bytes`` plus ``capacity``.
BackendLike = Any
#: What a spec's ``backend`` field accepts: a spec string from
#: :data:`BACKENDS`, a ready backend object (shared clusters), or ``None``
#: (same as "node").
BackendSpec = Union[str, BackendLike, None]

#: A backend factory: (argument text after the colon, or ``""``; total
#: remote capacity in bytes) -> backend.
BackendFactory = Callable[[str, int], BackendLike]
#: A kernel loader: imports and returns ``(system class, config class)``.
KernelLoader = Callable[[], Tuple[type, type]]


# -- the backends ------------------------------------------------------------

#: Spec templates for help text: every kind in :data:`BACKENDS` with its
#: argument.
BACKEND_SPEC_EXAMPLES = ("node", "sharded:4", "replicated:3", "parity:4+1")


def _node_capacity(total_bytes: int, nodes: int) -> int:
    """Equal per-node capacity covering ``total_bytes`` (page-rounded)."""
    return align_up(max(1, -(-total_bytes // nodes)), PAGE_SIZE)


def _parse_count(arg: str, kind: str, minimum: int) -> int:
    try:
        count = int(arg)
    except ValueError:
        raise ValueError(
            f"backend spec {kind!r} needs an integer node count, "
            f"got {arg!r}") from None
    if count < minimum:
        raise ValueError(f"backend {kind!r} needs at least {minimum} nodes")
    return count


def _make_single_node(arg: str, remote_bytes: int) -> MemoryNode:
    if arg:
        raise ValueError("backend 'node' takes no argument")
    return MemoryNode(align_up(remote_bytes, PAGE_SIZE))


def _make_sharded(arg: str, remote_bytes: int) -> ShardedMemory:
    count = _parse_count(arg or "2", "sharded:N", 2)
    capacity = _node_capacity(remote_bytes, count)
    return ShardedMemory([MemoryNode(capacity, name=f"shard{i}")
                          for i in range(count)])


def _make_replicated(arg: str, remote_bytes: int) -> ReplicatedMemory:
    count = _parse_count(arg or "2", "replicated:N", 2)
    capacity = align_up(remote_bytes, PAGE_SIZE)
    return ReplicatedMemory([MemoryNode(capacity, name=f"replica{i}")
                             for i in range(count)])


def _make_parity(arg: str, remote_bytes: int) -> ParityStripedMemory:
    data_txt, plus, parity_txt = (arg or "2+1").partition("+")
    k = _parse_count(data_txt, "parity:K+1", 2)
    if plus and parity_txt != "1":
        raise ValueError("parity backend supports exactly one parity node "
                         "(spec 'parity:K+1')")
    capacity = _node_capacity(remote_bytes, k)
    nodes = [MemoryNode(capacity, name=f"data{i}") for i in range(k)]
    nodes.append(MemoryNode(capacity, name="parity"))
    return ParityStripedMemory(nodes)


#: Backend spec prefix -> factory.
BACKENDS: Dict[str, BackendFactory] = {
    "node": _make_single_node,
    "sharded": _make_sharded,
    "replicated": _make_replicated,
    "parity": _make_parity,
}


def make_backend(spec: BackendSpec, remote_bytes: int) -> BackendLike:
    """Build (or pass through) the memory backend for a spec.

    ``None`` is treated as ``"node"``. A non-string object is assumed to
    be a ready backend (a shared cluster) and is returned as-is after a
    duck-type check of the data-path surface. A raw
    :class:`~repro.mem.pool.PooledMemory` fails that check (it has no
    ``alloc_slot``): kernels reach a pool only through a
    :class:`~repro.mem.pool.PoolClient`. Every kernel constructor calls
    this on its ``memory_backend`` argument.
    """
    if spec is None:
        spec = "node"
    if not isinstance(spec, str):
        for method in ("alloc_slot", "slot_offset", "read_bytes",
                       "write_bytes"):
            if not callable(getattr(spec, method, None)):
                raise TypeError(
                    f"backend object {spec!r} lacks required method "
                    f"{method!r}")
        return spec
    if remote_bytes <= 0:
        raise ValueError("remote capacity must be positive")
    kind, arg = split_kind(spec, default="node")
    factory = BACKENDS.get(kind)
    if factory is None:
        raise ValueError(f"unknown backend kind {spec!r}; "
                         f"pick from {BACKEND_SPEC_EXAMPLES}")
    return factory(arg, remote_bytes)


def backend_label(spec: BackendSpec) -> str:
    """A short presentation label for a backend spec or object."""
    if spec is None:
        return "node"
    if isinstance(spec, str):
        return spec
    return type(spec).__name__


# -- the spec ----------------------------------------------------------------

@dataclass
class SystemSpec:
    """A declarative description of one computing node.

    ``boot()`` looks the kernel kind up in :data:`KERNELS` and returns
    the booted system, whose constructor resolves ``backend`` through
    :func:`make_backend` — the one boot path behind ``make_system``, the
    CLI, sweeps and the tenancy scheduler.
    """

    #: Presentation key, one of :data:`KERNELS`.
    kind: str = "dilos-readahead"
    #: Local DRAM for the paging subsystem (AIFM: the local heap budget).
    local_mem_bytes: int = 64 * MIB
    #: Total remote capacity; cluster backends split/replicate it.
    remote_mem_bytes: int = 512 * MIB
    #: Backend spec string, ready backend object, or ``None`` ("node").
    backend: BackendSpec = "node"
    #: Observability bundle; ``None`` = fresh registry, tracing off.
    obs: Optional[Observability] = None
    #: Shared timeline; ``None`` = the system boots its own clock.
    clock: Optional[Clock] = None
    #: The fabric port this node's QPs are charged through, bound by
    #: :class:`~repro.sim.rack.RackCluster` (compute id and pool routing),
    #: or ``None`` for the flat model (the historical uncontended timing
    #: path — golden digests pin it).
    topology: Optional[FabricPort] = None
    #: Extra keyword arguments for the kernel's config dataclass, e.g.
    #: ``net_faults`` (a fault plan or its spec string, parsed once by
    #: the config) and ``net_retry``.
    overrides: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.topology is not None and \
                not isinstance(self.topology, FabricPort):
            raise TypeError(
                f"topology must be a FabricPort or None, not "
                f"{self.topology!r}; RackCluster binds each tenant's port")

    # -- derived views -------------------------------------------------------

    def config_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments for the kernel's config dataclass: the
        overrides, with the bound fabric port filled in unless explicitly
        overridden."""
        kwargs = dict(self.overrides)
        if self.topology is not None:
            kwargs.setdefault("fabric", self.topology)
        return kwargs

    def boot(self):
        """Boot the described system: the one place a kernel is built.

        The fields the kind fixes in :data:`KERNELS` win over
        ``overrides``. Returns a :class:`~repro.core.api.BaseSystem` for
        the paging kernels or an
        :class:`~repro.baselines.aifm.AifmRuntime` for the AIFM variants.
        """
        try:
            load, fixed = KERNELS[self.kind]
        except KeyError:
            raise ValueError(f"unknown system kind {self.kind!r}; "
                             f"pick from {tuple(KERNELS)}") from None
        system_cls, config_cls = load()
        config = config_cls(local_mem_bytes=self.local_mem_bytes,
                            remote_mem_bytes=self.remote_mem_bytes,
                            **{**self.config_kwargs(), **fixed})
        return system_cls(config, memory_backend=self.backend, obs=self.obs,
                          clock=self.clock)


# -- the kernels -------------------------------------------------------------

def _fastswap() -> Tuple[type, type]:
    from repro.baselines.fastswap import FastswapConfig, FastswapSystem

    return FastswapSystem, FastswapConfig


def _dilos() -> Tuple[type, type]:
    from repro.core.config import DilosConfig
    from repro.core.dilos import DilosSystem

    return DilosSystem, DilosConfig


def _aifm() -> Tuple[type, type]:
    from repro.baselines.aifm import AifmConfig, AifmRuntime

    return AifmRuntime, AifmConfig


#: Presentation key -> (loader of the system and config classes, imported
#: on first boot; the config fields the key fixes), in the order of the
#: paper's figure legends (``repro.harness.SYSTEM_KINDS`` keeps it).
KERNELS: Dict[str, Tuple[KernelLoader, Dict[str, Any]]] = {
    "fastswap": (_fastswap, {}),
    "dilos-none": (_dilos, {"prefetcher": "none"}),
    "dilos-readahead": (_dilos, {"prefetcher": "readahead"}),
    "dilos-trend": (_dilos, {"prefetcher": "trend"}),
    "dilos-stride": (_dilos, {"prefetcher": "stride"}),
    "dilos-tcp": (_dilos, {"prefetcher": "readahead", "tcp_emulation": True}),
    "aifm": (_aifm, {"transport": "tcp"}),
    "aifm-rdma": (_aifm, {"transport": "rdma"}),
}


__all__: List[str] = [
    "BACKENDS",
    "BACKEND_SPEC_EXAMPLES",
    "BackendLike",
    "BackendSpec",
    "Cast",
    "KERNELS",
    "SystemSpec",
    "backend_label",
    "make_backend",
    "parse_kv_spec",
    "split_kind",
]
