"""The declarative boot layer: one spec, one registry, every kernel.

Historically each entry point (``repro.harness.experiment.make_system``,
the CLI, ad-hoc scripts) privately rebuilt the same boot sequence with a
string-kind ``if/elif`` ladder, a fresh :class:`~repro.common.clock.Clock`
and a single :class:`~repro.mem.remote.MemoryNode`. That made the
multi-node backends in :mod:`repro.mem.cluster` unreachable from every
standard path, and meant no two computing nodes could share a timeline or
a memory pool. This module replaces those parallel ladders:

* :class:`SystemSpec` — a declarative description of one computing node:
  kernel kind, memory sizes, backend spec, observability, fault plan and
  config overrides. ``spec.boot()`` is the only boot path. What tenants
  share (clock, backend, pool client, fabric port) is bound by the
  clusters in :mod:`repro.sim`, never set here by hand.
* the **kernel registry** — presentation keys (``"fastswap"``,
  ``"dilos-readahead"``, ``"aifm-rdma"``, ...) map to builder functions;
  :func:`register_kernel` adds new kernels without touching any caller.
* the **backend registry** — backend spec strings (``"node"``,
  ``"sharded:4"``, ``"replicated:3"``, ``"parity:4+1"``) map to factories
  over :mod:`repro.mem.cluster`; :func:`make_backend` also passes through
  ready backend objects so many specs can share one cluster.

``make_system`` in :mod:`repro.harness.experiment` is now a thin
compatibility shim over ``SystemSpec.boot()``; a single-node spec boots a
bit-identical system (the golden-master suite pins this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.common.clock import Clock
# The shared ``kind:key=value,...`` grammar every spec knob (backend=,
# serve=, repair=, net_faults=, RackCluster's topology=) parses with. It
# lives in repro.common so the knob modules below us in the import graph
# can use it too; this re-export is the public face for spec authors.
from repro.common.specparse import Cast, parse_kv_spec, split_kind
from repro.common.units import MIB, PAGE_SIZE, align_up
from repro.mem.cluster import (
    ParityStripedMemory,
    ReplicatedMemory,
    ShardedMemory,
)
from repro.mem.remote import MemoryNode
from repro.net.faults import (
    FaultPlan,
    RetryPolicy,
    coerce_fault_plan,
    coerce_retry_policy,
)
from repro.net.topology import FabricPort
from repro.obs import Observability

#: A backend is anything with the :class:`~repro.mem.remote.MemoryNode`
#: data/slot surface: ``alloc_slot``/``free_slot``/``slot_offset`` and
#: ``read_bytes``/``write_bytes`` plus ``capacity``.
BackendLike = Any
#: What a spec's ``backend`` field accepts: a registry spec string, a
#: ready backend object (shared clusters), or ``None`` (same as "node").
BackendSpec = Union[str, BackendLike, None]

KernelBuilder = Callable[["SystemSpec", Optional[BackendLike]], Any]
BackendFactory = Callable[[str, int], BackendLike]

_KERNELS: Dict[str, KernelBuilder] = {}
_BACKENDS: Dict[str, BackendFactory] = {}


# -- the kernel registry -----------------------------------------------------

def register_kernel(kind: str) -> Callable[[KernelBuilder], KernelBuilder]:
    """Register a builder for presentation key ``kind`` (decorator).

    The builder receives the :class:`SystemSpec` and the already-built
    backend (``None`` means "build your default single node") and returns
    a booted system. Registering an existing key raises — replace a
    kernel by name only deliberately, via :func:`unregister_kernel`.
    """
    def deco(builder: KernelBuilder) -> KernelBuilder:
        if kind in _KERNELS:
            raise ValueError(f"kernel kind {kind!r} already registered")
        _KERNELS[kind] = builder
        return builder
    return deco


def unregister_kernel(kind: str) -> None:
    """Remove a registered kernel kind (tests/extensions only)."""
    _KERNELS.pop(kind, None)


def kernel_kinds() -> Tuple[str, ...]:
    """All registered presentation keys, in registration order."""
    return tuple(_KERNELS)


def kernel_builder(kind: str) -> KernelBuilder:
    """The registered builder for ``kind``; raises with the valid keys."""
    try:
        return _KERNELS[kind]
    except KeyError:
        raise ValueError(f"unknown system kind {kind!r}; "
                         f"pick from {kernel_kinds()}") from None


# -- the backend registry ----------------------------------------------------

def register_backend(name: str) -> Callable[[BackendFactory], BackendFactory]:
    """Register a backend factory under spec prefix ``name`` (decorator).

    The factory receives the argument text after the colon (``""`` when
    absent) and the total remote capacity in bytes.
    """
    def deco(factory: BackendFactory) -> BackendFactory:
        if name in _BACKENDS:
            raise ValueError(f"backend kind {name!r} already registered")
        _BACKENDS[name] = factory
        return factory
    return deco


def backend_kinds() -> Tuple[str, ...]:
    """All registered backend spec prefixes, in registration order."""
    return tuple(_BACKENDS)


#: Spec templates for help text: every registered kind with its argument.
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


@register_backend("node")
def _make_single_node(arg: str, remote_bytes: int) -> MemoryNode:
    if arg:
        raise ValueError("backend 'node' takes no argument")
    return MemoryNode(align_up(remote_bytes, PAGE_SIZE))


@register_backend("sharded")
def _make_sharded(arg: str, remote_bytes: int) -> ShardedMemory:
    count = _parse_count(arg or "2", "sharded:N", 2)
    capacity = _node_capacity(remote_bytes, count)
    return ShardedMemory([MemoryNode(capacity, name=f"shard{i}")
                          for i in range(count)])


@register_backend("replicated")
def _make_replicated(arg: str, remote_bytes: int) -> ReplicatedMemory:
    count = _parse_count(arg or "2", "replicated:N", 2)
    capacity = align_up(remote_bytes, PAGE_SIZE)
    return ReplicatedMemory([MemoryNode(capacity, name=f"replica{i}")
                             for i in range(count)])


@register_backend("parity")
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


def make_backend(spec: BackendSpec, remote_bytes: int) -> BackendLike:
    """Build (or pass through) the memory backend for a spec.

    ``None`` is treated as ``"node"``. A non-string object is assumed to
    be a ready backend (a shared cluster) and is returned as-is after a
    duck-type check of the data-path surface. A raw
    :class:`~repro.mem.pool.PooledMemory` fails that check (it has no
    ``alloc_slot``): kernels reach a pool only through a
    :class:`~repro.mem.pool.PoolClient`.
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
    factory = _BACKENDS.get(kind)
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

    ``boot()`` resolves the kernel kind through the registry, builds the
    memory backend (or reuses a shared one), and returns the booted
    system — the one boot path behind ``make_system``, the CLI, sweeps
    and the tenancy scheduler.
    """

    #: Presentation key from the kernel registry (``kernel_kinds()``).
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
    #: Network fault injection (plan or spec string, parsed here once).
    net_faults: Optional[FaultPlan] = None
    #: Retry policy for the reliable transport.
    net_retry: Optional[RetryPolicy] = None
    #: The fabric port this node's QPs are charged through, bound by
    #: :class:`~repro.sim.rack.RackCluster` (compute id and pool routing),
    #: or ``None`` for the flat model (the historical uncontended timing
    #: path — golden digests pin it).
    topology: Optional[FabricPort] = None
    #: Extra keyword arguments for the kernel's config dataclass.
    overrides: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.net_faults = coerce_fault_plan(self.net_faults)
        self.net_retry = coerce_retry_policy(self.net_retry)
        if self.topology is not None and \
                not isinstance(self.topology, FabricPort):
            raise TypeError(
                f"topology must be a FabricPort or None, not "
                f"{self.topology!r}; RackCluster binds each tenant's port")

    # -- derived views -------------------------------------------------------

    def config_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments for the kernel's config dataclass: the
        overrides, with the spec's fault plan/retry policy filled in
        unless explicitly overridden."""
        kwargs = dict(self.overrides)
        kwargs.setdefault("net_faults", self.net_faults)
        kwargs.setdefault("net_retry", self.net_retry)
        if self.topology is not None:
            kwargs.setdefault("fabric", self.topology)
        return kwargs

    def boot(self):
        """Boot the described system.

        Returns a :class:`~repro.core.api.BaseSystem` for the paging
        kernels or an :class:`~repro.baselines.aifm.AifmRuntime` for the
        AIFM variants. A ``backend`` of ``"node"`` (the default) keeps
        the historical single-node boot path byte-for-byte: the kernel
        constructor builds its own :class:`~repro.mem.remote.MemoryNode`.
        """
        builder = kernel_builder(self.kind)
        backend: Optional[BackendLike]
        if self.backend is None or self.backend == "node":
            backend = None  # kernels build their default single node
        else:
            backend = make_backend(self.backend, self.remote_mem_bytes)
        return builder(self, backend)


# -- the built-in kernels ----------------------------------------------------

#: DiLOS presentation flavors: key suffix -> prefetcher policy.
DILOS_FLAVORS = ("none", "readahead", "trend", "stride")


@register_kernel("fastswap")
def _boot_fastswap(spec: SystemSpec, backend: Optional[BackendLike]):
    from repro.baselines.fastswap import FastswapConfig, FastswapSystem

    config = FastswapConfig(local_mem_bytes=spec.local_mem_bytes,
                            remote_mem_bytes=spec.remote_mem_bytes,
                            **spec.config_kwargs())
    return FastswapSystem(config, memory_backend=backend, obs=spec.obs,
                          clock=spec.clock)


def _boot_dilos(spec: SystemSpec, backend: Optional[BackendLike]):
    from repro.core.config import DilosConfig
    from repro.core.dilos import DilosSystem

    flavor = spec.kind.split("-", 1)[1] if "-" in spec.kind else "readahead"
    config = DilosConfig(local_mem_bytes=spec.local_mem_bytes,
                         remote_mem_bytes=spec.remote_mem_bytes,
                         **spec.config_kwargs())
    if flavor == "tcp":
        config.prefetcher = "readahead"
        config.tcp_emulation = True
    else:
        config.prefetcher = flavor
    return DilosSystem(config, memory_backend=backend, obs=spec.obs,
                       clock=spec.clock)


def _boot_aifm(spec: SystemSpec, backend: Optional[BackendLike]):
    from repro.baselines.aifm import AifmConfig, AifmRuntime

    transport = "rdma" if spec.kind.endswith("rdma") else "tcp"
    config = AifmConfig(local_heap_bytes=spec.local_mem_bytes,
                        remote_mem_bytes=spec.remote_mem_bytes,
                        transport=transport, **spec.config_kwargs())
    return AifmRuntime(config, obs=spec.obs, memory_backend=backend,
                       clock=spec.clock)


# Registration order defines the presentation order of SYSTEM_KINDS
# (matching the paper's figure legends, as before the registry existed).
for _flavor in DILOS_FLAVORS:
    register_kernel(f"dilos-{_flavor}")(_boot_dilos)
register_kernel("dilos-tcp")(_boot_dilos)
register_kernel("aifm")(_boot_aifm)
register_kernel("aifm-rdma")(_boot_aifm)


__all__: List[str] = [
    "BACKEND_SPEC_EXAMPLES",
    "BackendLike",
    "BackendSpec",
    "Cast",
    "DILOS_FLAVORS",
    "SystemSpec",
    "backend_kinds",
    "backend_label",
    "kernel_builder",
    "kernel_kinds",
    "make_backend",
    "parse_kv_spec",
    "register_backend",
    "register_kernel",
    "split_kind",
    "unregister_kernel",
]
