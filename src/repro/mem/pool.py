"""The global pooled allocator: placement-aware slots over memory nodes.

The cluster backends in :mod:`repro.mem.cluster` bake placement into
their address map — :class:`~repro.mem.cluster.ShardedMemory` stripes
page ``g`` onto node ``g % n`` forever. A rack-scale pool (DRackSim,
CXL-ClusterSim) needs the opposite: **where** a page lands is a policy
decision made per allocation, because placement decides which fabric
links the page's traffic crosses and how much capacity ends up stranded
on nodes nobody's workload can reach cheaply.

:class:`PooledMemory` therefore keeps a *contiguous* per-node address
map (global slot ``node * node_slots + local``, so
:meth:`PooledMemory.node_of` resolves any offset to its owning node in
O(1) — the fabric's routing function) and delegates the choice of node
to a pluggable :class:`PlacementPolicy` from the **placement registry**:

* ``locality`` — the requester's home node first; spill to the nearest
  node with space (counted in ``pool.spills``). Minimal fabric
  crossings, maximal stranding under uneven demand.
* ``load`` — the node with the most free slots. Balanced occupancy,
  but most traffic crosses the (possibly oversubscribed) ToR.
* ``pack`` — lowest-index node with space (first-fit). Minimizes the
  number of partially-used nodes — the fragmentation-aware policy —
  at the price of concentrating load on the packed nodes' links.
* ``interleave`` — round-robin striping, the ShardedMemory layout as a
  policy.

Compute nodes allocate through per-tenant :class:`PoolClient` views
(``pool.client(name, home=i)``), which carry the requester's identity —
the standard backend surface (``alloc_slot``/``read_bytes``/...) has no
argument to express it — and isolate tenants: a client reaches only the
slots it allocated. Placement-outcome metrics land in canonical
``pool.*`` names: ``pool.alloc``/``pool.free``/``pool.spills`` counters
plus ``pool.stranded_slots`` (free capacity sitting above the
fullest node's free level — space uneven placement has made cheaply
unreachable) and ``pool.frag_imbalance`` (max-min node occupancy
spread) gauges.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Set, Tuple, Union

from repro.common.errors import OutOfMemoryError, ProtectionError
from repro.common.units import PAGE_SHIFT, PAGE_SIZE
from repro.mem.cluster import _PlainCluster
from repro.mem.remote import MemoryNode


class PlacementPolicy:
    """Chooses the memory node for one allocation.

    Subclasses implement :meth:`choose`; ``prefers_home`` marks
    policies whose first choice is the requester's home node, so the
    pool knows when a deviation is a *spill* worth counting.
    """

    #: Registry name (set by :func:`register_placement`).
    name = "?"
    #: Does this policy treat ``home`` as the preferred node?
    prefers_home = False

    def choose(self, pool: "PooledMemory", home: int) -> int:
        """Index of the node to allocate on (it must have free space).

        Raises :class:`~repro.common.errors.OutOfMemoryError` when no
        node has a free slot.
        """
        raise NotImplementedError


PlacementFactory = Callable[[], PlacementPolicy]

_PLACEMENTS: Dict[str, PlacementFactory] = {}


def register_placement(
        name: str) -> Callable[[PlacementFactory], PlacementFactory]:
    """Register a placement-policy factory under ``name`` (decorator)."""
    def deco(factory: PlacementFactory) -> PlacementFactory:
        if name in _PLACEMENTS:
            raise ValueError(f"placement policy {name!r} already registered")
        _PLACEMENTS[name] = factory
        return factory
    return deco


def placement_kinds() -> Tuple[str, ...]:
    """All registered placement policies, in registration order."""
    return tuple(_PLACEMENTS)


def make_placement(
        policy: Union[str, PlacementPolicy, None]) -> PlacementPolicy:
    """Name/ready-policy/None (= ``"load"``) -> :class:`PlacementPolicy`."""
    if policy is None:
        policy = "load"
    if isinstance(policy, PlacementPolicy):
        return policy
    factory = _PLACEMENTS.get(policy)
    if factory is None:
        raise ValueError(f"unknown placement policy {policy!r}; "
                         f"pick from {placement_kinds()}")
    built = factory()
    built.name = policy
    return built


def _first_free(pool: "PooledMemory", order) -> int:
    for index in order:
        if pool.nodes[index].free_slots > 0:
            return index
    raise OutOfMemoryError("memory pool exhausted")


@register_placement("locality")
class LocalityPlacement(PlacementPolicy):
    """Home node first; spill to the nearest node with space."""

    prefers_home = True

    def choose(self, pool: "PooledMemory", home: int) -> int:
        order = sorted(range(len(pool.nodes)),
                       key=lambda i: (abs(i - home), i))
        return _first_free(pool, order)


@register_placement("load")
class LoadPlacement(PlacementPolicy):
    """The node with the most free slots (ties -> lowest index)."""

    def choose(self, pool: "PooledMemory", home: int) -> int:
        best = max(range(len(pool.nodes)),
                   key=lambda i: (pool.nodes[i].free_slots, -i))
        if pool.nodes[best].free_slots == 0:
            raise OutOfMemoryError("memory pool exhausted")
        return best


@register_placement("pack")
class PackPlacement(PlacementPolicy):
    """First-fit packing: the lowest-index node with space.

    The fragmentation-aware policy — it keeps the pool's free capacity
    contiguous on the tail nodes (fewest partially-used nodes), so
    whole nodes stay empty and reassignable.
    """

    def choose(self, pool: "PooledMemory", home: int) -> int:
        return _first_free(pool, range(len(pool.nodes)))


@register_placement("interleave")
class InterleavePlacement(PlacementPolicy):
    """Round-robin striping across nodes (the ShardedMemory layout)."""

    def __init__(self) -> None:
        self._next = 0

    def choose(self, pool: "PooledMemory", home: int) -> int:
        n = len(pool.nodes)
        order = [(self._next + i) % n for i in range(n)]
        chosen = _first_free(pool, order)
        self._next = (chosen + 1) % n
        return chosen


class PoolClient:
    """One compute node's (tenant's) view of a :class:`PooledMemory`, and
    its protection domain.

    Implements the standard backend surface, so a kernel boots on it
    unchanged; allocations carry this client's home node into the
    placement policy, and the data path goes straight to the pool (the
    fabric, not this facade, charges link traversal). A client reads,
    writes and frees only the slots it allocated: any other page raises
    :class:`~repro.common.errors.ProtectionError` before the pool or the
    wire sees the access — §5's protection-key check, with the client
    object standing in for the rkey.
    """

    __slots__ = ("pool", "name", "home", "_slot_owner")

    def __init__(self, pool: "PooledMemory", name: str, home: int) -> None:
        self.pool = pool
        self.name = name
        self.home = home
        self._slot_owner = pool._slot_owner

    def _check(self, offset: int, size: int) -> None:
        """Raise unless every page of ``[offset, offset + size)`` (the
        page at ``offset`` for an empty access) is a slot of this
        client."""
        first = offset >> PAGE_SHIFT
        last = (offset + size - 1) >> PAGE_SHIFT if size > 0 else first
        for page in range(first, last + 1):
            if self._slot_owner.get(page) is not self:
                raise ProtectionError(
                    f"pool client {self.name!r} does not own page "
                    f"{page:#x} of [{offset:#x}, {offset + size:#x})")

    # -- slots (placement-aware) -----------------------------------------

    def alloc_slot(self) -> int:
        return self.pool.alloc_for(self.home, owner=self)

    def free_slot(self, slot: int) -> None:
        self._check(slot << PAGE_SHIFT, PAGE_SIZE)
        self.pool.free_slot(slot)

    def slot_offset(self, slot: int) -> int:
        return self.pool.slot_offset(slot)

    # -- data path (this client's slots only) / capacity (pool-wide) -------

    def read_bytes(self, offset: int, size: int) -> bytes:
        if size < 0:
            raise ValueError(f"negative remote read size {size}")
        # An owned one-page read (a paging fetch) pays one lookup.
        if (size > PAGE_SIZE - (offset & (PAGE_SIZE - 1))
                or self._slot_owner.get(offset >> PAGE_SHIFT) is not self):
            self._check(offset, size)
        return self.pool.read_bytes(offset, size)

    def write_bytes(self, offset: int, data: bytes) -> None:
        self._check(offset, len(data))
        self.pool.write_bytes(offset, data)

    def node_of(self, offset: int) -> int:
        return self.pool.node_of(offset)

    @property
    def capacity(self) -> int:
        return self.pool.capacity

    @property
    def total_slots(self) -> int:
        return self.pool.total_slots

    @property
    def free_slots(self) -> int:
        return self.pool.free_slots

    def __repr__(self) -> str:
        return f"PoolClient({self.name!r}, home=m{self.home})"


class PooledMemory(_PlainCluster):
    """A global slot pool over equal memory nodes, placement decided
    per allocation by a :class:`PlacementPolicy`.

    Global slot ``node * node_slots + local`` keeps each node's pages
    contiguous in the global offset space, so :meth:`node_of` — the
    fabric's routing function — is a division, and placement (not an
    address hash) decides which links a page's traffic crosses.
    """

    def __init__(self, nodes: Sequence[MemoryNode],
                 policy: Union[str, PlacementPolicy, None] = "load") -> None:
        self.policy = make_placement(policy)
        super().__init__(nodes, 1)
        self.node_slots = self.nodes[0].total_slots
        self._node_bytes = self.node_slots << PAGE_SHIFT
        self._clients: Dict[str, PoolClient] = {}
        # Slot ownership: the client holding each live slot (what
        # PoolClient checks every access against) and each client's
        # slots, so a departing tenant's can all be returned. Keyed by
        # client object, not name: nodes reuse freed slots last-freed-
        # first, so a successor registered under a released name gets
        # the released slots back, and the released client must not
        # reach them. Anonymous allocations (owner=None) are untracked.
        self._slot_owner: Dict[int, PoolClient] = {}
        self._owned: Dict[PoolClient, Set[int]] = {}
        self.registry.counter("pool.alloc")
        self.registry.counter("pool.free")
        self.registry.counter("pool.spills")
        self.registry.gauge("pool.stranded_slots",
                            lambda: float(self.stranded_slots))
        self.registry.gauge("pool.frag_imbalance",
                            lambda: self.frag_imbalance)
        self.registry.gauge("pool.clients",
                            lambda: float(len(self._clients)))
        for index, node in enumerate(self.nodes):
            self.registry.gauge(f"pool.n{index}.free_slots",
                                lambda n=node: float(n.free_slots))

    # -- placement-outcome metrics ----------------------------------------

    @property
    def stranded_slots(self) -> int:
        """Free slots sitting above the fullest node's free level.

        0 when free space is spread evenly; maximal when one node is
        exhausted while others idle — capacity that exists but that the
        policy has made reachable only by spilling across the fabric.
        """
        free = [node.free_slots for node in self.nodes]
        lowest = min(free)
        return sum(f - lowest for f in free)

    @property
    def frag_imbalance(self) -> float:
        """Spread of per-node occupancy: max - min used fraction."""
        used = [1.0 - node.free_slots / node.total_slots
                for node in self.nodes]
        return max(used) - min(used)

    # -- clients ----------------------------------------------------------

    def client(self, name: str, home: int = 0) -> PoolClient:
        """The (cached) placement-aware view for requester ``name``
        homed on node ``home``."""
        if not 0 <= home < len(self.nodes):
            raise ValueError(f"no memory node {home}")
        existing = self._clients.get(name)
        if existing is not None:
            if existing.home != home:
                raise ValueError(
                    f"client {name!r} already registered with home "
                    f"m{existing.home}")
            return existing
        made = PoolClient(self, name, home)
        self._clients[name] = made
        return made

    def release_client(self, name: str) -> int:
        """Tear down a tenant: free every slot it still owns.

        A departed tenant that never freed its pages would otherwise
        strand capacity forever (and ``pool.stranded_slots`` drifts
        upward across tenant churn, since the leaked slots concentrate
        on whichever nodes the policy favored). Removes the cached
        :class:`PoolClient`, which from then on reaches no slot, and
        returns the number of slots reclaimed. Raises ``KeyError`` for an
        unknown client name.
        """
        client = self._clients.pop(name, None)
        if client is None:
            raise KeyError(f"no pool client {name!r}")
        freed = 0
        for global_slot in sorted(self._owned.pop(client, ())):
            del self._slot_owner[global_slot]
            node_index, local = divmod(global_slot, self.node_slots)
            self.nodes[node_index].free_slot(local)
            self.registry.add("pool.free")
            freed += 1
        if freed:
            # Lazily registered: steady-state pools (no churn) keep their
            # historical metric key set, so pinned digests stay valid.
            self.registry.add("pool.reclaimed_slots", freed)
        return freed

    # -- slots -------------------------------------------------------------

    def alloc_for(self, home: int,
                  owner: Optional[PoolClient] = None) -> int:
        """Allocate one page slot for a requester homed on ``home``.

        ``owner`` (a registered client) becomes the only client that may
        access the slot, and :meth:`release_client` returns the slot if
        the tenant departs without freeing it. A released client raises
        :class:`~repro.common.errors.ProtectionError`."""
        if owner is not None and self._clients.get(owner.name) is not owner:
            raise ProtectionError(f"pool client {owner.name!r} was released")
        node_index = self.policy.choose(self, home)
        local = self.nodes[node_index].alloc_slot()
        self.registry.add("pool.alloc")
        if self.policy.prefers_home and node_index != home:
            self.registry.add("pool.spills")
        global_slot = node_index * self.node_slots + local
        if owner is not None:
            self._slot_owner[global_slot] = owner
            self._owned.setdefault(owner, set()).add(global_slot)
        return global_slot

    def alloc_slot(self) -> int:
        """Anonymous allocation (no client identity): home node 0."""
        return self.alloc_for(0)

    def free_slot(self, global_slot: int) -> None:
        node_index, local = divmod(global_slot, self.node_slots)
        self.nodes[node_index].free_slot(local)
        owner = self._slot_owner.pop(global_slot, None)
        if owner is not None:
            owned = self._owned.get(owner)
            if owned is not None:
                owned.discard(global_slot)
                if not owned:
                    del self._owned[owner]
        self.registry.add("pool.free")

    # -- routing -----------------------------------------------------------

    def node_of(self, offset: int) -> int:
        """The memory-node index owning ``offset`` (fabric routing)."""
        index = offset // self._node_bytes
        if not 0 <= index < len(self.nodes):
            raise ValueError(f"offset {offset:#x} outside the pool")
        return index

    def _route(self, offset: int) -> Tuple[MemoryNode, int]:
        index = self.node_of(offset)
        return self.nodes[index], offset - index * self._node_bytes

    def __repr__(self) -> str:
        return (f"PooledMemory({len(self.nodes)} nodes, "
                f"policy={self.policy.name!r})")


__all__ = [
    "InterleavePlacement",
    "LoadPlacement",
    "LocalityPlacement",
    "PackPlacement",
    "PlacementPolicy",
    "PoolClient",
    "PooledMemory",
    "make_placement",
    "placement_kinds",
    "register_placement",
]
