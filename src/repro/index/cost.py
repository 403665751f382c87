"""Cost models charging index node accesses to the emulated platform.

The index structures are pure Python, but every node they allocate,
read, or write corresponds to NVM traffic on the emulated platform —
that is what makes index maintenance show up in the Fig. 13 execution
breakdown and in the Fig. 9-11 load/store counts. A cost model adapter
decouples the tree algorithms from the accounting:

* :class:`NullCostModel` — free accesses (unit tests, analysis code).
* :class:`NVMIndexCostModel` — nodes live in accounting allocations on
  the emulated NVM; reads/writes run through the CPU cache model, and
  ``sync_node`` invokes the allocator's durable sync primitive (used by
  the non-volatile B+tree).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from ..nvm.allocator import Allocation, NVMAllocator
from ..nvm.memory import NVMMemory


#: Bytes a search examines inside one node (binary search touches a
#: handful of cache lines, not the whole node).
PROBE_BYTES = 512


class IndexCostModel(Protocol):
    """What an index needs from the platform to account its accesses."""

    def node_allocated(self, node_id: int, size: int) -> None: ...

    def node_freed(self, node_id: int) -> None: ...

    def node_probed(self, node_id: int, size: int) -> None:
        """A search descended through this node (partial read)."""

    def nodes_probed(self, node_ids: Sequence[int], size: int) -> None:
        """A search descended through these nodes, root first: one
        descent is one platform operation."""

    def node_read(self, node_id: int, size: int) -> None:
        """The node's full contents were read (copy / scan)."""

    def node_written(self, node_id: int, size: int) -> None: ...

    def sync_node(self, node_id: int, offset: int, size: int) -> None: ...


class PerNodeProbes:
    """``nodes_probed`` as one ``node_probed`` per node, root first: for
    models whose probe does more than touch the cache (a page cache, a
    DRAM tier), so each node stays an operation of its own."""

    def nodes_probed(self, node_ids: Sequence[int], size: int) -> None:
        for node_id in node_ids:
            self.node_probed(node_id, size)  # type: ignore[attr-defined]


class NullCostModel:
    """A cost model that charges nothing (for tests and analysis)."""

    def node_allocated(self, node_id: int, size: int) -> None:
        pass

    def node_freed(self, node_id: int) -> None:
        pass

    def node_probed(self, node_id: int, size: int) -> None:
        pass

    def nodes_probed(self, node_ids: Sequence[int], size: int) -> None:
        pass

    def node_read(self, node_id: int, size: int) -> None:
        pass

    def node_written(self, node_id: int, size: int) -> None:
        pass

    def sync_node(self, node_id: int, offset: int, size: int) -> None:
        pass


class NVMIndexCostModel:
    """Charges index node traffic to the emulated NVM platform.

    Each node is backed by an accounting allocation tagged ``tag`` (so
    index bytes show up in the Fig. 14 footprint); reads and writes are
    charged through the CPU cache model at the node's address.
    """

    def __init__(self, allocator: NVMAllocator, memory: NVMMemory,
                 tag: str = "index",
                 persistent: bool = False) -> None:
        self._allocator = allocator
        self._memory = memory
        self._tag = tag
        self._persistent = persistent
        self._allocations: Dict[int, Allocation] = {}

    def node_allocated(self, node_id: int, size: int) -> None:
        allocation = self._allocator.malloc(size, tag=self._tag,
                                            kind="object")
        if self._persistent:
            self._allocator.persist(allocation)
        self._allocations[node_id] = allocation
        self._memory.touch_write(allocation.addr, size)

    def node_freed(self, node_id: int) -> None:
        allocation = self._allocations.pop(node_id, None)
        if allocation is not None:
            self._allocator.free(allocation)

    def node_probed(self, node_id: int, size: int) -> None:
        allocation = self._allocations.get(node_id)
        if allocation is not None:
            self._memory.touch_read(
                allocation.addr,
                min(size, allocation.size, PROBE_BYTES))

    def nodes_probed(self, node_ids: Sequence[int], size: int) -> None:
        """Charge a whole descent as one cache operation. Each node is
        a run of its own (it keeps its own prefetch-stream state), so
        the hits, misses and simulated time are those of one
        :meth:`node_probed` per node; clock listeners are told once."""
        allocations = self._allocations
        size = min(size, PROBE_BYTES)
        ranges: List[Tuple[int, int]] = []
        for node_id in node_ids:
            allocation = allocations.get(node_id)
            if allocation is not None:
                ranges.append((allocation.addr, min(size, allocation.size)))
        if ranges:
            self._memory.touch_read_runs(ranges)

    def node_read(self, node_id: int, size: int) -> None:
        allocation = self._allocations.get(node_id)
        if allocation is not None:
            self._memory.touch_read(allocation.addr,
                                    min(size, allocation.size))

    def node_written(self, node_id: int, size: int) -> None:
        allocation = self._allocations.get(node_id)
        if allocation is not None:
            self._memory.touch_write(allocation.addr,
                                     min(size, allocation.size))

    def sync_node(self, node_id: int, offset: int, size: int) -> None:
        allocation = self._allocations.get(node_id)
        if allocation is not None:
            end = min(offset + size, allocation.size)
            if end > offset:
                self._allocator.sync(allocation, offset, end - offset)

    def allocation_for(self, node_id: int) -> Optional[Allocation]:
        return self._allocations.get(node_id)

    def total_bytes(self) -> int:
        return sum(a.size for a in self._allocations.values())

    def drop_all(self) -> None:
        """Free every node allocation (volatile index lost in a crash)."""
        for allocation in self._allocations.values():
            self._allocator.free(allocation)
        self._allocations.clear()
