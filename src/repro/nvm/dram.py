"""Optional DRAM tier for hybrid storage hierarchies (Appendix D).

The paper's future-work discussion notes that "a hybrid DRAM and NVM
storage hierarchy is a viable alternative, particularly in case of
high NVM latency technologies". This module adds a volatile DRAM
region to the platform: allocations placed on the DRAM tier are read
and written at DRAM latency/bandwidth, and everything on the tier is
lost in a crash — no sync primitive exists for it.

Engines opt in per allocation (``tier="dram"``); the default remains
the NVM-only hierarchy the paper evaluates.
"""

from __future__ import annotations

from typing import Dict

from ..config import DRAM_BANDWIDTH_BYTES_PER_NS, DRAM_LATENCY_NS
from ..errors import InvalidAddressError, OutOfMemoryError
from ..index.cost import PerNodeProbes
from ..sim.clock import SimClock
from ..sim.stats import StatsCollector


class DRAMTier:
    """A volatile scratch tier charged at DRAM speed.

    Much simpler than the NVM path: no persistence, no flush ordering,
    no crash survivors — just capacity accounting and access charges
    (DRAM latency per first touch of an access, bandwidth for the
    bytes). The CPU cache in front of DRAM is approximated by charging
    a fraction of accesses (hot structures mostly hit cache).
    """

    def __init__(self, capacity_bytes: int, clock: SimClock,
                 stats: StatsCollector,
                 hit_fraction: float = 0.9) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 <= hit_fraction < 1.0:
            raise ValueError("hit_fraction must be in [0, 1)")
        self.capacity_bytes = capacity_bytes
        self._clock = clock
        self._stats = stats
        self._hit_fraction = hit_fraction
        self._used = 0
        self._allocations: Dict[int, int] = {}  # addr -> size
        self._next_addr = 8
        self._access_counter = 0

    def malloc(self, size: int) -> int:
        """Allocate ``size`` bytes of DRAM; returns its address."""
        if size <= 0:
            raise ValueError("allocation size must be positive")
        if self._used + size > self.capacity_bytes:
            raise OutOfMemoryError(
                f"DRAM tier full ({self._used}/{self.capacity_bytes})")
        addr = self._next_addr
        self._next_addr += (size + 7) // 8 * 8
        self._allocations[addr] = size
        self._used += size
        self._stats.bump("dram.malloc")
        return addr

    def free(self, addr: int) -> None:
        size = self._allocations.pop(addr, None)
        if size is None:
            raise InvalidAddressError(f"no DRAM allocation at {addr:#x}")
        self._used -= size

    def touch(self, addr: int, size: int) -> None:
        """Charge one access of ``size`` bytes.

        Every ``1/(1-hit_fraction)``-th access pays DRAM latency (the
        rest hit the CPU cache); all accesses pay the bandwidth term.
        """
        self._access_counter += 1
        period = max(1, round(1.0 / (1.0 - self._hit_fraction)))
        if self._access_counter % period == 0:
            self._clock.advance(DRAM_LATENCY_NS)
        self._clock.advance(size / DRAM_BANDWIDTH_BYTES_PER_NS)
        self._stats.bump("dram.accesses")

    def crash(self) -> int:
        """Power failure: everything on the tier is gone."""
        lost = len(self._allocations)
        self._allocations.clear()
        self._used = 0
        return lost

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def live_allocations(self) -> int:
        return len(self._allocations)


class DRAMBackedIndexCostModel(PerNodeProbes):
    """Index cost model placing nodes on the DRAM tier.

    Drop-in alternative to
    :class:`~repro.index.cost.NVMIndexCostModel` for hybrid-hierarchy
    engines that keep their volatile indexes in DRAM (Appendix D).
    """

    def __init__(self, tier: DRAMTier) -> None:
        self._tier = tier
        self._nodes: Dict[int, int] = {}  # node_id -> dram addr
        self._sizes: Dict[int, int] = {}

    def node_allocated(self, node_id: int, size: int) -> None:
        self._nodes[node_id] = self._tier.malloc(size)
        self._sizes[node_id] = size
        self._tier.touch(self._nodes[node_id], size)

    def node_freed(self, node_id: int) -> None:
        addr = self._nodes.pop(node_id, None)
        self._sizes.pop(node_id, None)
        if addr is not None and addr in self._tier._allocations:
            self._tier.free(addr)

    def _touch(self, node_id: int, size: int) -> None:
        addr = self._nodes.get(node_id)
        if addr is not None:
            self._tier.touch(addr, min(size, self._sizes[node_id]))

    def node_probed(self, node_id: int, size: int) -> None:
        self._touch(node_id, min(size, 512))

    def node_read(self, node_id: int, size: int) -> None:
        self._touch(node_id, size)

    def node_written(self, node_id: int, size: int) -> None:
        self._touch(node_id, size)

    def sync_node(self, node_id: int, offset: int, size: int) -> None:
        raise InvalidAddressError(
            "DRAM-tier structures cannot be made durable")

    def drop_all(self) -> None:
        for node_id in list(self._nodes):
            self.node_freed(node_id)

    def total_bytes(self) -> int:
        return sum(self._sizes.values())
