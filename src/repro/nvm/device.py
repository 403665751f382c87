"""The emulated byte-addressable NVM device.

The device owns the raw bytes backing the allocator's address space
(a lazily backed anonymous mapping — untouched pages cost the host
nothing), the latency/bandwidth cost model, and the hardware-style
load/store counters that the paper reads with ``perf`` (Section 5.3).

Timing model: a cacheline **load** (miss serviced from NVM) costs the
profile's read latency. A cacheline **store** (writeback or flush
reaching NVM) is *posted*: "since the CPU uses a write-back cache for
NVM, the high latency of writes to NVM is not observed on every write
but the sustainable write bandwidth of NVM is lower compared to DRAM"
(Section 2.2) — so stores cost only the bandwidth term
``bytes / bandwidth`` (the emulator throttles DDR operations per
microsecond, exactly this). Ordering costs (CLFLUSH/SFENCE latency)
are charged by the cache model, not the device.
"""

from __future__ import annotations

import mmap
from typing import Optional

from ..config import CACHE_LINE_SIZE, LatencyProfile
from ..errors import InvalidAddressError
from ..sim.clock import SimClock
from ..sim.stats import StatsCollector


class NVMDevice:
    """Byte-addressable emulated NVM with access accounting."""

    #: Granularity of the wear histogram (bytes per tracked segment).
    WEAR_SEGMENT_BYTES = 4096

    def __init__(self, capacity_bytes: int, latency: LatencyProfile,
                 clock: SimClock, stats: StatsCollector,
                 line_size: int = CACHE_LINE_SIZE,
                 track_wear: bool = False) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.latency = latency
        self.line_size = line_size
        self._clock = clock
        self._stats = stats
        # The kernel backs a page only once it is written, so an idle
        # device costs no zero-fill and no resident memory. MAP_PRIVATE
        # (the default for fd -1 is MAP_SHARED) keeps a forked worker
        # from writing into its parent's device.
        self._data = mmap.mmap(
            -1, capacity_bytes,
            flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        self.loads = 0       # cachelines loaded from NVM
        self.stores = 0      # cachelines stored to NVM
        self.bytes_loaded = 0
        self.bytes_stored = 0
        #: Optional per-segment store histogram: write endurance is
        #: the paper's Table 1 motivation, and wear leveling (NVMalloc
        #: [49]) needs evenness, not just totals.
        self._wear = ([0] * (-(-capacity_bytes
                               // self.WEAR_SEGMENT_BYTES))
                      if track_wear else None)

    # ------------------------------------------------------------------
    # Cost accounting (called by the CPU cache model)
    # ------------------------------------------------------------------

    def charge_load(self, lines: int = 1,
                    equivalent_lines: Optional[float] = None) -> None:
        """Account for ``lines`` cacheline loads serviced from NVM.

        ``equivalent_lines`` lets the cache model discount latency for
        prefetched sequential misses while still counting every line.
        """
        self.loads += lines
        nbytes = lines * self.line_size
        self.bytes_loaded += nbytes
        self._stats.bump("nvm.loads", lines)
        if equivalent_lines is None:
            equivalent_lines = lines
        self._clock.advance(
            equivalent_lines * self.latency.read_latency_ns)

    def charge_store(self, lines: int = 1,
                     addr: Optional[int] = None) -> None:
        """Account for ``lines`` posted cacheline stores reaching NVM
        (bandwidth-throttled, latency hidden by the write-back cache).
        ``addr`` feeds the optional wear histogram."""
        self.stores += lines
        nbytes = lines * self.line_size
        self.bytes_stored += nbytes
        self._stats.bump("nvm.stores", lines)
        if self._wear is not None and addr is not None:
            self._wear[addr // self.WEAR_SEGMENT_BYTES] += lines
        self._clock.advance(nbytes / self.latency.bandwidth_bytes_per_ns)

    def charge_bulk_store(self, nbytes: int) -> None:
        """Account for a bulk sequential store of ``nbytes``."""
        lines = -(-nbytes // self.line_size)
        self.stores += lines
        self.bytes_stored += nbytes
        self._stats.bump("nvm.stores", lines)
        self._clock.advance(nbytes / self.latency.bandwidth_bytes_per_ns)

    def charge_bulk_load(self, nbytes: int,
                         prefetch_discount: float = 0.25) -> None:
        """Account for a bulk sequential load of ``nbytes``: the first
        line pays full latency, prefetched followers are discounted,
        plus the bandwidth term."""
        lines = -(-nbytes // self.line_size)
        self.loads += lines
        self.bytes_loaded += nbytes
        self._stats.bump("nvm.loads", lines)
        equivalent = 1 + (lines - 1) * prefetch_discount
        self._clock.advance(
            equivalent * self.latency.read_latency_ns
            + nbytes / self.latency.bandwidth_bytes_per_ns)

    # ------------------------------------------------------------------
    # Raw data access (timing is handled by the cache layer)
    # ------------------------------------------------------------------

    def read_raw(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes at ``addr`` without charging time."""
        if addr < 0 or size < 0 or addr + size > self.capacity_bytes:
            raise self._range_error(addr, size)
        return self._data[addr:addr + size]

    def write_raw(self, addr: int, data: bytes) -> None:
        """Write ``data`` at ``addr`` without charging time."""
        if addr < 0 or addr + len(data) > self.capacity_bytes:
            raise self._range_error(addr, len(data))
        self._data[addr:addr + len(data)] = data

    def _range_error(self, addr: int, size: int) -> InvalidAddressError:
        return InvalidAddressError(
            f"access [{addr}, {addr + size}) outside device "
            f"of {self.capacity_bytes} bytes")

    def reset_counters(self) -> None:
        self.loads = 0
        self.stores = 0
        self.bytes_loaded = 0
        self.bytes_stored = 0
        if self._wear is not None:
            self._wear = [0] * len(self._wear)

    def wear_histogram(self) -> "list[int]":
        """Per-4KB-segment store counts (requires ``track_wear``)."""
        if self._wear is None:
            raise ValueError("device built without track_wear=True")
        return list(self._wear)

    def wear_skew(self) -> float:
        """Max/mean ratio over written segments: 1.0 is perfectly even
        wear; large values mean hot spots that shorten device life."""
        if self._wear is None:
            raise ValueError("device built without track_wear=True")
        written = [count for count in self._wear if count]
        if not written:
            return 1.0
        return max(written) / (sum(written) / len(written))
