"""The memory interface engines use to reach NVM (load/store/sync).

This is the "Memory Interface (load, store)" box from Fig. 2 of the
paper: a thin facade that routes byte accesses and object-region
accounting through the CPU cache model, and exposes the persistence
primitives. Reads have no observer hook, so the read entry points are
the cache's own bound methods: a load costs no call through here.
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

from .cache import CPUCache

_U64 = struct.Struct("<Q")

#: ``(addr, size)`` ranges a commit marker publishes (see
#: :meth:`NVMMemory.atomic_durable_store_u64`).
PublishRanges = Tuple[Tuple[int, int], ...]


class NVMMemory:
    """Load/store interface over the cache + device pair."""

    __slots__ = ("_cache", "line_size", "observer", "load", "load_batch",
                 "peek", "touch_read", "touch_read_runs",
                 "touch_read_scattered")

    def __init__(self, cache: CPUCache) -> None:
        self._cache = cache
        self.line_size = cache.line_size
        #: Persistence-ordering observer (see
        #: :class:`repro.analysis.ordering.OrderingChecker`). ``None``
        #: means "off" and costs one attribute check per primitive.
        self.observer = None
        #: ``load(addr, size)`` reads bytes; ``load_batch(ranges)``
        #: reads independent ``(addr, size)`` ranges with memory-level
        #: parallelism (one full-latency miss for the whole batch).
        self.load = cache.load
        self.load_batch = cache.load_batch
        #: ``peek(addr, size)``: ``load``'s bytes at no simulated cost.
        self.peek = cache.peek
        #: ``touch_read(addr, size)`` charges reading an object region,
        #: ``touch_read_runs(ranges)`` several in one operation;
        #: ``touch_read_scattered(addr, size, probes)`` charges
        #: scattered single-line reads (Bloom filter probes).
        self.touch_read = cache.touch_read
        self.touch_read_runs = cache.touch_read_runs
        self.touch_read_scattered = cache.touch_read_scattered

    # -- byte-backed data ------------------------------------------------

    def store(self, addr: int, data: bytes) -> None:
        """Write ``data`` at ``addr`` (buffered in the CPU cache)."""
        self._cache.store(addr, data)
        if self.observer is not None:
            self.observer.on_store(addr, len(data), byte_backed=True)

    def load_u64(self, addr: int) -> int:
        """Read one little-endian 8-byte unsigned integer."""
        return _U64.unpack(self._cache.load(addr, 8))[0]

    def store_u64(self, addr: int, value: int) -> None:
        """Write one little-endian 8-byte unsigned integer.

        An aligned 8-byte store is the paper's atomic durable write
        building block (used e.g. for the CoW master record).
        """
        self._cache.store(addr, _U64.pack(value))
        if self.observer is not None:
            self.observer.on_store(addr, 8, byte_backed=True)

    # -- object regions (accounting only) --------------------------------

    def touch_write(self, addr: int, size: int) -> None:
        """Charge the cost of writing an object region."""
        self._cache.touch_write(addr, size)
        if self.observer is not None:
            self.observer.on_store(addr, size, byte_backed=False)

    # -- persistence primitives ------------------------------------------

    def sync(self, addr: int, size: int) -> None:
        """Durable sync: CLFLUSH range + SFENCE (Section 2.3)."""
        self._cache.sync(addr, size)
        if self.observer is not None:
            self.observer.on_sync(addr, size)

    def sync_ranges(self, ranges) -> None:
        """Batched durable sync of several ``(addr, size)`` ranges:
        each distinct cache line is flushed once, then one SFENCE
        orders them all (avoids re-flushing lines that adjacent ranges
        share and fencing once per range)."""
        ranges = tuple(ranges)
        if not ranges:
            return
        self._cache.sync_ranges(ranges)
        if self.observer is not None:
            self.observer.on_sync_ranges(ranges)

    def clflush(self, addr: int, size: int) -> None:
        self._cache.clflush(addr, size)
        if self.observer is not None:
            self.observer.on_flush(addr, size, keep=False)

    def clwb(self, addr: int, size: int) -> None:
        self._cache.clwb(addr, size)
        if self.observer is not None:
            self.observer.on_flush(addr, size, keep=True)

    def sfence(self) -> None:
        self._cache.sfence()
        if self.observer is not None:
            self.observer.on_sfence()

    def atomic_durable_store_u64(self, addr: int, value: int, *,
                                 publishes: Optional[PublishRanges] = None
                                 ) -> None:
        """8-byte store that is immediately durable and atomic.

        Used for master-record updates and WAL list-head pointers; the
        8-byte aligned write either fully reaches NVM or not at all.

        ``publishes`` declares the ``(addr, size)`` ranges this marker
        makes *reachable* (e.g. the WAL entry a list-head now points
        at). The persistence-ordering checker verifies every published
        range was flushed **and** fenced before the marker — the
        Section 2.3 ordering contract. Pass ``None`` for markers that
        publish a scalar (timestamps, counts) rather than a pointer.
        """
        if self.observer is not None:
            self.observer.on_commit_marker(addr, value,
                                           publishes or ())
        self.store_u64(addr, value)
        self.sync(addr, 8)
