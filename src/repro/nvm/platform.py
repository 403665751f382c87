"""The emulated platform: clock, stats, device, cache, allocator, FS.

A :class:`Platform` is the simulator's equivalent of one DBMS process
running on the Intel Labs hardware emulator. It owns the simulated
clock, the NVM device and the CPU cache in front of it, the NVM-aware
allocator, and the PMFS-backed filesystem — and it implements the two
restart events from the paper's evaluation:

* :meth:`crash` — power failure / ``SIGKILL``: volatile CPU-cache
  contents are (mostly) lost, un-fsync'd file writes are rolled back,
  unpersisted allocations are reclaimed, and registered crash hooks run
  so non-volatile data structures can discard unsynced state.
* :meth:`clean_shutdown` — orderly restart: the cache is drained first,
  so nothing is lost (used to separate "DBMS restart" from "OS
  restart" effects).
"""

from __future__ import annotations

from typing import Callable, List, Optional

import logging

from ..config import PlatformConfig
from ..fault.injector import FaultInjector
from ..obs.tracer import Tracer
from ..sim.clock import SimClock
from ..sim.rng import derive_rng
from ..sim.stats import StatsCollector
from .allocator import NVMAllocator
from .cache import CPUCache
from .device import NVMDevice
from .filesystem import NVMFilesystem
from .memory import NVMMemory

CrashHook = Callable[[], None]

logger = logging.getLogger("repro.platform")


class Platform:
    """One emulated NVM-only machine running the DBMS testbed."""

    def __init__(self, config: Optional[PlatformConfig] = None) -> None:
        self.config = config or PlatformConfig()
        self.clock = SimClock()
        self.stats = StatsCollector(self.clock)
        #: Span tracer (inactive unless an observability session
        #: activates it); engines cache a reference at construction.
        self.tracer = Tracer(self.clock)
        #: Observability hooks set by an attached session: a latency
        #: histogram fed by the partition executor and per-operation
        #: counters fed by the query executor. None means "off" and
        #: costs one check per use.
        self.txn_latency = None
        self.op_counters = None
        #: Telemetry heartbeat probe (see repro.obs.bus): called once
        #: per committed transaction when a live-telemetry session is
        #: attached. None means "off" and costs one check per commit.
        self.txn_probe = None
        self.device = NVMDevice(
            self.config.nvm_capacity_bytes, self.config.latency,
            self.clock, self.stats, line_size=self.config.cache.line_size,
            track_wear=self.config.track_wear)
        self._crash_rng = derive_rng(self.config.seed, "crash")
        self.cache = CPUCache(self.config.cache, self.device,
                              self.clock, self.stats, self._crash_rng)
        self.memory = NVMMemory(self.cache)
        self.allocator = NVMAllocator(
            self.memory, self.config.nvm_capacity_bytes, self.stats,
            tracer=self.tracer)
        self.filesystem = NVMFilesystem(
            self.config.filesystem, self.device, self.clock, self.stats)
        #: Optional volatile DRAM tier (hybrid hierarchy, Appendix D).
        self.dram = None
        if self.config.dram_capacity_bytes > 0:
            from .dram import DRAMTier
            self.dram = DRAMTier(self.config.dram_capacity_bytes,
                                 self.clock, self.stats)
        #: Fault-point switchboard (disabled by default; armed by crash
        #: campaigns); engines cache a reference at construction, like
        #: the tracer.
        self.faults = FaultInjector(stats=self.stats, tracer=self.tracer)
        #: Persistence-ordering checker attached to this platform
        #: (:class:`repro.analysis.ordering.OrderingChecker`); ``None``
        #: means no checking. Engines consult it on txn lifecycle
        #: events, the platform on crashes.
        self.ordering = None
        self._crash_hooks: List[CrashHook] = []
        self.crash_count = 0

    # ------------------------------------------------------------------

    def register_crash_hook(self, hook: CrashHook) -> None:
        """Register a callback run during :meth:`crash` so a
        non-volatile structure can drop unsynced state."""
        self._crash_hooks.append(hook)

    def unregister_crash_hook(self, hook: CrashHook) -> None:
        self._crash_hooks.remove(hook)

    def crash(self) -> None:
        """Simulate a power failure (or a ``SIGKILL`` of the DBMS)."""
        if self.ordering is not None:
            self.ordering.on_crash()
        self.cache.crash()
        self.filesystem.crash()
        self.allocator.crash_recover()
        if self.dram is not None:
            self.dram.crash()
        for hook in self._crash_hooks:
            hook()
        self.crash_count += 1
        self.stats.bump("platform.crashes")
        logger.info("platform crashed (count=%d)", self.crash_count)

    def clean_shutdown(self) -> None:
        """Orderly shutdown: drain the cache so nothing is lost."""
        self.cache.drain()

    # ------------------------------------------------------------------

    def storage_footprint(self) -> dict:
        """Live NVM bytes by allocator tag, plus total filesystem bytes."""
        footprint = self.allocator.bytes_by_tag()
        footprint["filesystem"] = self.filesystem.total_bytes()
        return footprint
