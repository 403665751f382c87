"""Write-back CPU cache model fronting the emulated NVM device.

The paper's central correctness hazard is that "the changes made by a
transaction to a location on NVM may still reside in volatile CPU
caches when the transaction commits" (Section 2.3) — and, conversely,
that "the memory controller can evict cache lines containing those
changes to NVM at any time" (Section 4.1). This model reproduces both:

* Stores are buffered in cache lines; the backing device is updated
  only on **eviction** (LRU, capacity pressure) or an explicit
  **CLFLUSH/CLWB**.
* On :meth:`crash`, each dirty unflushed line independently survives
  with a configurable probability (seeded), modelling arbitrary
  controller evictions before power failure. Everything else is lost.

The durable **sync primitive** from Section 2.3 (CLFLUSH of the
affected lines followed by SFENCE) is provided by :meth:`sync`; its
extra latency knob backs the Fig. 16 PCOMMIT/CLWB what-if experiment.

One kernel (see docs/performance.md): this model is the wall-clock hot
spot of the whole reproduction, so the touch/evict bookkeeping exists
exactly once, in :meth:`CPUCache._access`, and every load, store and
touch is a one-call wrapper around it. A helper call *per line* is the
cost this module exists to avoid; one kernel call *per operation*,
taking the operation's whole range list, amortises. The kernel (and
:meth:`CPUCache._flush_run`, its counterpart for flushes) batches its
bookkeeping — simulated-time charges accumulate in locals and post to
the clock once, counter deltas post once per operation — while
replaying *the same per-event float additions in the same order* as a
line-at-a-time model, so every simulated output stays byte-identical.
The rules that keep that true:

* Every charge lands as the same ``+=`` float addition, in the same
  order, whether it goes through :meth:`SimClock.advance` or a batched
  local that is written back to the clock afterwards. Nothing is ever
  arithmetically merged or reassociated — in particular the writeback
  bandwidth term (the one non-dyadic charge) stays one addition per
  evicted/flushed line at its original position.
* Counter deltas post once at the end of each operation, load (or
  flush) counts before store counts — the same relative order in
  which the per-event path would first insert those keys — preserving
  the first-insertion order of the counter table (visible in exports).
* The same loop runs whether or not anyone is watching: a batch
  bypasses :meth:`SimClock.advance`, so after posting it the cache
  tells the clock's listeners itself, once, with the nanoseconds the
  operation covered (:meth:`SimClock.notify`).

``tests/nvm/test_cache_fastpath.py`` holds the kernel to a per-event
reference model's outputs bit for bit.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..config import CacheConfig
from ..sim.clock import SimClock
from ..sim.stats import StatsCollector
from .device import NVMDevice


#: ``CPUCache._lines.get`` default: the line is not cached at all.
_ABSENT = object()


class CPUCache:
    """LRU write-back cache over an :class:`NVMDevice`."""

    def __init__(self, config: CacheConfig, device: NVMDevice,
                 clock: SimClock, stats: StatsCollector,
                 rng: random.Random) -> None:
        self.config = config
        self.device = device
        self._clock = clock
        self._rng = rng
        self.line_size = config.line_size
        self.capacity_lines = config.capacity_lines
        #: line base -> pending bytes (a ``bytearray``), or ``None`` for
        #: an accounting-only line, in LRU order (front = coldest): a
        #: hit refreshes recency with one C-level ``move_to_end``, an
        #: eviction pops the coldest with ``popitem(last=False)``.
        self._lines: "OrderedDict[int, Optional[bytearray]]" = OrderedDict()
        #: Bases of the resident lines that differ from the device.
        self._dirty: Set[int] = set()
        self.hits = 0
        self.misses = 0
        #: Next-line stream prefetcher state: the line base one past the
        #: last touched run. A new access starting there is treated as a
        #: continuation of the stream (its first miss is discounted).
        self._stream_next = -1
        # The per-event charges, computed once: CacheConfig and
        # LatencyProfile are frozen, so these are the very products a
        # per-event model computes at every miss and writeback.
        latency = device.latency
        self._miss_ns = 1.0 * latency.read_latency_ns
        self._prefetched_miss_ns = (config.prefetch_discount
                                    * latency.read_latency_ns)
        self._writeback_ns = (device.line_size
                              / latency.bandwidth_bytes_per_ns)
        # Counters post in place, one dict add per operation.
        self._counters = stats.counter_table()

    # ------------------------------------------------------------------
    # The touch/evict kernel
    # ------------------------------------------------------------------

    def _access(self, ranges, stream: bool, write: bool = False,
                data: Optional[bytes] = None,
                collect: bool = False) -> List[bytes]:
        """Bring every line of every ``(addr, size)`` range into the
        cache, in order: a hit refreshes LRU; a miss fetches the line
        from NVM (read-for-ownership on a store miss, plain fill on a
        load miss), evicting — and, if dirty, writing back — the
        coldest line at capacity.

        The first miss pays full latency; once one line has missed,
        later misses of the same call are prefetch-discounted (still
        counted in full). With ``stream`` each range is a sequential
        run: it reads and sets the prefetcher's ``_stream_next``, so a
        run that starts exactly where the previous one ended continues
        the hardware stream and even its first miss is discounted
        (adjacent pool allocations read back-to-back).

        ``write`` marks the lines dirty; with ``data`` (the bytes of
        the single range) they also become byte-backed and receive
        their share of it. ``collect`` returns each range's logical
        bytes.
        """
        clock = self._clock
        cell = clock._cell
        lines_map = self._lines
        get_line = lines_map.get
        move_line = lines_map.move_to_end
        dirty = self._dirty
        line_size = self.line_size
        hit_ns = self.config.hit_latency_ns
        room = self.capacity_lines - len(lines_map)     # free lines
        start = now = clock._now_ns
        cat = cell[0]
        hits = misses = stores = 0
        streamed = False
        results: List[bytes] = []
        for addr, size in ranges:
            base = addr - addr % line_size
            end = addr + size
            stop = end if size else end + 1     # an empty range: one line
            if stream:
                streamed = base == self._stream_next
                self._stream_next = -(-stop // line_size) * line_size
            if collect:
                parts: Optional[List[bytearray]] = None
                holes = False
            for line_base in range(base, stop, line_size):
                buffer = get_line(line_base, _ABSENT)
                if buffer is not _ABSENT:
                    hits += 1
                    now += hit_ns
                    cat += hit_ns
                    move_line(line_base)  # refresh to MRU position
                else:
                    misses += 1
                    charge = (self._prefetched_miss_ns if streamed
                              else self._miss_ns)
                    streamed = True
                    now += charge
                    cat += charge
                    if room > 0:
                        room -= 1
                    else:
                        evict_base, evicted = lines_map.popitem(False)
                        if evict_base in dirty:
                            dirty.remove(evict_base)
                            stores += 1
                            device = self.device
                            if evicted is not None:
                                device.write_raw(evict_base, evicted)
                            # Re-read: reset_counters() rebinds it.
                            wear = device._wear
                            if wear is not None:
                                wear[evict_base
                                     // device.WEAR_SEGMENT_BYTES] += 1
                            now += self._writeback_ns
                            cat += self._writeback_ns
                    # Insert at MRU position.
                    buffer = lines_map[line_base] = None
                if write:
                    dirty.add(line_base)
                    if data is not None:
                        if buffer is None:
                            buffer = lines_map[line_base] = bytearray(
                                self.device.read_raw(line_base, line_size))
                        # The byte write happens line by line, inside
                        # the run: a run long enough to evict its own
                        # earlier lines must write back those lines
                        # *with* the new bytes.
                        lo = addr if addr > line_base else line_base
                        line_end = line_base + line_size
                        hi = end if end < line_end else line_end
                        buffer[lo - line_base:hi - line_base] = \
                            data[lo - addr:hi - addr]
                elif collect:
                    # Slice pending bytes at touch time: a later line
                    # of this call may evict this one, but reads never
                    # modify buffers and evictions write them back, so
                    # these are the bytes an overlay taken after the
                    # whole range would see.
                    if buffer is None:
                        holes = True
                    else:
                        if parts is None:
                            parts, offsets = [], []
                        lo = addr if addr > line_base else line_base
                        line_end = line_base + line_size
                        hi = end if end < line_end else line_end
                        offsets.append(lo - addr)
                        parts.append(buffer[lo - line_base:hi - line_base])
            if collect:
                if holes:
                    # Some line has no pending bytes: device bytes
                    # overlaid with the buffered content that has not
                    # reached the device. (read_raw charges no time,
                    # so the batched clock need not settle first.)
                    image = self.device.read_raw(addr, size)
                    if parts is not None:
                        overlay = bytearray(image)
                        for offset, part in zip(offsets, parts):
                            overlay[offset:offset + len(part)] = part
                        image = bytes(overlay)
                    results.append(image)
                else:
                    # Every line is buffer-resident: the device copy is
                    # stale for these bytes anyway, so skip the
                    # read_raw round trip.
                    results.append(b"".join(parts))  # type: ignore[arg-type]
        self.hits += hits
        self.misses += misses
        # Post batched counters once per call, loads before stores:
        # within a call the first load-miss always precedes the first
        # eviction writeback, so first-insertion order in the counter
        # table matches a per-event model.
        if misses:
            device = self.device
            counters = self._counters
            device.loads += misses
            device.bytes_loaded += misses * device.line_size
            counters["nvm.loads"] += misses
            if stores:
                device.stores += stores
                device.bytes_stored += stores * device.line_size
                counters["nvm.stores"] += stores
        clock._now_ns = now
        cell[0] = cat
        if clock._listeners:
            clock.notify(now - start)
        return results

    def _line_range(self, addr: int, size: int) -> range:
        line_size = self.line_size
        return range(addr - addr % line_size, addr + max(size, 1), line_size)

    # ------------------------------------------------------------------
    # Byte-backed access
    # ------------------------------------------------------------------

    def load(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes at ``addr`` through the cache."""
        return self._access(((addr, size),), True, collect=True)[0]

    def store(self, addr: int, data: bytes) -> None:
        """Write ``data`` at ``addr``; bytes stay in cache until
        evicted or flushed."""
        if data:
            self._access(((addr, len(data)),), True, True, data)

    def peek(self, addr: int, size: int) -> bytes:
        """The bytes :meth:`load` would return — device bytes overlaid
        with resident pending lines — at no cost: no time, counter,
        hit/miss, LRU or prefetcher state moves."""
        image = bytearray(self.device.read_raw(addr, size))
        line_size = self.line_size
        end = addr + size
        for line_base in range(addr - addr % line_size, end, line_size):
            buffer = self._lines.get(line_base)
            if buffer is not None:
                lo = max(addr, line_base)
                hi = min(end, line_base + line_size)
                image[lo - addr:hi - addr] = \
                    buffer[lo - line_base:hi - line_base]
        return bytes(image)

    def load_batch(self, ranges) -> list:
        """Read several independent ranges whose addresses are all
        known up front (e.g. a tuple's variable-length fields after its
        slot was read). Out-of-order hardware overlaps such loads
        (memory-level parallelism), so only the first miss of the whole
        batch pays full latency."""
        return self._access(ranges, False, collect=True)

    # ------------------------------------------------------------------
    # Accounting-only access (object regions: index nodes, MemTables...)
    # ------------------------------------------------------------------

    def touch_read(self, addr: int, size: int) -> None:
        """Charge the cost of reading an object region (no byte move)."""
        self._access(((addr, size),), True)

    def touch_read_runs(self, ranges) -> None:
        """Charge reading several object regions in one operation
        (a B+tree descent's node probes): each ``(addr, size)`` range
        is a sequential run, charged exactly as its own
        :meth:`touch_read` would be."""
        self._access(ranges, True)

    def touch_write(self, addr: int, size: int) -> None:
        """Charge the cost of writing an object region (no byte move)."""
        self._access(((addr, size),), True, True)

    def touch_read_scattered(self, addr: int, size: int,
                             probes: int) -> None:
        """Charge ``probes`` non-sequential single-line reads spread
        over a region (Bloom filter probes): no prefetch discount, so
        each probe is an access of its own."""
        if size <= 0:
            return
        span = max(1, size // max(probes, 1))
        for index in range(probes):
            self._access(((addr + (index * span) % size, 1),), False)

    # ------------------------------------------------------------------
    # Persistence primitives
    # ------------------------------------------------------------------

    def _flush_run(self, bases: Iterable[int], keep: bool) -> None:
        """Flush each line base once, batching the per-line flush
        latency and CLWB/CLFLUSH counts; all counters post once at the
        end of the run (same first-insertion ordering discipline as
        :meth:`_access`)."""
        clock = self._clock
        cell = clock._cell
        device = self.device
        flush_ns = self.config.flush_latency_ns
        wb_ns = self._writeback_ns
        wear = device._wear
        lines_map = self._lines
        dirty = self._dirty
        start = now = clock._now_ns
        cat = cell[0]
        pending = stores = 0
        for base in bases:
            if keep:
                buffer = lines_map.get(base)
            else:
                buffer = lines_map.pop(base, None)
            pending += 1
            now += flush_ns
            cat += flush_ns
            if base in dirty:
                dirty.remove(base)
                stores += 1
                if buffer is not None:
                    device.write_raw(base, buffer)
                if wear is not None:
                    wear[base // device.WEAR_SEGMENT_BYTES] += 1
                now += wb_ns
                cat += wb_ns
        # Flush count posted before the store count: a writeback is
        # always preceded by its own line's flush event, so the counter
        # table's first-insertion order matches a per-event model.
        if pending:
            counters = self._counters
            counters["cache.clwb" if keep else "cache.clflush"] += pending
            if stores:
                device.stores += stores
                device.bytes_stored += stores * device.line_size
                counters["nvm.stores"] += stores
        clock._now_ns = now
        cell[0] = cat
        if clock._listeners:
            clock.notify(now - start)

    def clflush(self, addr: int, size: int) -> None:
        """Flush-and-invalidate every line overlapping the range."""
        self._flush_run(self._line_range(addr, size), keep=False)

    def clwb(self, addr: int, size: int) -> None:
        """Write back dirty lines but keep them cached (clean)."""
        self._flush_run(self._line_range(addr, size), keep=True)

    def sfence(self) -> None:
        """Store fence: order preceding flushes before later stores."""
        self._counters["cache.sfence"] += 1
        self._clock.advance(self.config.fence_latency_ns)

    def _sync_lines(self, bases: Iterable[int]) -> None:
        config = self.config
        self._flush_run(bases, config.use_clwb)
        self.sfence()
        self._counters["cache.sync"] += 1
        if config.sync_extra_latency_ns:
            self._clock.advance(config.sync_extra_latency_ns)

    def sync(self, addr: int, size: int) -> None:
        """The allocator's durable sync primitive (Section 2.3):
        CLFLUSH (or, with ``use_clwb``, the Appendix C CLWB variant
        that keeps lines cached) over the range, then SFENCE, plus the
        configurable extra latency swept in the Fig. 16 experiment."""
        self._sync_lines(self._line_range(addr, size))

    def sync_ranges(self, ranges) -> None:
        """Batched sync primitive: flush each distinct line covered by
        the ``(addr, size)`` ranges once, then a single SFENCE.
        Adjacent ranges (e.g. a tuple's variable-length slots, which
        the allocator places back to back) share boundary lines;
        syncing them one by one flushes those lines twice and pays one
        fence per range."""
        bases: Dict[int, None] = {}     # insertion-ordered set
        for addr, size in ranges:
            bases.update(dict.fromkeys(self._line_range(addr, size)))
        self._sync_lines(bases)

    def drain(self) -> None:
        """Write back every dirty line (used by orderly shutdown)."""
        device = self.device
        dirty = self._dirty
        for base, buffer in self._lines.items():
            if base in dirty:
                if buffer is not None:
                    device.write_raw(base, buffer)
                device.charge_store(1, addr=base)
        self._lines.clear()
        dirty.clear()
        # The prefetch stream must not survive an empty cache: a
        # post-drain access that happens to start at the stale
        # stream_next is not a hardware-visible continuation.
        self._stream_next = -1

    # ------------------------------------------------------------------
    # Failure model
    # ------------------------------------------------------------------

    def crash(self) -> Tuple[int, int]:
        """Simulate a power failure.

        Each dirty unflushed line is independently written to NVM with
        ``crash_eviction_probability`` (the controller may have evicted
        it at any earlier point); otherwise its content is lost and the
        device retains the pre-store bytes. Returns
        ``(lines_survived, lines_lost)``.
        """
        survived = lost = 0
        probability = self.config.crash_eviction_probability
        dirty = self._dirty
        for base, buffer in self._lines.items():
            if base not in dirty:
                continue
            if self._rng.random() < probability:
                if buffer is not None:
                    self.device.write_raw(base, buffer)
                survived += 1
            else:
                lost += 1
        self._lines.clear()
        dirty.clear()
        self._stream_next = -1  # see drain()
        return survived, lost

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
