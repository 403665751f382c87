"""Equivalence tests for the batched cache kernel.

``CPUCache``'s one touch/evict kernel batches its clock and counter
bookkeeping (see the module docstring in ``repro.nvm.cache``), but
must replay exactly the same per-event charges as a line-at-a-time
model that calls ``SimClock.advance`` and ``StatsCollector.bump`` per
event. ``ReferenceCache`` below *is* that model — the pre-fast-path
implementation kept verbatim — and the property-style tests drive
both with the same randomized operation sequences, asserting
byte-identical simulated time (exact float equality), identical
counter tables *including first-insertion order*, identical
hit/miss totals, and identical returned bytes after every operation.

Every public entry point runs through that kernel (or the flush loop)
whether or not a clock listener is subscribed, so the random
sequences also subscribe and unsubscribe one mid-stream; a change
that skews a single float addition or counter ordering fails these
tests.
"""

import random

import pytest

from repro.config import CacheConfig, LatencyProfile
from repro.nvm.cache import CPUCache
from repro.nvm.device import NVMDevice
from repro.obs.sampler import TimeSeriesSampler
from repro.sim.clock import SimClock
from repro.sim.stats import StatsCollector

LINE = 64


class ReferenceCache:
    """Line-at-a-time write-back cache: one ``advance``/``bump`` per
    event, in event order. Semantically identical to ``CPUCache``."""

    def __init__(self, config, device, clock, stats, rng):
        self.config = config
        self.device = device
        self._clock = clock
        self._stats = stats
        self._rng = rng
        self.line_size = config.line_size
        self.capacity_lines = config.capacity_lines
        self._lines = {}
        self.hits = 0
        self.misses = 0
        self._stream_next = -1

    def _touch_line(self, base, write, byte_backed, miss_equivalent=1.0):
        missed = False
        line = self._lines.pop(base, None)
        if line is not None:
            self.hits += 1
            self._clock.advance(self.config.hit_latency_ns)
        else:
            missed = True
            self.misses += 1
            self.device.charge_load(1, equivalent_lines=miss_equivalent)
            line = _RefLine()
            if len(self._lines) >= self.capacity_lines:
                self._evict_one()
        if write:
            line.dirty = True
            if byte_backed and line.buffer is None:
                line.buffer = bytearray(
                    self.device.read_raw(base, self.line_size))
        self._lines[base] = line
        return line, missed

    def _touch_run(self, addr, size, write, byte_backed):
        discount = self.config.prefetch_discount
        lines = self._line_range(addr, size)
        missed_before = lines.start == self._stream_next
        for base in lines:
            equivalent = discount if missed_before else 1.0
            __, missed = self._touch_line(base, write, byte_backed,
                                          miss_equivalent=equivalent)
            missed_before = missed_before or missed
        self._stream_next = lines[-1] + self.line_size

    def _evict_one(self):
        base = next(iter(self._lines))
        line = self._lines.pop(base)
        if line.dirty:
            self._writeback(base, line)

    def _writeback(self, base, line):
        if line.buffer is not None:
            self.device.write_raw(base, bytes(line.buffer))
        self.device.charge_store(1, addr=base)
        line.dirty = False

    def _line_range(self, addr, size):
        first = (addr // self.line_size) * self.line_size
        last = ((addr + max(size, 1) - 1)
                // self.line_size) * self.line_size
        return range(first, last + 1, self.line_size)

    def load(self, addr, size):
        self._touch_run(addr, size, write=False, byte_backed=True)
        data = bytearray(self.device.read_raw(addr, size))
        for base in self._line_range(addr, size):
            line = self._lines.get(base)
            if line is None or line.buffer is None:
                continue
            lo = max(addr, base)
            hi = min(addr + size, base + self.line_size)
            data[lo - addr:hi - addr] = line.buffer[lo - base:hi - base]
        return bytes(data)

    def store(self, addr, data):
        size = len(data)
        if size == 0:
            return
        discount = self.config.prefetch_discount
        lines = self._line_range(addr, size)
        missed_before = lines.start == self._stream_next
        for base in lines:
            equivalent = discount if missed_before else 1.0
            line, missed = self._touch_line(base, write=True,
                                            byte_backed=True,
                                            miss_equivalent=equivalent)
            missed_before = missed_before or missed
            lo = max(addr, base)
            hi = min(addr + size, base + self.line_size)
            line.buffer[lo - base:hi - base] = data[lo - addr:hi - addr]
        self._stream_next = lines[-1] + self.line_size

    def load_batch(self, ranges):
        discount = self.config.prefetch_discount
        missed_before = False
        results = []
        for addr, size in ranges:
            for base in self._line_range(addr, size):
                equivalent = discount if missed_before else 1.0
                __, missed = self._touch_line(
                    base, write=False, byte_backed=True,
                    miss_equivalent=equivalent)
                missed_before = missed_before or missed
            data = bytearray(self.device.read_raw(addr, size))
            for base in self._line_range(addr, size):
                line = self._lines.get(base)
                if line is None or line.buffer is None:
                    continue
                lo = max(addr, base)
                hi = min(addr + size, base + self.line_size)
                data[lo - addr:hi - addr] = \
                    line.buffer[lo - base:hi - base]
            results.append(bytes(data))
        return results

    def touch_read(self, addr, size):
        self._touch_run(addr, size, write=False, byte_backed=False)

    def touch_write(self, addr, size):
        self._touch_run(addr, size, write=True, byte_backed=False)

    def touch_read_scattered(self, addr, size, probes):
        if size <= 0:
            return
        span = max(1, size // max(probes, 1))
        for index in range(probes):
            position = addr + (index * span) % size
            self._touch_line((position // self.line_size)
                             * self.line_size,
                             write=False, byte_backed=False)

    def _flush_line(self, base, keep):
        if keep:
            line = self._lines.get(base)
            self._stats.bump("cache.clwb")
        else:
            line = self._lines.pop(base, None)
            self._stats.bump("cache.clflush")
        self._clock.advance(self.config.flush_latency_ns)
        if line is not None and line.dirty:
            self._writeback(base, line)

    def clflush(self, addr, size):
        for base in self._line_range(addr, size):
            self._flush_line(base, keep=False)

    def clwb(self, addr, size):
        for base in self._line_range(addr, size):
            self._flush_line(base, keep=True)

    def sfence(self):
        self._stats.bump("cache.sfence")
        self._clock.advance(self.config.fence_latency_ns)

    def sync(self, addr, size):
        if self.config.use_clwb:
            self.clwb(addr, size)
        else:
            self.clflush(addr, size)
        self.sfence()
        self._stats.bump("cache.sync")
        if self.config.sync_extra_latency_ns:
            self._clock.advance(self.config.sync_extra_latency_ns)

    def sync_ranges(self, ranges):
        keep = self.config.use_clwb
        seen = set()
        for addr, size in ranges:
            for base in self._line_range(addr, size):
                if base not in seen:
                    seen.add(base)
                    self._flush_line(base, keep)
        self.sfence()
        self._stats.bump("cache.sync")
        if self.config.sync_extra_latency_ns:
            self._clock.advance(self.config.sync_extra_latency_ns)

    def drain(self):
        for base, line in list(self._lines.items()):
            if line.dirty:
                self._writeback(base, line)
        self._lines.clear()
        self._stream_next = -1

    def crash(self):
        survived = lost = 0
        probability = self.config.crash_eviction_probability
        for base, line in self._lines.items():
            if not line.dirty:
                continue
            if self._rng.random() < probability:
                if line.buffer is not None:
                    self.device.write_raw(base, bytes(line.buffer))
                survived += 1
            else:
                lost += 1
        self._lines.clear()
        self._stream_next = -1
        return survived, lost


class _RefLine:
    __slots__ = ("dirty", "buffer")

    def __init__(self):
        self.dirty = False
        self.buffer = None


def _make(cls, capacity_bytes=4096, crash_prob=0.5, wear=False):
    clock = SimClock()
    stats = StatsCollector(clock)
    device = NVMDevice(256 * 1024, LatencyProfile.dram(), clock, stats,
                       track_wear=wear)
    config = CacheConfig(capacity_bytes=capacity_bytes,
                         crash_eviction_probability=crash_prob)
    cache = cls(config, device, clock, stats, random.Random(99))
    return cache, device, clock, stats


def _ignore(ns):
    """The clock listener the ``listen`` op subscribes."""


def _random_ops(rng, count, span):
    """A randomized op sequence hitting every public cache entry
    point, with enough address pressure to force constant eviction.
    ``listen`` ops subscribe and unsubscribe a clock listener
    mid-sequence: being watched must not change what the cache does."""
    ops = []
    listening = False
    for __ in range(count):
        kind = rng.choice(
            ["load", "load", "store", "store", "load_batch",
             "touch_read", "touch_write", "scattered", "sync",
             "sync_ranges", "clflush", "clwb", "drain", "listen"])
        addr = rng.randrange(0, span)
        if kind in ("load", "store"):
            # Mix of empty, sub-line and multi-line (occasionally
            # longer than the whole cache, so a run evicts its own
            # earlier lines).
            size = rng.choice([0, 1, 8, 40, 64, 100, 400,
                               rng.randrange(4096, 8192)])
            ops.append((kind, addr, min(size, span - addr)))
        elif kind == "load_batch":
            ranges = []
            for __r in range(rng.randrange(1, 5)):
                raddr = rng.randrange(0, span - 256)
                rsize = rng.choice([8, 40, 90, 200])
                ranges.append((raddr, rsize))
            ops.append((kind, tuple(ranges)))
        elif kind in ("touch_read", "touch_write"):
            size = rng.choice([16, 64, 256, 2048])
            size = min(size, span - addr)
            ops.append((kind, addr, max(size, 1)))
        elif kind == "scattered":
            ops.append((kind, addr, 4096, rng.randrange(1, 6)))
        elif kind in ("sync", "clflush", "clwb"):
            size = min(rng.choice([8, 64, 300]), span - addr)
            ops.append((kind, addr, max(size, 1)))
        elif kind == "sync_ranges":
            ranges = []
            for __r in range(rng.randrange(1, 4)):
                raddr = rng.randrange(0, span - 256)
                ranges.append((raddr, rng.choice([8, 48, 130])))
            ops.append((kind, tuple(ranges)))
        elif kind == "listen":
            listening = not listening
            ops.append((kind, listening))
        else:
            ops.append((kind,))
    return ops


def _apply(cache, op):
    kind = op[0]
    if kind == "load":
        return cache.load(op[1], op[2])
    if kind == "store":
        payload = bytes((op[1] + i) % 251 for i in range(op[2]))
        return cache.store(op[1], payload)
    if kind == "load_batch":
        return cache.load_batch(op[1])
    if kind == "touch_read":
        return cache.touch_read(op[1], op[2])
    if kind == "touch_write":
        return cache.touch_write(op[1], op[2])
    if kind == "scattered":
        return cache.touch_read_scattered(op[1], op[2], op[3])
    if kind == "sync":
        return cache.sync(op[1], op[2])
    if kind == "sync_ranges":
        return cache.sync_ranges(op[1])
    if kind == "clflush":
        return cache.clflush(op[1], op[2])
    if kind == "clwb":
        return cache.clwb(op[1], op[2])
    if kind == "drain":
        return cache.drain()
    if kind == "listen":
        clock = cache._clock
        return (clock.subscribe if op[1] else clock.unsubscribe)(_ignore)
    raise AssertionError(kind)


def _assert_same_state(fast, ref, fc, rc, fs, rs, context):
    assert fc.now_ns == rc.now_ns, context          # exact float
    assert fast.hits == ref.hits, context
    assert fast.misses == ref.misses, context
    assert fast.device.loads == ref.device.loads, context
    assert fast.device.stores == ref.device.stores, context
    # Counter tables must match as ordered item lists: exports expose
    # first-insertion order.
    assert (list(fs.counters.items())
            == list(rs.counters.items())), context


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 1234])
def test_fastpath_matches_reference_on_random_ops(seed):
    fast, __, fc, fs = _make(CPUCache)
    ref, __r, rc, rs = _make(ReferenceCache)
    rng = random.Random(seed)
    for step, op in enumerate(_random_ops(rng, 300, 32 * 1024)):
        out_fast = _apply(fast, op)
        out_ref = _apply(ref, op)
        assert out_fast == out_ref, (seed, step, op)
        _assert_same_state(fast, ref, fc, rc, fs, rs, (seed, step, op))
    # Device images agree byte for byte after draining both.
    fast.drain()
    ref.drain()
    assert (fast.device.read_raw(0, 32 * 1024)
            == ref.device.read_raw(0, 32 * 1024))


def test_fastpath_matches_reference_with_wear_tracking():
    fast, fd, fc, fs = _make(CPUCache, wear=True)
    ref, rd, rc, rs = _make(ReferenceCache, wear=True)
    rng = random.Random(17)
    for step, op in enumerate(_random_ops(rng, 200, 16 * 1024)):
        assert _apply(fast, op) == _apply(ref, op)
        _assert_same_state(fast, ref, fc, rc, fs, rs, (step, op))
    assert fd.wear_histogram() == rd.wear_histogram()


def test_listener_is_told_every_posted_batch_and_state_matches_reference():
    """With a clock listener attached the cache runs the same kernel;
    it must match the reference model, and what the listener is told
    — one figure per posted batch — must add up to the elapsed time."""
    fast, __, fc, fs = _make(CPUCache)
    ref, __r, rc, rs = _make(ReferenceCache)
    seen = []
    fc.subscribe(lambda ns: seen.append(ns))
    rng = random.Random(5)
    for step, op in enumerate(_random_ops(rng, 150, 16 * 1024)):
        assert _apply(fast, op) == _apply(ref, op)
        _assert_same_state(fast, ref, fc, rc, fs, rs, (step, op))
    assert sum(seen) == pytest.approx(fc.now_ns)
    assert all(ns > 0 for ns in seen)


def test_sampler_samples_once_per_crossing_at_an_operation_boundary():
    """A real ``TimeSeriesSampler`` on a real cache: one sample per
    deadline crossing, taken at the end of the cache operation that
    crossed it (never inside one, never a whole operation late)."""
    cache, device, clock, __ = _make(CPUCache)
    interval_ns = 2_000.0
    sampler = TimeSeriesSampler(
        clock, {"loads": lambda: float(device.loads)},
        interval_ms=interval_ns / 1e6)
    sampler.attach()
    # Operations that post exactly one batch each.
    ops = [op for op in _random_ops(random.Random(3), 600, 32 * 1024)
           if op[0] in ("load", "store", "load_batch", "touch_read",
                        "touch_write", "clflush", "clwb")]
    boundaries = [(clock.now_ns, device.loads)]
    for op in ops:
        _apply(cache, op)
        boundaries.append((clock.now_ns, device.loads))
    sampler.detach()
    crossings = [
        after for before, after in zip(boundaries, boundaries[1:])
        if after[0] // interval_ns > before[0] // interval_ns]
    assert len(crossings) > 20
    # Baseline sample first, detach sample last, crossings between.
    assert ([(sample["t_ms"], sample["loads"])
             for sample in sampler.samples[1:-1]]
            == [(now_ns / 1e6, float(loads))
                for now_ns, loads in crossings])


def test_crash_equivalence_with_seeded_rng():
    """Crash survival draws must consume the cache rng in the same
    (LRU) order in both implementations."""
    fast, fd, fc, __ = _make(CPUCache, crash_prob=0.5)
    ref, rd, rc, __r = _make(ReferenceCache, crash_prob=0.5)
    rng = random.Random(11)
    for op in _random_ops(rng, 120, 16 * 1024):
        if op[0] == "drain":
            continue
        _apply(fast, op)
        _apply(ref, op)
    assert fast.crash() == ref.crash()
    assert fd.read_raw(0, 16 * 1024) == rd.read_raw(0, 16 * 1024)


def test_lru_eviction_order_is_preserved():
    cache, device, __, __s = _make(CPUCache, capacity_bytes=4 * LINE,
                                   crash_prob=0.0)
    for index in range(4):
        cache.touch_write(index * LINE, 8)      # lines 0..3, all dirty
    cache.touch_read(0, 8)                      # refresh line 0 to MRU
    stores_before = device.stores
    cache.touch_read(4 * LINE * 10, 8)          # forces one eviction
    # Line 1 (the coldest after line 0 was refreshed) is written back.
    assert device.stores == stores_before + 1
    assert 1 * LINE not in cache._lines
    assert 0 in cache._lines


def test_prefetch_stream_discount_on_continuation():
    cache, device, clock, __ = _make(CPUCache, crash_prob=0.0)
    read_ns = device.latency.read_latency_ns
    discount = cache.config.prefetch_discount
    cache.load(0, 128)                          # lines 0-1: full+disc
    t0 = clock.now_ns
    cache.load(128, 128)                        # continues the stream
    # Both misses of the continuation run are discounted.
    assert clock.now_ns - t0 == 2 * (discount * read_ns)
    t1 = clock.now_ns
    cache.load(1024, 64)                        # fresh stream: full
    assert clock.now_ns - t1 == read_ns


def test_stream_state_resets_on_drain_and_crash():
    """Regression test: a drained or crashed cache must not treat the
    next access as a prefetch-stream continuation of the run that
    ended before the drain/crash."""
    cache, device, clock, __ = _make(CPUCache, crash_prob=0.0)
    read_ns = device.latency.read_latency_ns
    cache.load(0, 128)
    assert cache._stream_next == 128
    cache.drain()
    assert cache._stream_next == -1
    t0 = clock.now_ns
    cache.load(128, 8)                          # would have continued
    assert clock.now_ns - t0 == read_ns         # full-latency miss
    cache.load(192, 8)
    assert cache._stream_next == 256
    cache.crash()
    assert cache._stream_next == -1


def test_buffer_resident_load_skips_device_read(monkeypatch):
    cache, device, __, __s = _make(CPUCache, crash_prob=0.0)
    cache.store(256, bytes(range(64)))          # whole line buffered
    calls = []
    real_read = device.read_raw

    def counting_read(addr, size):
        calls.append((addr, size))
        return real_read(addr, size)

    monkeypatch.setattr(device, "read_raw", counting_read)
    assert cache.load(260, 8) == bytes(range(4, 12))
    assert calls == []                          # served from the buffer
    # A miss on an unbuffered line still reads the device.
    cache.load(8192, 8)
    assert calls


def test_store_run_longer_than_cache_matches_reference():
    """A single store spanning more lines than the cache holds evicts
    its own earlier lines mid-run; the written-back bytes must include
    the new data (the generic path writes bytes line by line)."""
    fast, fd, fc, fs = _make(CPUCache, capacity_bytes=4 * LINE,
                             crash_prob=0.0)
    ref, rd, rc, rs = _make(ReferenceCache, capacity_bytes=4 * LINE,
                            crash_prob=0.0)
    payload = bytes(i % 256 for i in range(16 * LINE))
    fast.store(32, payload)
    ref.store(32, payload)
    _assert_same_state(fast, ref, fc, rc, fs, rs, "long store")
    assert fd.read_raw(0, 20 * LINE) == rd.read_raw(0, 20 * LINE)
    fast.drain()
    ref.drain()
    assert fd.read_raw(0, 20 * LINE) == rd.read_raw(0, 20 * LINE)


def _assert_line_state(fast, ref, context):
    """Every dirty line is resident, every pending buffer is one whole
    line held by a resident line, and the resident lines (in LRU
    order), the dirty set and the buffered bytes are the reference's."""
    resident = fast._lines
    assert fast._dirty <= resident.keys(), context
    for buffer in resident.values():
        assert buffer is None or (type(buffer) is bytearray
                                  and len(buffer) == fast.line_size), context
    assert list(resident) == list(ref._lines), context
    assert fast._dirty == {base for base, line in ref._lines.items()
                           if line.dirty}, context
    assert ({base: bytes(buffer) for base, buffer in resident.items()
             if buffer is not None}
            == {base: bytes(line.buffer) for base, line in ref._lines.items()
                if line.buffer is not None}), context


@pytest.mark.parametrize("seed", [0, 3, 8])
def test_line_state_invariants_hold_after_every_op(seed):
    fast, __, fc, fs = _make(CPUCache)
    ref, __r, rc, rs = _make(ReferenceCache)
    rng = random.Random(seed)
    for step, op in enumerate(_random_ops(rng, 300, 32 * 1024)):
        _apply(fast, op)
        _apply(ref, op)
        _assert_line_state(fast, ref, (seed, step, op))
    assert fast.crash() == ref.crash()
    _assert_line_state(fast, ref, (seed, "crash"))
