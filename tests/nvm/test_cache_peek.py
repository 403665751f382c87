"""``CPUCache.peek``: the bytes ``load`` would return, at no cost.

``peek`` reads device bytes overlaid with resident pending lines. It
must agree with ``load`` on byte-backed dirty lines, accounting-only
lines, device-only bytes and ranges that span several lines, and it
must leave the clock, the counter table, hit/miss totals, LRU order and
the prefetcher's ``_stream_next`` exactly as they were.
"""

import random

from repro.config import CacheConfig, LatencyProfile
from repro.nvm.cache import CPUCache
from repro.nvm.device import NVMDevice
from repro.nvm.memory import NVMMemory
from repro.sim.clock import SimClock
from repro.sim.stats import StatsCollector


def make_cache(capacity_bytes=1024):
    clock = SimClock()
    stats = StatsCollector(clock)
    device = NVMDevice(64 * 1024, LatencyProfile.dram(), clock, stats)
    cache = CPUCache(CacheConfig(capacity_bytes=capacity_bytes), device,
                     clock, stats, random.Random(7))
    return cache, clock, stats


def snapshot(cache, clock, stats):
    """Everything a cost-free read must not move."""
    return (clock.now_ns, dict(stats.counters), cache.hits, cache.misses,
            [(base, None if buffer is None else bytes(buffer))
             for base, buffer in cache._lines.items()],
            set(cache._dirty), cache._stream_next,
            cache.device.loads, cache.device.stores)


def peek_then_load(cache, clock, stats, addr, size):
    before = snapshot(cache, clock, stats)
    peeked = cache.peek(addr, size)
    assert snapshot(cache, clock, stats) == before
    assert peeked == cache.load(addr, size)
    return peeked


def test_dirty_byte_backed_line():
    cache, clock, stats = make_cache()
    cache.store(70, b"pending")
    assert cache.device.read_raw(70, 7) == bytes(7)
    assert peek_then_load(cache, clock, stats, 64, 20) \
        == bytes(6) + b"pending" + bytes(7)


def test_accounting_only_line_reads_the_device():
    cache, clock, stats = make_cache()
    cache.device.write_raw(128, b"durable")
    cache.touch_write(128, 64)      # resident, dirty, but no bytes
    assert cache._lines[128] is None
    assert peek_then_load(cache, clock, stats, 128, 7) == b"durable"


def test_device_only_bytes():
    cache, clock, stats = make_cache()
    cache.store(256, b"flushed")
    cache.clflush(256, 7)
    assert 256 not in cache._lines
    assert peek_then_load(cache, clock, stats, 250, 16) \
        == bytes(6) + b"flushed" + bytes(3)


def test_range_across_mixed_lines():
    cache, clock, stats = make_cache()
    cache.device.write_raw(0, bytes(range(200)))
    cache.store(60, b"ABCDEFGH")            # straddles lines 0 and 64
    cache.touch_read(128, 1)                # accounting-only line
    cache.store(190, b"xy")                 # third line, dirty
    expected = bytearray(range(200))
    expected[60:68] = b"ABCDEFGH"
    expected[190:192] = b"xy"
    assert peek_then_load(cache, clock, stats, 10, 190) \
        == bytes(expected[10:200])


def test_empty_range():
    cache, clock, stats = make_cache()
    before = snapshot(cache, clock, stats)
    assert cache.peek(40, 0) == b""
    assert snapshot(cache, clock, stats) == before


def test_random_sequences_agree_with_load():
    """Stores, object touches, flushes and evictions (a 16-line cache
    over a 4 KiB working set) in random order; at random points a peek
    of a random range must equal the load that follows it."""
    for seed in range(5):
        rng = random.Random(seed)
        cache, clock, stats = make_cache()
        for __ in range(600):
            addr = rng.randrange(0, 4096)
            size = rng.randint(0, 200)
            roll = rng.random()
            if roll < 0.35:
                cache.store(addr, rng.randbytes(size))
            elif roll < 0.45:
                cache.touch_write(addr, size)
            elif roll < 0.55:
                cache.touch_read(addr, size)
            elif roll < 0.6:
                cache.clwb(addr, size)
            elif roll < 0.65:
                cache.clflush(addr, size)
            elif roll < 0.7:
                cache.crash()
            else:
                peek_then_load(cache, clock, stats, addr, size)


def test_memory_exposes_peek():
    cache, clock, stats = make_cache()
    memory = NVMMemory(cache)
    memory.store(8, b"slot")
    assert memory.peek(8, 4) == b"slot"
