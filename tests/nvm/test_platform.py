"""Unit tests for the platform facade (crash orchestration)."""

from repro.config import LatencyProfile, PlatformConfig
from repro.nvm.platform import Platform


def test_platform_constructs_with_defaults():
    platform = Platform()
    assert platform.clock.now_ns == 0
    assert platform.allocator.free_bytes > 0


def test_crash_runs_hooks_and_counts():
    platform = Platform()
    ran = []
    platform.register_crash_hook(lambda: ran.append(True))
    platform.crash()
    assert ran == [True]
    assert platform.crash_count == 1
    assert platform.stats.counter("platform.crashes") == 1


def test_unregister_crash_hook():
    platform = Platform()
    hook_calls = []

    def hook():
        hook_calls.append(1)

    platform.register_crash_hook(hook)
    platform.unregister_crash_hook(hook)
    platform.crash()
    assert hook_calls == []


def test_crash_reclaims_unpersisted_allocations():
    platform = Platform()
    kept = platform.allocator.malloc(64)
    platform.allocator.sync(kept)
    platform.allocator.malloc(64)
    assert platform.allocator.live_allocations == 2
    platform.crash()
    assert platform.allocator.live_allocations == 1


def test_clean_shutdown_preserves_cached_writes():
    platform = Platform()
    allocation = platform.allocator.malloc(64)
    platform.memory.store(allocation.addr, b"data")
    platform.clean_shutdown()
    assert platform.device.read_raw(allocation.addr, 4) == b"data"


def test_storage_footprint_merges_allocator_and_fs():
    platform = Platform()
    platform.allocator.malloc(100, tag="table")
    file = platform.filesystem.create("wal")
    platform.filesystem.append(file, b"x" * 40)
    footprint = platform.storage_footprint()
    assert footprint["table"] >= 100
    assert footprint["filesystem"] == 40


def test_latency_profiles_parse():
    for name in ("dram", "low-nvm", "high-nvm"):
        profile = LatencyProfile.parse(name)
        platform = Platform(PlatformConfig(latency=profile))
        assert platform.device.latency.name == name


def test_deterministic_crash_lottery():
    def run():
        platform = Platform(PlatformConfig(seed=99))
        allocation = platform.allocator.malloc(4096)
        platform.allocator.persist(allocation)
        for i in range(0, 4096, 64):
            platform.memory.store(allocation.addr + i, bytes([i % 256] * 64))
        platform.crash()
        return platform.device.read_raw(allocation.addr, 4096)

    assert run() == run()
