"""Unit tests for configuration objects."""

import pytest

from repro.config import (CacheConfig, EngineConfig, FilesystemConfig,
                          LatencyProfile, PlatformConfig)
from repro.errors import ConfigError


def test_latency_profiles():
    dram = LatencyProfile.dram()
    low = LatencyProfile.low_nvm()
    high = LatencyProfile.high_nvm()
    assert dram.read_latency_ns == 160
    assert low.read_latency_ns == 2 * dram.read_latency_ns
    assert high.read_latency_ns == 8 * dram.read_latency_ns


def test_latency_parse():
    assert LatencyProfile.parse("low-nvm").name == "low-nvm"
    with pytest.raises(ConfigError):
        LatencyProfile.parse("warp-speed")


def test_latency_scaled():
    scaled = LatencyProfile.dram().scaled(4)
    assert scaled.read_latency_ns == 640
    assert "x4" in scaled.name


def test_invalid_latency_rejected():
    with pytest.raises(ConfigError):
        LatencyProfile("bad", read_latency_ns=0, write_latency_ns=10)
    with pytest.raises(ConfigError):
        LatencyProfile("bad", read_latency_ns=10, write_latency_ns=10,
                       bandwidth_bytes_per_ns=0)


def test_cache_config_validation():
    assert CacheConfig().capacity_lines > 0
    with pytest.raises(ConfigError):
        CacheConfig(capacity_bytes=32, line_size=64)
    with pytest.raises(ConfigError):
        CacheConfig(crash_eviction_probability=2.0)


@pytest.mark.parametrize("field", ["hit_latency_ns", "fence_latency_ns",
                                   "flush_latency_ns",
                                   "sync_extra_latency_ns"])
def test_cache_config_rejects_negative_latency(field):
    """The cache model batches charges past ``SimClock.advance``, so a
    negative latency would run the simulated clock backwards."""
    assert getattr(CacheConfig(**{field: 0.0}), field) == 0.0
    with pytest.raises(ConfigError, match=field):
        CacheConfig(**{field: -4.0})


def test_cache_config_prefetch_discount_range():
    for discount in (0.0, 1.0):
        assert CacheConfig(prefetch_discount=discount)
    for discount in (-0.25, 1.5):
        with pytest.raises(ConfigError, match="prefetch_discount"):
            CacheConfig(prefetch_discount=discount)


def test_filesystem_config_validation():
    assert FilesystemConfig().copies_per_write == 1
    with pytest.raises(ConfigError):
        FilesystemConfig(copies_per_write=0)


def test_platform_config_with_latency():
    config = PlatformConfig().with_latency(LatencyProfile.high_nvm())
    assert config.latency.name == "high-nvm"


def test_engine_config_validation():
    with pytest.raises(ConfigError):
        EngineConfig(btree_node_size=16)
    with pytest.raises(ConfigError):
        EngineConfig(cow_btree_node_size=64)
    with pytest.raises(ConfigError):
        EngineConfig(group_commit_size=0)
    # A level of zero runs made the log engine compact forever; a
    # zero-bit or zero-hash Bloom filter failed at the first flush.
    for field in ("lsm_max_runs_per_level", "bloom_bits_per_key",
                  "bloom_hashes"):
        for bad in (0, -1):
            with pytest.raises(ConfigError):
                EngineConfig(**{field: bad})


def test_engine_config_defaults_match_paper():
    config = EngineConfig()
    assert config.btree_node_size == 512       # STX B+tree (Section 5)
    assert config.cow_btree_node_size == 4096  # CoW B+tree (Section 5)
