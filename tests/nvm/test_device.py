"""Unit tests for the emulated NVM device."""

import os
import subprocess
import sys

import pytest

from repro.config import LatencyProfile, PlatformConfig
from repro.errors import InvalidAddressError
from repro.nvm.device import NVMDevice
from repro.sim.clock import SimClock
from repro.sim.stats import StatsCollector


@pytest.fixture
def device():
    clock = SimClock()
    stats = StatsCollector(clock)
    dev = NVMDevice(1024 * 1024, LatencyProfile.dram(), clock, stats)
    return dev, clock, stats


def test_charge_load_counts_and_time(device):
    dev, clock, stats = device
    dev.charge_load(3)
    assert dev.loads == 3
    assert dev.bytes_loaded == 3 * 64
    assert stats.counter("nvm.loads") == 3
    assert clock.now_ns == pytest.approx(3 * 160)


def test_charge_store_is_bandwidth_bound(device):
    """Stores are posted: the write-back cache hides the latency; the
    emulator throttles only the sustainable write bandwidth."""
    dev, clock, __ = device
    dev.charge_store(1)
    assert clock.now_ns == pytest.approx(64 / 9.5)
    assert dev.stores == 1


def test_high_latency_profile_is_slower():
    clock = SimClock()
    stats = StatsCollector(clock)
    dev = NVMDevice(1024, LatencyProfile.high_nvm(), clock, stats)
    dev.charge_load(1)
    assert clock.now_ns == pytest.approx(1280)


def test_bulk_store_is_bandwidth_bound(device):
    dev, clock, __ = device
    dev.charge_bulk_store(6400)
    assert clock.now_ns == pytest.approx(6400 / 9.5)
    assert dev.stores == 100


def test_bulk_load_counts_lines_and_discounts_prefetch(device):
    dev, clock, __ = device
    dev.charge_bulk_load(128)   # 2 lines
    assert dev.loads == 2
    # First line full latency, second prefetch-discounted.
    assert clock.now_ns == pytest.approx(160 * 1.25 + 128 / 9.5)


def test_discounted_load_counts_full_lines(device):
    dev, clock, __ = device
    dev.charge_load(1, equivalent_lines=0.25)
    assert dev.loads == 1
    assert clock.now_ns == pytest.approx(40)


def test_raw_read_write_roundtrip(device):
    dev, clock, __ = device
    before = clock.now_ns
    dev.write_raw(128, b"hello")
    assert dev.read_raw(128, 5) == b"hello"
    assert clock.now_ns == before  # raw access charges no time


def test_raw_access_bounds_checked(device):
    dev, __, __unused = device
    with pytest.raises(InvalidAddressError):
        dev.read_raw(dev.capacity_bytes - 1, 2)
    with pytest.raises(InvalidAddressError):
        dev.write_raw(-1, b"x")


def test_default_capacity_device_reads_zeros_and_checks_bounds():
    """The lazily backed mapping behaves like the zero-filled array it
    replaced, at the platform's default 256 MiB."""
    clock = SimClock()
    capacity = PlatformConfig().nvm_capacity_bytes
    dev = NVMDevice(capacity, LatencyProfile.dram(), clock,
                    StatsCollector(clock))
    for addr in (0, capacity // 2, capacity - 64):
        assert dev.read_raw(addr, 64) == bytes(64)
    with pytest.raises(InvalidAddressError):
        dev.read_raw(capacity - 63, 64)
    with pytest.raises(InvalidAddressError):
        dev.write_raw(capacity - 1, b"xy")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc for the resident high-water mark")
def test_idle_platform_is_not_resident():
    """An untouched device costs no host memory: a fresh ``Platform()``
    stays under 64 MiB resident (zero-filled, it was 256 MiB more).
    Read from VmHWM, not ``ru_maxrss``: the latter carries the test
    runner's own high-water mark across ``exec``."""
    code = ("from repro.nvm.platform import Platform\n"
            "platform = Platform()\n"
            "for line in open('/proc/self/status'):\n"
            "    if line.startswith('VmHWM:'):\n"
            "        print(line.split()[1])\n")
    result = subprocess.run([sys.executable, "-c", code], check=True,
                            capture_output=True, text=True, timeout=60)
    assert int(result.stdout) < 64 * 1024  # kB


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_gets_a_private_copy_of_the_device(device):
    """MAP_PRIVATE: a forked sweep worker or executor sees the bytes
    its parent wrote and cannot write into its parent's device."""
    dev, __, __unused = device
    dev.write_raw(4096, b"parent")
    pid = os.fork()
    if pid == 0:
        ok = dev.read_raw(4096, 6) == b"parent"
        dev.write_raw(4096, b"child!")
        ok = ok and dev.read_raw(4096, 6) == b"child!"
        os._exit(0 if ok else 1)
    __, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert dev.read_raw(4096, 6) == b"parent"


def test_reset_counters(device):
    dev, __, __unused = device
    dev.charge_load(5)
    dev.charge_store(5)
    dev.reset_counters()
    assert dev.loads == 0
    assert dev.stores == 0
