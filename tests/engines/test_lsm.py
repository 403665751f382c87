"""Unit tests for the LSM components (MemTable, SSTable, compaction)."""

import pytest

from repro.engines.lsm.compaction import (chain_has_base, coalesce_entries,
                                          merge_entry_chains)
from repro.engines.lsm.memtable import MemTable
from repro.engines.lsm.sstable import SSTable


# ----------------------------------------------------------------------
# MemTable
# ----------------------------------------------------------------------

@pytest.fixture
def memtable(platform):
    return MemTable(platform.allocator, platform.memory), platform


def test_memtable_add_and_get(memtable):
    table, __ = memtable
    table.add(1, "put", b"image")
    chain = table.get_chain(1)
    assert [(entry.kind, entry.data) for entry in chain] \
        == [("put", b"image")]


def test_memtable_chain_order(memtable):
    table, __ = memtable
    table.add(1, "put", b"v0")
    table.add(1, "delta", b"v1")
    table.add(1, "tombstone", b"")
    assert [entry.kind for entry in table.get_chain(1)] \
        == ["put", "delta", "tombstone"]


def test_memtable_remove_entry(memtable):
    table, __ = memtable
    entry = table.add(1, "put", b"x")
    table.remove_entry(1, entry)
    assert table.get_chain(1) == []
    assert 1 not in table
    assert len(table) == 0


def test_memtable_size_accounting(memtable):
    table, __ = memtable
    assert table.size_bytes == 0
    entry = table.add(1, "put", b"x" * 100)
    assert table.size_bytes == entry.size_bytes
    table.remove_entry(1, entry)
    assert table.size_bytes == 0


def test_memtable_immutable_blocks_writes(memtable):
    table, __ = memtable
    table.add(1, "put", b"x")
    table.mark_immutable()
    with pytest.raises(RuntimeError):
        table.add(2, "put", b"y")


def test_memtable_bloom_filters_absent_keys(memtable):
    table, platform = memtable
    for key in range(50):
        table.add(key, "put", b"v")
    table.mark_immutable()
    loads_before = platform.device.loads
    assert table.get_chain(10_000) == []
    # The Bloom filter answered without touching entry allocations.
    assert platform.device.loads == loads_before


def test_memtable_keys_sorted(memtable):
    table, __ = memtable
    for key in [5, 1, 9, 3]:
        table.add(key, "put", b"")
    assert list(table.keys()) == [1, 3, 5, 9]
    assert list(table.keys_in_range(2, 6)) == [3, 5]


def test_memtable_destroy_frees_allocations(platform):
    live_before = platform.allocator.live_allocations
    table = MemTable(platform.allocator, platform.memory)
    for key in range(20):
        table.add(key, "put", b"payload")
    table.destroy()
    assert platform.allocator.live_allocations == live_before


def test_persistent_memtable_survives_crash(platform):
    table = MemTable(platform.allocator, platform.memory,
                     persistent=True)
    table.add(1, "put", b"durable")
    platform.crash()
    chain = table.get_chain(1)
    assert [(entry.kind, entry.data) for entry in chain] \
        == [("put", b"durable")]


def test_volatile_memtable_allocations_reclaimed_on_crash(platform):
    live_before = platform.allocator.live_allocations
    table = MemTable(platform.allocator, platform.memory,
                     persistent=False)
    table.add(1, "put", b"gone")
    platform.crash()  # reclaims index root + entry (all unpersisted)
    assert platform.allocator.live_allocations == live_before


# ----------------------------------------------------------------------
# Compaction helpers
# ----------------------------------------------------------------------

def test_merge_keeps_since_last_base():
    chains = [
        [("put", b"v0"), ("delta", b"d0")],
        [("put", b"v1")],
        [("delta", b"d1")],
    ]
    assert merge_entry_chains(chains) == [("put", b"v1"), ("delta", b"d1")]


def test_merge_tombstone_masks_history():
    chains = [[("put", b"v0")], [("tombstone", b"")]]
    assert merge_entry_chains(chains) == [("tombstone", b"")]


def test_merge_no_base_keeps_deltas():
    chains = [[("delta", b"d0")], [("delta", b"d1")]]
    assert merge_entry_chains(chains) == [("delta", b"d0"),
                                          ("delta", b"d1")]


def test_chain_has_base():
    assert chain_has_base([("put", b"")])
    assert chain_has_base([("delta", b""), ("tombstone", b"")])
    assert not chain_has_base([("delta", b"")])


def test_coalesce_applies_deltas():
    values = coalesce_entries(
        [("put", b"base"), ("delta", b"one"), ("delta", b"two")],
        decode_full=lambda data: {"base": data.decode(), "n": 0},
        decode_delta=lambda data: {"n": data.decode()})
    assert values == {"base": "base", "n": "two"}


def test_coalesce_tombstone_returns_none():
    assert coalesce_entries(
        [("put", b"x"), ("tombstone", b"")],
        decode_full=lambda data: {}, decode_delta=lambda data: {}) is None


def test_coalesce_no_base_returns_none():
    assert coalesce_entries(
        [("delta", b"x")],
        decode_full=lambda data: {}, decode_delta=lambda data: {}) is None


# ----------------------------------------------------------------------
# SSTable
# ----------------------------------------------------------------------

def test_sstable_roundtrip(platform):
    rows = [(key, [("put", bytes([key]))]) for key in range(20)]
    table = SSTable.write(platform.filesystem, "sstable/test/0", rows)
    assert table.get_chain(7) == [("put", bytes([7]))]
    assert table.get_chain(99) == []
    assert table.keys() == list(range(20))


def test_sstable_survives_crash_and_reopen(platform):
    rows = [(key, [("put", b"v")]) for key in range(10)]
    table = SSTable.write(platform.filesystem, "sstable/test/1", rows)
    platform.crash()
    table.open()  # rebuild volatile index + bloom from the file
    assert table.get_chain(5) == [("put", b"v")]


def test_sstable_bloom_avoids_reads(platform):
    rows = [(key, [("put", b"v")]) for key in range(100)]
    table = SSTable.write(platform.filesystem, "sstable/test/2", rows)
    reads_before = platform.stats.counter("fs.reads")
    assert table.get_chain(12345) == []
    assert platform.stats.counter("fs.reads") == reads_before


def test_sstable_rows_in_key_order(platform):
    rows = [(key, [("put", bytes([key % 250]))]) for key in range(30)]
    table = SSTable.write(platform.filesystem, "sstable/test/3", rows)
    assert [key for key, __ in table.rows()] == list(range(30))


def test_sstable_keys_in_range_is_the_filtered_key_list(platform):
    rows = [(key, [("put", b"v")]) for key in range(0, 40, 2)]
    table = SSTable.write(platform.filesystem, "sstable/test/5", rows)
    for lo, hi in ((None, None), (10, None), (None, 11), (7, 23),
                   (50, 60)):
        assert table.keys_in_range(lo, hi) == [
            key for key in table.keys()
            if (lo is None or key >= lo) and (hi is None or key < hi)]


def test_memtable_and_sstable_agree_as_runs(memtable):
    """The engines read either kind of run through ``pairs`` and
    ``rows``: an SSTable written from a MemTable's rows answers both
    the way the MemTable does."""
    table, platform = memtable
    for key in (5, 1, 3):
        table.add(key, "put", b"base-%d" % key)
    table.add(1, "delta", b"d1")
    table.add(3, "tombstone", b"")
    rows = list(table.rows())
    assert rows == [(1, [("put", b"base-1"), ("delta", b"d1")]),
                    (3, [("put", b"base-3"), ("tombstone", b"")]),
                    (5, [("put", b"base-5")])]
    run = SSTable.write(platform.filesystem, "sstable/test/6", rows)
    assert list(run.rows()) == rows
    for key in (1, 3, 5, 7):
        assert run.pairs(key) == table.pairs(key)
    assert table.pairs(7) == []


def test_sstable_delete_file(platform):
    table = SSTable.write(platform.filesystem, "sstable/test/4",
                          [(1, [("put", b"v")])])
    assert platform.filesystem.exists("sstable/test/4")
    table.destroy()
    assert not platform.filesystem.exists("sstable/test/4")
    assert table.size_bytes == 0
