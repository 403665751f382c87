"""Unit tests for the non-volatile linked-list WAL."""

import pytest

from repro.engines.nvm_wal import ENTRY_HEADER_SIZE, NVMWal, NVMWalRecord
from repro.errors import SimulatedCrash
from repro.fault.injector import FaultPlan


@pytest.fixture
def wal(platform):
    return NVMWal(platform.allocator, platform.memory), platform


def test_append_and_read_back(wal):
    log, __ = wal
    record = NVMWalRecord("insert", "t", key=1, tuple_ptr=0x100)
    log.append(txn_id=1, record=record)
    assert log.entries_for(1) == [record]


def test_entries_in_append_order(wal):
    log, __ = wal
    records = [NVMWalRecord("insert", "t", key=i, tuple_ptr=i + 1)
               for i in range(5)]
    for record in records:
        log.append(1, record)
    assert log.entries_for(1) == records


def test_truncate_txn(wal):
    log, platform = wal
    log.append(1, NVMWalRecord("insert", "t", key=1, tuple_ptr=8))
    log.append(2, NVMWalRecord("insert", "t", key=2, tuple_ptr=16))
    live_before = platform.allocator.live_allocations
    assert log.truncate_txn(1) == 1
    assert platform.allocator.live_allocations == live_before - 1
    assert log.active_txn_ids() == [2]
    assert log.truncate_txn(1) == 0  # idempotent


def test_entries_survive_crash(wal):
    log, platform = wal
    record = NVMWalRecord("update", "t", key=1, tuple_ptr=64,
                          before_fields=b"before")
    log.append(7, record)
    platform.crash()
    assert log.active_txn_ids() == [7]
    assert log.entries_for(7) == [record]


def test_truncated_entries_gone_after_crash(wal):
    log, platform = wal
    log.append(7, NVMWalRecord("insert", "t", key=1, tuple_ptr=8))
    log.truncate_txn(7)
    platform.crash()
    assert log.active_txn_ids() == []


def test_pointer_entries_are_small(wal):
    """Table 3: NVM-InP insert logs only a pointer (p), not the tuple."""
    log, __ = wal
    entry = log.append(1, NVMWalRecord("insert", "t", key=1,
                                       tuple_ptr=0x40))
    assert entry.size <= ENTRY_HEADER_SIZE + 8


def test_update_record_accounts_before_image(wal):
    log, __ = wal
    record = NVMWalRecord("update", "t", key=1, tuple_ptr=0x40,
                          before_fields=b"f" * 16,
                          before_varlen=(("c", 0x80),))
    assert record.content_size == 8 + 16 + 8


def test_append_is_durable_immediately(wal):
    log, platform = wal
    syncs_before = platform.stats.counter("cache.sync")
    log.append(1, NVMWalRecord("insert", "t", key=1, tuple_ptr=8))
    # entry sync + atomic anchor update
    assert platform.stats.counter("cache.sync") >= syncs_before + 2


def test_head_pointer_tracks_latest(wal):
    log, __ = wal
    assert log.head_ptr() is None
    first = log.append(1, NVMWalRecord("insert", "t", key=1, tuple_ptr=8))
    assert log.head_ptr() == first.addr
    second = log.append(1, NVMWalRecord("insert", "t", key=2, tuple_ptr=9))
    assert log.head_ptr() == second.addr


def test_size_accounting(wal):
    log, __ = wal
    assert log.size_bytes == 0
    log.append(1, NVMWalRecord("insert", "t", key=1, tuple_ptr=8))
    assert log.size_bytes > 0
    assert log.entry_count == 1


def _three_in_flight(log):
    """Transactions 9, 3 and 5 (appended in that order), two records
    each; returns the records keyed by transaction."""
    records = {txn_id: [NVMWalRecord("insert", "t", key=(txn_id, n),
                                     tuple_ptr=8 * (txn_id + n))
                        for n in range(2)]
               for txn_id in (9, 3, 5)}
    for txn_id, pair in records.items():
        for record in pair:
            log.append(txn_id, record)
    return records


def test_undo_uncommitted_order_count_and_truncation(wal):
    log, __ = wal
    records = _three_in_flight(log)
    seen = []
    assert log.undo_uncommitted(seen.append) == 3
    assert seen == [record for txn_id in (3, 5, 9)
                    for record in reversed(records[txn_id])]
    assert log.active_txn_ids() == []
    assert log.undo_uncommitted(seen.append) == 0


def test_undo_uncommitted_crash_leaves_the_rest_for_the_next_call(
        platform):
    log = NVMWal(platform.allocator, platform.memory,
                 faults=platform.faults)
    records = _three_in_flight(log)
    platform.faults.arm(FaultPlan(["nvm_wal.truncate.before:2"]))
    seen = []
    with pytest.raises(SimulatedCrash):
        log.undo_uncommitted(seen.append)
    # Transaction 3 was truncated; 5 was undone but its truncation is
    # where the power failed, so it is undone again (undo is
    # idempotent in the engines) along with the untouched 9.
    assert log.active_txn_ids() == [5, 9]
    platform.faults.disarm()
    again = []
    assert log.undo_uncommitted(again.append) == 2
    assert again == [record for txn_id in (5, 9)
                     for record in reversed(records[txn_id])]
    assert log.active_txn_ids() == []
