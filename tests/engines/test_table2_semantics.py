"""Table 2 semantics: the NVM-aware engines' durability steps.

These tests assert the *mechanism* differences the paper's Table 2 and
Table 3 describe — pointer-sized WAL entries, immediate persistence at
commit, per-transaction log truncation, dirty-directory batching — not
just the observable CRUD behavior (covered by test_conformance).
"""

from repro.engines.base import ENGINE_NAMES

from .conftest import make_database, sample_row


# ----------------------------------------------------------------------
# NVM-InP
# ----------------------------------------------------------------------

def test_nvm_inp_wal_entries_are_pointer_sized():
    """Insert logs a pointer (p), not the tuple (T) — Table 3."""
    db = make_database(ENGINE_NAMES.NVM_INP, group_commit_size=10 ** 9)
    engine = db.partitions[0].engine
    txn = engine.begin()
    engine.insert(txn, "items", sample_row(1))
    entries = engine._nvm_wal.entries_for(txn.txn_id)
    assert len(entries) == 1
    # Tuple pointer + one varlen-field pointer — far below the
    # ~200-byte tuple image the InP engine would log.
    assert entries[0].content_size <= 16
    engine.commit(txn)


def test_nvm_inp_truncates_log_at_commit():
    db = make_database(ENGINE_NAMES.NVM_INP)
    engine = db.partitions[0].engine
    txn = engine.begin()
    engine.insert(txn, "items", sample_row(1))
    assert engine._nvm_wal.entry_count == 1
    engine.commit(txn)
    assert engine._nvm_wal.entry_count == 0


def test_nvm_inp_commit_is_immediately_durable():
    """No group commit wait: crash right after commit (no flush) must
    preserve the transaction."""
    db = make_database(ENGINE_NAMES.NVM_INP, group_commit_size=10 ** 9)
    db.insert("items", sample_row(1))  # commit, but no flush boundary
    db.crash()
    db.recover()
    assert db.get("items", 1) == sample_row(1)


def test_inp_commit_awaits_group_flush():
    """The traditional InP engine's unflushed commits can be lost."""
    db = make_database(ENGINE_NAMES.INP, group_commit_size=10 ** 9)
    db.insert("items", sample_row(1))
    db.crash()
    db.recover()
    assert db.get("items", 1) is None  # WAL never fsync'd


def test_nvm_inp_indexes_not_rebuilt_on_recovery():
    """The non-volatile B+tree survives; recovery does no index work
    proportional to the database."""
    db = make_database(ENGINE_NAMES.NVM_INP)
    for i in range(100):
        db.insert("items", sample_row(i))
    db.flush()
    engine = db.partitions[0].engine
    index_before = id(engine._tables["items"].primary)
    db.crash()
    db.recover()
    assert id(engine._tables["items"].primary) == index_before


def test_inp_indexes_rebuilt_on_recovery():
    db = make_database(ENGINE_NAMES.INP)
    for i in range(20):
        db.insert("items", sample_row(i))
    db.flush()
    engine = db.partitions[0].engine
    index_before = id(engine._tables["items"].primary)
    db.crash()
    db.recover()
    assert id(engine._tables["items"].primary) != index_before


# ----------------------------------------------------------------------
# CoW / NVM-CoW
# ----------------------------------------------------------------------

def test_cow_engines_write_no_log():
    for name in (ENGINE_NAMES.COW, ENGINE_NAMES.NVM_COW):
        db = make_database(name)
        for i in range(20):
            db.insert("items", sample_row(i))
        db.flush()
        assert db.storage_breakdown()["log"] == 0, name


def test_cow_batches_commits_until_flush():
    """Uncommitted batches live only in the dirty directory: a crash
    before the master-record flip erases them."""
    db = make_database(ENGINE_NAMES.COW, group_commit_size=10 ** 9)
    db.insert("items", sample_row(1))
    db.crash()
    db.recover()
    assert db.get("items", 1) is None


def test_nvm_cow_dirty_directory_reclaimed_after_crash():
    db = make_database(ENGINE_NAMES.NVM_COW, group_commit_size=10 ** 9)
    for i in range(10):
        db.insert("items", sample_row(i))
    db.flush()  # durable flip
    table_bytes = db.storage_breakdown()["table"]
    for i in range(10, 20):
        db.insert("items", sample_row(i))  # unflushed batch
    db.crash()
    db.recover()
    # The unflushed tuple copies were reclaimed, not leaked.
    assert db.storage_breakdown()["table"] == table_bytes
    for i in range(10):
        assert db.get("items", i) == sample_row(i)
    for i in range(10, 20):
        assert db.get("items", i) is None


def test_cow_shadow_paging_shares_subtrees():
    # Small pages force a multi-level directory so sharing is visible.
    db = make_database(ENGINE_NAMES.NVM_COW, cow_btree_node_size=512)
    for i in range(200):
        db.insert("items", sample_row(i))
    db.flush()
    tree = db.partitions[0].engine._dirs["items"].tree
    db.update("items", 0, {"price": 9.0})
    shared = tree.shared_node_count()
    total = tree.node_count(dirty=True)
    assert shared > total * 0.5  # most of the tree is shared


def test_cow_update_copies_whole_tuple_nvm_cow_copies_pointer():
    """Table 3: CoW writes B + T per update; NVM-CoW writes T + p but
    into slot pools, with only a pointer in the directory."""
    results = {}
    for name in (ENGINE_NAMES.COW, ENGINE_NAMES.NVM_COW):
        db = make_database(name, group_commit_size=1)
        for i in range(50):
            db.insert("items", sample_row(i))
        db.flush()
        before = db.nvm_counters()["stores"]
        for i in range(50):
            db.update("items", i, {"price": 1.0})
        db.flush()
        results[name] = db.nvm_counters()["stores"] - before
    assert results["nvm-cow"] < results["cow"]


# ----------------------------------------------------------------------
# Log / NVM-Log
# ----------------------------------------------------------------------

def test_log_flushes_memtable_to_sstable():
    db = make_database(ENGINE_NAMES.LOG, memtable_threshold_bytes=2048,
                       group_commit_size=1)
    for i in range(40):
        db.insert("items", sample_row(i))
    db.flush()
    engine = db.partitions[0].engine
    runs = sum(len(level) for level in engine._tables["items"].levels)
    assert runs >= 1
    assert db.storage_breakdown()["table"] > 0
    for i in range(40):
        assert db.get("items", i) == sample_row(i)


def test_log_compaction_bounds_runs():
    db = make_database(ENGINE_NAMES.LOG, memtable_threshold_bytes=1024,
                       group_commit_size=1)
    for i in range(120):
        db.insert("items", sample_row(i))
    db.flush()
    engine = db.partitions[0].engine
    store = engine._tables["items"]
    assert all(len(level) <= engine.config.lsm_max_runs_per_level
               for level in store.levels)
    assert engine.stats.counter("lsm.compactions") > 0
    for i in range(120):
        assert db.get("items", i) == sample_row(i)


def test_nvm_log_rolls_memtables_without_filesystem():
    db = make_database(ENGINE_NAMES.NVM_LOG,
                       memtable_threshold_bytes=2048)
    for i in range(60):
        db.insert("items", sample_row(i))
    engine = db.partitions[0].engine
    store = engine._tables["items"]
    assert sum(len(level) for level in store.levels) >= 1
    assert engine.stats.counter("fs.writes") == 0
    for i in range(60):
        assert db.get("items", i) == sample_row(i)


def test_nvm_log_compaction_merges_immutables():
    db = make_database(ENGINE_NAMES.NVM_LOG,
                       memtable_threshold_bytes=1024)
    for i in range(150):
        db.insert("items", sample_row(i))
    engine = db.partitions[0].engine
    store = engine._tables["items"]
    assert all(len(level) <= engine.config.lsm_max_runs_per_level
               for level in store.levels)
    assert engine.stats.counter("lsm.compactions") > 0
    for i in range(150):
        assert db.get("items", i) == sample_row(i)


def test_nvm_log_truncates_wal_per_txn():
    db = make_database(ENGINE_NAMES.NVM_LOG)
    engine = db.partitions[0].engine
    txn = engine.begin()
    engine.insert(txn, "items", sample_row(1))
    assert engine._nvm_wal.entry_count == 1
    engine.commit(txn)
    assert engine._nvm_wal.entry_count == 0


def test_log_tuple_coalescing_reads_multiple_runs():
    """Updates spread across runs force multi-run reads (the Log
    engine's read amplification)."""
    db = make_database(ENGINE_NAMES.LOG, memtable_threshold_bytes=1024,
                       group_commit_size=1)
    db.insert("items", sample_row(1))
    for round_number in range(30):
        db.update("items", 1, {"price": float(round_number)})
        for filler in range(round_number * 3 + 10, round_number * 3 + 13):
            if db.get("items", filler) is None:
                db.insert("items", sample_row(filler))
    db.flush()
    row = db.get("items", 1)
    assert row["price"] == 29.0
    assert row["payload"] == sample_row(1)["payload"]


def test_tombstones_purged_at_bottom_level():
    db = make_database(ENGINE_NAMES.LOG, memtable_threshold_bytes=512,
                       group_commit_size=1)
    for i in range(30):
        db.insert("items", sample_row(i))
    for i in range(30):
        db.delete("items", i)
    # Force enough flushes to cascade a full compaction.
    for i in range(100, 160):
        db.insert("items", sample_row(i))
    db.flush()
    for i in range(30):
        assert db.get("items", i) is None
