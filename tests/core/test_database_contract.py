"""The database contract, on both transports.

``Database`` (partitions in this process) and ``ShardedDatabase`` (one
executor process per partition) are one implementation over the
``Partition`` contract, so they must agree *exactly*: same rows, same
counters, same simulated clock, same recovery latency, same lifecycle
errors at the same call sites. One scripted run per transport and
engine is observed once (module fixture) and compared field by field.
"""

import gc
import multiprocessing
import weakref

import pytest

from repro import Column, ColumnType, Database, EngineConfig, Schema
from repro.config import CacheConfig, PlatformConfig
from repro.core.twopc import FP_DECIDE_AFTER
from repro.dist import Branch, DistributedTransaction, ShardedDatabase
from repro.engines.base import engine_names
from repro.errors import (CrashedError, DatabaseClosedError,
                          SessionStateError, SimulatedCrash,
                          TransactionAborted)
from repro.fault.injector import FaultPlan

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
FACTORIES = [
    Database,
    pytest.param(ShardedDatabase, marks=pytest.mark.skipif(
        not HAVE_FORK, reason="sharded tier tests need the fork "
                              "start method")),
]
#: ``inp`` sizes a checkpoint file through the simulated filesystem,
#: which is what makes counter reads observable in simulated time.
ENGINES = ["nvm-inp", "inp"]

ACCOUNTS = Schema.build(
    "accounts",
    [Column("id", ColumnType.INT),
     Column("owner", ColumnType.STRING, capacity=20),
     Column("balance", ColumnType.FLOAT)],
    primary_key=["id"])


def make_db(factory, engine="nvm-inp"):
    db = factory(
        engine, partitions=2, seed=11,
        platform_config=PlatformConfig(
            seed=11, cache=CacheConfig(crash_eviction_probability=0.0)),
        engine_config=EngineConfig(group_commit_size=1,
                                   checkpoint_interval_txns=25))
    db.create_table(ACCOUNTS)
    return db


# Stored procedures are module-level: the sharded tier pickles them.

def deposit(ctx, key, amount):
    row = ctx.get("accounts", key)
    ctx.update("accounts", key, {"balance": row["balance"] + amount})
    return row["balance"] + amount


def veto(ctx):
    raise TransactionAborted("participant says no")


def pair(key0, key1, amount, second=deposit):
    """Key ``key0`` lives on partition 0, ``key1`` on partition 1."""
    args = (key1, amount) if second is deposit else ()
    return DistributedTransaction(
        Branch(0, deposit, (key0, amount)), (Branch(1, second, args),))


def counters(db):
    return {
        "committed_txns": db.committed_txns,
        "aborted_txns": db.aborted_txns,
        "nvm_counters": db.nvm_counters(),
        "now_ns": db.now_ns,
        "storage_breakdown": db.storage_breakdown(),
        "category_ns": db.category_ns(),
    }


def scripted_run(factory, engine):
    """Load, routed one-shot operations, merged scans, a committed and
    a vetoed distributed transaction, a clean crash/recover cycle, then
    a crash that leaves a decided distributed transaction in doubt."""
    seen = {}
    db = make_db(factory, engine)
    try:
        for key in range(40):
            db.insert("accounts",
                      {"id": key, "owner": f"o{key}", "balance": 1.0})
        for key in range(0, 40, 3):
            db.update("accounts", key, {"balance": key * 2.0})
        for key in range(0, 40, 5):
            db.delete("accounts", key)
        db.execute(deposit, 7, 5.0, partition=db.route(7))
        db.checkpoint()
        seen["gets"] = [db.get("accounts", key) for key in range(40)]
        seen["scan"] = db.scan("accounts")
        seen["range_scan"] = db.scan("accounts", 11, 23)
        seen["dtxn_result"] = db.execute_distributed(pair(2, 3, 1.5))
        with pytest.raises(TransactionAborted):
            db.execute_distributed(pair(4, 9, 100.0, second=veto))
        db.flush()
        seen["before_crash"] = counters(db)

        db.crash()
        seen["recover_s"] = db.recover()
        seen["after_recover"] = counters(db)
        seen["scan_after_recover"] = db.scan("accounts")

        db.arm_faults(FaultPlan([(FP_DECIDE_AFTER, 1)]))
        with pytest.raises(SimulatedCrash):
            db.execute_distributed(pair(6, 7, 2.5))
        seen["crashed_by_fault"] = db.crashed
        seen["fault_hits"] = db.fault_hits()
        seen["faults_fired"] = [partition.faults_fired()
                                for partition in db.partitions]
        db.disarm_faults()
        seen["in_doubt_recover_s"] = db.recover()
        seen["after_in_doubt"] = counters(db)
        seen["scan_after_in_doubt"] = db.scan("accounts")
    finally:
        db.close()
    return seen


@pytest.fixture(scope="module", params=ENGINES)
def runs(request):
    if not HAVE_FORK:
        pytest.skip("sharded tier tests need the fork start method")
    return (scripted_run(Database, request.param),
            scripted_run(ShardedDatabase, request.param))


# ----------------------------------------------------------------------
# The two transports agree exactly
# ----------------------------------------------------------------------

def test_scripted_run_did_what_it_says(runs):
    serial, __ = runs
    keys = [key for key, __ in serial["scan"]]
    assert keys == [key for key in range(40) if key % 5]
    assert serial["gets"][5] is None and serial["gets"][7]["balance"] == 6.0
    assert [key for key, __ in serial["range_scan"]] \
        == [key for key in range(11, 23) if key % 5]
    assert serial["dtxn_result"] == 2.5        # key 2: 1.0 + 1.5
    before, after = serial["before_crash"], serial["after_recover"]
    assert before["aborted_txns"] >= 1          # the vetoed home branch
    assert serial["recover_s"] >= 0.0
    assert serial["scan_after_recover"] == [
        (key, {**row, "balance": row["balance"] + 1.5}
         if key in (2, 3) else row) for key, row in serial["scan"]]
    assert after["now_ns"] > before["now_ns"]
    # The decision was durable, so recovery finished the commit on
    # both participants even though neither had applied it.
    assert serial["crashed_by_fault"]
    assert serial["faults_fired"] == [[(FP_DECIDE_AFTER, 1)], []]
    rows = dict(serial["scan_after_in_doubt"])
    assert rows[6]["balance"] == 14.5 and rows[7]["balance"] == 8.5
    assert serial["in_doubt_recover_s"] > 0.0


@pytest.mark.parametrize("what", [
    "gets", "scan", "range_scan", "dtxn_result", "before_crash",
    "recover_s", "after_recover", "scan_after_recover",
    "crashed_by_fault", "fault_hits", "faults_fired",
    "in_doubt_recover_s", "after_in_doubt", "scan_after_in_doubt"])
def test_transports_agree_exactly(runs, what):
    serial, sharded = runs
    assert serial[what] == sharded[what]


# ----------------------------------------------------------------------
# Lifecycle: the same error at the same call site
# ----------------------------------------------------------------------

def _every_operation(db):
    """One thunk per operation that needs a live database."""
    row = {"id": 1, "owner": "a", "balance": 1.0}
    return {
        "create_table": lambda: db.create_table(ACCOUNTS),
        "execute": lambda: db.execute(deposit, 1, 1.0),
        "insert": lambda: db.insert("accounts", row),
        "update": lambda: db.update("accounts", 1, {"balance": 2.0}),
        "delete": lambda: db.delete("accounts", 1),
        "get": lambda: db.get("accounts", 1),
        "scan": lambda: db.scan("accounts"),
        "flush": db.flush,
        "settle": db.settle,
        "checkpoint": db.checkpoint,
        "set_checkpoint_interval":
            lambda: db.set_checkpoint_interval(10),
        "execute_distributed":
            lambda: db.execute_distributed(pair(2, 3, 1.0)),
        "session": db.session,
    }


@pytest.mark.parametrize("factory", FACTORIES)
def test_crashed_database_raises_at_the_call_site(factory):
    db = make_db(factory)
    try:
        db.insert("accounts", {"id": 1, "owner": "a", "balance": 1.0})
        db.flush()
        db.crash()
        assert db.crashed
        for name, operation in _every_operation(db).items():
            with pytest.raises(CrashedError):
                operation()
                pytest.fail(f"{name} did not raise")
        # The counters stay readable, and recovery brings it all back.
        assert db.committed_txns == 1
        db.recover()
        assert not db.crashed
        assert db.get("accounts", 1)["balance"] == 1.0
    finally:
        db.close()


@pytest.mark.parametrize("factory", FACTORIES)
def test_closed_database_raises_at_the_call_site(factory):
    db = make_db(factory)
    db.close()
    db.close()  # idempotent
    assert db.closed
    operations = _every_operation(db)
    operations.update({
        "crash": db.crash, "recover": db.recover,
        "arm_faults": db.arm_faults, "enter": db.__enter__})
    for name, operation in operations.items():
        with pytest.raises(DatabaseClosedError):
            operation()
            pytest.fail(f"{name} did not raise")


@pytest.mark.parametrize("factory", FACTORIES)
def test_recover_on_closed_database_fails_even_when_crashed(factory):
    db = make_db(factory)
    db.crash()
    db.close()
    with pytest.raises(DatabaseClosedError):
        db.recover()


@pytest.mark.parametrize("factory", FACTORIES)
def test_context_manager_closes_on_exit(factory):
    with make_db(factory) as db:
        db.insert("accounts", {"id": 1, "owner": "a", "balance": 10.0})
        assert db.get("accounts", 1)["balance"] == 10.0
        assert db.recover() == 0.0      # never crashed: a no-op
        assert not db.closed
    assert db.closed


@pytest.mark.parametrize("factory", FACTORIES)
def test_options_are_keyword_only(factory):
    with pytest.raises(TypeError):
        factory("inp", 2)


# ----------------------------------------------------------------------
# A power failure ends every open session's transaction
# ----------------------------------------------------------------------

def _stale_commit(session):
    return session.commit()


def _stale_abort(session):
    return session.abort()


def _stale_table_op(session):
    return session.get("accounts", 1)


@pytest.mark.parametrize("stale_verb",
                         [_stale_commit, _stale_abort, _stale_table_op])
@pytest.mark.parametrize("engine", engine_names())
def test_no_ghost_commit_after_crash(engine, stale_verb):
    """``begin`` → ``insert`` → ``crash()`` → ``recover()`` → ``commit()``
    must not acknowledge a transaction recovery rolled back: the crash
    ended it, on whichever session it was open."""
    with Database(engine, seed=11, platform_config=PlatformConfig
                  .for_engine(engine, seed=11)) as db:
        db.create_table(ACCOUNTS)
        session = db.session()
        bystander = db.session()
        session.begin().insert(
            "accounts", {"id": 1, "owner": "ghost", "balance": 1.0})
        committed = db.committed_txns
        db.crash()
        assert not session.in_transaction
        db.recover()
        with pytest.raises(SessionStateError, match="no active"):
            stale_verb(session)
        assert db.committed_txns == committed
        assert db.get("accounts", 1) is None
        assert session.txns_aborted == 1 and session.txns_committed == 0
        assert bystander.txns_aborted == 0      # it had nothing open
        context = session.begin()               # the session lives on
        context.insert(
            "accounts", {"id": 1, "owner": "real", "balance": 2.0})
        session.commit()
        assert db.get("accounts", 1)["owner"] == "real"


def test_session_registry_is_weak():
    """The database knows its open sessions only to end their
    transactions at a crash; it must not keep a dropped one alive."""
    with make_db(Database) as db:
        session = db.session()
        session.begin()
        session.abort()
        session.close()
        dropped = weakref.ref(session)
        del session
        gc.collect()
        assert dropped() is None
        db.crash()                      # nothing stale to trip over
        db.recover()
