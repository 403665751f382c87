"""Tests for the two-phase commit protocol, on both transports.

There is one driver (``Database.execute_distributed``), one in-doubt
resolver (``Database.recover``) and one set of participant verbs (the
``Partition`` contract); ``ShardedDatabase`` runs the same code with
the participants in executor processes, where an armed fault plan
fires on the far side of the pipe.
"""

import pytest

from repro.config import CacheConfig, EngineConfig, PlatformConfig
from repro.core.schema import Column, ColumnType, Schema
from repro.core import twopc
from repro.core.database import Database
from repro.dist import ShardedDatabase, coordinator
from repro.dist.campaign import PairWrite, run_twopc_campaign
from repro.dist.txn import Branch, DistributedTransaction
from repro.errors import (ConfigError, ShardedError, SimulatedCrash,
                          TransactionAborted)
from repro.fault.injector import FaultPlan
from repro.obs.bus import EventBus
from tests.core.test_database_contract import FACTORIES, HAVE_FORK

needs_fork = pytest.mark.skipif(
    not HAVE_FORK, reason="sharded tier tests need the fork start method")

TABLE = "pairs"


@pytest.fixture(params=FACTORIES)
def db(request):
    database = _database(request.param)
    yield database
    database.close()


def _schema():
    return Schema.build(
        TABLE,
        [Column("id", ColumnType.INT),
         Column("v", ColumnType.STRING, capacity=16)],
        primary_key=["id"])


def _database(factory):
    db = factory(
        engine="nvm-inp", partitions=2,
        platform_config=PlatformConfig(
            cache=CacheConfig(crash_eviction_probability=0.0)),
        engine_config=EngineConfig(group_commit_size=1))
    db.create_table(_schema())
    return db


def _upsert(ctx, key, value):
    if ctx.get(TABLE, key) is None:
        ctx.insert(TABLE, {"id": key, "v": value})
    else:
        ctx.update(TABLE, key, {"v": value})
    return value


def _veto(ctx):
    raise TransactionAborted("participant says no")


def _fail(ctx):
    raise ValueError("participant is broken")


def _pair(key, value, home=0):
    return DistributedTransaction(
        Branch(home, _upsert, (key, value)),
        (Branch(1 - home, _upsert, (key, value)),))


def _read(db, key, pid):
    row = db.get(TABLE, key, partition=pid)
    return None if row is None else row["v"]


# ----------------------------------------------------------------------
# DistributedTransaction shape
# ----------------------------------------------------------------------

def test_remote_branches_are_canonically_ordered():
    dtxn = DistributedTransaction(
        Branch(1, _upsert, (1, "a")),
        (Branch(3, _upsert, (1, "a")), Branch(0, _upsert, (1, "a"))))
    assert [b.partition for b in dtxn.branches()] == [1, 0, 3]
    assert dtxn.participants == (1, 0, 3)


def test_duplicate_participants_rejected():
    with pytest.raises(ConfigError):
        DistributedTransaction(
            Branch(0, _upsert, (1, "a")),
            (Branch(0, _upsert, (1, "a")),))


# ----------------------------------------------------------------------
# Commit / abort
# ----------------------------------------------------------------------

def test_commit_applies_on_both_partitions(db):
    result = db.execute_distributed(_pair(1, "both"))
    assert result == "both"
    assert _read(db, 1, 0) == "both"
    assert _read(db, 1, 1) == "both"
    assert db.committed_txns >= 2  # one branch per participant


def test_veto_aborts_every_branch(db):
    db.execute_distributed(_pair(1, "before"))
    dtxn = DistributedTransaction(
        Branch(0, _upsert, (1, "after")), (Branch(1, _veto, ()),))
    with pytest.raises(TransactionAborted):
        db.execute_distributed(dtxn)
    # The prepared home branch must have been rolled back.
    assert _read(db, 1, 0) == "before"
    assert _read(db, 1, 1) == "before"


def test_failing_branch_strands_no_prepared_branch(db):
    """A branch that raises (rather than voting no) must not leave the
    branches that prepared beside it open: their uncommitted write
    would be visible, and the stale prepare record's presumed-abort
    undo would later overwrite an acknowledged commit."""
    db.execute_distributed(_pair(1, "old"))
    dtxn = DistributedTransaction(
        Branch(0, _upsert, (1, "new")), (Branch(1, _fail, ()),))
    with pytest.raises((ValueError, ShardedError)):
        db.execute_distributed(dtxn)
    assert _read(db, 1, 0) == "old"
    assert db.partitions[0].pending_prepares() == []
    db.execute_distributed(_pair(1, "third"))
    db.crash()
    db.recover()
    assert _read(db, 1, 0) == "third"
    assert _read(db, 1, 1) == "third"


def _home_veto_counters(factory):
    with _database(factory) as db:
        db.execute_distributed(_pair(1, "before"))
        db.arm_faults()
        dtxn = DistributedTransaction(
            Branch(0, _veto, ()), (Branch(1, _upsert, (1, "after")),))
        with pytest.raises(TransactionAborted):
            db.execute_distributed(dtxn)
        hits = [partition.fault_hits().get(twopc.FP_PREPARE_AFTER, 0)
                for partition in db.partitions]
        pending = [partition.pending_prepares()
                   for partition in db.partitions]
        rows = [_read(db, 1, pid) for pid in (0, 1)]
        return hits, pending, rows, [partition.snapshot()
                                     for partition in db.partitions]


@needs_fork
def test_home_veto_rolls_back_the_prepared_remote_on_both_transports():
    """Round 1 prepares every branch, so a vetoing home no longer spares
    the remote its prepare: it prepares, then rolls back — the same
    work, counted the same, on both transports."""
    hits, pending, rows, snapshots = _home_veto_counters(Database)
    assert hits == [0, 1]  # only the remote prepared
    assert pending == [[], []]
    assert rows == ["before", "before"]
    assert _home_veto_counters(ShardedDatabase) == \
        (hits, pending, rows, snapshots)


@needs_fork
def test_pair_update_waits_three_times(monkeypatch):
    """A committed pair update is three rounds on the pipes: both
    prepares go out before either reply is read, the decision is one
    round trip to the home executor, and both finishes go out before
    either reply is read."""
    with _database(ShardedDatabase) as db:
        db.barrier()
        events = []
        send, recv = coordinator.ipc.send, coordinator.ipc.recv

        def traced_send(*args):
            events.append("send")
            return send(*args)

        def traced_recv(*args):
            events.append("recv")
            return recv(*args)

        monkeypatch.setattr(coordinator.ipc, "send", traced_send)
        monkeypatch.setattr(coordinator.ipc, "recv", traced_recv)
        assert db.execute_distributed(_pair(1, "shape")) == "shape"
        monkeypatch.undo()
        assert events == ["send", "send", "recv", "recv",
                          "send", "recv",
                          "send", "send", "recv", "recv"]
        assert _read(db, 1, 0) == _read(db, 1, 1) == "shape"


def test_acknowledged_commit_survives_crash(db):
    db.execute_distributed(_pair(2, "durable", home=1))
    db.crash()
    db.recover()
    assert _read(db, 2, 0) == "durable"
    assert _read(db, 2, 1) == "durable"


# ----------------------------------------------------------------------
# Crash points: the three 2PC fault points, one scripted crash each
# ----------------------------------------------------------------------

def _crash_at(db, point):
    db.execute_distributed(_pair(3, "acked"))
    db.arm_faults(FaultPlan([(point, 1)]))
    with pytest.raises(SimulatedCrash):
        db.execute_distributed(_pair(3, "in-doubt"))
    db.disarm_faults()
    db.recover()


def test_crash_after_prepare_aborts_in_doubt(db):
    """Round 1 reaches every participant, so both prepared (and the
    plan fired on each), but no decision record exists: presumed abort
    must roll the pair back to the acked value."""
    _crash_at(db, twopc.FP_PREPARE_AFTER)
    assert _read(db, 3, 0) == "acked"
    assert _read(db, 3, 1) == "acked"


def test_crash_before_decision_aborts_in_doubt(db):
    """Both participants prepared but the decision never became
    durable: presumed abort."""
    _crash_at(db, twopc.FP_DECIDE_BEFORE)
    assert _read(db, 3, 0) == "acked"
    assert _read(db, 3, 1) == "acked"


def test_crash_after_decision_commits_in_doubt(db):
    """The commit decision is durable: recovery must finish the commit
    on both participants even though neither applied it."""
    _crash_at(db, twopc.FP_DECIDE_AFTER)
    assert _read(db, 3, 0) == "in-doubt"
    assert _read(db, 3, 1) == "in-doubt"


def test_resolution_is_idempotent_across_repeated_recovery(db):
    _crash_at(db, twopc.FP_DECIDE_AFTER)
    db.crash()
    db.recover()
    assert _read(db, 3, 0) == "in-doubt"
    assert _read(db, 3, 1) == "in-doubt"
    for pid in (0, 1):
        assert db.partitions[pid].pending_prepares() == []


# ----------------------------------------------------------------------
# Campaign: every sampled coordinate survives with a clean oracle
# ----------------------------------------------------------------------

@pytest.mark.parametrize("telemetered", [False, True],
                         ids=["quiet", "bus"])
@pytest.mark.parametrize("factory", FACTORIES)
def test_twopc_campaign_finds_no_violations(factory, telemetered):
    """Telemetry on must not change what the campaign finds — nor may
    its teardown read the clock of a database it just closed (a
    sharded one's executors are gone by then)."""
    report = run_twopc_campaign(["nvm-inp"], seed=11, ops=24,
                                factory=factory,
                                bus=EventBus() if telemetered else None)
    assert len(report.profiles) == \
        (1 + len(report.outcomes) if telemetered else 0)
    assert report.ok, (report.violations, report.failures)
    assert not any(report.uncovered.values())
    # All three protocol points were reached and swept.
    assert set(report.counting["nvm-inp"].hits) == \
        set(PairWrite.points("nvm-inp"))
    assert len(report.outcomes) >= 3
    for outcome in report.outcomes:
        assert outcome.result.crashes >= 1
        assert outcome.result.fired, "trigger never fired"


@needs_fork
def test_twopc_campaign_is_the_same_on_both_transports():
    """Every fault plan fires at the same coordinates, and the same
    failure is raised, whether the participants are in this process or
    in executor processes: each round runs every participant before
    its first failure is raised on both transports."""
    serial = run_twopc_campaign(["nvm-inp"], seed=11, ops=24)
    sharded = run_twopc_campaign(["nvm-inp"], seed=11, ops=24,
                                 factory=ShardedDatabase)
    assert sharded.to_dict() == serial.to_dict()


def test_twopc_campaign_parallel_sweep_matches_serial():
    """The 2PC campaign is the same ``run_sweep`` path as the storage
    one: fanned out over worker processes it reports exactly what the
    serial run does."""
    serial = run_twopc_campaign(["nvm-inp"], seed=11, ops=24, jobs=1)
    parallel = run_twopc_campaign(["nvm-inp"], seed=11, ops=24, jobs=2)
    assert parallel.to_dict() == serial.to_dict()
    assert serial.to_dict()["kind"] == "repro-twopc-crashtest-report"
