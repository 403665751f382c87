"""The chaos campaign: randomized faults, crashes, and an oracle.

One campaign is a small Jepsen-style experiment against the network
tier: a loopback server, a :class:`~repro.chaos.proxy.NetworkFaultProxy`
in front of it, N closed-loop worker clients committing through the
proxy, and a **nemesis** thread crash/recovering the database through
a direct (un-faulted) admin connection. Everything is seeded, so a
failing campaign replays.

**The workload** is a per-key counter: each transaction reads one key
and writes ``v + 1`` back as an absolute value. That shape is chosen
deliberately — every in-transaction frame is idempotent (a duplicated
``update`` sets the same value twice), so the *only* frame whose
duplication or loss can corrupt state is ``commit``, which is exactly
the exactly-once mechanism under test.

**The oracle** tracks, per key, a sound ``[min, max]`` bound on the
number of applied increments:

* a commit that returned (acked durable) advances both bounds;
* a commit that raised advances only ``max`` — the increment *may*
  have been applied (the lost-commit contract makes even a
  ``CrashedError`` ambiguous for engines whose logical commit is
  their durable point);
* ambiguous commits carry their commit token, and after the run the
  campaign **reconciles** each against the server's commit ledger:
  ``durable`` upgrades it to certain, ``unknown`` (the commit verb
  never started) removes it from ``max``.

A key whose final value falls outside its bounds is a violation — a
lost acked commit (below ``min``) or a double-applied retry (above
``max``). The campaign also checks the server leaked nothing:
no admission slots, no parked admission queue, no partition locks, no
group-commit waiters, no forever-pending ledger entries.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ReproError
from ..harness.closed_loop import ClosedLoopConfig, load_table, run_fleet
from .proxy import FaultConfig, FaultProxyThread

__all__ = ["ChaosConfig", "ChaosReport", "run_chaos_campaign"]


def _default_faults() -> FaultConfig:
    return FaultConfig(drop_p=0.02, delay_p=0.05,
                       delay_s=(0.0005, 0.004), truncate_p=0.01,
                       corrupt_p=0.01, duplicate_p=0.02,
                       blackhole_p=0.004)


@dataclass(frozen=True)
class ChaosConfig:
    """Shape of one chaos campaign."""

    clients: int = 4
    txns_per_client: int = 40
    keys: int = 64
    seed: int = 0xDB05
    engine: str = "nvm-inp"
    faults: FaultConfig = field(default_factory=_default_faults)
    #: Nemesis: crash/recover cycles and their pacing.
    crash_cycles: int = 2
    crash_interval_s: float = 0.4
    recover_after_s: float = 0.1
    table: str = "chaos_kv"
    #: Server hardening knobs exercised by the campaign.
    session_lease_s: float = 2.0
    max_admission_queue: Optional[int] = 32
    #: Worker client tuning: a short socket timeout turns a blackholed
    #: direction into a retryable disconnect instead of a hang.
    client_timeout_s: float = 1.0
    commit_deadline_s: float = 20.0
    max_attempts_per_txn: int = 400
    retry_sleep_s: float = 0.01
    #: Give up joining a worker after this much wall time (reported as
    #: a violation — the campaign never hangs CI).
    max_wall_s: float = 120.0


@dataclass
class ChaosReport:
    """What one campaign observed and whether the invariants held."""

    config: Dict[str, Any]
    committed: int = 0
    ambiguous: int = 0
    resolved_durable: int = 0
    resolved_not_applied: int = 0
    still_ambiguous: int = 0
    failed_attempts: int = 0
    crashes: int = 0
    recoveries: int = 0
    keys_checked: int = 0
    final_total: int = 0
    wall_seconds: float = 0.0
    proxy_stats: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        return dict(dataclasses.asdict(self), ok=self.ok)


class _Nemesis(threading.Thread):
    """Crash/recover the database on a direct admin connection."""

    def __init__(self, host: str, port: int, config: ChaosConfig,
                 publisher=None) -> None:
        super().__init__(name="chaos-nemesis", daemon=True)
        self.host = host
        self.port = port
        self.config = config
        self.publisher = publisher
        self.crashes = 0
        self.recoveries = 0
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        from ..client import ReproClient

        try:
            client = ReproClient(self.host, self.port)
            client.connect()
            try:
                for cycle in range(self.config.crash_cycles):
                    time.sleep(self.config.crash_interval_s)
                    self._cycle(client, cycle)
            finally:
                client.close()
        except BaseException as exc:
            self.error = exc

    def _cycle(self, client, cycle: int) -> None:
        try:
            lost = client.crash().get("lost_commits", 0)
            self.crashes += 1
            if self.publisher is not None:
                self.publisher.publish("chaos_crash", cycle=cycle,
                                       lost_commits=lost)
        except ReproError:
            return                      # already crashed or closing
        time.sleep(self.config.recover_after_s)
        for _ in range(50):
            try:
                seconds = client.recover()
                self.recoveries += 1
                if self.publisher is not None:
                    self.publisher.publish("chaos_recover", cycle=cycle,
                                           seconds=seconds)
                return
            except ReproError:
                time.sleep(0.02)


def run_chaos_campaign(config: Optional[ChaosConfig] = None, *,
                       publisher=None) -> ChaosReport:
    """Run one full campaign on a loopback server; returns the report
    (``report.ok`` is the pass/fail verdict — no exceptions for
    invariant violations, so CI can attach the report on failure)."""
    from ..client import ReproClient
    from ..server import GroupCommitConfig, ServerConfig, ServerThread

    config = config or ChaosConfig()
    report = ChaosReport(config={
        "clients": config.clients,
        "txns_per_client": config.txns_per_client,
        "keys": config.keys,
        "seed": config.seed,
        "engine": config.engine,
        "crash_cycles": config.crash_cycles,
        "faults": {name: getattr(config.faults, name)
                   for name in ("seed", "drop_p", "delay_p",
                                "truncate_p", "corrupt_p",
                                "duplicate_p", "blackhole_p")},
    })
    if publisher is not None:
        publisher.publish("chaos_started", **report.config)
    server_config = ServerConfig(
        engine=config.engine, seed=config.seed,
        group_commit=GroupCommitConfig(batch_size=8,
                                       max_hold_wall_s=0.002),
        session_lease_s=config.session_lease_s,
        max_admission_queue=config.max_admission_queue,
        retry_after_s=0.02)
    started = time.perf_counter()
    with ServerThread(server_config) as server_thread:
        host, port = server_thread.server.address
        admin = ReproClient(host, port)
        admin.connect()
        try:
            # Durable before the first fault or crash can touch it.
            load_table(admin, _fleet_config(config))
            admin.flush()
            with FaultProxyThread(host, port,
                                  config=config.faults) as proxy:
                proxy_host, proxy_port = proxy.proxy.address
                workers = _run_workers(proxy_host, proxy_port,
                                       host, port, config,
                                       report, publisher)
                report.proxy_stats = proxy.proxy.stats()
            _settle(admin, config)
            bounds = _reconcile(admin, workers, report)
            _check_state(admin, config, bounds, report)
            _check_leaks(admin, report)
        finally:
            admin.close()
    report.wall_seconds = time.perf_counter() - started
    if publisher is not None:
        publisher.publish("chaos_finished",
                          ok=report.ok,
                          committed=report.committed,
                          violations=list(report.violations))
    return report


def _fleet_config(config: ChaosConfig) -> ClosedLoopConfig:
    """The chaos workload is the closed-loop one at one key per
    transaction."""
    return ClosedLoopConfig(
        clients=config.clients, txns_per_client=config.txns_per_client,
        ops_per_txn=1, keys=config.keys, seed=config.seed,
        table=config.table, max_txn_retries=config.max_attempts_per_txn,
        retry_sleep_s=config.retry_sleep_s)


def _run_workers(proxy_host: str, proxy_port: int,
                 server_host: str, server_port: int,
                 config: ChaosConfig, report: ChaosReport,
                 publisher) -> list:
    # The nemesis must bypass the proxy: a fault eating its crash or
    # recover exchange would leave the database crashed forever.
    nemesis = _Nemesis(server_host, server_port, config, publisher)
    nemesis.start()
    workers = run_fleet(
        proxy_host, proxy_port, _fleet_config(config),
        client_options={"timeout": config.client_timeout_s,
                        "retries": 4, "retry_backoff_s": 0.02},
        commit_deadline_s=config.commit_deadline_s,
        max_wall_s=config.max_wall_s)
    for worker in workers:
        if worker.is_alive():
            report.violations.append(
                f"worker {worker.index} stalled past "
                f"{config.max_wall_s:g}s")
        elif worker.error is not None:
            report.violations.append(
                f"worker {worker.index} died: {worker.error!r}")
    nemesis.join(10.0)
    if nemesis.error is not None:
        report.violations.append(f"nemesis died: {nemesis.error!r}")
    report.crashes = nemesis.crashes
    report.recoveries = nemesis.recoveries
    report.committed = sum(w.committed for w in workers)
    report.ambiguous = sum(len(w.ambiguous) for w in workers)
    report.failed_attempts = sum(w.failed_attempts for w in workers)
    return workers


def _settle(admin, config: ChaosConfig) -> None:
    """Bring the database to a quiescent, recovered, flushed state."""
    for _ in range(50):
        try:
            if admin.stats()["crashed"]:
                admin.recover()
            admin.flush()
            return
        except ReproError:
            time.sleep(0.02)


def _reconcile(admin, workers: list,
               report: ChaosReport) -> Dict[int, Tuple[int, int]]:
    """Per-key ``[min, max]`` applied-increment bounds, tightened by
    asking the commit ledger about every ambiguous token."""
    certain: Dict[int, int] = {}
    unresolved: Dict[int, int] = {}
    for worker in workers:
        for key, count in worker.acked.items():
            certain[key] = certain.get(key, 0) + count
        for keys, token in worker.ambiguous:
            try:
                fate = admin.commit_status(token).get("status")
            except ReproError:
                fate = "unreachable"
            if fate == "durable":
                for key in keys:
                    certain[key] = certain.get(key, 0) + 1
                report.resolved_durable += 1
            elif fate == "unknown":
                # Never recorded: the commit verb never started, so
                # the increment was certainly not applied.
                report.resolved_not_applied += 1
            else:
                # pending / failed / forgotten / unreachable: keep the
                # increment inside the upper bound.
                for key in keys:
                    unresolved[key] = unresolved.get(key, 0) + 1
                report.still_ambiguous += 1
    return {key: (certain.get(key, 0),
                  certain.get(key, 0) + unresolved.get(key, 0))
            for key in set(certain) | set(unresolved)}


def _check_state(admin, config: ChaosConfig,
                 bounds: Dict[int, Tuple[int, int]],
                 report: ChaosReport) -> None:
    """Every key's final value must sit inside its oracle bounds."""
    with admin.session("chaos-oracle") as session:
        session.begin()
        rows = dict(session.scan(config.table))
        session.abort()
    for key in range(config.keys):
        row = rows.get(key)
        if row is None:
            report.violations.append(f"key {key} vanished")
            continue
        low, high = bounds.get(key, (0, 0))
        value = row["v"]
        report.keys_checked += 1
        report.final_total += value
        if not low <= value <= high:
            report.violations.append(
                f"key {key}: final value {value} outside oracle "
                f"bounds [{low}, {high}]")


def _check_leaks(admin, report: ChaosReport) -> None:
    """After quiescence the server must hold no residual resources."""
    stats = admin.stats()
    admission = stats.get("admission", {})
    held = [("leaked admission slots: in_flight",
             admission.get("in_flight")),
            ("admission queue not drained", admission.get("queue")),
            ("leaked partition locks", stats.get("locks_held")),
            ("ledger entries stuck pending",
             stats.get("ledger", {}).get("pending"))]
    held += [("group-commit waiters leaked", stage.get("pending"))
             for stage in stats.get("group_commit", [])]
    report.violations.extend(f"{what}: {count}"
                             for what, count in held if count)
