"""The chaos campaign end to end, kept small enough for tier-1: a
fault-free run must account for every transaction exactly, and a
faulted run with a nemesis crash cycle must hold every invariant the
oracle checks."""

from __future__ import annotations

import dataclasses

from repro.chaos import ChaosConfig, ChaosReport, FaultConfig, \
    run_chaos_campaign


def _small(**overrides) -> ChaosConfig:
    base = dict(clients=2, txns_per_client=6, keys=8, seed=1234,
                crash_cycles=0, max_wall_s=60.0)
    base.update(overrides)
    return ChaosConfig(**base)


def test_fault_free_campaign_accounts_exactly():
    """No faults, no crashes: every commit acks, nothing is ambiguous,
    and the final counter total equals the committed count."""
    report = run_chaos_campaign(
        _small(faults=FaultConfig()))
    assert report.ok, report.violations
    assert report.committed == 2 * 6
    assert report.ambiguous == 0
    assert report.final_total == report.committed
    assert report.keys_checked == 8
    assert report.crashes == 0


def test_faulted_campaign_with_nemesis_holds_invariants():
    report = run_chaos_campaign(_small(
        clients=2, txns_per_client=8, crash_cycles=1,
        faults=FaultConfig(seed=5, drop_p=0.03, delay_p=0.05,
                           delay_s=(0.0005, 0.002), truncate_p=0.01,
                           corrupt_p=0.01, duplicate_p=0.03)))
    assert report.ok, report.violations
    assert report.crashes == 1
    assert report.recoveries == 1
    assert report.committed > 0
    # Every transaction is accounted for: acked + ambiguous-at-most.
    low = report.committed + report.resolved_durable
    high = low + report.still_ambiguous
    assert low <= report.final_total <= high


def test_report_round_trips_and_flags_violations():
    report = ChaosReport(config={"seed": 1})
    assert report.ok
    report.violations.append("key 3: final value 9 outside [0, 2]")
    assert not report.ok
    as_dict = report.to_dict()
    assert as_dict["ok"] is False
    assert as_dict["violations"] == report.violations
    # dataclasses round-trip cleanly into the JSON report the CLI emits
    assert dataclasses.is_dataclass(report)
