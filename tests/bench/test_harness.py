"""Smoke tests for the bench harness.

These keep the benches runnable and deterministic without asserting
anything about wall time itself (a loaded CI host is not a benchmark
machine): simulated fingerprints must be reproducible run to run.
"""

from repro.bench.harness import (run_bench, run_macro_benches,
                                 run_micro_benches)
from repro.bench.report import make_payload, validate_payload


def test_micro_benches_emit_fingerprints():
    results = run_micro_benches(quick=True,
                                only="micro/load_single_line")
    assert len(results) == 1
    result = results[0]
    assert result.kind == "micro"
    assert result.wall_s > 0
    assert result.sim_time_ns > 0
    assert result.counters.get("nvm.loads", 0) > 0


def test_micro_fingerprint_is_deterministic_across_repeats():
    one = run_micro_benches(quick=True,
                            only="micro/mixed_store_load_sync")[0]
    two = run_micro_benches(quick=True,
                            only="micro/mixed_store_load_sync")[0]
    assert one.sim_time_ns == two.sim_time_ns
    assert one.counters == two.counters


def test_macro_bench_runs_one_engine():
    results = run_macro_benches(quick=True, engines=["inp"],
                                only="ycsb")
    assert [r.name for r in results] == ["macro/ycsb_balanced/inp"]
    result = results[0]
    assert result.ops == 1000
    assert result.sim_time_ns > 0
    assert result.counters.get("nvm.loads", 0) > 0
    assert "load_wall_s" in result.extra


def test_macro_fingerprint_is_deterministic():
    first = run_macro_benches(quick=True, engines=["inp"],
                              only="ycsb")[0]
    again = run_macro_benches(quick=True, engines=["inp"],
                              only="ycsb")[0]
    assert first.sim_time_ns == again.sim_time_ns
    assert first.counters == again.counters


def test_run_bench_filters_and_validates():
    results = run_bench(quick=True, engines=["inp"],
                        only="micro/store_single_line")
    assert [r.name for r in results] == ["micro/store_single_line"]
    payload = make_payload(results, quick=True)
    assert validate_payload(payload) == []
