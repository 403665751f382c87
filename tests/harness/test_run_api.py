"""Tests for the unified run(spec) entry point."""

import pytest

from repro.engines.base import engine_names
from repro.harness.runner import run
from repro.harness.spec import ExperimentSpec
from repro.obs.session import ObservabilitySession
from repro.workloads.tpcc import TPCCConfig

TINY = dict(num_tuples=200, num_txns=150, cache_bytes=64 * 1024)


def test_run_result_carries_spec_identity_in_extra():
    spec = ExperimentSpec.ycsb("nvm-inp", "balanced", "low",
                               partitions=2, seed=11, **TINY)
    result = run(spec)
    assert result.extra["seed"] == 11
    assert result.extra["partitions"] == 2
    assert result.extra["cache_bytes"] == TINY["cache_bytes"]
    assert result.extra["num_tuples"] == TINY["num_tuples"]


def test_run_to_dict_includes_throughput():
    result = run(ExperimentSpec.ycsb("inp", "read-heavy", "low",
                                     **TINY))
    payload = result.to_dict()
    assert payload["throughput"] == pytest.approx(result.throughput)
    assert payload["extra"]["seed"] == 31


def test_shims_are_gone():
    """PR 2's deprecated per-workload entry points are removed;
    run(spec) is the single entry point."""
    import repro.harness as harness
    import repro.harness.runner as runner
    assert not hasattr(runner, "run_ycsb")
    assert not hasattr(runner, "run_tpcc")
    assert "run_ycsb" not in harness.__all__
    assert "run_tpcc" not in harness.__all__


def test_run_with_observability_session():
    session = ObservabilitySession()
    spec = ExperimentSpec.ycsb("nvm-inp", "balanced", "low",
                               crash_recover=True, **TINY)
    result = run(spec, obs=session)
    assert result.latency_percentiles is not None
    assert result.timeseries
    assert "recovery_seconds" in result.extra
    components = {record.get("component")
                  for record in session.records}
    assert "recovery" in components


def _simulated_fields(result):
    return (result.sim_seconds, result.nvm_loads, result.nvm_stores,
            result.time_breakdown, result.storage_breakdown,
            result.extra["recovery_seconds"])


@pytest.mark.parametrize("workload", ["ycsb", "tpcc"])
@pytest.mark.parametrize("engine", engine_names())
def test_observing_does_not_change_the_simulation(engine, workload):
    """Attaching tracers and the time-series sampler must leave every
    simulated output exactly as it is unobserved — through load, run,
    crash and recovery, on every engine."""
    if workload == "ycsb":
        spec = ExperimentSpec.ycsb(engine, "balanced", "low",
                                   crash_recover=True, **TINY)
    else:
        spec = ExperimentSpec.tpcc(
            engine, num_txns=40, cache_bytes=TINY["cache_bytes"],
            crash_recover=True,
            tpcc_config=TPCCConfig(warehouses=1, items=40,
                                   customers_per_district=10,
                                   initial_orders_per_district=5))
    observed = run(spec, obs=ObservabilitySession())
    assert observed.timeseries
    assert _simulated_fields(observed) == _simulated_fields(run(spec))
