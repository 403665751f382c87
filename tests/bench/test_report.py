"""Tests for BENCH payload schema and the fingerprint comparison."""

import copy
import json
import os

import pytest

from repro.bench.harness import BenchResult
from repro.bench.report import (SCHEMA_NAME, compare_payloads,
                                load_payload, make_payload,
                                validate_payload, write_payload)


def _result(name="macro/ycsb_balanced/inp", wall=0.5, sim=1_000.0,
            ops=1000, counters=None, extra=None):
    return BenchResult(
        name=name, kind="macro", ops=ops, wall_s=wall, sim_time_ns=sim,
        counters=dict(counters or {"nvm.loads": 7}),
        extra=dict(extra or {"seed": 31, "load_wall_s": 0.1}))


def _payload(**kwargs):
    return make_payload([_result(**kwargs)], quick=True)


def test_make_payload_is_schema_valid():
    payload = make_payload([_result()], quick=True)
    assert payload["schema"] == SCHEMA_NAME
    assert validate_payload(payload) == []


def test_validate_rejects_missing_keys_and_non_finite():
    payload = make_payload([_result()], quick=True)
    del payload["results"][0]["wall_s"]
    assert any("wall_s" in p for p in validate_payload(payload))
    bad = make_payload([_result()], quick=True)
    bad["results"][0]["sim_time_ns"] = float("nan")
    assert any("sim_time_ns" in p for p in validate_payload(bad))
    assert validate_payload([]) == ["payload is not a JSON object"]


def test_write_and_load_roundtrip(tmp_path):
    payload = make_payload([_result()], quick=True)
    path = write_payload(payload, str(tmp_path))
    assert os.path.basename(path).startswith("BENCH_")
    assert load_payload(path)["results"] == payload["results"]


def test_load_payload_raises_on_invalid(tmp_path):
    path = tmp_path / "BENCH_bad.json"
    path.write_text(json.dumps({"schema": "nope"}))
    with pytest.raises(ValueError):
        load_payload(str(path))


def test_compare_flags_sim_divergence_on_fingerprint_change():
    old = _payload(sim=1_000.0)
    drifted = _payload(sim=1_001.0)
    assert [f.kind for f in compare_payloads(drifted, old)] == \
        ["sim-divergence"]
    recounted = _payload(counters={"nvm.loads": 8})
    assert [f.kind for f in compare_payloads(recounted, old)] == \
        ["sim-divergence"]


def test_compare_ignores_wall_time_in_configuration():
    """``load_wall_s`` is a measurement, not configuration: two runs
    that differ only there must still be fingerprint-compared."""
    old = _payload(extra={"seed": 31, "load_wall_s": 0.10})
    new = _payload(extra={"seed": 31, "load_wall_s": 0.25}, sim=999.0)
    assert [f.kind for f in compare_payloads(new, old)] == \
        ["sim-divergence"]


def test_compare_skips_fingerprint_on_config_change():
    old = _payload(extra={"seed": 31, "load_wall_s": 0.1})
    rescaled = _payload(extra={"seed": 32, "load_wall_s": 0.1},
                        sim=999.0)
    # Different seed -> different workload: sim change is expected,
    # nothing was checked, and the row says so.
    assert [f.kind for f in compare_payloads(rescaled, old)] == \
        ["incomparable"]


def test_compare_ignores_benches_missing_from_baseline():
    old = make_payload([_result(name="a")], quick=True)
    new = make_payload([_result(name="a"), _result(name="b")],
                       quick=True)
    findings = compare_payloads(new, old)
    assert [f.name for f in findings] == ["a"]


def test_finding_failed_property():
    old = _payload()
    ok = compare_payloads(copy.deepcopy(old), old)[0]
    assert not ok.failed
    bad = compare_payloads(_payload(sim=2.0), old)[0]
    assert bad.failed
