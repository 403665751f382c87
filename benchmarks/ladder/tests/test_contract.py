"""``BENCHMARK.json`` against the catalogue and the contract's limits."""

import json
import re

import common
import metrics

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load():
    return json.loads((common.ROOT / "BENCHMARK.json").read_text())


def test_file_is_the_catalogue():
    assert load() == metrics.benchmark_json()


def test_contract_limits():
    spec = load()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert 1 <= spec["run_seconds"] <= 60
    names = [entry["name"] for kind in ("workloads", "end_to_end",
                                        "per_layer")
             for entry in spec[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in spec["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("higher", "lower")
    setup = [entry for entry in spec["end_to_end"]
             if entry["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(entry["bound"]
                                   for entry in spec["end_to_end"])}]
    # 4 + 22 runs per workload must fit the driver's 3,420 s.
    assert len(json.dumps(spec)) < 64 * 1024


def test_command_stays_inside_paths():
    spec = load()
    assert spec["paths"] == ["benchmarks/ladder"]
    for part in spec["command"][1:]:
        assert not part.startswith("/") and ".." not in part
        if "/" in part:
            assert part.startswith("benchmarks/ladder/")
