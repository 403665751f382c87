"""End to end, small: every workload, the traced run, the durability
check firing, and the refusal to run without the program."""

import json
import shutil
import subprocess
import sys
import time

import pytest

import common
import metrics

RUN = [sys.executable, str(common.HERE / "run.py")]
WORKLOADS = [name for name, __ in metrics.WORKLOADS]


def run(*args, cwd=common.ROOT):
    return subprocess.run([*RUN, *args], cwd=str(cwd), text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=170)


def test_smoke_runs_every_workload_and_the_traced_run(tmp_path):
    start = time.perf_counter()
    done = run("--smoke", "--out", str(tmp_path / "smoke.json"))
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 30.0
    payload = json.loads((tmp_path / "smoke.json").read_text())
    assert sorted(payload["workloads"]) == sorted(WORKLOADS)
    end_to_end = {name for name, *__ in metrics.END_TO_END}
    per_layer = {name for name, *__ in metrics.PER_LAYER}
    for name, entry in payload["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0
        assert set(entry["end_to_end"]) == end_to_end
        # The payload leaves out what a workload cannot measure.
        assert set(entry["per_layer"]) < per_layer
        assert not set(entry["per_layer"]) & set(
            entry["notes"]["traced"]["not_measured"])
        assert all(value["value"] > 0
                   for value in entry["end_to_end"].values()), name
        assert entry["per_layer"]["trace.overhead_x"]["value"] > 0

    inproc = payload["workloads"]["ycsb-inproc"]["per_layer"]
    tpcc = payload["workloads"]["tpcc-inproc"]["per_layer"]
    served = payload["workloads"]["ycsb-served"]["per_layer"]
    sharded = payload["workloads"]["ycsb-sharded"]["per_layer"]
    # The predicted separations (see README, "How to read the ladder").
    assert inproc["nvm.filesystem.fsync_per_txn"]["value"] == 0
    assert tpcc["nvm.filesystem.fsync_per_txn"]["value"] > 0
    assert served["server.groupcommit.mean_batch.lone"]["value"] == 1
    assert served["server.groupcommit.mean_batch.pair"]["value"] > 1.5
    assert served["server.tax_x"]["value"] > 1
    assert sharded["dist.tax_x"]["value"] > 0
    assert "server.tax_x" not in inproc and "dist.tax_x" not in served
    # The paper's store count is read on every workload.
    for layers in (inproc, tpcc, served, sharded):
        assert layers["nvm.device.stores_per_txn"]["value"] > 0
    # The engine's share of a recovery against its own whole.
    for layers in (inproc, tpcc):
        assert 0 < layers["engines.recover_ms"]["value"] \
            <= layers["trace.recover_ms"]["value"]
    # Layer self times add up to the traced run's time per transaction.
    for layers in (inproc, tpcc):
        assert abs(layers["trace.unattributed_frac"]["value"]) < 0.05


@pytest.mark.parametrize("workload", WORKLOADS)
def test_driver_contract_and_durability_check_fires(workload):
    good = run("--workload", workload, "--seed", "7", "--seconds", "2",
               "--trace", "0", "--smoke")
    assert good.returncode == 0, good.stdout + good.stderr
    result = json.loads(good.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [
        name for name, *__ in metrics.END_TO_END]
    assert all(entry["value"] > 0
               for entry in result["metrics"].values())

    # One acknowledged write the oracle never saw: the read-back after
    # crash and recovery must notice, and the run must exit non-zero.
    bad = run("--workload", workload, "--seed", "7", "--seconds", "2",
              "--trace", "0", "--smoke", "--forget-write")
    assert bad.returncode != 0
    result = json.loads(bad.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1
    assert "VIOLATION" in bad.stdout


def test_traced_result_names_every_layer_metric():
    # The driver wants all of them on every workload, also where most
    # cannot be measured (spans inside executor processes).
    done = run("--workload", "ycsb-sharded", "--seed", "7", "--seconds",
               "2", "--trace", "1", "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert list(result["metrics"]) == [
        name for name, *__ in metrics.PER_LAYER]
    assert result["metrics"]["dist.tax_x"]["value"] > 0
    assert result["metrics"]["client.ping_rtt_us"]["value"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(common.HERE, tmp_path / "benchmarks" / "ladder",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/ladder/run.py", "--workload",
         "ycsb-inproc", "--seed", "1", "--seconds", "2", "--trace", "0"],
        cwd=str(tmp_path), text=True, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, timeout=170)
    assert done.returncode != 0
    assert not done.stdout.strip()
