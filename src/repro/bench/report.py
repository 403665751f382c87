"""BENCH_*.json emission, schema validation, and the fingerprint gate.

A run is compared against a baseline payload — the committed
``benchmarks/results/BENCH_baseline.json`` unless the caller names
another — bench by bench. A bench's *fingerprint* is its
``sim_time_ns`` plus its counters; its *configuration* is ``ops`` plus
``extra``. Each bench present in both payloads gets one status:

* **ok** — same configuration, same fingerprint.
* **sim-divergence** — same configuration, different fingerprint. The
  emulator is deterministic, so the cost model itself moved, which no
  change may do silently.
* **incomparable** — the configuration differs (a full-size run
  against a quick baseline, another seed): nothing was checked.

Wall time is carried in the payload as orientation and never compared.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence

from .harness import BenchResult

SCHEMA_NAME = "repro-bench/1"

_REQUIRED_TOP = ("schema", "created_utc", "quick", "results")
_REQUIRED_RESULT = ("name", "kind", "ops", "wall_s", "ops_per_s",
                    "sim_time_ns")


def make_payload(results: Sequence[BenchResult],
                 quick: bool) -> Dict[str, object]:
    """JSON-ready payload for a bench run."""
    import platform as host_platform
    return {
        "schema": SCHEMA_NAME,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                     time.gmtime()),
        "quick": bool(quick),
        "host": {
            "python": host_platform.python_version(),
            "machine": host_platform.machine(),
            "system": host_platform.system(),
        },
        "results": [result.to_dict() for result in results],
    }


def validate_payload(payload: object) -> List[str]:
    """Schema check; returns a list of problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    for key in _REQUIRED_TOP:
        if key not in payload:
            problems.append(f"missing top-level key {key!r}")
    if payload.get("schema") not in (None, SCHEMA_NAME):
        problems.append(
            f"unknown schema {payload.get('schema')!r}; "
            f"expected {SCHEMA_NAME!r}")
    results = payload.get("results")
    if not isinstance(results, list):
        problems.append("results is not a list")
        return problems
    for index, result in enumerate(results):
        if not isinstance(result, dict):
            problems.append(f"results[{index}] is not an object")
            continue
        for key in _REQUIRED_RESULT:
            if key not in result:
                problems.append(f"results[{index}] missing {key!r}")
        for key in ("wall_s", "ops_per_s", "sim_time_ns"):
            value = result.get(key)
            if value is not None and (
                    not isinstance(value, (int, float))
                    or isinstance(value, bool)
                    or not math.isfinite(value)):
                problems.append(
                    f"results[{index}].{key} is not a finite number")
    return problems


def write_payload(payload: Dict[str, object], out_dir: str) -> str:
    """Write ``BENCH_<timestamp>.json`` into ``out_dir``; returns the
    path. A suffix disambiguates same-second runs."""
    os.makedirs(out_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    path = os.path.join(out_dir, f"BENCH_{stamp}.json")
    counter = 1
    while os.path.exists(path):
        path = os.path.join(out_dir, f"BENCH_{stamp}-{counter}.json")
        counter += 1
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_payload(path: str) -> Dict[str, object]:
    """Load and validate one BENCH file (raises ValueError on schema
    problems)."""
    with open(path) as handle:
        payload = json.load(handle)
    problems = validate_payload(payload)
    if problems:
        raise ValueError(
            f"{path}: invalid bench payload: {'; '.join(problems)}")
    return payload


@dataclass
class Finding:
    """One comparison outcome for a bench present in both payloads."""

    name: str
    kind: str               # "ok" | "sim-divergence" | "incomparable"
    detail: str

    @property
    def failed(self) -> bool:
        return self.kind == "sim-divergence"


def _result_index(payload: Dict[str, object]) -> Dict[str, dict]:
    return {result["name"]: result
            for result in payload.get("results", [])
            if isinstance(result, dict) and "name" in result}


def _config_extra(result: dict) -> dict:
    """The configuration part of a result's ``extra`` — the load
    phase's wall time is a measurement and varies run to run."""
    extra = dict(result.get("extra") or {})
    extra.pop("load_wall_s", None)
    return extra


def _same_configuration(new: dict, old: dict) -> bool:
    """Whether two results measured the same deterministic workload
    (only then is the sim fingerprint comparable)."""
    return (new.get("ops") == old.get("ops")
            and _config_extra(new) == _config_extra(old))


def compare_payloads(new: Dict[str, object],
                     old: Dict[str, object]) -> List[Finding]:
    """Compare a run against a baseline; one finding per shared bench."""
    findings: List[Finding] = []
    old_index = _result_index(old)
    for result in new.get("results", []):
        name = result.get("name")
        baseline = old_index.get(name)
        if baseline is None:
            continue
        if not _same_configuration(result, baseline):
            kind = "incomparable"
            detail = (f"configuration differs (ops {baseline.get('ops')}"
                      f" -> {result.get('ops')}; extra "
                      f"{_config_extra(baseline)} -> "
                      f"{_config_extra(result)}): not checked")
        elif (result.get("sim_time_ns") != baseline.get("sim_time_ns")
                or (result.get("counters") or {})
                != (baseline.get("counters") or {})):
            kind = "sim-divergence"
            detail = (f"sim_time_ns {baseline.get('sim_time_ns')} -> "
                      f"{result.get('sim_time_ns')}; counters "
                      f"{baseline.get('counters')} -> "
                      f"{result.get('counters')}")
        else:
            kind, detail = "ok", "fingerprint equal"
        findings.append(Finding(name=name, kind=kind, detail=detail))
    return findings
