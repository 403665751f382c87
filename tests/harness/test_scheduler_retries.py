"""run_sweep retry semantics: flaky points succeed on a retry, attempts
are recorded, and permanent failures exhaust their budget."""

import json
import os
from dataclasses import dataclass

from repro.harness.scheduler import run_sweep, write_sweep_summary


@dataclass(frozen=True)
class FlakyResult:
    label: str

    def to_dict(self):
        return {"label": self.label}


@dataclass(frozen=True)
class FlakySpec:
    """Fails on the first attempt, succeeds once its marker file exists.
    The marker lives on disk so the behavior survives the process
    boundary of parallel sweeps."""

    marker_path: str
    label: str = "flaky"
    observe: bool = False

    def slug(self):
        return f"flaky-{self.label}"

    def to_dict(self):
        return {"kind": "flaky", "label": self.label}

    def execute(self, obs=None, telemetry=None):
        if not os.path.exists(self.marker_path):
            with open(self.marker_path, "w") as stream:
                stream.write("attempted\n")
            raise RuntimeError("first attempt always fails")
        return FlakyResult(self.label)


@dataclass(frozen=True)
class AlwaysFailSpec:
    label: str = "doomed"
    observe: bool = False

    def slug(self):
        return f"doomed-{self.label}"

    def to_dict(self):
        return {"kind": "doomed", "label": self.label}

    def execute(self, obs=None, telemetry=None):
        raise RuntimeError("permanently broken")


def test_serial_retry_recovers_flaky_point(tmp_path):
    spec = FlakySpec(marker_path=str(tmp_path / "marker"))
    [outcome] = run_sweep([spec], retries=1, retry_backoff_s=0.001)
    assert outcome.ok, outcome.error
    assert outcome.attempts == 2
    assert outcome.result == FlakyResult("flaky")


def test_no_retries_preserves_first_failure(tmp_path):
    spec = FlakySpec(marker_path=str(tmp_path / "marker"))
    [outcome] = run_sweep([spec], retries=0)
    assert not outcome.ok
    assert outcome.attempts == 1
    assert "first attempt always fails" in outcome.error


def test_parallel_retry_recovers_flaky_points(tmp_path):
    specs = [FlakySpec(marker_path=str(tmp_path / f"marker-{i}"),
                       label=f"p{i}") for i in range(2)]
    outcomes = run_sweep(specs, jobs=2, retries=1,
                         retry_backoff_s=0.001)
    assert [outcome.ok for outcome in outcomes] == [True, True]
    assert [outcome.attempts for outcome in outcomes] == [2, 2]
    # spec order is preserved regardless of completion order
    assert [outcome.result.label for outcome in outcomes] == ["p0", "p1"]


def test_retries_exhaust_for_permanent_failures():
    [outcome] = run_sweep([AlwaysFailSpec()], retries=2,
                          retry_backoff_s=0.001)
    assert not outcome.ok
    assert outcome.attempts == 3
    assert "permanently broken" in outcome.error


def test_summary_records_attempts(tmp_path):
    spec = FlakySpec(marker_path=str(tmp_path / "marker"))
    outcomes = run_sweep([spec], retries=1, retry_backoff_s=0.001)
    path = write_sweep_summary(outcomes, str(tmp_path / "summary.json"))
    with open(path, encoding="utf-8") as stream:
        summary = json.load(stream)
    assert summary["points"][0]["attempts"] == 2
    assert summary["failed"] == 0
