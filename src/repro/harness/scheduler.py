"""Process-pool experiment scheduler: fan a sweep out across cores.

The paper's evaluation grid — engines x workload configurations x NVM
latencies — is embarrassingly parallel: every point is an independent
deterministic simulation. :func:`run_sweep` executes any list of
:class:`~repro.harness.spec.ExperimentSpec` points across up to
``jobs`` worker processes and merges the results **deterministically:
outcomes are ordered by spec position, never by completion order**, so
a parallel sweep is value-identical to the serial baseline.

Each point gets:

* **crash isolation** — a worker that dies (OOM, segfault, ``os._exit``)
  marks only its own point failed; the sweep continues;
* **a timeout** — ``timeout_s`` terminates a stuck worker and fails the
  point;
* **retries** — ``retries=N`` re-runs a failed/crashed/timed-out point
  up to ``N`` more times with exponential backoff before marking it
  failed; :attr:`PointOutcome.attempts` records how many runs it took;
* **observability artifacts** — with ``artifacts_dir`` (or
  ``spec.observe``), the point runs under its own
  :class:`~repro.obs.session.ObservabilitySession`; its trace JSONL and
  metrics are written to per-point files named by ``spec.slug()``, and
  a merged ``summary.json`` describes the whole sweep;
* **live telemetry** — with a ``bus``
  (:class:`~repro.obs.bus.EventBus`), the scheduler publishes point
  lifecycle events (started / finished / retried / crashed) and workers
  stream phase transitions and progress heartbeats back over the result
  pipe as they run, so a multi-hour sweep is observable from its first
  second (``--live`` and ``--events`` in the CLI).

Specs are what cross the process boundary (pickled into the worker);
telemetry events, then the final result (and optionally the detached
per-point session), come back over a pipe as tagged messages —
``("event", payload)`` interleaved ahead of one ``("done", ...)``.
``jobs=1`` runs everything in-process — same code path, same results,
no processes. Failures carry the full formatted traceback in
:attr:`PointOutcome.error` (``error_summary`` is the one-line digest).
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import signal
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SweepError
from ..obs import bus as _bus
from ..obs.bus import (DEFAULT_HEARTBEAT_S, EventBus, PipeSend,
                       Publisher, TelemetryEvent)
from ..obs.export import error_headline
from ..obs.session import ObservabilitySession
from . import ipc
from .runner import ExperimentResult, run
from .spec import ExperimentSpec

__all__ = ["PointOutcome", "run_sweep", "results_or_raise",
           "merged_session", "write_sweep_summary", "SUMMARY_FILENAME"]

SUMMARY_FILENAME = "summary.json"

#: Seconds between scheduler polls for worker completion/timeout.
_POLL_INTERVAL_S = 0.05


def _format_error(exc: BaseException) -> str:
    """The full formatted traceback — sweeps run far from the failure,
    so the outcome must carry everything needed to debug it."""
    return "".join(traceback.format_exception(
        type(exc), exc, exc.__traceback__)).rstrip()


@dataclass
class PointOutcome:
    """What happened to one spec of a sweep."""

    spec: ExperimentSpec
    result: Optional[ExperimentResult] = None
    #: Failure description; ``None`` on success. For in-point
    #: exceptions this is the **full formatted traceback**; scheduler
    #: failures read "worker crashed (exit code -11)" / "timeout after
    #: 60s". Use :attr:`error_summary` for one-line displays.
    error: Optional[str] = None
    #: Host (wall-clock) seconds the point took, including worker
    #: startup and every retry — this is what ``--jobs`` shrinks.
    host_seconds: float = 0.0
    #: How many times the point was launched (1 = no retries needed).
    attempts: int = 0
    #: The point's detached observability session (when observed).
    session: Optional[ObservabilitySession] = None
    #: Artifact kind -> file path written for this point.
    artifacts: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def error_summary(self) -> Optional[str]:
        """One-line digest of :attr:`error` (tracebacks collapse to
        their final ``SomeError: ...`` line)."""
        return error_headline(self.error)


def _execute_point(spec: ExperimentSpec, observe: bool,
                   telemetry: Optional[Publisher]
                   ) -> Tuple[ExperimentResult,
                              Optional[ObservabilitySession]]:
    """Run one spec (in whatever process this is), optionally under a
    fresh per-point observability session and/or telemetry publisher.

    A spec that defines its own ``execute(obs=..., telemetry=...)``
    (e.g. a fault-injection campaign point) runs through it; plain
    :class:`ExperimentSpec` points go through :func:`run`."""
    obs = ObservabilitySession() \
        if (observe or getattr(spec, "observe", False)) else None
    execute = getattr(spec, "execute", None)
    if callable(execute):
        return execute(obs=obs, telemetry=telemetry), obs
    return run(spec, obs=obs, telemetry=telemetry), obs


def _point_source(index: int, spec: ExperimentSpec) -> str:
    return f"{index:04d}-{spec.slug()}"


def _publish_point(bus: Optional[EventBus], kind: str, index: int,
                   spec: ExperimentSpec, **data) -> None:
    if bus is None:
        return
    bus.publish(kind, source=_point_source(index, spec),
                index=index, engine=getattr(spec, "engine", ""),
                **data)


def _point_finished_data(outcome: PointOutcome) -> Dict[str, object]:
    data: Dict[str, object] = {
        "ok": outcome.ok,
        "attempts": outcome.attempts,
        "host_seconds": outcome.host_seconds,
    }
    if outcome.error is not None:
        data["error"] = outcome.error_summary
    throughput = getattr(outcome.result, "throughput", None)
    if throughput is not None:
        data["throughput"] = throughput
    return data


def _point_worker(spec: ExperimentSpec, observe: bool, conn,
                  telemetry: bool = False,
                  heartbeat_s: float = DEFAULT_HEARTBEAT_S,
                  source: str = "") -> None:
    """Worker-process entry: run the point — streaming telemetry
    events over the pipe when live — then ship back
    ``("done", (result, session, error))``.

    SIGTERM (the scheduler's terminate, or a batch manager reaping the
    tree) is converted to ``SystemExit`` so the worker ships a final
    tagged message and closes its pipe end instead of dying mid-write;
    a Ctrl-C KeyboardInterrupt takes the same path via the
    ``BaseException`` handler."""
    try:
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    except ValueError:
        pass  # not the main thread (in-process test harnesses)
    publisher = Publisher(PipeSend(conn), source=source,
                          heartbeat_s=heartbeat_s) \
        if telemetry else None
    try:
        result, session = _execute_point(spec, observe, publisher)
        ipc.send_done(conn, (result, session, None))
    except BaseException as exc:  # isolate *any* point failure
        try:
            ipc.send_done(conn, (None, None, _format_error(exc)))
        except Exception:
            pass  # parent will see EOF and report a crash
    finally:
        conn.close()


def _backoff_s(retry_backoff_s: float, attempt: int) -> float:
    """Exponential backoff before launch number ``attempt + 1``."""
    return retry_backoff_s * (2 ** (attempt - 1))


@contextlib.contextmanager
def _sigterm_raises_interrupt():
    """For the duration of a sweep, a SIGTERM to the coordinator takes
    the same clean-shutdown path as Ctrl-C (terminate + drain + reap
    workers) instead of killing the process with children attached.
    A no-op off the main thread, where signals cannot be installed."""
    def _raise(signum, frame):
        raise KeyboardInterrupt("SIGTERM")
    try:
        previous = signal.signal(signal.SIGTERM, _raise)
    except ValueError:
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _run_serial(outcomes: List[PointOutcome], observe: bool,
                retries: int, retry_backoff_s: float,
                bus: Optional[EventBus],
                heartbeat_s: float) -> None:
    for index, outcome in enumerate(outcomes):
        spec = outcome.spec
        publisher = None
        if bus is not None:
            publisher = Publisher(bus.publish,
                                  source=_point_source(index, spec),
                                  heartbeat_s=heartbeat_s)
        for attempt in range(retries + 1):
            if attempt:
                time.sleep(_backoff_s(retry_backoff_s, attempt))
            outcome.attempts += 1
            _publish_point(bus, _bus.POINT_STARTED, index, spec,
                           attempt=outcome.attempts)
            started = time.perf_counter()
            try:
                outcome.result, outcome.session = \
                    _execute_point(spec, observe, publisher)
                outcome.error = None
            except Exception as exc:
                outcome.error = _format_error(exc)
            outcome.host_seconds += time.perf_counter() - started
            if outcome.error is None:
                break
            if attempt < retries:
                _publish_point(bus, _bus.POINT_RETRIED, index, spec,
                               attempt=outcome.attempts,
                               error=outcome.error_summary)
        _publish_point(bus, _bus.POINT_FINISHED, index, spec,
                       **_point_finished_data(outcome))


def _run_parallel(outcomes: List[PointOutcome], jobs: int,
                  observe: bool, timeout_s: Optional[float],
                  retries: int, retry_backoff_s: float,
                  bus: Optional[EventBus],
                  heartbeat_s: float) -> None:
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")
    #: (outcome index, earliest perf_counter() it may launch).
    pending = deque((index, 0.0) for index in range(len(outcomes)))
    running: Dict[object, Tuple[int, object, float]] = {}

    def _pop_ready(now: float) -> Optional[int]:
        for position, (index, ready_at) in enumerate(pending):
            if ready_at <= now:
                del pending[position]
                return index
        return None

    def _fail_or_requeue(index: int, error: str) -> None:
        outcome = outcomes[index]
        outcome.error = error
        if outcome.attempts <= retries:
            _publish_point(bus, _bus.POINT_RETRIED, index,
                           outcome.spec, attempt=outcome.attempts,
                           error=outcome.error_summary)
            delay = _backoff_s(retry_backoff_s, outcome.attempts)
            pending.append((index, time.perf_counter() + delay))
        else:
            _publish_point(bus, _bus.POINT_FINISHED, index,
                           outcome.spec,
                           **_point_finished_data(outcome))

    def _finish(conn, payload) -> None:
        """Handle a worker's final message (or its death when
        ``payload`` is None)."""
        index, process, started = running.pop(conn)
        outcome = outcomes[index]
        if payload is None:
            process.join()
            result, session = None, None
            error: Optional[str] = \
                f"worker crashed (exit code {process.exitcode})"
            _publish_point(bus, _bus.POINT_CRASHED, index,
                           outcome.spec, exitcode=process.exitcode,
                           attempt=outcome.attempts)
        else:
            result, session, error = payload
        outcome.result = result
        outcome.session = session
        outcome.host_seconds += time.perf_counter() - started
        conn.close()
        process.join()
        if error is None:
            outcome.error = None
            _publish_point(bus, _bus.POINT_FINISHED, index,
                           outcome.spec,
                           **_point_finished_data(outcome))
        else:
            _fail_or_requeue(index, error)

    def _service(conn) -> None:
        """One readable pipe: either a streamed telemetry event
        (re-publish and keep the worker running) or the final tagged
        result / an EOF from a dead worker."""
        try:
            tag, payload = ipc.recv(conn)
        except (EOFError, OSError):
            _finish(conn, None)
            return
        if tag == ipc.TAG_EVENT:
            if bus is not None:
                bus.publish(TelemetryEvent.from_dict(payload))
            return
        _finish(conn, payload)

    def _abort(now: float) -> None:
        """Interrupted (Ctrl-C / SIGTERM): terminate every worker,
        drain what each already piped out — streamed telemetry is
        re-published, and a final result that raced the interrupt is
        kept — then reap the processes so none are orphaned."""
        pending.clear()
        for conn, (index, process, started) in list(running.items()):
            process.terminate()
            outcome = outcomes[index]
            with contextlib.suppress(EOFError, OSError):
                while conn.poll(0.2):
                    tag, payload = ipc.recv(conn)
                    if tag == ipc.TAG_EVENT:
                        if bus is not None:
                            bus.publish(TelemetryEvent.from_dict(payload))
                    elif tag == ipc.TAG_DONE:
                        outcome.result, outcome.session, outcome.error \
                            = payload
            conn.close()
            process.join(5.0)
            if process.is_alive():
                process.kill()
                process.join(1.0)
            outcome.host_seconds += now - started
            if outcome.result is None and outcome.error is None:
                outcome.error = "interrupted"
        running.clear()

    try:
        while pending or running:
            while pending and len(running) < jobs:
                index = _pop_ready(time.perf_counter())
                if index is None:
                    break  # every pending point is backing off
                outcome = outcomes[index]
                outcome.attempts += 1
                _publish_point(bus, _bus.POINT_STARTED, index,
                               outcome.spec, attempt=outcome.attempts)
                parent_conn, child_conn = context.Pipe(duplex=False)
                process = context.Process(
                    target=_point_worker,
                    args=(outcome.spec, observe, child_conn,
                          bus is not None, heartbeat_s,
                          _point_source(index, outcome.spec)),
                    daemon=True)
                process.start()
                child_conn.close()
                running[parent_conn] = (index, process,
                                        time.perf_counter())
            # A closed pipe (dead worker) is also "ready" — recv then
            # raises EOFError and the point is marked crashed. With no
            # running workers (all pending points backing off) this
            # just sleeps one poll interval.
            for conn in _connection_wait(list(running),
                                         timeout=_POLL_INTERVAL_S):
                _service(conn)
            if timeout_s is None:
                continue
            now = time.perf_counter()
            for conn, (index, process, started) in list(running.items()):
                if now - started <= timeout_s:
                    continue
                running.pop(conn)
                process.terminate()
                process.join()
                conn.close()
                outcomes[index].host_seconds += now - started
                _fail_or_requeue(index, f"timeout after {timeout_s:g}s")
    except BaseException:
        _abort(time.perf_counter())
        raise


def run_sweep(specs: Sequence[ExperimentSpec], jobs: int = 1,
              timeout_s: Optional[float] = None,
              artifacts_dir: Optional[str] = None,
              observe: bool = False, retries: int = 0,
              retry_backoff_s: float = 0.05,
              bus: Optional[EventBus] = None,
              heartbeat_s: float = DEFAULT_HEARTBEAT_S
              ) -> List[PointOutcome]:
    """Execute every spec; returns one :class:`PointOutcome` per spec,
    **in spec order** regardless of completion order.

    ``jobs`` caps concurrent worker processes (``1`` = in-process
    serial). ``timeout_s`` bounds each point's host runtime (parallel
    mode only — a serial in-process point cannot be interrupted).
    ``retries`` re-launches a failed point up to that many extra times,
    waiting ``retry_backoff_s * 2**(attempt - 1)`` before each retry;
    other points keep running during the backoff.
    ``observe`` (or ``spec.observe``, or passing ``artifacts_dir``)
    attaches a per-point ObservabilitySession; ``artifacts_dir``
    additionally writes per-point trace/metrics files plus a merged
    ``summary.json``.
    ``bus`` streams live telemetry: the scheduler publishes point
    lifecycle events and every point publishes phase transitions and
    rate-limited progress heartbeats (at most one per ``heartbeat_s``
    wall seconds per point). Telemetry is wall-clock side-band data —
    the merged *results* stay byte-identical with or without it.
    """
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    outcomes = [PointOutcome(spec=spec) for spec in specs]
    observe = observe or artifacts_dir is not None
    started = time.perf_counter()
    if bus is not None:
        bus.publish(_bus.SWEEP_STARTED, source="sweep",
                    points=len(outcomes), jobs=jobs)
    interrupted = False
    try:
        with _sigterm_raises_interrupt():
            if jobs <= 1 or len(outcomes) <= 1:
                _run_serial(outcomes, observe, retries,
                            retry_backoff_s, bus, heartbeat_s)
            else:
                _run_parallel(outcomes, jobs, observe, timeout_s,
                              retries, retry_backoff_s, bus,
                              heartbeat_s)
    except (KeyboardInterrupt, SystemExit):
        interrupted = True
        for outcome in outcomes:
            if outcome.result is None and outcome.error is None:
                outcome.error = "interrupted"
        raise
    finally:
        # The closing accounting record is published even on an
        # interrupt, so a persisted event log always balances.
        if bus is not None:
            bus.publish(_bus.SWEEP_FINISHED, source="sweep",
                        points=len(outcomes),
                        failed=sum(1 for o in outcomes if not o.ok),
                        retries=sum(max(0, o.attempts - 1)
                                    for o in outcomes),
                        host_seconds=time.perf_counter() - started,
                        interrupted=interrupted,
                        published=bus.published)
        if artifacts_dir is not None and not interrupted:
            _write_artifacts(outcomes, artifacts_dir)
    return outcomes


def results_or_raise(outcomes: Sequence[PointOutcome]
                     ) -> List[ExperimentResult]:
    """The results of a fully-successful sweep, in spec order; raises
    :class:`~repro.errors.SweepError` naming every failed point."""
    failures = [outcome for outcome in outcomes if not outcome.ok]
    if failures:
        details = "; ".join(
            f"{outcome.spec.slug()}: {outcome.error_summary}"
            for outcome in failures)
        raise SweepError(
            f"{len(failures)}/{len(outcomes)} sweep points failed: "
            f"{details}")
    return [outcome.result for outcome in outcomes]


def merged_session(outcomes: Sequence[PointOutcome]
                   ) -> ObservabilitySession:
    """All per-point sessions merged into one, in spec order — export
    it exactly like a serial shared session."""
    merged = ObservabilitySession()
    for outcome in outcomes:
        if outcome.session is not None:
            merged.merge(outcome.session)
    return merged


# ----------------------------------------------------------------------
# Artifacts
# ----------------------------------------------------------------------

def _write_artifacts(outcomes: Sequence[PointOutcome],
                     artifacts_dir: str) -> None:
    os.makedirs(artifacts_dir, exist_ok=True)
    for index, outcome in enumerate(outcomes):
        if outcome.session is None:
            continue
        stem = os.path.join(artifacts_dir,
                            f"{index:04d}-{outcome.spec.slug()}")
        trace_path = f"{stem}.trace.jsonl"
        outcome.session.export_trace(trace_path)
        outcome.artifacts["trace"] = trace_path
        metrics_path = f"{stem}.metrics.prom"
        outcome.session.export_metrics(metrics_path)
        outcome.artifacts["metrics"] = metrics_path
    write_sweep_summary(outcomes,
                        os.path.join(artifacts_dir, SUMMARY_FILENAME))


def write_sweep_summary(outcomes: Sequence[PointOutcome],
                        path: str) -> str:
    """Write the merged sweep summary JSON (one entry per point, in
    spec order, each self-describing: full spec + result + artifacts);
    returns ``path``."""
    points = []
    for outcome in outcomes:
        points.append({
            "spec": outcome.spec.to_dict(),
            "ok": outcome.ok,
            "error": outcome.error,
            "attempts": outcome.attempts,
            "host_seconds": outcome.host_seconds,
            "result": (outcome.result.to_dict()
                       if outcome.result is not None else None),
            "artifacts": outcome.artifacts,
        })
    summary = {
        "kind": "repro-sweep-summary",
        "points": points,
        "failed": sum(1 for outcome in outcomes if not outcome.ok),
    }
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(summary, stream, indent=2, sort_keys=True)
        stream.write("\n")
    return path
