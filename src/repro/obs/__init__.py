"""Observability: span tracing, metrics, time-series sampling, exporters.

The subsystem mirrors the instrumentation the paper relies on for its
evaluation (hardware counters, execution-time breakdowns, recovery
latencies) but exposes it continuously instead of as end-of-run deltas:

* :mod:`repro.obs.tracer` — nestable spans over the engines' durability
  hot paths (WAL, checkpointing, LSM flush/compaction, CoW persistence,
  recovery phases), timestamped with the *simulated* clock.
* :mod:`repro.obs.metrics` — counters, gauges, and log-bucketed latency
  histograms (p50/p95/p99/max).
* :mod:`repro.obs.sampler` — periodic counter snapshots that turn a run
  into a trajectory, not just totals.
* :mod:`repro.obs.export` — JSONL trace dump, Prometheus-style text
  metrics, and human-readable summaries.
* :mod:`repro.obs.session` — harness glue attaching all of the above to
  a :class:`~repro.core.database.Database`.
* :mod:`repro.obs.bus` — cross-process telemetry event bus: workers
  stream typed events (point lifecycle, phase transitions, progress
  heartbeats) over the scheduler pipe into a coordinator-side bus that
  hands each one straight to its sinks (a JSONL event log, the live
  renderer).
* :mod:`repro.obs.live` — TTY-gated live progress renderer over the
  bus (``--live``), with a plain-log fallback.
* :mod:`repro.obs.profiler` — per-phase wall-vs-simulated time
  attribution (setup/load/run/checkpoint/recovery/teardown) with
  collapsed-stack flamegraph export.
* :mod:`repro.obs.history` — run-history aggregation backing the
  ``repro report`` subcommand.

Everything is opt-in: the default tracer is inactive and records
nothing, so instrumented code paths cost one attribute check when
observability is off.

The package root re-exports nothing: import each module by name, so a
process loads only the parts it uses (``import repro`` loads the
tracer, not the bus, the renderer or the profiler).
"""
