"""Harness glue: attach tracing, metrics, and sampling to a database.

An :class:`ObservabilitySession` outlives a single experiment so a
sweep (``--all-engines``) accumulates every engine's spans, samples,
and metrics into one trace file and one metrics file. Lifecycle::

    session = ObservabilitySession()
    session.attach(db, engine="inp", workload="ycsb/balanced/low")
    session.begin_run(db)      # start of the measurement window
    ...run the workload...
    stats = session.end_run(db)    # percentiles + timeseries
    session.detach(db)             # archive spans/samples
    session.export_trace("out.jsonl")
    session.export_metrics("out.prom")

The session deliberately knows nothing about concrete database or
platform classes — it only uses the ``partitions[*].platform`` /
``partitions[*].snapshot()`` duck type — so it imports nothing from
``core``/``nvm`` and stays cycle-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from . import export
from .metrics import MetricsRegistry
from .sampler import DEFAULT_INTERVAL_MS, DEFAULT_MAX_SAMPLES, \
    TimeSeriesSampler
from .tracer import DEFAULT_CAPACITY

#: Primitive operations counted per engine/workload by the executor.
OPERATIONS = ("insert", "update", "delete", "get", "get_secondary",
              "scan")


@dataclass(frozen=True)
class ObservabilityOptions:
    """Tunables for one observability session."""

    trace_capacity: int = DEFAULT_CAPACITY
    sample_interval_ms: float = DEFAULT_INTERVAL_MS
    max_samples: int = DEFAULT_MAX_SAMPLES


def _platform_probes(platform) -> Dict[str, Any]:
    """Cumulative counters sampled into the time series."""
    stats = platform.stats
    device = platform.device
    return {
        "nvm_loads": lambda: float(device.loads),
        "nvm_stores": lambda: float(device.stores),
        "flushes": lambda: float(stats.counter("cache.clflush")
                                 + stats.counter("cache.clwb")),
        "fences": lambda: float(stats.counter("cache.sfence")),
        "allocs": lambda: float(stats.counter("alloc.malloc")),
        "alloc_syncs": lambda: float(stats.counter("alloc.sync")),
        "fsyncs": lambda: float(stats.counter("fs.fsyncs")),
    }


def _run_totals(db) -> Dict[str, float]:
    """Run-level counters merged across ``db.partitions`` snapshots."""
    snapshots = [partition.snapshot() for partition in db.partitions]
    totals = {name: sum(snap[name] for snap in snapshots)
              for name in ("committed", "aborted", "loads", "stores")}
    totals["now_ns"] = max(snap["now_ns"] for snap in snapshots)
    return totals


class ObservabilitySession:
    """Collects spans, metrics, and time series across experiments."""

    def __init__(self,
                 options: Optional[ObservabilityOptions] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.options = options or ObservabilityOptions()
        self.registry = registry or MetricsRegistry()
        #: Archived span/sample records from detached runs.
        self.records: List[Dict[str, Any]] = []
        self._samplers: List[TimeSeriesSampler] = []
        self._engine = ""
        self._workload = ""
        self._baseline: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Attach / detach (whole experiment, including load & recovery)
    # ------------------------------------------------------------------

    def attach(self, db, engine: str, workload: str) -> None:
        """Activate tracers and samplers on every partition of ``db``.

        A database that instruments itself remotely (the sharded tier's
        :class:`~repro.dist.coordinator.ShardedDatabase`, whose
        partitions live in other processes) exposes ``obs_attach`` /
        ``obs_begin_run`` / ``obs_end_run`` / ``obs_detach`` hooks; the
        session delegates to them and receives the per-partition
        records and metrics back, merged in partition order."""
        self._engine = engine
        self._workload = workload
        hook = getattr(db, "obs_attach", None)
        if hook is not None:
            hook(self, engine, workload)
            return
        self._samplers = []
        for partition in db.partitions:
            platform = partition.platform
            platform.tracer.activate(self.options.trace_capacity)
            sampler = TimeSeriesSampler(
                platform.clock, _platform_probes(platform),
                interval_ms=self.options.sample_interval_ms,
                max_samples=self.options.max_samples)
            sampler.attach()
            platform.sampler = sampler
            self._samplers.append(sampler)
            platform.op_counters = {
                op: self.registry.counter(
                    "db.ops", help="Primitive operations executed",
                    op=op, engine=engine, workload=workload)
                for op in OPERATIONS
            }

    def detach(self, db) -> None:
        """Archive spans/samples and deactivate all instrumentation."""
        hook = getattr(db, "obs_detach", None)
        if hook is not None:
            hook(self)
            return
        for partition, sampler in zip(db.partitions, self._samplers):
            platform = partition.platform
            tags = {"engine": self._engine,
                    "workload": self._workload,
                    "partition": partition.partition_id}
            for span in platform.tracer.spans:
                self.records.append({**span.to_dict(), **tags})
            if platform.tracer.dropped:
                self.registry.counter(
                    "trace.dropped_spans",
                    help="Spans dropped by the ring buffer",
                    engine=self._engine).inc(platform.tracer.dropped)
            platform.tracer.deactivate()
            sampler.detach()
            for sample in sampler.samples:
                self.records.append(
                    {"type": "sample", **tags, **sample})
            platform.sampler = None
            platform.op_counters = None
            platform.txn_latency = None
        self._samplers = []

    # ------------------------------------------------------------------
    # Measurement window (the timed workload run)
    # ------------------------------------------------------------------

    def begin_run(self, db) -> None:
        """Start the measurement window: arm the per-transaction
        latency histogram and snapshot run-level counters."""
        hook = getattr(db, "obs_begin_run", None)
        if hook is not None:
            hook(self)
            return
        histogram = self.registry.histogram(
            "txn.latency_ns",
            help="Per-transaction simulated latency",
            engine=self._engine, workload=self._workload)
        for partition in db.partitions:
            partition.platform.txn_latency = histogram
        self._baseline = _run_totals(db)

    def end_run(self, db) -> Dict[str, Any]:
        """Close the measurement window; returns ``latency_percentiles``
        and the counter ``timeseries`` collected so far."""
        hook = getattr(db, "obs_end_run", None)
        if hook is not None:
            return hook(self)
        histogram = self.registry.histogram(
            "txn.latency_ns", engine=self._engine,
            workload=self._workload)
        for partition in db.partitions:
            partition.platform.txn_latency = None
        labels = {"engine": self._engine, "workload": self._workload}
        totals = _run_totals(db)
        base = self._baseline or {}
        self.registry.counter(
            "txns.committed", help="Committed transactions",
            **labels).inc(totals["committed"] - base.get("committed", 0))
        self.registry.counter(
            "txns.aborted", help="Aborted transactions",
            **labels).inc(totals["aborted"] - base.get("aborted", 0))
        self.registry.counter(
            "nvm.loads", help="Cachelines loaded from NVM",
            **labels).inc(totals["loads"] - base.get("loads", 0))
        self.registry.counter(
            "nvm.stores", help="Cachelines stored to NVM",
            **labels).inc(totals["stores"] - base.get("stores", 0))
        self.registry.gauge(
            "run.sim_seconds", help="Simulated duration of the run",
            **labels).set((totals["now_ns"]
                           - base.get("now_ns", 0.0)) / 1e9)
        return {
            "latency_percentiles": histogram.percentiles(),
            "timeseries": self.timeseries(db),
        }

    def timeseries(self, db) -> List[Dict[str, float]]:
        """Samples collected so far on the attached database (merged
        across partitions, tagged when there is more than one)."""
        merged: List[Dict[str, float]] = []
        for partition, sampler in zip(db.partitions, self._samplers):
            for sample in sampler.samples:
                if len(self._samplers) > 1:
                    sample = {"partition": partition.partition_id,
                              **sample}
                merged.append(dict(sample))
        return merged

    # ------------------------------------------------------------------
    # Cross-session merge (parallel sweeps)
    # ------------------------------------------------------------------

    def merge(self, other: "ObservabilitySession") -> None:
        """Fold a detached session into this one: archived records are
        appended, metric instruments are merged by identity. A sweep
        runs one session per point in each worker process, sends the
        (plain-data, picklable) session back, and merges in spec order —
        the exports are then identical to a serial shared-session run,
        whose record order is normalized at export time anyway."""
        if other._samplers:
            raise ValueError("detach the session before merging it")
        self.records.extend(other.records)
        self.registry.merge_from(other.registry)

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------

    def export_trace(self, path: str) -> int:
        """Write archived span/sample records as JSONL; returns the
        line count."""
        records = sorted(self.records,
                         key=lambda r: (r.get("engine", ""),
                                        r.get("partition", 0),
                                        r.get("start_ns",
                                              r.get("t_ms", 0.0))))
        with open(path, "w", encoding="utf-8") as stream:
            return export.write_trace_jsonl(records, stream)

    def export_metrics(self, path: str) -> int:
        """Write the metrics registry in Prometheus text format;
        returns the sample line count."""
        with open(path, "w", encoding="utf-8") as stream:
            return export.write_prometheus(self.registry, stream)

    def summary(self) -> str:
        """Human-readable digest of everything collected so far."""
        import io
        stream = io.StringIO()
        export.write_prometheus(self.registry, stream)
        return (export.summarize_trace(self.records)
                + "\n\n" + export.summarize_metrics(stream.getvalue()))
