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

There is one path for every transport. The session only broadcasts the
four observation verbs of the partition contract (``obs_attach`` /
``obs_begin_run`` / ``obs_end_run`` / ``obs_detach``) over
``db.partitions`` and merges the plain-data replies in partition order;
the instruments themselves belong to a :class:`PartitionObserver`, which
lives next to the real partition — in this process, or in an executor
process behind a :class:`~repro.dist.coordinator.RemotePartition`. This
module imports nothing from ``core``/``nvm`` and stays cycle-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from . import export
from .metrics import Histogram, MetricsRegistry
from .sampler import DEFAULT_INTERVAL_MS, DEFAULT_MAX_SAMPLES, \
    TimeSeriesSampler
from .tracer import DEFAULT_CAPACITY

#: Primitive operations counted per engine/workload by the executor.
OPERATIONS = ("insert", "update", "delete", "get", "get_secondary",
              "scan")

#: Window counters: metric name, partition-snapshot key, help text.
_WINDOW_COUNTERS = (
    ("txns.committed", "committed", "Committed transactions"),
    ("txns.aborted", "aborted", "Aborted transactions"),
    ("nvm.loads", "loads", "Cachelines loaded from NVM"),
    ("nvm.stores", "stores", "Cachelines stored to NVM"),
)


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


class PartitionObserver:
    """One partition's instruments, from attach to detach: what
    ``Partition.obs_*`` runs. The only code that touches the platform's
    ``tracer`` / ``op_counters`` / ``txn_latency`` slots; it meters into
    its own registry, which :meth:`detach` hands back with the
    span/sample records (all plain picklable data, so the replies cross
    an executor's pipe unchanged)."""

    def __init__(self, partition, engine: str, workload: str,
                 options: ObservabilityOptions) -> None:
        self._partition = partition
        self._labels = {"engine": engine, "workload": workload}
        self._baseline: Dict[str, Any] = {}
        self.registry = MetricsRegistry()
        platform = partition.platform
        platform.tracer.activate(options.trace_capacity)
        self._sampler = TimeSeriesSampler(
            platform.clock, _platform_probes(platform),
            interval_ms=options.sample_interval_ms,
            max_samples=options.max_samples)
        self._sampler.attach()
        platform.op_counters = {
            op: self.registry.counter(
                "db.ops", help="Primitive operations executed",
                op=op, **self._labels)
            for op in OPERATIONS
        }

    def begin_run(self) -> None:
        """Start the measurement window: arm the per-transaction
        latency histogram and snapshot the window counters."""
        self._partition.platform.txn_latency = self.registry.histogram(
            "txn.latency_ns", help="Per-transaction simulated latency",
            **self._labels)
        self._baseline = self._partition.snapshot()

    def end_run(self) -> Dict[str, Any]:
        """Close the window: meter the counter deltas; reply with the
        latency histogram, the samples so far and the window's clocks."""
        self._partition.platform.txn_latency = None
        totals = self._partition.snapshot()
        for name, key, text in _WINDOW_COUNTERS:
            self.registry.counter(name, help=text, **self._labels).inc(
                totals[key] - self._baseline.get(key, 0))
        return {
            "histogram": self.registry.histogram("txn.latency_ns",
                                                 **self._labels),
            "samples": self._sampler.samples,
            "begin_ns": self._baseline.get("now_ns", 0.0),
            "end_ns": totals["now_ns"],
        }

    def detach(self) -> Tuple[List[Dict[str, Any]], MetricsRegistry]:
        """Deactivate all instrumentation; reply with the tagged
        span/sample records and the registry."""
        platform = self._partition.platform
        tags = {**self._labels,
                "partition": self._partition.partition_id}
        records = [{**span.to_dict(), **tags}
                   for span in platform.tracer.spans]
        if platform.tracer.dropped:
            self.registry.counter(
                "trace.dropped_spans",
                help="Spans dropped by the ring buffer",
                engine=self._labels["engine"],
            ).inc(platform.tracer.dropped)
        platform.tracer.deactivate()
        self._sampler.detach()
        records.extend({"type": "sample", **tags, **sample}
                       for sample in self._sampler.samples)
        platform.op_counters = None
        platform.txn_latency = None
        return records, self.registry


def _broadcast(db, verb: str, *args: Any) -> List[Any]:
    """Contract verb ``verb`` on every partition of ``db``, replies in
    partition order, on whatever transport the partitions speak."""
    partitions = db.partitions
    return type(partitions[0]).fan_out(
        [(partition, verb, args) for partition in partitions])


class ObservabilitySession:
    """Collects spans, metrics, and time series across experiments."""

    def __init__(self,
                 options: Optional[ObservabilityOptions] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.options = options or ObservabilityOptions()
        self.registry = registry or MetricsRegistry()
        #: Archived span/sample records from detached runs.
        self.records: List[Dict[str, Any]] = []
        self._labels: Dict[str, str] = {}
        self._attached = False

    # ------------------------------------------------------------------
    # Attach / detach (whole experiment, including load & recovery)
    # ------------------------------------------------------------------

    def attach(self, db, engine: str, workload: str) -> None:
        """Activate tracers and samplers on every partition of ``db``."""
        self._labels = {"engine": engine, "workload": workload}
        self._attached = True
        _broadcast(db, "obs_attach", engine, workload, self.options)

    def detach(self, db) -> None:
        """Archive spans/samples and metrics, partition by partition,
        and deactivate all instrumentation."""
        for records, registry in _broadcast(db, "obs_detach"):
            self.records.extend(records)
            self.registry.merge_from(registry)
        self._attached = False

    # ------------------------------------------------------------------
    # Measurement window (the timed workload run)
    # ------------------------------------------------------------------

    def begin_run(self, db) -> None:
        """Start the measurement window on every partition."""
        _broadcast(db, "obs_begin_run")

    def end_run(self, db) -> Dict[str, Any]:
        """Close the measurement window; returns ``latency_percentiles``
        and the counter ``timeseries`` collected so far (merged across
        partitions, samples tagged when there is more than one)."""
        replies = _broadcast(db, "obs_end_run")
        # A fresh histogram: in process a reply's is the partition's
        # live instrument, which detach() merges into the registry once.
        latency = Histogram("txn.latency_ns", self._labels)
        timeseries: List[Dict[str, float]] = []
        for partition, reply in zip(db.partitions, replies):
            latency.merge(reply["histogram"])
            tag = {"partition": partition.partition_id} \
                if len(replies) > 1 else {}
            timeseries.extend({**tag, **sample}
                              for sample in reply["samples"])
        # Set here from the merged clocks, not per partition: the run
        # takes as long as its slowest partition, and gauges merge
        # last-wins.
        self.registry.gauge(
            "run.sim_seconds", help="Simulated duration of the run",
            **self._labels,
        ).set((max(reply["end_ns"] for reply in replies)
               - max(reply["begin_ns"] for reply in replies)) / 1e9)
        return {
            "latency_percentiles": latency.percentiles(),
            "timeseries": timeseries,
        }

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
        if other._attached:
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
