"""Metrics: counters, gauges, and log-bucketed latency histograms.

Metric instruments are identified by a name plus a label set, mirroring
the Prometheus data model, and live in a :class:`MetricsRegistry` so an
experiment (or several — e.g. an ``--all-engines`` sweep) accumulates
into one exportable collection.

Histograms use geometric ("log") buckets: bucket ``k`` holds values in
``(GROWTH**(k-1), GROWTH**k]`` with ``GROWTH = sqrt(2)``, i.e. two
buckets per octave. Percentile estimates return the upper bound of the
bucket containing the requested rank, which bounds the relative error
by the growth factor — plenty for p50/p95/p99 over simulated-nanosecond
latencies spanning several orders of magnitude.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

#: Geometric bucket growth factor (two buckets per power of two).
GROWTH = math.sqrt(2.0)
_LOG_GROWTH = math.log(GROWTH)

LabelSet = Tuple[Tuple[str, str], ...]


def _labelset(labels: Dict[str, str]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Metric:
    """Common identity for all instruments."""

    kind = "untyped"

    def __init__(self, name: str, labels: Dict[str, str],
                 help: str = "") -> None:
        self.name = name
        self.labels = dict(labels)
        self.help = help


class Counter(Metric):
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: Dict[str, str],
                 help: str = "") -> None:
        super().__init__(name, labels, help)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge(Metric):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, labels: Dict[str, str],
                 help: str = "") -> None:
        super().__init__(name, labels, help)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram(Metric):
    """Log-bucketed distribution of non-negative values."""

    kind = "histogram"

    def __init__(self, name: str, labels: Dict[str, str],
                 help: str = "") -> None:
        super().__init__(name, labels, help)
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = 0.0

    @staticmethod
    def bucket_index(value: float) -> int:
        """Index of the bucket whose upper bound is ``GROWTH**index``."""
        if value <= 1.0:
            return 0
        return math.ceil(math.log(value) / _LOG_GROWTH - 1e-12)

    @staticmethod
    def bucket_bound(index: int) -> float:
        return GROWTH ** index

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one."""
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count
        self.count += other.count
        self.sum += other.sum
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"negative observation: {value}")
        index = self.bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, pct: float) -> float:
        """Upper bound of the bucket containing the ``pct``-th rank
        (0 < pct <= 100). Returns 0.0 on an empty histogram."""
        if not 0 < pct <= 100:
            raise ValueError(f"percentile out of range: {pct}")
        if self.count == 0:
            return 0.0
        rank = math.ceil(self.count * pct / 100.0)
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                # The true maximum caps the top bucket's upper bound.
                return min(self.bucket_bound(index), self.max)
        return self.max

    def percentiles(self, pcts: Iterable[float] = (50, 95, 99)
                    ) -> Dict[str, float]:
        summary = {f"p{pct:g}": self.percentile(pct) for pct in pcts}
        summary["max"] = self.max if self.count else 0.0
        return summary

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """(upper bound, cumulative count) pairs, Prometheus-style."""
        pairs: List[Tuple[float, int]] = []
        total = 0
        for index in sorted(self.buckets):
            total += self.buckets[index]
            pairs.append((self.bucket_bound(index), total))
        return pairs


class MetricsRegistry:
    """Get-or-create registry of metric instruments."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, str, LabelSet], Metric] = {}

    def _get(self, cls, name: str, labels: Dict[str, str],
             help: str) -> Metric:
        key = (cls.kind, name, _labelset(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, labels, help)
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, help: str = "",
                **labels: str) -> Counter:
        return self._get(Counter, name, labels, help)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get(Gauge, name, labels, help)

    def histogram(self, name: str, help: str = "",
                  **labels: str) -> Histogram:
        return self._get(Histogram, name, labels, help)

    def collect(self) -> List[Metric]:
        """All instruments, grouped by name (stable export order)."""
        return sorted(self._metrics.values(),
                      key=lambda m: (m.name, _labelset(m.labels)))

    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold another registry's instruments into this one: counters
        add, histograms merge buckets, gauges take the newer value.
        Used to combine per-worker registries from a parallel sweep
        into one exportable collection."""
        for metric in other.collect():
            if isinstance(metric, Counter):
                self.counter(metric.name, help=metric.help,
                             **metric.labels).inc(metric.value)
            elif isinstance(metric, Histogram):
                self.histogram(metric.name, help=metric.help,
                               **metric.labels).merge(metric)
            elif isinstance(metric, Gauge):
                self.gauge(metric.name, help=metric.help,
                           **metric.labels).set(metric.value)

    def remove(self, metric: Metric) -> None:
        """Drop one instrument (e.g. a labelled series whose label
        value is being evicted from a bounded set)."""
        self._metrics.pop(
            (metric.kind, metric.name, _labelset(metric.labels)), None)

    def find(self, name: str, **labels: str) -> Optional[Metric]:
        """Look up an instrument without creating it."""
        want = _labelset(labels)
        for metric in self._metrics.values():
            if metric.name == name and _labelset(metric.labels) == want:
                return metric
        return None

    def __len__(self) -> int:
        return len(self._metrics)
