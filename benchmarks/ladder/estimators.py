"""Estimators that make wall-clock numbers repeat on a noisy host.

Everything here is arithmetic on lists of numbers; nothing imports the
program under test. The rules (sized against measurements recorded in
``README.md``):

* a measured phase is cut into equal-count **segments**; an end-to-end
  wall-clock metric is the **median over segments** of a per-segment
  statistic, so a burst of host noise spoils one segment, not the run;
* a percentile is only taken from a sample that leaves **at least ten
  samples beyond it** — otherwise the next lower supported percentile
  is used and the caller is told which;
* a segment's figures are corrected by the **reference transaction**
  timed inside the same segment (see ``common.host_factor``).
"""

from __future__ import annotations

import statistics
from typing import Dict, Sequence, Tuple

from refkernel import REF_NOMINAL_US

#: Samples that must lie beyond a reported percentile.
MIN_TAIL_SAMPLES = 10

#: Percentiles tried, highest first, when a tail percentile is asked for.
_TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``samples`` (``pct`` in 0..100)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * pct // 100))     # ceil
    return ordered[int(rank) - 1]


def supported_percentile(count: int, wanted: float) -> float:
    """The highest percentile ``<= wanted`` that leaves at least
    :data:`MIN_TAIL_SAMPLES` samples beyond it in a sample of
    ``count`` (the median is always supported)."""
    for pct in _TAIL_LADDER:
        if pct > wanted:
            continue
        if pct == 50.0 or count * (100.0 - pct) / 100.0 >= MIN_TAIL_SAMPLES:
            return pct
    return 50.0


def tail_percentile(samples: Sequence[float],
                    wanted: float) -> Tuple[float, float]:
    """``(value, pct_used)``: the ``wanted`` percentile if the sample
    supports it, else the highest supported one below it."""
    pct = supported_percentile(len(samples), wanted)
    return percentile(samples, pct), pct


def scale_time(value: float, ref_us: float) -> float:
    """A duration (or CPU time) measured while the reference
    transaction cost ``ref_us``, expressed at the nominal host speed."""
    return value * REF_NOMINAL_US / ref_us


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the spread the benchmark contract gates on."""
    q1, __, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else 0.0


def max_pairwise(values: Sequence[float]) -> float:
    """Largest difference between any two values as a share of the
    smaller one's magnitude."""
    low, high = min(values), max(values)
    base = min(abs(low), abs(high))
    return (high - low) / base if base else 0.0


def summarize(values: Sequence[float]) -> Dict[str, float]:
    q1, __, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": quartile_spread(values),
            "max_pairwise": max_pairwise(values)}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first`` as a share of
    ``first`` (negative = better)."""
    if not first:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change
