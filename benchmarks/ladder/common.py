"""Shared plumbing of the ladder benchmark: where the program lives,
process accounting read from ``/proc``, the repeated set-up, the
crash/recover cycle, the per-segment record and its reduction to
end-to-end metrics.
"""

from __future__ import annotations

import gc
import os
import pathlib
import statistics
import sys
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import estimators
from refkernel import RefKernel

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
#: Span files and server logs: ignored by ``.gitignore`` beside it.
OUT = HERE / "out"

#: Complete set-ups timed per run. The first one or two in a process
#: run cold (page cache, allocator arenas, the first ``fork``) and take
#: up to 1.6x the steady time; the median of five sits in the steady
#: three.
SETUP_REPEATS = 5
_TICK = os.sysconf("SC_CLK_TCK")


def require_program() -> None:
    """Put the program on ``sys.path``; exit non-zero (no result line)
    where it is absent — the benchmark measures a checkout, not an
    installed copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"ladder: no program under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for program child processes (``repro serve``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ----------------------------------------------------------------------
# Process accounting
# ----------------------------------------------------------------------

def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of process ``pid`` so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        fields = stat.read().rsplit(") ", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of process ``pid`` in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_s(pids: Sequence[int]) -> float:
    """CPU seconds of this process (nanosecond clock) plus the given
    children (``/proc``, 1/``SC_CLK_TCK`` s resolution)."""
    return time.process_time() + sum(proc_cpu_s(pid) for pid in pids)


def peak_rss_mb(pids: Sequence[int]) -> float:
    return proc_hwm_mb(os.getpid()) + sum(proc_hwm_mb(pid)
                                          for pid in pids)


# ----------------------------------------------------------------------
# Host-speed correction
# ----------------------------------------------------------------------

class RefTimer:
    """Times the reference transaction beside real work."""

    def __init__(self) -> None:
        self.kernel = RefKernel()
        for __ in range(200):                       # warm
            self.kernel.run()

    def sample(self, into: List[float], count: int = 1) -> None:
        run = self.kernel.run
        clock = time.perf_counter
        for __ in range(count):
            start = clock()
            run()
            into.append(clock() - start)


#: Reference samples are clipped at this many times their median
#: before averaging.
REF_CLIP = 5.0


def ref_level_us(ref: Sequence[float]) -> float:
    """How much one reference transaction cost over a window, in
    microseconds: the mean with samples clipped at :data:`REF_CLIP`
    times the median. The mean, because the host's slow state shows in
    it in proportion to the time spent there (the median ignores it
    until it passes 50%, then jumps). Clipped, because one 13 ms
    preemption landing in a 250 us sample moves the mean of 450
    samples by 12% while costing the work beside it 2%."""
    cap = REF_CLIP * statistics.median(ref)
    return statistics.fmean(min(value, cap) for value in ref) * 1e6


def host_factor(wall_s: float, cpu_s: float,
                ref: Sequence[float]) -> float:
    """What to multiply a wall-clock figure by so that it reads as on
    the nominal host. Only time spent **on a CPU** drifts with the
    host's speed; time spent waiting on a timer does not. With ``phi``
    the on-CPU share of the window (CPU seconds of every process
    involved over its wall seconds, at most 1) and ``f`` the nominal
    over the measured reference cost, the factor is
    ``(1 - phi) + phi * f``. In process ``phi`` is 1 and this is plain
    reference scaling; a lone served client spends half of each
    transaction parked on the 2 ms group-commit timer, and only the
    other half is scaled."""
    if not ref or wall_s <= 0:
        return 1.0
    speed = estimators.scale_time(1.0, ref_level_us(ref))
    on_cpu = min(1.0, max(0.0, cpu_s / wall_s))
    return (1.0 - on_cpu) + on_cpu * speed


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------

#: Reference transactions timed on each side of one set-up: 300 in all
#: left the corrected time 2-3x as noisy as the raw one on a quiet host
#: (quartile spread 8-9% against 3-4%).
SETUP_REF_SAMPLES = 400


def timed_setups(build: Callable[[], Any],
                 teardown: Callable[[Any], None],
                 pids: Callable[[Any], Sequence[int]] = lambda built: ()
                 ) -> Tuple[Any, float]:
    """Run ``build`` :data:`SETUP_REPEATS` times; tear down and collect
    all but the last. Returns ``(last_built, median_seconds)``, each
    set-up corrected for the host's speed around it (``pids(built)``
    names the child processes whose CPU counts). A single set-up on
    this host spreads 1.8-3.7 s, so one sample is never reported."""
    times: List[float] = []
    built = None
    ref = RefTimer()
    for attempt in range(SETUP_REPEATS):
        if built is not None:
            teardown(built)
            built = None
            gc.collect()
        samples: List[float] = []
        ref.sample(samples, SETUP_REF_SAMPLES)
        cpu_start = time.process_time()
        start = time.perf_counter()
        built = build()
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start \
            + sum(proc_cpu_s(pid) for pid in pids(built))
        ref.sample(samples, SETUP_REF_SAMPLES)
        times.append(wall * host_factor(wall, cpu, samples))
    return built, statistics.median(times)


# ----------------------------------------------------------------------
# Crash / recover
# ----------------------------------------------------------------------

def recover_cycle(db: Any, run: Callable[[], None],
                  verify: Callable[[], None]) -> float:
    """One crash/recover cycle on ``db`` — a ``Database``, a
    ``ShardedDatabase`` or a ``ReproClient``, anything with
    ``checkpoint``, ``flush``, ``crash`` and ``recover``:
    checkpoint, the committed transactions ``run()`` issues, flush,
    crash, timed recover, then the durability check ``verify()``.
    Returns the wall milliseconds of ``recover()`` (one sample: a layer
    metric, not an end-to-end one)."""
    db.checkpoint()
    run()
    db.flush()
    db.crash()
    start = time.perf_counter()
    db.recover()
    elapsed = time.perf_counter() - start
    verify()
    return elapsed * 1e3


# ----------------------------------------------------------------------
# Segments
# ----------------------------------------------------------------------

@dataclass
class Segment:
    """Raw measurements of one equal-count slice of a measured phase."""

    committed: int = 0
    wall_s: float = 0.0
    #: CPU seconds of every process hosting program code (and of the
    #: reference samples, which run in the driver).
    cpu_s: float = 0.0
    #: Latencies (seconds) of individually observed transactions, by
    #: class: "read", "write", or "other" (counted in txn_p95 only).
    latency: Dict[str, List[float]] = field(default_factory=dict)
    #: Reference-transaction durations (seconds) inside the segment.
    ref: List[float] = field(default_factory=list)

    def observed(self, classes: Optional[Sequence[str]] = None
                 ) -> List[float]:
        merged: List[float] = []
        for name, values in self.latency.items():
            if classes is None or name in classes:
                merged.extend(values)
        return merged

    @property
    def busy_s(self) -> float:
        """Wall seconds without the reference samples."""
        return self.wall_s - sum(self.ref)

    @property
    def program_cpu_s(self) -> float:
        return self.cpu_s - sum(self.ref)

    @cached_property
    def factor(self) -> float:
        return host_factor(self.busy_s, self.program_cpu_s, self.ref)

    @cached_property
    def speed(self) -> float:
        """Factor for pure CPU time (no waiting share)."""
        return host_factor(1.0, 1.0, self.ref)


def _p50(values: Sequence[float]) -> float:
    return estimators.percentile(values, 50.0)


def _p95(values: Sequence[float]) -> float:
    return estimators.tail_percentile(values, 95.0)[0]


def reduce_segments(latency_segments: Sequence[Segment],
                    rate_segments: Sequence[Segment], *,
                    txn_classes: Optional[Sequence[str]] = None
                    ) -> Dict[str, float]:
    """End-to-end wall-clock metrics: the median over segments of each
    per-segment statistic, each segment first corrected by its own
    :func:`host_factor`. Latencies come from ``latency_segments``,
    ``txn_per_s`` and ``cpu_us_per_txn`` from ``rate_segments`` (the
    same list in process; lone vs. pair, unloaded vs. mixed
    elsewhere). ``txn_classes`` restricts ``txn_p95_us`` to some
    latency classes."""
    def latency_stat(stat, classes) -> float:
        return statistics.median(
            stat(segment.observed(classes)) * 1e6 * segment.factor
            for segment in latency_segments
            if segment.observed(classes))

    return {
        "txn_per_s": statistics.median(
            s.committed / (s.busy_s * s.factor) for s in rate_segments),
        "txn_p95_us": latency_stat(_p95, txn_classes),
        "read_p50_us": latency_stat(_p50, ("read",)),
        "write_p50_us": latency_stat(_p50, ("write",)),
        "cpu_us_per_txn": statistics.median(
            s.program_cpu_s / s.committed * 1e6 * s.speed
            for s in rate_segments),
    }


def raw_host_metrics(segments: Sequence[Segment]) -> Dict[str, float]:
    """The unscaled figures, kept as ``host.*`` layer metrics
    (``host.ref_us`` only where reference samples were taken)."""
    metrics = {
        "host.raw_txn_per_s": statistics.median(
            s.committed / s.busy_s for s in segments),
        "host.raw_txn_p50_us": statistics.median(
            _p50(s.observed()) * 1e6 for s in segments if s.observed()),
        "host.nproc": float(os.cpu_count() or 1),
    }
    levels = [ref_level_us(s.ref) for s in segments if s.ref]
    if levels:
        metrics["host.ref_us"] = statistics.median(levels)
    return metrics


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Human-readable oracle violations (empty == correct).
    violations: List[str] = field(default_factory=list)
    #: Non-gated context for the payload (sample counts, percentile
    #: actually used, ...).
    notes: Dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.violations) < 20:
            self.violations.append(message)
