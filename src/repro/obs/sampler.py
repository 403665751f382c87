"""Periodic counter sampling over simulated time.

A :class:`TimeSeriesSampler` subscribes to a partition's
:class:`~repro.sim.clock.SimClock` and snapshots a set of named probes
(cumulative counters: NVM loads/stores, flushes, fences, allocations,
fsyncs) every ``interval_ms`` of *simulated* time. A run therefore
produces a trajectory — "when did the flush storm happen" — instead of
only end-of-run totals.

The clock notifies after every *posted advance* — one ``advance()``
charge, or one cache operation's whole batch — so a sample is taken at
the end of the operation that crossed the deadline: less than one
cache operation late, never in the middle of one. The cache model
does not change what it does when a sampler is attached.

The sample list is bounded: when it fills up, every other sample is
dropped and the interval doubles, preserving the overall shape of the
trajectory at half the resolution (the classic decimating profiler
trick), so arbitrarily long runs cannot exhaust memory.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..sim.clock import SimClock

Probe = Callable[[], float]

#: Default sampling cadence in simulated milliseconds.
DEFAULT_INTERVAL_MS = 1.0

#: Default bound on retained samples before decimation kicks in.
DEFAULT_MAX_SAMPLES = 4096


class TimeSeriesSampler:
    """Snapshots probe values on a fixed simulated-time cadence."""

    def __init__(self, clock: SimClock, probes: Dict[str, Probe],
                 interval_ms: float = DEFAULT_INTERVAL_MS,
                 max_samples: int = DEFAULT_MAX_SAMPLES) -> None:
        if interval_ms <= 0:
            raise ValueError("sample interval must be positive")
        if max_samples < 2:
            raise ValueError("need room for at least two samples")
        self._clock = clock
        self._probes = dict(probes)
        self.interval_ns = interval_ms * 1e6
        self.max_samples = max_samples
        self.samples: List[Dict[str, float]] = []
        self._attached = False
        self._next_ns = 0.0

    # ------------------------------------------------------------------

    def attach(self) -> None:
        """Subscribe to the clock and take the t=now baseline sample."""
        if self._attached:
            return
        self._sample()
        self._next_ns = self._clock.now_ns + self.interval_ns
        self._clock.subscribe(self._on_advance)
        self._attached = True

    def detach(self) -> None:
        """Unsubscribe; takes one final sample so the series covers the
        full window. Recorded samples remain readable."""
        if not self._attached:
            return
        self._clock.unsubscribe(self._on_advance)
        self._attached = False
        self._sample()

    # ------------------------------------------------------------------

    def _on_advance(self, ns: float) -> None:
        # ``ns`` (what the posted advance covered) is not needed: the
        # clock is already up to date, and only the deadline matters.
        now = self._clock.now_ns
        if now < self._next_ns:
            return
        self._sample()
        # One sample per crossing: a large advance skips intervals
        # rather than emitting a burst of identical samples.
        intervals = (now - self._next_ns) // self.interval_ns + 1
        self._next_ns += intervals * self.interval_ns

    def _sample(self) -> None:
        sample: Dict[str, float] = {"t_ms": self._clock.now_ns / 1e6}
        for name, probe in self._probes.items():
            sample[name] = probe()
        self.samples.append(sample)
        if len(self.samples) > self.max_samples:
            self._decimate()

    def _decimate(self) -> None:
        """Halve resolution: drop every other sample, double interval."""
        self.samples = self.samples[::2]
        self.interval_ns *= 2

    def __len__(self) -> int:
        return len(self.samples)

    def __repr__(self) -> str:
        return (f"TimeSeriesSampler(samples={len(self.samples)}, "
                f"interval={self.interval_ns / 1e6:g} ms)")
