"""A simulated nanosecond clock.

All costs in the emulated platform are expressed as simulated
nanoseconds charged to a :class:`SimClock`. Throughput numbers reported
by the benchmark harness are transactions per *simulated* second, which
is what makes the reproduction independent of the speed of the host
Python interpreter (see DESIGN.md, substitution list).

``advance`` is one of the hottest calls in the simulator (every fence,
filesystem and CPU charge goes through it; the cache model replays the
same two additions per cache-line event on locals and writes the
result back once per operation), so its bookkeeping is kept to two
float additions:

* Per-category time attribution does not use a callback. The owning
  :class:`~repro.sim.stats.StatsCollector` installs its *current
  category accumulator cell* (a one-element list) via
  :meth:`set_attribution_cell` and swaps it on category push/pop; every
  charge lands in the innermost category with one indexed add, in the
  same order and with the same values as the historical
  listener-callback design — so attribution stays byte-identical.
* Subscribed listeners (e.g. the observability time-series sampler)
  are only iterated when at least one is registered, which makes the
  observability layer cost nothing when no session is attached. A
  listener is told after every **posted advance** — one ``advance()``
  charge, or one cache operation's whole batch with the nanoseconds it
  covered (the cache model writes its batched time back directly and
  then calls :meth:`SimClock.notify`) — not after every per-line
  charge inside such a batch, so being observed never changes which
  code charges the clock.
"""

from __future__ import annotations

from typing import Callable, List

#: A mutable one-element accumulator the clock adds every charge into.
AttributionCell = List[float]


class SimClock:
    """Accumulates simulated time in nanoseconds.

    Listeners (e.g. the observability sampler) are invoked after every
    posted advance with the nanoseconds it covered; per-category
    statistics use the cheaper attribution cell.
    """

    __slots__ = ("_now_ns", "_listeners", "_cell")

    def __init__(self) -> None:
        self._now_ns: float = 0.0
        self._listeners: List[Callable[[float], None]] = []
        # Attribution sink; replaced by a StatsCollector's category
        # cell when one attaches. The default cell keeps `advance`
        # branch-free for bare clocks (unit tests, examples).
        self._cell: AttributionCell = [0.0]

    @property
    def now_ns(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now_ns

    @property
    def now_seconds(self) -> float:
        """Current simulated time in seconds."""
        return self._now_ns / 1e9

    def advance(self, ns: float) -> None:
        """Charge ``ns`` nanoseconds of simulated time."""
        if ns <= 0:
            if ns == 0:
                return
            raise ValueError(f"cannot advance clock by negative time: {ns}")
        self._now_ns += ns
        self._cell[0] += ns
        if self._listeners:
            self.notify(ns)

    def notify(self, ns: float) -> None:
        """Tell every listener that ``ns`` nanoseconds were just
        posted. Called by :meth:`advance`, and by the cache model after
        it writes one operation's batched charges straight into the
        clock."""
        for listener in self._listeners:
            listener(ns)

    def set_attribution_cell(self, cell: AttributionCell) -> None:
        """Install the accumulator every subsequent charge is added to
        (used by :class:`~repro.sim.stats.StatsCollector` to attribute
        time to the innermost active category)."""
        self._cell = cell

    def subscribe(self, listener: Callable[[float], None]) -> None:
        """Register ``listener`` to be called after every posted
        advance — a single :meth:`advance` charge or one cache
        operation's batch — with the nanoseconds it covered. The sum
        of what a listener is told equals the time elapsed while it was
        subscribed; ``now_ns`` is already up to date when it runs."""
        self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[float], None]) -> None:
        self._listeners.remove(listener)

    def elapsed_since(self, start_ns: float) -> float:
        """Nanoseconds elapsed since a previously sampled ``now_ns``."""
        return self._now_ns - start_ns

    def reset(self) -> None:
        """Reset the clock to zero (listeners and attribution kept)."""
        self._now_ns = 0.0

    def __repr__(self) -> str:
        return f"SimClock(now={self._now_ns:.0f} ns)"
