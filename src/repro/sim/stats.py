"""Statistics collection for the emulated platform and storage engines.

Two kinds of data are collected:

* **Counters** — named event counts (NVM loads/stores, fsyncs, flushes,
  allocations, ...). These back the Figs. 9-11 read/write experiments.
* **Category time** — simulated time attributed to the engine component
  that incurred it (storage / recovery / index / other). This backs the
  Fig. 13 execution-time breakdown. Attribution uses an explicit
  category stack: engines push a category around a code region and every
  clock charge inside it is attributed to the innermost category.

Hot-path design (see docs/performance.md): instead of subscribing a
per-charge callback to the clock, the collector keeps one mutable
accumulator cell per category and installs the innermost category's
cell into the clock; a charge is then a single indexed add — same
order, same values, byte-identical totals. A ``category()`` block
swaps that cell itself: one identity-hashed lookup, one push and one
pop, no further call. The cache model and the allocator add to the
live counter table in place (:meth:`StatsCollector.counter_table`):
one dict add per counter per operation, and no call.
"""

from __future__ import annotations

import enum
from collections import Counter
from typing import Callable, Dict, List

from .clock import AttributionCell, SimClock


class Category(enum.Enum):
    """Execution-time categories from the paper's Section 5.5."""

    STORAGE = "storage"
    RECOVERY = "recovery"
    INDEX = "index"
    OTHER = "other"

    #: Members hash by identity (in C) rather than by name (in Python):
    #: ``StatsCollector.category`` looks one up for every engine block.
    __hash__ = object.__hash__


class _CategoryContext:
    """Reusable context manager attributing a block to one category's
    cell: it pushes the cell and installs it in the clock, then pops
    it and reinstalls the enclosing one (no generator frame, no
    allocation per ``with`` block)."""

    __slots__ = ("_cell", "_stack", "_clock")

    def __init__(self, cell: AttributionCell,
                 stack: List[AttributionCell], clock: SimClock) -> None:
        self._cell = cell
        self._stack = stack
        self._clock = clock

    def __enter__(self) -> None:
        self._stack.append(self._cell)
        self._clock._cell = self._cell

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = self._stack
        stack.pop()
        self._clock._cell = stack[-1]


class StatsCollector:
    """Collects counters and per-category simulated time.

    A collector attaches to a :class:`SimClock`; every ``advance`` is
    attributed to the category on top of the stack (``Category.OTHER``
    when the stack is empty). Attaching a second collector to the same
    clock redirects attribution to the newest one (the platform owns a
    single collector, so this does not arise in practice).
    """

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self._counters: Counter[str] = Counter()
        self._cells: Dict[Category, AttributionCell] = {
            category: [0.0] for category in Category}
        #: Innermost-first stack of attribution cells; the bottom entry
        #: is the OTHER cell (the "no category pushed" default).
        self._cell_stack: List[AttributionCell] = [
            self._cells[Category.OTHER]]
        #: ``with stats.category(Category.STORAGE): ...`` attributes
        #: all simulated time inside the block to that category; the
        #: lookup is the dict's own, so no Python frame runs for it.
        self.category: Callable[[Category], _CategoryContext] = {
            category: _CategoryContext(cell, self._cell_stack, clock)
            for category, cell in self._cells.items()}.__getitem__
        clock.set_attribution_cell(self._cell_stack[0])

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self._counters[name] += amount

    def counter_table(self) -> "Counter[str]":
        """The live counter table: ``table[name] += n`` is exactly
        ``bump(name, n)``, without the call. :meth:`reset` clears it in
        place, so a held table stays valid."""
        return self._counters

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never bumped)."""
        return self._counters[name]

    @property
    def counters(self) -> Dict[str, int]:
        """A copy of all counters."""
        return dict(self._counters)

    def category_ns(self, category: Category) -> float:
        """Simulated time attributed to ``category`` so far."""
        return self._cells[category][0]

    def category_breakdown(self) -> Dict[str, float]:
        """Fraction of total simulated time per category (sums to 1.0)."""
        total = sum(cell[0] for cell in self._cells.values())
        if total == 0:
            return {category.value: 0.0 for category in Category}
        return {category.value: self._cells[category][0] / total
                for category in Category}

    def snapshot(self) -> "StatsSnapshot":
        """Immutable snapshot of counters and category times."""
        return StatsSnapshot(
            counters=dict(self._counters),
            category_ns={category: cell[0]
                         for category, cell in self._cells.items()},
            now_ns=self._clock.now_ns,
        )

    def reset(self) -> None:
        """Clear all counters and category times (the clock is kept).
        The counter table and cells are cleared in place, so a held
        table and the clock's installed attribution cell stay valid."""
        self._counters.clear()
        for cell in self._cells.values():
            cell[0] = 0.0


class StatsSnapshot:
    """Point-in-time copy of a :class:`StatsCollector`'s state.

    Supports subtraction so an experiment can measure only the interval
    of interest: ``delta = after - before``.
    """

    __slots__ = ("counters", "category_ns", "now_ns")

    def __init__(self, counters: Dict[str, int],
                 category_ns: Dict[Category, float], now_ns: float) -> None:
        self.counters = counters
        self.category_ns = category_ns
        self.now_ns = now_ns

    def __sub__(self, earlier: "StatsSnapshot") -> "StatsSnapshot":
        # Union of keys: a counter present only in the earlier snapshot
        # (e.g. cleared by a reset in between) must still appear in the
        # delta instead of being silently dropped.
        counters = {
            name: self.counters.get(name, 0)
            - earlier.counters.get(name, 0)
            for name in self.counters.keys() | earlier.counters.keys()
        }
        category_ns = {
            category: self.category_ns.get(category, 0.0)
            - earlier.category_ns.get(category, 0.0)
            for category in
            self.category_ns.keys() | earlier.category_ns.keys()
        }
        return StatsSnapshot(counters, category_ns,
                             self.now_ns - earlier.now_ns)

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    @property
    def elapsed_ns(self) -> float:
        return self.now_ns
