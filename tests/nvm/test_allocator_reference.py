"""Differential test: the indexed best fit against the linear scan.

``NVMAllocator`` finds its block through a size-sorted copy of the free
list. ``ReferenceAllocator`` below keeps the earlier linear rotating
scan verbatim. Both are driven with the same malloc/free sequences —
mixed sizes, exact refits of freed blocks, and requests too large to
fit — and must return the same addresses (or both raise
``OutOfMemoryError``) and hold the same ``_free`` and ``_cursor``
after every step.
"""

import random
from typing import Dict, List, Optional, Tuple

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.errors import InvalidAddressError, OutOfMemoryError
from repro.nvm.allocator import (_ALIGNMENT, HEADER_SIZE, Allocation,
                                 NVMAllocator)
from repro.sim.clock import SimClock
from repro.sim.stats import StatsCollector

CAPACITY = 64 * 1024


def _align_up(value: int, alignment: int = _ALIGNMENT) -> int:
    return (value + alignment - 1) // alignment * alignment


class _Memory:
    """Header writes cost nothing here: only placement is compared."""

    def touch_write(self, addr, size):
        pass


class ReferenceAllocator:
    """The linear-scan rotating best fit, kept verbatim."""

    def __init__(self, memory, capacity_bytes, stats) -> None:
        self._memory = memory
        self._stats = stats
        self.observer = None
        self.capacity_bytes = capacity_bytes
        # Reserve [0, _ALIGNMENT) so that 0 is never a valid pointer.
        self._free: List[Tuple[int, int]] = [
            (_ALIGNMENT, capacity_bytes - _ALIGNMENT)]
        self._cursor = 0
        self._allocations: Dict[int, Allocation] = {}
        self._bytes_by_tag: Dict[str, int] = {}
        self._peak_by_tag: Dict[str, int] = {}

    def malloc(self, size: int, tag: str = "other",
               kind: str = "bytes") -> Allocation:
        if size <= 0:
            raise ValueError("allocation size must be positive")
        if kind not in ("bytes", "object"):
            raise ValueError(f"unknown allocation kind {kind!r}")
        needed = _align_up(size + HEADER_SIZE)
        index = self._find_best_fit(needed)
        if index is None:
            raise OutOfMemoryError(
                f"cannot allocate {size} bytes "
                f"({self.free_bytes} free, fragmented)")
        base, block_size = self._free[index]
        if block_size == needed:
            del self._free[index]
        else:
            self._free[index] = (base + needed, block_size - needed)
        addr = base + HEADER_SIZE
        allocation = Allocation(addr, size, tag, kind)
        self._allocations[addr] = allocation
        self._account(tag, needed)
        self._stats.bump("alloc.malloc")
        # Writing the allocation header touches NVM.
        self._memory.touch_write(base, HEADER_SIZE)
        if self.observer is not None:
            self.observer.on_malloc(allocation)
        return allocation

    def _find_best_fit(self, needed: int) -> Optional[int]:
        """Best-fit search starting at the rotating cursor."""
        count = len(self._free)
        if count == 0:
            return None
        best_index: Optional[int] = None
        best_size = None
        for offset in range(count):
            index = (self._cursor + offset) % count
            __, block_size = self._free[index]
            if block_size >= needed and (best_size is None
                                         or block_size < best_size):
                best_index, best_size = index, block_size
                if block_size == needed:
                    break
        if best_index is not None:
            self._cursor = (best_index + 1) % max(count, 1)
        return best_index

    def free(self, allocation: Allocation) -> None:
        live = self._allocations.pop(allocation.addr, None)
        if live is not allocation:
            raise InvalidAddressError(
                f"double free or foreign allocation at {allocation.addr:#x}")
        base = allocation.addr - HEADER_SIZE
        needed = _align_up(allocation.size + HEADER_SIZE)
        self._insert_free(base, needed)
        self._account(allocation.tag, -needed)
        self._stats.bump("alloc.free")
        allocation.obj = None
        if self.observer is not None:
            self.observer.on_free(allocation)

    def _insert_free(self, base: int, size: int) -> None:
        """Insert a free block, coalescing with adjacent blocks."""
        free = self._free
        lo, hi = 0, len(free)
        while lo < hi:
            mid = (lo + hi) // 2
            if free[mid][0] < base:
                lo = mid + 1
            else:
                hi = mid
        free.insert(lo, (base, size))
        # Coalesce with successor, then predecessor.
        if lo + 1 < len(free) and base + size == free[lo + 1][0]:
            free[lo] = (base, size + free[lo + 1][1])
            del free[lo + 1]
        if lo > 0 and free[lo - 1][0] + free[lo - 1][1] == free[lo][0]:
            free[lo - 1] = (free[lo - 1][0],
                            free[lo - 1][1] + free[lo][1])
            del free[lo]

    def _account(self, tag: str, delta: int) -> None:
        current = self._bytes_by_tag.get(tag, 0) + delta
        self._bytes_by_tag[tag] = current
        if current > self._peak_by_tag.get(tag, 0):
            self._peak_by_tag[tag] = current

    @property
    def free_bytes(self) -> int:
        return sum(size for __, size in self._free)


def _pair():
    def build(cls):
        return cls(_Memory(), CAPACITY, StatsCollector(SimClock()))
    return build(NVMAllocator), build(ReferenceAllocator)


def assert_size_index_matches(allocator: NVMAllocator) -> None:
    assert allocator._by_size == sorted(
        (size, base) for base, size in allocator._free)


class _Twins:
    """Applies one op to both allocators and compares them."""

    def __init__(self) -> None:
        self.fast, self.ref = _pair()
        #: live (fast, reference) allocation pairs, in malloc order
        self.live: List[Tuple[Allocation, Allocation]] = []
        #: sizes of freed allocations: asking for one again is an
        #: exact refit whenever its hole has not coalesced
        self.freed_sizes: List[int] = []

    def malloc(self, size: int) -> None:
        outcomes = []
        for allocator in (self.fast, self.ref):
            try:
                outcomes.append(allocator.malloc(size))
            except OutOfMemoryError:
                outcomes.append(None)
        fast, ref = outcomes
        if fast is None or ref is None:
            assert fast is ref, ("one side ran out of memory", size)
        else:
            assert fast.addr == ref.addr, size
            self.live.append((fast, ref))
        self.check()

    def free(self, choice: int) -> None:
        if not self.live:
            return
        fast, ref = self.live.pop(choice % len(self.live))
        self.fast.free(fast)
        self.ref.free(ref)
        self.freed_sizes.append(fast.size)
        self.check()

    def check(self) -> None:
        assert self.fast._free == self.ref._free
        assert self.fast._cursor == self.ref._cursor
        assert_size_index_matches(self.fast)


def _random_size(rng: random.Random, twins: _Twins) -> int:
    roll = rng.random()
    if roll < 0.3 and twins.freed_sizes:
        return rng.choice(twins.freed_sizes)        # exact refit
    if roll < 0.35:
        return rng.randrange(CAPACITY // 4, 2 * CAPACITY)   # may not fit
    return rng.choice([rng.randrange(1, 64), rng.randrange(1, 600),
                       rng.choice([8, 16, 24, 100, 112, 512])])


def test_same_placement_on_seeded_random_sequences():
    for seed in range(12):
        rng = random.Random(seed)
        twins = _Twins()
        for __ in range(600):
            if twins.live and rng.random() < 0.45:
                twins.free(rng.randrange(len(twins.live)))
            else:
                twins.malloc(_random_size(rng, twins))


def test_same_placement_when_memory_runs_out():
    """Fill the device with mixed sizes until it refuses, punch holes,
    and refill: every refusal and every refit must agree."""
    rng = random.Random(3)
    twins = _Twins()
    while True:
        before = len(twins.live)
        twins.malloc(rng.choice([40, 200, 900]))
        if len(twins.live) == before:
            break
    for index in range(0, len(twins.live), 3):
        twins.free(index)
    for __ in range(200):
        twins.malloc(rng.choice([24, 40, 200, 900, 3000]))


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("malloc"), st.integers(1, 2048)),
        st.tuples(st.just("malloc"), st.sampled_from([8, 24, 40, 104])),
        st.tuples(st.just("malloc"), st.integers(CAPACITY // 2,
                                                 2 * CAPACITY)),
        st.tuples(st.just("refit"), st.integers(0, 1 << 16)),
        st.tuples(st.just("free"), st.integers(0, 1 << 16))),
    max_size=120)


@settings(max_examples=150, deadline=None)
@given(_OPS)
def test_same_placement_on_hypothesis_sequences(ops):
    twins = _Twins()
    for kind, value in ops:
        if kind == "malloc":
            twins.malloc(value)
        elif kind == "refit":
            if twins.freed_sizes:
                twins.malloc(twins.freed_sizes[
                    value % len(twins.freed_sizes)])
        else:
            twins.free(value)
