"""Stateful property test for the NVM allocator.

Random malloc/free/persist/crash sequences against a model of live
allocations: persisted allocations must survive crashes, unpersisted
ones must be reclaimed, allocations never overlap, and freed space is
reusable.
"""

import hypothesis.strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.config import PlatformConfig
from repro.nvm.allocator import HEADER_SIZE
from repro.nvm.platform import Platform


class AllocatorMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.platform = Platform(PlatformConfig(
            nvm_capacity_bytes=4 * 1024 * 1024, seed=3))
        self.allocator = self.platform.allocator
        self.live = {}       # addr -> (allocation, persisted)

    @rule(size=st.integers(min_value=1, max_value=4096),
          persist=st.booleans())
    def malloc(self, size, persist):
        allocation = self.allocator.malloc(size)
        if persist:
            self.allocator.persist(allocation)
        self.live[allocation.addr] = (allocation, persist)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def free(self, data):
        addr = data.draw(st.sampled_from(sorted(self.live)))
        allocation, __ = self.live.pop(addr)
        self.allocator.free(allocation)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def sync(self, data):
        addr = data.draw(st.sampled_from(sorted(self.live)))
        allocation, __ = self.live[addr]
        self.allocator.sync(allocation)
        self.live[addr] = (allocation, True)

    @rule()
    def crash(self):
        self.platform.crash()
        self.live = {addr: entry for addr, entry in self.live.items()
                     if entry[1]}

    @invariant()
    def live_set_matches(self):
        if not hasattr(self, "allocator"):
            return
        for addr, (allocation, __) in self.live.items():
            assert self.allocator.resolve_optional(addr) is allocation

    @invariant()
    def size_index_matches_free_list(self):
        if not hasattr(self, "allocator"):
            return
        assert self.allocator._by_size == sorted(
            (size, base) for base, size in self.allocator._free)

    @invariant()
    def no_overlaps(self):
        if not hasattr(self, "allocator"):
            return
        spans = sorted(
            (allocation.addr - HEADER_SIZE,
             allocation.addr + allocation.size)
            for allocation, __ in self.live.values())
        for (___, end), (start, ____) in zip(spans, spans[1:]):
            assert end <= start, "allocations overlap"


TestAllocatorMachine = AllocatorMachine.TestCase
TestAllocatorMachine.settings = __import__("hypothesis").settings(
    max_examples=25, stateful_step_count=40, deadline=None)
