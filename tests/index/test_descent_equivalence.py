"""A B+tree descent is one cache operation, and costs what its probes did.

``NVMIndexCostModel.nodes_probed`` charges a whole root-to-leaf descent
as one ``touch_read_runs`` call. ``ProbeLoop`` below charges the same
descent the per-node way, one ``node_probed`` (one cache operation)
per node. Trees over each model run the same random get / put / scan /
delete sequence on twin platforms; simulated time must agree to the
last bit, the counter tables must agree in insertion order, and the
cache must report the same hits and misses — after every operation.
What does change is how often a clock listener is told: once per
descent instead of once per node. And every descent — get, put,
delete, the start of a scan — must hand the model its whole
root-to-leaf path in that one call.
"""

import random
from bisect import bisect_right

import pytest

from repro.config import CacheConfig, LatencyProfile, PlatformConfig
from repro.index.cost import NullCostModel, NVMIndexCostModel, PerNodeProbes
from repro.index.cow_btree import CoWBTree
from repro.index.nv_btree import NVBTree
from repro.index.stx_btree import STXBTree
from repro.nvm.platform import Platform


class ProbeLoop(PerNodeProbes, NVMIndexCostModel):
    """Charges a descent one node (one cache operation) at a time."""


def _platform():
    # A cache far smaller than the tree, so descents miss and evict.
    return Platform(PlatformConfig(
        latency=LatencyProfile.high_nvm(),
        cache=CacheConfig(capacity_bytes=16 * 1024),
        nvm_capacity_bytes=16 * 1024 * 1024, seed=5))


def _tree(kind, cost_cls, platform):
    cost = cost_cls(platform.allocator, platform.memory, tag="index",
                    persistent=kind == "nv")
    tree_cls = {"stx": STXBTree, "nv": NVBTree, "cow": CoWBTree}[kind]
    return tree_cls(node_size=256, cost_model=cost)


def _ops(seed, count=700):
    rng = random.Random(seed)
    for __ in range(count):
        kind = rng.choice(["put", "put", "get", "get", "scan", "delete"])
        key = rng.randrange(2000)
        yield kind, key, rng.randrange(1, 60)


def _apply(tree, op):
    kind, key, span = op
    if kind == "put":
        return tree.put(key, f"v{key}")
    if kind == "get":
        return tree.get(key)
    if kind == "scan":
        # Every fifth scan starts at the leftmost leaf.
        lo = None if key % 5 == 0 else key
        return list(tree.items(lo=lo, hi=key + span))
    return tree.delete(key)


def _state(platform):
    cache = platform.cache
    return (platform.clock.now_ns, cache.hits, cache.misses,
            list(platform.stats.counters.items()))


@pytest.mark.parametrize("kind", ["stx", "nv"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_descent_costs_what_its_probes_cost(kind, seed):
    one, per_node = _platform(), _platform()
    fast = _tree(kind, NVMIndexCostModel, one)
    slow = _tree(kind, ProbeLoop, per_node)
    for step, op in enumerate(_ops(seed)):
        assert _apply(fast, op) == _apply(slow, op), (step, op)
        assert _state(one) == _state(per_node), (step, op)
    fast.check_invariants()


def test_cow_lookup_costs_what_its_probes_cost():
    one, per_node = _platform(), _platform()
    fast = _tree("cow", NVMIndexCostModel, one)
    slow = _tree("cow", ProbeLoop, per_node)
    rng = random.Random(9)
    for batch in range(12):
        for tree in (fast, slow):
            tree.begin_batch()
        for __ in range(40):
            key = rng.randrange(3000)
            for tree in (fast, slow):
                tree.put(key, f"v{key}")
        for tree in (fast, slow):
            tree.commit()
        for __ in range(60):
            key = rng.randrange(3000)
            dirty = rng.random() < 0.5
            assert (fast.get(key, dirty=dirty)
                    == slow.get(key, dirty=dirty))
            assert _state(one) == _state(per_node), (batch, key)


@pytest.mark.parametrize("kind", ["stx", "nv"])
def test_listener_is_told_once_per_descent(kind):
    platform = _platform()
    tree = _tree(kind, NVMIndexCostModel, platform)
    for key in range(3000):
        tree.put(key, key)
    assert tree.depth() >= 3
    told = []
    platform.clock.subscribe(told.append)
    for key in (7, 1500, 2999, 4000):
        del told[:]
        before = platform.clock.now_ns
        tree.get(key)
        assert len(told) == 1, key
        assert told[0] == platform.clock.now_ns - before
    # A per-node model tells it once per level.
    per_node = _platform()
    looped = _tree(kind, ProbeLoop, per_node)
    for key in range(3000):
        looped.put(key, key)
    per_node.clock.subscribe(told.append)
    del told[:]
    looped.get(1500)
    assert len(told) == looped.depth()


class _Recorder(NullCostModel):
    """Records every probe call the tree makes."""

    def __init__(self):
        self.calls = []

    def node_probed(self, node_id, size):
        self.calls.append(("node", node_id))

    def nodes_probed(self, node_ids, size):
        self.calls.append(("descent", list(node_ids)))


def _path(tree, key):
    """Node ids from the root to ``key``'s leaf (leftmost if None)."""
    node, path = tree._root, [tree._root.node_id]
    while not node.is_leaf:
        node = node.children[
            0 if key is None else bisect_right(node.keys, key)]
        path.append(node.node_id)
    return path


@pytest.mark.parametrize("tree_cls", [STXBTree, NVBTree])
def test_every_descent_is_one_call_over_its_whole_path(tree_cls):
    recorder = _Recorder()
    tree = tree_cls(node_size=128, cost_model=recorder)
    for key in range(600):
        tree.put(key, key)
    assert tree.depth() >= 3
    ops = [(lambda: tree.get(250), 250),
           (lambda: tree.put(250, "x"), 250),
           (lambda: tree.put(1000, "new"), 1000),
           (lambda: tree.delete(250), 250),
           (lambda: tree.delete(4000), 4000),
           (lambda: next(iter(tree.items())), None),
           (lambda: next(iter(tree.items(lo=300))), 300)]
    for op, key in ops:
        expected = _path(tree, key)
        del recorder.calls[:]
        op()
        assert recorder.calls[0] == ("descent", expected), key
        assert all(kind == "node" for kind, __ in recorder.calls[1:]), key
