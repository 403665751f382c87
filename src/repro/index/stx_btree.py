"""A B+tree in the style of the STX B+tree library [10].

This is the index used by the in-place and log-structured engines for
primary and secondary indexes. The node size is configured in *bytes*
(512 B by default, as in Section 5) and translated into a fanout
assuming 16-byte entries (8-byte key + 8-byte pointer) — the Fig. 15
experiment sweeps this parameter.

Every node access is charged to an :class:`IndexCostModel`, which is
how index maintenance becomes NVM traffic on the emulated platform.
The structure itself is volatile: engines that keep it in DRAM-style
(non-persisted) allocations lose it on a crash and must rebuild it
during recovery, exactly as the paper's InP engine does (Section 3.1).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from typing import Any, Iterator, List, Optional, Tuple

from .cost import IndexCostModel, NullCostModel

#: Accounted bytes per (key, pointer) entry in a node.
ENTRY_SIZE = 16


class _Node:
    __slots__ = ("node_id", "is_leaf", "keys", "values", "children",
                 "next_leaf")

    def __init__(self, node_id: int, is_leaf: bool) -> None:
        self.node_id = node_id
        self.is_leaf = is_leaf
        self.keys: List[Any] = []
        self.values: List[Any] = []        # leaf only
        self.children: List["_Node"] = []  # internal only
        self.next_leaf: Optional["_Node"] = None


class STXBTree:
    """B+tree with byte-sized nodes and cost-model accounting.

    Keys must be mutually comparable; values are opaque. ``put``
    upserts, ``insert`` raises on duplicates, ``delete`` rebalances.
    """

    def __init__(self, node_size: int = 512,
                 cost_model: Optional[IndexCostModel] = None) -> None:
        if node_size < 4 * ENTRY_SIZE:
            raise ValueError(
                f"node_size {node_size} too small; need >= {4 * ENTRY_SIZE}")
        self.node_size = node_size
        self.fanout = node_size // ENTRY_SIZE
        self._min_fill = self.fanout // 2
        self._cost = cost_model if cost_model is not None else NullCostModel()
        self._ids = itertools.count(1)
        self._root = self._new_node(is_leaf=True)
        self._size = 0

    # ------------------------------------------------------------------
    # Node lifecycle
    # ------------------------------------------------------------------

    def _new_node(self, is_leaf: bool) -> _Node:
        node = _Node(next(self._ids), is_leaf)
        self._cost.node_allocated(node.node_id, self.node_size)
        return node

    def _free_node(self, node: _Node) -> None:
        self._cost.node_freed(node.node_id)

    def _write(self, node: _Node) -> None:
        self._cost.node_written(node.node_id, self.node_size)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def _find_leaf(self, key: Any) -> _Node:
        node = self._root
        path = [node.node_id]
        while not node.is_leaf:
            node = node.children[bisect_right(node.keys, key)]
            path.append(node.node_id)
        self._cost.nodes_probed(path, self.node_size)
        return node

    def get(self, key: Any, default: Any = None) -> Any:
        """Return the value for ``key`` or ``default``."""
        leaf = self._find_leaf(key)
        index = bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return leaf.values[index]
        return default

    def __contains__(self, key: Any) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def put(self, key: Any, value: Any) -> bool:
        """Insert or replace; returns True if the key was new."""
        return self._put(key, value, replace=True)

    def insert(self, key: Any, value: Any) -> None:
        """Insert; raises ``KeyError`` if the key exists."""
        if not self._put(key, value, replace=False):
            raise KeyError(f"duplicate key {key!r}")

    def _put(self, key: Any, value: Any, replace: bool) -> bool:
        path: List[Tuple[_Node, int]] = []
        node = self._root
        probed = [node.node_id]
        while not node.is_leaf:
            index = bisect_right(node.keys, key)
            path.append((node, index))
            node = node.children[index]
            probed.append(node.node_id)
        self._cost.nodes_probed(probed, self.node_size)
        index = bisect_left(node.keys, key)
        if index < len(node.keys) and node.keys[index] == key:
            if not replace:
                return False
            node.values[index] = value
            self._write(node)
            return False
        node.keys.insert(index, key)
        node.values.insert(index, value)
        self._write(node)
        self._size += 1
        # Split upward while nodes overflow.
        while len(node.keys) > self.fanout:
            sibling, separator = self._split(node)
            if path:
                parent, child_index = path.pop()
                parent.keys.insert(child_index, separator)
                parent.children.insert(child_index + 1, sibling)
                self._write(parent)
                node = parent
            else:
                new_root = self._new_node(is_leaf=False)
                new_root.keys = [separator]
                new_root.children = [node, sibling]
                self._root = new_root
                self._write(new_root)
                break
        return True

    def _split(self, node: _Node) -> Tuple[_Node, Any]:
        """Split an overflowing node; returns (right sibling, separator)."""
        sibling = self._new_node(node.is_leaf)
        middle = len(node.keys) // 2
        if node.is_leaf:
            sibling.keys = node.keys[middle:]
            sibling.values = node.values[middle:]
            del node.keys[middle:]
            del node.values[middle:]
            sibling.next_leaf = node.next_leaf
            node.next_leaf = sibling
            separator = sibling.keys[0]
        else:
            separator = node.keys[middle]
            sibling.keys = node.keys[middle + 1:]
            sibling.children = node.children[middle + 1:]
            del node.keys[middle:]
            del node.children[middle + 1:]
        self._write(node)
        self._write(sibling)
        return sibling, separator

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------

    def delete(self, key: Any) -> bool:
        """Delete ``key``; returns True if it existed."""
        # Every probe of the descent precedes the first write, so the
        # descent is charged up front, as one operation.
        self._find_leaf(key)
        removed = self._delete(self._root, key)
        if removed:
            self._size -= 1
        root = self._root
        if not root.is_leaf and len(root.children) == 1:
            # Shrink the tree when the root holds a single child.
            self._root = root.children[0]
            self._free_node(root)
        return removed

    def _delete(self, node: _Node, key: Any) -> bool:
        if node.is_leaf:
            index = bisect_left(node.keys, key)
            if index >= len(node.keys) or node.keys[index] != key:
                return False
            del node.keys[index]
            del node.values[index]
            self._write(node)
            return True
        index = bisect_right(node.keys, key)
        child = node.children[index]
        removed = self._delete(child, key)
        if removed and self._underfull(child):
            self._rebalance(node, index)
        return removed

    def _underfull(self, node: _Node) -> bool:
        return len(node.keys) < self._min_fill

    def _rebalance(self, parent: _Node, index: int) -> None:
        child = parent.children[index]
        left = parent.children[index - 1] if index > 0 else None
        right = (parent.children[index + 1]
                 if index + 1 < len(parent.children) else None)
        if left is not None and len(left.keys) > self._min_fill:
            self._borrow_from_left(parent, index, left, child)
        elif right is not None and len(right.keys) > self._min_fill:
            self._borrow_from_right(parent, index, child, right)
        elif left is not None:
            self._merge(parent, index - 1, left, child)
        elif right is not None:
            self._merge(parent, index, child, right)

    def _borrow_from_left(self, parent: _Node, index: int,
                          left: _Node, child: _Node) -> None:
        if child.is_leaf:
            child.keys.insert(0, left.keys.pop())
            child.values.insert(0, left.values.pop())
            parent.keys[index - 1] = child.keys[0]
        else:
            child.keys.insert(0, parent.keys[index - 1])
            parent.keys[index - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())
        self._write(parent)
        self._write(left)
        self._write(child)

    def _borrow_from_right(self, parent: _Node, index: int,
                           child: _Node, right: _Node) -> None:
        if child.is_leaf:
            child.keys.append(right.keys.pop(0))
            child.values.append(right.values.pop(0))
            parent.keys[index] = right.keys[0]
        else:
            child.keys.append(parent.keys[index])
            parent.keys[index] = right.keys.pop(0)
            child.children.append(right.children.pop(0))
        self._write(parent)
        self._write(right)
        self._write(child)

    def _merge(self, parent: _Node, left_index: int,
               left: _Node, right: _Node) -> None:
        if left.is_leaf:
            left.keys.extend(right.keys)
            left.values.extend(right.values)
            left.next_leaf = right.next_leaf
        else:
            left.keys.append(parent.keys[left_index])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        del parent.keys[left_index]
        del parent.children[left_index + 1]
        self._write(parent)
        self._write(left)
        self._free_node(right)

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------

    def items(self, lo: Any = None, hi: Any = None
              ) -> Iterator[Tuple[Any, Any]]:
        """Yield (key, value) in key order for ``lo <= key < hi``."""
        if lo is None:
            node: Optional[_Node] = self._leftmost_leaf()
            start = 0
        else:
            node = self._find_leaf(lo)
            start = bisect_left(node.keys, lo)
        probe, size = self._cost.node_probed, self.node_size
        while node is not None:
            probe(node.node_id, size)
            for index in range(start, len(node.keys)):
                key = node.keys[index]
                if hi is not None and key >= hi:
                    return
                yield key, node.values[index]
            node = node.next_leaf
            start = 0

    def _leftmost_leaf(self) -> _Node:
        node = self._root
        path = [node.node_id]
        while not node.is_leaf:
            node = node.children[0]
            path.append(node.node_id)
        self._cost.nodes_probed(path, self.node_size)
        return node

    def keys(self) -> Iterator[Any]:
        for key, __ in self.items():
            yield key

    def __iter__(self) -> Iterator[Any]:
        return self.keys()

    # ------------------------------------------------------------------
    # Introspection (used by tests and the Fig. 15 experiment)
    # ------------------------------------------------------------------

    def depth(self) -> int:
        """Number of levels from root to leaves."""
        node, levels = self._root, 1
        while not node.is_leaf:
            node = node.children[0]
            levels += 1
        return levels

    def node_count(self) -> int:
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                stack.extend(node.children)
        return count

    def check_invariants(self) -> None:
        """Validate ordering, fill, linkage; raises AssertionError."""
        leaves: List[_Node] = []

        def visit(node: _Node, lo: Any, hi: Any, depth: int) -> int:
            assert node.keys == sorted(node.keys), "keys out of order"
            for key in node.keys:
                if lo is not None:
                    assert key >= lo, "key below subtree bound"
                if hi is not None:
                    assert key < hi, "key above subtree bound"
            if node.is_leaf:
                assert len(node.keys) == len(node.values)
                leaves.append(node)
                return depth
            assert len(node.children) == len(node.keys) + 1
            depths = set()
            bounds = [lo, *node.keys, hi]
            for child, (child_lo, child_hi) in zip(
                    node.children, zip(bounds[:-1], bounds[1:])):
                depths.add(visit(child, child_lo, child_hi, depth + 1))
            assert len(depths) == 1, "leaves at different depths"
            return depths.pop()

        visit(self._root, None, None, 0)
        # Leaf chain must visit every leaf exactly once, left to right.
        chained = []
        node: Optional[_Node] = self._leftmost_leaf()
        while node is not None:
            chained.append(node)
            node = node.next_leaf
        assert chained == leaves, "leaf chain broken"
        assert sum(len(leaf.keys) for leaf in leaves) == self._size
