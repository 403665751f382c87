"""Append-only copy-on-write B+tree (LMDB-style [16, 36, 56]).

This is the structure behind the CoW engines' *current* and *dirty*
directories (Section 3.2). Committed nodes are immutable; a mutation
copies the path from the affected leaf up to the root into the dirty
version, and the two versions share the rest of the tree. Committing
atomically installs the dirty root as the new current root (the engine
persists the newly created nodes first, then flips the master record);
aborting discards the dirty version. Old node versions replaced during
an epoch are garbage collected when the epoch commits.

Unlike the STX tree there is no leaf chain — versions share subtrees,
so scans walk the tree (as LMDB does).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from typing import Any, Callable, Iterator, List, Optional, Tuple

from .cost import IndexCostModel, NullCostModel
from .stx_btree import ENTRY_SIZE


def _value_size(value: Any) -> int:
    """Accounted bytes of a leaf value: inlined tuple images carry
    their full size, pointers and other scalars one word."""
    if isinstance(value, (bytes, bytearray, str)):
        return len(value)
    if isinstance(value, frozenset):
        return 8 * max(len(value), 1)
    return 8


class CoWNode:
    """One node of the copy-on-write tree. Public so that engines can
    serialize committed nodes to pages."""

    __slots__ = ("node_id", "is_leaf", "keys", "values", "children",
                 "epoch")

    def __init__(self, node_id: int, is_leaf: bool, epoch: int) -> None:
        self.node_id = node_id
        self.is_leaf = is_leaf
        self.keys: List[Any] = []
        self.values: List[Any] = []          # leaf only
        self.children: List["CoWNode"] = []  # internal only
        self.epoch = epoch


class CoWBTree:
    """Copy-on-write B+tree with explicit batch (epoch) lifecycle.

    Typical engine usage::

        tree.begin_batch()
        tree.put(key, value)          # copies the leaf-to-root path
        ...
        tree.commit(persist=callback) # callback persists created nodes
    """

    def __init__(self, node_size: int = 4096,
                 cost_model: Optional[IndexCostModel] = None,
                 leaf_fanout: Optional[int] = None) -> None:
        if node_size < 4 * ENTRY_SIZE:
            raise ValueError(
                f"node_size {node_size} too small; need >= {4 * ENTRY_SIZE}")
        self.node_size = node_size
        self.fanout = node_size // ENTRY_SIZE
        # Leaves that inline tuple data hold fewer entries per page
        # than branch nodes holding (key, child) pairs.
        self.leaf_fanout = leaf_fanout if leaf_fanout is not None \
            else self.fanout
        if self.leaf_fanout < 2:
            raise ValueError("leaf_fanout must be >= 2")
        self._cost = cost_model if cost_model is not None else NullCostModel()
        self._ids = itertools.count(1)
        self._epoch = 0
        root = self._new_node(is_leaf=True)
        self._current_root = root
        self._dirty_root = root
        self._in_batch = False
        self._created: List[CoWNode] = []
        self._replaced: List[CoWNode] = []
        self._size_current = 0
        self._size_dirty = 0

    # ------------------------------------------------------------------
    # Node lifecycle
    # ------------------------------------------------------------------

    def _new_node(self, is_leaf: bool) -> CoWNode:
        node = CoWNode(next(self._ids), is_leaf, self._epoch)
        self._cost.node_allocated(node.node_id, self.node_size)
        self._cost.node_written(node.node_id, self.node_size)
        return node

    def _modifiable(self, node: CoWNode) -> CoWNode:
        """Return a copy of ``node`` owned by the current epoch (or
        ``node`` itself if it was created this epoch)."""
        if node.epoch == self._epoch:
            self._cost.node_probed(node.node_id, self.node_size)
            return node
        # Copying reads the whole node's contents.
        self._cost.node_read(node.node_id, self.node_size)
        copy = self._new_node(node.is_leaf)
        copy.keys = list(node.keys)
        copy.values = list(node.values)
        copy.children = list(node.children)
        self._created.append(copy)
        self._replaced.append(node)
        return copy

    # ------------------------------------------------------------------
    # Batch (epoch) lifecycle
    # ------------------------------------------------------------------

    @property
    def in_batch(self) -> bool:
        return self._in_batch

    def begin_batch(self) -> None:
        """Open a mutation epoch over the dirty directory."""
        if self._in_batch:
            return
        self._in_batch = True
        self._epoch += 1
        self._created = []
        self._replaced = []

    def commit(self, persist: Optional[Callable[[List[CoWNode], CoWNode],
                                                None]] = None) -> None:
        """Commit the dirty version.

        ``persist(created_nodes, new_root)`` is invoked *before* the
        flip so the engine can durably write the new nodes and only
        then atomically update its master record.
        """
        if not self._in_batch:
            return
        if persist is not None:
            persist(self._created, self._dirty_root)
        # Nodes replaced by this epoch belonged only to the previous
        # version; with the flip they become garbage (the paper GCs
        # them asynchronously — here they are reclaimed at commit).
        for node in self._replaced:
            self._cost.node_freed(node.node_id)
        self._current_root = self._dirty_root
        self._size_current = self._size_dirty
        self._created = []
        self._replaced = []
        self._in_batch = False

    def abort(self) -> None:
        """Discard the dirty version (uncommitted changes)."""
        if not self._in_batch:
            return
        for node in self._created:
            self._cost.node_freed(node.node_id)
        self._dirty_root = self._current_root
        self._size_dirty = self._size_current
        self._created = []
        self._replaced = []
        self._in_batch = False

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def _root_for(self, dirty: bool) -> CoWNode:
        return self._dirty_root if dirty else self._current_root

    def get(self, key: Any, default: Any = None, dirty: bool = True) -> Any:
        """Look up ``key`` in the dirty (default) or current version."""
        node = self._root_for(dirty)
        path = [node.node_id]
        while not node.is_leaf:
            node = node.children[bisect_right(node.keys, key)]
            path.append(node.node_id)
        self._cost.nodes_probed(path, self.node_size)
        index = bisect_left(node.keys, key)
        if index < len(node.keys) and node.keys[index] == key:
            value = node.values[index]
            # Reading an inlined tuple touches its bytes in the leaf.
            self._cost.node_read(node.node_id, _value_size(value))
            return value
        return default

    def __contains__(self, key: Any) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def __len__(self) -> int:
        return self._size_dirty

    def size(self, dirty: bool = True) -> int:
        return self._size_dirty if dirty else self._size_current

    def items(self, lo: Any = None, hi: Any = None,
              dirty: bool = True) -> Iterator[Tuple[Any, Any]]:
        """In-order (key, value) pairs with ``lo <= key < hi``."""
        stack: List[Tuple[CoWNode, int]] = [(self._root_for(dirty), 0)]
        while stack:
            node, index = stack.pop()
            if index == 0:
                self._cost.node_read(node.node_id, self.node_size)
            if node.is_leaf:
                start = 0 if lo is None else bisect_left(node.keys, lo)
                for position in range(start, len(node.keys)):
                    key = node.keys[position]
                    if hi is not None and key >= hi:
                        return
                    yield key, node.values[position]
                continue
            if lo is not None and index == 0:
                index = bisect_right(node.keys, lo)
            if index < len(node.children):
                stack.append((node, index + 1))
                stack.append((node.children[index], 0))

    # ------------------------------------------------------------------
    # Mutations (require an open batch)
    # ------------------------------------------------------------------

    def _require_batch(self) -> None:
        if not self._in_batch:
            raise RuntimeError(
                "CoWBTree mutations require begin_batch() first")

    def put(self, key: Any, value: Any) -> bool:
        """Upsert into the dirty version; True if the key was new."""
        self._require_batch()
        self._dirty_root = self._modifiable(self._dirty_root)
        node = self._dirty_root
        path: List[Tuple[CoWNode, int]] = []
        while not node.is_leaf:
            index = bisect_right(node.keys, key)
            child = self._modifiable(node.children[index])
            node.children[index] = child
            path.append((node, index))
            node = child
        index = bisect_left(node.keys, key)
        if index < len(node.keys) and node.keys[index] == key:
            node.values[index] = value
            self._cost.node_written(node.node_id, self.node_size)
            return False
        node.keys.insert(index, key)
        node.values.insert(index, value)
        self._cost.node_written(node.node_id, self.node_size)
        self._size_dirty += 1
        while len(node.keys) > (self.leaf_fanout if node.is_leaf
                                else self.fanout):
            sibling, separator = self._split(node)
            if path:
                parent, child_index = path.pop()
                parent.keys.insert(child_index, separator)
                parent.children.insert(child_index + 1, sibling)
                self._cost.node_written(parent.node_id, self.node_size)
                node = parent
            else:
                new_root = self._new_node(is_leaf=False)
                new_root.keys = [separator]
                new_root.children = [node, sibling]
                self._created.append(new_root)
                self._dirty_root = new_root
                break
        return True

    def _split(self, node: CoWNode) -> Tuple[CoWNode, Any]:
        sibling = self._new_node(node.is_leaf)
        self._created.append(sibling)
        middle = len(node.keys) // 2
        if node.is_leaf:
            sibling.keys = node.keys[middle:]
            sibling.values = node.values[middle:]
            del node.keys[middle:]
            del node.values[middle:]
            separator = sibling.keys[0]
        else:
            separator = node.keys[middle]
            sibling.keys = node.keys[middle + 1:]
            sibling.children = node.children[middle + 1:]
            del node.keys[middle:]
            del node.children[middle + 1:]
        self._cost.node_written(node.node_id, self.node_size)
        return sibling, separator

    def delete(self, key: Any) -> bool:
        """Delete from the dirty version; True if the key existed.

        Like LMDB, underfull nodes are tolerated (no merge); only an
        empty root chain is collapsed.
        """
        self._require_batch()
        self._dirty_root = self._modifiable(self._dirty_root)
        node = self._dirty_root
        path: List[Tuple[CoWNode, int]] = []
        while not node.is_leaf:
            index = bisect_right(node.keys, key)
            child = self._modifiable(node.children[index])
            node.children[index] = child
            path.append((node, index))
            node = child
        index = bisect_left(node.keys, key)
        if index >= len(node.keys) or node.keys[index] != key:
            return False
        del node.keys[index]
        del node.values[index]
        self._cost.node_written(node.node_id, self.node_size)
        self._size_dirty -= 1
        # Collapse empty leaves (and any internals emptied as a result)
        # and single-child roots.
        while path:
            empty = (not node.keys) if node.is_leaf else (not node.children)
            if not empty:
                break
            parent, child_index = path.pop()
            del parent.children[child_index]
            if parent.keys:
                del parent.keys[max(child_index - 1, 0)]
            self._cost.node_written(parent.node_id, self.node_size)
            node = parent
        root = self._dirty_root
        while not root.is_leaf and len(root.children) == 1:
            root = root.children[0]
        self._dirty_root = root
        return True

    # ------------------------------------------------------------------
    # Engine integration
    # ------------------------------------------------------------------

    @property
    def current_root(self) -> CoWNode:
        return self._current_root

    @property
    def dirty_root(self) -> CoWNode:
        return self._dirty_root

    def replaced_this_epoch(self) -> List[CoWNode]:
        """Nodes whose old versions this epoch superseded (their
        durable pages become recyclable once the epoch commits)."""
        return list(self._replaced)

    def materialize_node(self, is_leaf: bool) -> CoWNode:
        """Allocate a node outside any epoch (used when reconstructing
        a committed directory from durable pages)."""
        return self._new_node(is_leaf)

    def install_recovered_root(self, root: CoWNode, size: int) -> None:
        """Install a root graph reconstructed from durable storage
        (used by the CoW engine after a restart)."""
        self._current_root = root
        self._dirty_root = root
        self._size_current = size
        self._size_dirty = size
        self._in_batch = False
        self._created = []
        self._replaced = []

    def node_count(self, dirty: bool = True) -> int:
        seen = set()
        stack = [self._root_for(dirty)]
        while stack:
            node = stack.pop()
            if node.node_id in seen:
                continue
            seen.add(node.node_id)
            if not node.is_leaf:
                stack.extend(node.children)
        return len(seen)

    def shared_node_count(self) -> int:
        """Nodes shared between the current and dirty versions — the
        space saving of shadow paging over full directory copies."""
        def reachable(root: CoWNode) -> set:
            seen = set()
            stack = [root]
            while stack:
                node = stack.pop()
                if id(node) in seen:
                    continue
                seen.add(id(node))
                if not node.is_leaf:
                    stack.extend(node.children)
            return seen

        return len(reachable(self._current_root)
                   & reachable(self._dirty_root))

    def check_invariants(self, dirty: bool = True) -> None:
        """Validate ordering and reachability; raises AssertionError."""
        count = 0

        def visit(node: CoWNode, lo: Any, hi: Any) -> None:
            nonlocal count
            assert node.keys == sorted(node.keys), "keys out of order"
            for key in node.keys:
                if lo is not None:
                    assert key >= lo
                if hi is not None:
                    assert key < hi
            if node.is_leaf:
                assert len(node.keys) == len(node.values)
                count += len(node.keys)
                return
            assert len(node.children) == len(node.keys) + 1
            bounds = [lo, *node.keys, hi]
            for child, (child_lo, child_hi) in zip(
                    node.children, zip(bounds[:-1], bounds[1:])):
                visit(child, child_lo, child_hi)

        visit(self._root_for(dirty), None, None)
        assert count == self.size(dirty)
