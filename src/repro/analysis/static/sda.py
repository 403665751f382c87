"""SDA001–SDA004: static durability analysis.

The paper's Section 2.3 ordering contract — a store to NVM is durable
only after a CLFLUSH/CLWB *and* an SFENCE — is checked dynamically by
``repro check`` (ORD001–ORD006) on whatever paths a workload happens
to execute. These rules prove the same discipline over *all* CFG
paths at lint time:

========  ==========================================================
SDA001    an NVM store can reach a commit-marker site
          (``atomic_durable_store_u64``) with no ``sync``/``sfence``
          on some path — the marker publishes data that may still be
          sitting in a volatile CPU cache
SDA002    a durability-root method (``_do_commit``,
          ``_do_flush_commits``, ``_do_recover``, ``checkpoint``) of an
          ``is_nvm_aware`` engine can return with a store still
          unsynced on some path — the txn reports durable state that
          a crash can lose
SDA003    the same range expression is flushed twice with no
          intervening store — the second flush pays fence/flush
          latency for bytes already durable (Table 2's per-txn sync
          counts are the paper's cost model for exactly this)
SDA004    an ``sfence`` with no preceding flush *or call* on any
          path — the fence orders nothing (static mirror of LNT001,
          but path-sensitive)
========  ==========================================================

Vocabulary is name-based (``store``/``store_u64``/``write_slot`` =
store; ``sync*``/``persist`` = clearing sync; ``clflush``/``clwb`` =
flush; ``sfence`` = fence), so helper calls through pool/allocator
facades classify without type inference. ``self.method()`` calls
resolve through the class hierarchy and contribute a summary
(clears-all / may-exit-dirty / may-hit-marker-unguarded), computed
bottom-up with a neutral assumption on recursion.

Approximations, chosen to keep the gate false-positive-free:

* any ``sync``-class event clears *all* pending stores (a range
  comparison would need value analysis; the runtime checker has the
  precise version);
* ``set_state(..., durable=<non-constant>)`` is assumed to sync;
* unclassified calls neither clear nor add pending stores, but do
  invalidate SDA003 flush-memory and satisfy SDA004.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.lint.framework import LintViolation

from .callgraph import (ClassInfo, FunctionInfo, Project, call_name,
                        receiver_text)
from .cfg import statement_calls
from .dataflow import solve_forward
from .runner import StaticRule, register_static_rule

__all__ = ["SDA_ROOT_METHODS"]

STORE_NAMES = frozenset({"store", "store_u64", "write_slot"})
SYNC_NAMES = frozenset({"sync", "sync_ranges", "sync_many",
                        "sync_slot", "sync_node", "persist"})
FLUSH_NAMES = frozenset({"clflush", "clwb"})
FENCE_NAMES = frozenset({"sfence"})
MARKER_NAMES = frozenset({"atomic_durable_store_u64"})

#: Engine methods that end a durability epoch: when they return, the
#: system believes the work they did is crash-safe.
SDA_ROOT_METHODS = frozenset({"_do_commit", "_do_flush_commits",
                              "_do_recover", "checkpoint"})

#: A store token: (line, col, description). The caller-inherited
#: pseudo-token lets one dataflow run double as a function summary.
Token = Tuple[int, int, str]
_INHERITED: Token = (-1, -1, "<caller store>")

State = FrozenSet[Token]
_EMPTY: State = frozenset()
_BOTTOM: State = frozenset({(-2, -2, "<unreached>")})


def _last_segment(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def _set_state_syncs(call: ast.Call) -> bool:
    """``set_state(addr, state, durable)``: syncs unless ``durable``
    is literally False."""
    durable: Optional[ast.expr] = None
    if len(call.args) >= 3:
        durable = call.args[2]
    for keyword in call.keywords:
        if keyword.arg == "durable":
            durable = keyword.value
    if isinstance(durable, ast.Constant):
        return bool(durable.value)
    return True


class _Event:
    """One classified durability event inside a statement."""

    __slots__ = ("kind", "call", "token")

    def __init__(self, kind: str, call: ast.Call,
                 token: Optional[Token] = None) -> None:
        self.kind = kind
        self.call = call
        self.token = token


def classify(call: ast.Call) -> List[_Event]:
    name = _last_segment(call_name(call))
    line = getattr(call, "lineno", 0)
    col = getattr(call, "col_offset", 0)
    if name in STORE_NAMES:
        return [_Event("store", call, (line, col, f"{name}()"))]
    if name == "set_state":
        events = [_Event("store", call, (line, col, "set_state()"))]
        if _set_state_syncs(call):
            events.append(_Event("sync", call))
        return events
    if name in SYNC_NAMES:
        return [_Event("sync", call)]
    if name in FLUSH_NAMES:
        return [_Event("flush", call)]
    if name in FENCE_NAMES:
        return [_Event("fence", call)]
    if name in MARKER_NAMES:
        return [_Event("marker", call)]
    return [_Event("other", call)]


class _CallEvent(_Event):
    """A resolved ``self.method()`` call, carrying its callee."""

    __slots__ = ("callee",)

    def __init__(self, call: ast.Call, callee: FunctionInfo) -> None:
        super().__init__("call", call)
        self.callee = callee


def node_events(project: Project, func: FunctionInfo,
                context: Optional[ClassInfo],
                stmt: ast.AST) -> List[_Event]:
    """Classified events of one CFG statement, with ``self.m()`` calls
    resolved through ``context``'s MRO into ``call`` events carrying
    the callee."""
    events: List[_Event] = []
    for node in statement_calls(stmt):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        if (context is not None and name.startswith("self.")
                and name.count(".") == 1):
            callee = project.resolve_method(context.name,
                                            name.split(".", 1)[1])
            if callee is not None and callee.node is not func.node:
                events.append(_CallEvent(node, callee))
                continue
        events.extend(classify(node))
    return events


class Summary:
    """What a callee does to its caller's pending-store state."""

    __slots__ = ("clears_all", "may_exit_dirty",
                 "may_marker_unguarded")

    def __init__(self, clears_all: bool = False,
                 may_exit_dirty: bool = False,
                 may_marker_unguarded: bool = False) -> None:
        self.clears_all = clears_all
        self.may_exit_dirty = may_exit_dirty
        self.may_marker_unguarded = may_marker_unguarded


_NEUTRAL = Summary()


class PendingStoreAnalysis:
    """The shared pending-store dataflow: per (function, context
    class) it computes IN states, a :class:`Summary`, and the marker
    sites reached dirty."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self._summaries: Dict[Tuple[int, str], Summary] = {}
        self._in_progress: set = set()

    # -- events ---------------------------------------------------------

    def _events(self, func: FunctionInfo,
                context: Optional[ClassInfo],
                node_index: int) -> List[_Event]:
        cfg = func.cfg
        node = cfg.nodes[node_index]
        if node.stmt is None:
            return []
        return node_events(self.project, func, context, node.stmt)

    # -- transfer -------------------------------------------------------

    def _transfer(self, func: FunctionInfo,
                  context: Optional[ClassInfo],
                  node_index: int, state: State) -> State:
        if state == _BOTTOM:
            return state
        current = set(state)
        for event in self._events(func, context, node_index):
            if event.kind == "store" and event.token is not None:
                current.add(event.token)
            elif event.kind in ("sync", "fence", "marker"):
                # sync = flush+fence; the marker primitive syncs its
                # own cache line and fences, closing the epoch.
                current.clear()
            elif isinstance(event, _CallEvent):
                summary = self.summary(event.callee, context)
                if summary.clears_all:
                    current.clear()
                if summary.may_exit_dirty:
                    line = getattr(event.call, "lineno", 0)
                    col = getattr(event.call, "col_offset", 0)
                    current.add(
                        (line, col,
                         f"via {event.callee.qualname}()"))
        return frozenset(current)

    def run(self, func: FunctionInfo,
            context: Optional[ClassInfo]) -> Dict[int, State]:
        cfg = func.cfg

        def transfer(index: int, state: State) -> State:
            return self._transfer(func, context, index, state)

        def join(a: State, b: State) -> State:
            if a == _BOTTOM:
                return b
            if b == _BOTTOM:
                return a
            return a | b

        return solve_forward(cfg, frozenset({_INHERITED}), transfer,
                             join, _BOTTOM)

    # -- summaries ------------------------------------------------------

    def summary(self, func: FunctionInfo,
                context: Optional[ClassInfo]) -> Summary:
        ctx_name = context.name if context is not None else ""
        key = (id(func.node), ctx_name)
        cached = self._summaries.get(key)
        if cached is not None:
            return cached
        if key in self._in_progress:
            return _NEUTRAL       # recursion: assume no effect
        self._in_progress.add(key)
        try:
            states = self.run(func, context)
        finally:
            self._in_progress.discard(key)
        summary = self._summarise(func, context, states)
        self._summaries[key] = summary
        return summary

    def _summarise(self, func: FunctionInfo,
                   context: Optional[ClassInfo],
                   states: Dict[int, State]) -> Summary:
        cfg = func.cfg
        exit_state = states[cfg.exit]
        clears_all = (exit_state == _BOTTOM
                      or _INHERITED not in exit_state)
        may_exit_dirty = (exit_state != _BOTTOM
                          and any(token != _INHERITED
                                  for token in exit_state))
        may_marker = False
        for _marker, pending in self.dirty_markers(func, context,
                                                   states):
            if _INHERITED in pending:
                may_marker = True
                break
        return Summary(clears_all, may_exit_dirty, may_marker)

    # -- reporting helpers ----------------------------------------------

    def dirty_markers(self, func: FunctionInfo,
                      context: Optional[ClassInfo],
                      states: Dict[int, State]
                      ) -> Iterator[Tuple[ast.Call, State]]:
        """(marker call, pending stores when it executes) pairs,
        replaying each statement's events against its IN state."""
        cfg = func.cfg
        for node in cfg.nodes:
            state = states[node.index]
            if state == _BOTTOM or node.stmt is None:
                continue
            current = set(state)
            for event in self._events(func, context, node.index):
                if event.kind == "marker" and current:
                    yield event.call, frozenset(current)
                if event.kind == "store" and event.token is not None:
                    current.add(event.token)
                elif event.kind in ("sync", "fence", "marker"):
                    current.clear()
                elif isinstance(event, _CallEvent):
                    summary = self.summary(event.callee, context)
                    if summary.may_marker_unguarded and current:
                        yield event.call, frozenset(current)
                    if summary.clears_all:
                        current.clear()
                    if summary.may_exit_dirty:
                        line = getattr(event.call, "lineno", 0)
                        col = getattr(event.call, "col_offset", 0)
                        current.add(
                            (line, col,
                             f"via {event.callee.qualname}()"))


def _function_contexts(
        project: Project) -> Iterator[Tuple[FunctionInfo,
                                            Optional[ClassInfo]]]:
    """Every function, in its defining class's context (or module
    scope). Nested defs are not indexed — their CFGs never run here."""
    for func in project.functions:
        yield func, func.cls


@register_static_rule
class StoreReachesMarkerUnsynced(StaticRule):
    """SDA001."""

    code = "SDA001"
    name = "store-reaches-marker-unsynced"
    description = ("an NVM store may reach the commit marker "
                   "(atomic_durable_store_u64) with no sync/sfence on "
                   "some path")

    def check_project(self,
                      project: Project) -> Iterator[LintViolation]:
        analysis = PendingStoreAnalysis(project)
        for func, context in _function_contexts(project):
            states = analysis.run(func, context)
            seen: set = set()
            for marker, pending in analysis.dirty_markers(
                    func, context, states):
                for token in sorted(pending):
                    if token == _INHERITED:
                        continue
                    if token in seen:
                        continue
                    seen.add(token)
                    line, _col, label = token
                    yield self.violation(
                        func, marker,
                        f"store {label} at line {line} may reach "
                        f"this commit marker without an intervening "
                        f"sync/sfence on some path")


@register_static_rule
class DirtyStoreAtDurabilityExit(StaticRule):
    """SDA002."""

    code = "SDA002"
    name = "dirty-store-at-durability-exit"
    description = ("a durability-root method (_do_commit/"
                   "_do_flush_commits/_do_recover/checkpoint) of an "
                   "is_nvm_aware engine may return with a store "
                   "still unsynced")

    def check_project(self,
                      project: Project) -> Iterator[LintViolation]:
        analysis = PendingStoreAnalysis(project)
        seen: set = set()
        for cls, func in self._roots(project):
            states = analysis.run(func, cls)
            exit_state = states[func.cfg.exit]
            if exit_state == _BOTTOM:
                continue
            for token in sorted(exit_state):
                if token == _INHERITED:
                    continue
                line, col, label = token
                key = (func.file.path, line, col)
                if key in seen:
                    continue
                seen.add(key)
                anchor = ast.Pass()
                anchor.lineno = line
                anchor.col_offset = col
                yield self.violation(
                    func, anchor,
                    f"store {label} may still be unsynced when "
                    f"{cls.name}.{func.name}() returns — the engine "
                    f"reports durable state a crash can lose")

    @staticmethod
    def _roots(project: Project
               ) -> Iterator[Tuple[ClassInfo, FunctionInfo]]:
        yielded: set = set()
        for name in sorted(project.classes):
            if project.class_attr(name, "is_nvm_aware") is not True:
                continue
            cls = project.classes[name]
            for method in sorted(SDA_ROOT_METHODS):
                func = project.resolve_method(name, method)
                if func is None:
                    continue
                key = (id(func.node), name)
                if key in yielded:
                    continue
                yielded.add(key)
                yield cls, func


@register_static_rule
class RedundantDoubleFlush(StaticRule):
    """SDA003."""

    code = "SDA003"
    name = "redundant-double-flush"
    description = ("the same range expression is flushed/synced twice "
                   "with no intervening store — the second flush is "
                   "pure fence/flush latency")

    def check_project(self,
                      project: Project) -> Iterator[LintViolation]:
        for func, context in _function_contexts(project):
            yield from self._check_function(project, func, context)

    def _check_function(self, project: Project, func: FunctionInfo,
                        context: Optional[ClassInfo]
                        ) -> Iterator[LintViolation]:
        cfg = func.cfg
        bottom = frozenset({"<unreached>"})

        def events(index: int) -> List[_Event]:
            node = cfg.nodes[index]
            if node.stmt is None:
                return []
            return node_events(project, func, context, node.stmt)

        def flush_key(event: _Event) -> Optional[str]:
            if event.kind not in ("sync", "flush"):
                return None
            call = event.call
            name = _last_segment(call_name(call))
            args = ", ".join(receiver_text(arg) for arg in call.args)
            return f"{name}({args})"

        def invalidated(state: set, stmt_targets: List[str]) -> set:
            if not stmt_targets:
                return state
            return {key for key in state
                    if not any(_mentions(key, name)
                               for name in stmt_targets)}

        def transfer(index: int,
                     state: FrozenSet[str]) -> FrozenSet[str]:
            if state == bottom:
                return state
            node = cfg.nodes[index]
            current = set(state)
            current = invalidated(current,
                                  _assigned_names(node.stmt))
            for event in events(index):
                key = flush_key(event)
                if key is not None:
                    current.add(key)
                elif event.kind in ("store", "marker", "call",
                                    "other"):
                    current.clear()
            return frozenset(current)

        def join(a: FrozenSet[str],
                 b: FrozenSet[str]) -> FrozenSet[str]:
            if a == bottom:
                return b
            if b == bottom:
                return a
            return a | b

        states = solve_forward(cfg, frozenset(), transfer, join,
                               bottom)
        for node in cfg.nodes:
            state = states[node.index]
            if state == bottom or node.stmt is None:
                continue
            current = set(state)
            current = invalidated(current,
                                  _assigned_names(node.stmt))
            for event in events(node.index):
                key = flush_key(event)
                if key is not None:
                    if key in current:
                        yield self.violation(
                            func, event.call,
                            f"range {key} was already flushed with "
                            f"no intervening store — the second "
                            f"flush re-pays flush+fence latency")
                    current.add(key)
                elif event.kind in ("store", "marker", "call",
                                    "other"):
                    current.clear()


def _mentions(key: str, name: str) -> bool:
    return re.search(rf"\b{re.escape(name)}\b", key) is not None


def _assigned_names(stmt: Optional[ast.AST]) -> List[str]:
    """Names (re)bound by this statement — they invalidate SDA003
    flush-memory keys that mention them."""
    if stmt is None:
        return []
    targets: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        targets = [stmt.target]
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        targets = [item.optional_vars for item in stmt.items
                   if item.optional_vars is not None]
    names: List[str] = []
    for target in targets:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                names.append(node.id)
    return names


@register_static_rule
class FenceWithoutFlush(StaticRule):
    """SDA004."""

    code = "SDA004"
    name = "fence-without-flush"
    description = ("sfence with no preceding flush (or any call that "
                   "could flush) on any path — the fence orders "
                   "nothing")

    #: Facade wrappers whose whole job is to emit the instruction.
    _WRAPPERS = frozenset({"sfence"})

    def check_project(self,
                      project: Project) -> Iterator[LintViolation]:
        for func, context in _function_contexts(project):
            if func.name in self._WRAPPERS:
                continue
            yield from self._check_function(project, func, context)

    def _check_function(self, project: Project, func: FunctionInfo,
                        context: Optional[ClassInfo]
                        ) -> Iterator[LintViolation]:
        cfg = func.cfg
        # State: 0 = unreached, 1 = no flush since last fence,
        # 2 = may have flushed. join = max (may-analysis).

        def events(index: int) -> List[_Event]:
            node = cfg.nodes[index]
            if node.stmt is None:
                return []
            return node_events(project, func, context, node.stmt)

        def step(state: int, event: _Event) -> int:
            if event.kind in ("flush", "store", "sync", "marker",
                              "call", "other"):
                # Any call may flush; stores make a future fence
                # meaningful in the write-through model.
                return 2
            if event.kind == "fence":
                return 1
            return state

        def transfer(index: int, state: int) -> int:
            if state == 0:
                return 0
            for event in events(index):
                state = step(state, event)
            return state

        states = solve_forward(cfg, 1, transfer, max, 0)
        for node in cfg.nodes:
            state = states[node.index]
            if state == 0 or node.stmt is None:
                continue
            for event in events(node.index):
                if event.kind == "fence" and state == 1:
                    yield self.violation(
                        func, event.call,
                        f"sfence in {func.name}() with no preceding "
                        f"flush on any path — it orders nothing")
                state = step(state, event)
