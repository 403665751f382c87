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
callees first with a neutral assumption on recursion.

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
from typing import (Callable, Dict, FrozenSet, Iterator, List, Optional,
                    Tuple, Union)

from repro.lint.framework import LintViolation, Rule, register_rule

from .callgraph import (ClassInfo, FunctionInfo, Project, callee_name,
                        receiver_text)
from .cfg import Node, statement_calls
from .dataflow import fold, replay, solve_forward

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
    name = callee_name(call)
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
                context: Optional[ClassInfo], node: Node) -> List[_Event]:
    """Classified events of one CFG node, with ``self.m()`` calls
    resolved through ``context``'s MRO into ``call`` events carrying
    the callee."""
    events: List[_Event] = []
    if node.stmt is None:
        return events
    for item in statement_calls(node.stmt):
        if not isinstance(item, ast.Call):
            continue
        callee = project.self_callee(context, item, func)
        if callee is not None:
            events.append(_CallEvent(item, callee))
        else:
            events.extend(classify(item))
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

    def _flow(self, func: FunctionInfo, context: Optional[ClassInfo]
              ) -> Tuple[Callable[[Node], List[_Event]],
                         Callable[[State, _Event], State]]:
        """The ``events``/``step`` pair of ``func`` run as a method of
        ``context``."""
        def events(node: Node) -> List[_Event]:
            return node_events(self.project, func, context, node)

        def step(state: State, event: _Event) -> State:
            if event.kind == "store" and event.token is not None:
                return state | {event.token}
            if event.kind in ("sync", "fence", "marker"):
                # sync = flush+fence; the marker primitive syncs its
                # own cache line and fences, closing the epoch.
                return _EMPTY
            if isinstance(event, _CallEvent):
                summary = self.summary(event.callee, context)
                if summary.clears_all:
                    state = _EMPTY
                if summary.may_exit_dirty:
                    line = getattr(event.call, "lineno", 0)
                    col = getattr(event.call, "col_offset", 0)
                    state = state | {
                        (line, col, f"via {event.callee.qualname}()")}
            return state

        return events, step

    def run(self, func: FunctionInfo,
            context: Optional[ClassInfo]) -> Dict[int, State]:
        events, step = self._flow(func, context)
        return solve_forward(func.cfg, frozenset({_INHERITED}),
                             fold(func.cfg, events, step))

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
        exit_state = states.get(func.cfg.exit)
        if exit_state is None:      # never returns normally
            clears_all, may_exit_dirty = True, False
        else:
            clears_all = _INHERITED not in exit_state
            may_exit_dirty = any(token != _INHERITED
                                 for token in exit_state)
        may_marker = any(_INHERITED in pending for _marker, pending
                         in self.dirty_markers(func, context, states))
        return Summary(clears_all, may_exit_dirty, may_marker)

    # -- reporting ------------------------------------------------------

    def dirty_markers(self, func: FunctionInfo,
                      context: Optional[ClassInfo],
                      states: Dict[int, State]
                      ) -> Iterator[Tuple[ast.Call, State]]:
        """(marker call, pending stores when it executes) pairs: a
        marker, or a call whose callee may reach one unguarded."""
        events, step = self._flow(func, context)
        for _node, event, pending in replay(func.cfg, states, events, step):
            if pending and (event.kind == "marker" or (
                    isinstance(event, _CallEvent) and self.summary(
                        event.callee, context).may_marker_unguarded)):
                yield event.call, pending


@register_rule
class StoreReachesMarkerUnsynced(Rule):
    """SDA001."""

    code = "SDA001"
    name = "store-reaches-marker-unsynced"
    description = ("an NVM store may reach the commit marker "
                   "(atomic_durable_store_u64) with no sync/sfence on "
                   "some path")

    def check_project(self,
                      project: Project) -> Iterator[LintViolation]:
        analysis = PendingStoreAnalysis(project)
        for func in project.functions:
            states = analysis.run(func, func.cls)
            seen: set = set()
            for marker, pending in analysis.dirty_markers(
                    func, func.cls, states):
                fresh = sorted(pending - seen - {_INHERITED})
                seen.update(fresh)
                for line, _col, label in fresh:
                    yield self.violation(
                        func, marker,
                        f"store {label} at line {line} may reach "
                        f"this commit marker without an intervening "
                        f"sync/sfence on some path")


@register_rule
class DirtyStoreAtDurabilityExit(Rule):
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
            exit_state = analysis.run(func, cls).get(func.cfg.exit,
                                                     _EMPTY)
            for line, col, label in sorted(exit_state - {_INHERITED}):
                key = (func.file.path, line, col)
                if key in seen:
                    continue
                seen.add(key)
                yield self.violation(
                    func, ast.Pass(lineno=line, col_offset=col),
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


#: SDA003's events: the names a statement rebinds, then its calls.
_FlushEvent = Union[List[str], _Event]


def _flush_key(event: _FlushEvent) -> Optional[str]:
    """``sync(a, n)``-style source text of a flush/sync event."""
    if isinstance(event, list) or event.kind not in ("sync", "flush"):
        return None
    call = event.call
    args = ", ".join(receiver_text(arg) for arg in call.args)
    return f"{callee_name(call)}({args})"


@register_rule
class RedundantDoubleFlush(Rule):
    """SDA003."""

    code = "SDA003"
    name = "redundant-double-flush"
    description = ("the same range expression is flushed/synced twice "
                   "with no intervening store — the second flush is "
                   "pure fence/flush latency")

    def check_project(self,
                      project: Project) -> Iterator[LintViolation]:
        for func in project.functions:
            yield from self._check_function(project, func)

    def _check_function(self, project: Project, func: FunctionInfo
                        ) -> Iterator[LintViolation]:
        def events(node: Node) -> List[_FlushEvent]:
            names = _assigned_names(node.stmt)
            calls = node_events(project, func, func.cls, node)
            return [names, *calls] if names else [*calls]

        def step(flushed: FrozenSet[str],
                 event: _FlushEvent) -> FrozenSet[str]:
            if isinstance(event, list):
                # A rebound name invalidates every key mentioning it.
                return frozenset(
                    key for key in flushed
                    if not any(_mentions(key, name) for name in event))
            key = _flush_key(event)
            if key is not None:
                return flushed | {key}
            if event.kind in ("store", "marker", "call", "other"):
                return frozenset()
            return flushed

        states = solve_forward(func.cfg, frozenset(),
                               fold(func.cfg, events, step))
        for _node, event, flushed in replay(func.cfg, states, events,
                                            step):
            key = _flush_key(event)
            if isinstance(event, _Event) and key in flushed:
                yield self.violation(
                    func, event.call,
                    f"range {key} was already flushed with no "
                    f"intervening store — the second flush re-pays "
                    f"flush+fence latency")


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


@register_rule
class FenceWithoutFlush(Rule):
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
        for func in project.functions:
            if func.name in self._WRAPPERS:
                continue
            yield from self._check_function(project, func)

    def _check_function(self, project: Project, func: FunctionInfo
                        ) -> Iterator[LintViolation]:
        # State: may something have flushed since the last fence?
        # Join = or (may-analysis).

        def events(node: Node) -> List[_Event]:
            return node_events(project, func, func.cls, node)

        def step(flushed: bool, event: _Event) -> bool:
            # Any call may flush; stores make a future fence
            # meaningful in the write-through model.
            return event.kind != "fence"

        states = solve_forward(func.cfg, False,
                               fold(func.cfg, events, step))
        for _node, event, flushed in replay(func.cfg, states, events,
                                            step):
            if event.kind == "fence" and not flushed:
                yield self.violation(
                    func, event.call,
                    f"sfence in {func.name}() with no preceding "
                    f"flush on any path — it orders nothing")
