"""ACD001–ACD004: asyncio concurrency discipline.

The server tier's correctness argument (docs/server.md, "Failure
semantics") leans on four disciplines that the chaos campaign probes
dynamically; these rules prove them over all CFG paths:

========  ==========================================================
ACD001    a blocking call (``time.sleep``, ``os.fsync``, sync socket
          or subprocess I/O) inside a coroutine — it stalls the
          whole event loop, not just the calling task
ACD002    a ``.acquire()`` with no guaranteed ``.release()`` on some
          path to a normal or exceptional exit — the exact leak
          class the chaos campaign's lease checker hunts at runtime;
          use ``async with`` or ``try/finally``
ACD003    an await of an unbounded operation (socket read, bare
          future, ``drain``/``wait``/``gather``/queue ``get``) while
          holding an ``asyncio.Lock`` — a stalled peer wedges every
          task queued on that lock
ACD004    a shared ``self`` attribute read into a local, carried
          across an ``await``, then written back — the value may be
          stale because another task interleaved at the await
========  ==========================================================

Lock receivers are classified by their creation sites (an assignment
whose value calls ``asyncio.Lock`` / ``asyncio.Semaphore`` anywhere in
the project); subscripted receivers (``self._locks[pid]``) are keyed
by their base so acquire and release sites match even when the index
expression differs. Semaphore-classified receivers are exempt from
ACD003 — holding an admission slot across a durability await is the
server's intended backpressure design.
"""

from __future__ import annotations

import ast
from typing import (Dict, FrozenSet, Iterator, List, Optional, Set,
                    Tuple, Union)

from repro.lint.framework import LintViolation, Rule, register_rule

from .callgraph import (FunctionInfo, Project, call_name, callee_name,
                        receiver_text)
from .cfg import STMT, WITH_EXIT, Node, statement_calls
from .dataflow import fold, replay, solve_forward

__all__ = ["BLOCKING_CALLS", "UNBOUNDED_AWAIT_NAMES"]

#: Dotted names that block the event loop when called from a
#: coroutine.
BLOCKING_CALLS = frozenset({
    "time.sleep", "os.fsync", "os.fdatasync", "os.sync",
    "select.select", "socket.create_connection",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output",
})

#: Final name segments whose awaits have no intrinsic bound —
#: ``wait_for`` (timeout) and ``sleep`` (fixed) are deliberately
#: absent.
UNBOUNDED_AWAIT_NAMES = frozenset({
    "read", "readexactly", "readline", "readuntil", "recv", "drain",
    "wait", "gather", "join", "get", "acquire", "wait_closed",
})


def _receiver_base(node: ast.expr) -> str:
    """Normalised token base of a lock expression: subscripts key by
    their container (``self._locks[pid]`` → ``self._locks``) so
    acquire/release sites match across index spellings."""
    if isinstance(node, ast.Subscript):
        return receiver_text(node.value)
    return receiver_text(node)


def _method_base(call: ast.Call, method: str) -> Optional[str]:
    """For ``X.<method>()`` (``acquire``/``release``): the token base
    of ``X``."""
    if isinstance(call.func, ast.Attribute) and call.func.attr == method:
        return _receiver_base(call.func.value)
    return None


class LockClassifier:
    """Project-wide map of token bases to their primitive kind, from
    creation sites (``X = asyncio.Lock()`` etc.)."""

    _KINDS = {"Lock": "lock", "Semaphore": "semaphore",
              "BoundedSemaphore": "semaphore", "Condition": "lock"}

    def __init__(self, project: Project) -> None:
        self.kinds: Dict[str, str] = {}
        for file in project.files:
            for node in ast.walk(file.tree):
                if not isinstance(node, ast.Assign):
                    continue
                kind = self._creation_kind(node.value)
                if kind is None:
                    continue
                for target in node.targets:
                    self.kinds[_receiver_base(target)] = kind

    def _creation_kind(self, value: ast.expr) -> Optional[str]:
        if not isinstance(value, ast.Call):
            return None
        return self._KINDS.get(callee_name(value))

    def is_lock(self, base: str) -> bool:
        return self.kinds.get(base) == "lock"


def _own_async_functions(
        project: Project) -> Iterator[FunctionInfo]:
    for func in project.functions:
        if func.is_async:
            yield func


@register_rule
class BlockingCallInCoroutine(Rule):
    """ACD001."""

    code = "ACD001"
    name = "blocking-call-in-coroutine"
    description = ("blocking call (time.sleep / os.fsync / sync "
                   "socket or subprocess I/O) inside an async def — "
                   "it stalls the whole event loop")

    def check_project(self,
                      project: Project) -> Iterator[LintViolation]:
        for func in _own_async_functions(project):
            for node in func.cfg.nodes:
                if node.stmt is None:
                    continue
                for item in statement_calls(node.stmt):
                    if not isinstance(item, ast.Call):
                        continue
                    name = call_name(item)
                    if name in BLOCKING_CALLS:
                        yield self.violation(
                            func, item,
                            f"{name}() blocks the event loop inside "
                            f"coroutine {func.name}(); use the "
                            f"asyncio equivalent or a thread "
                            f"executor")


#: Held-token state: (base text, acquire line, acquire col).
_Held = Tuple[str, int, int]
_HeldState = FrozenSet[_Held]
#: One lock effect: a token acquired, or the token bases released.
_Effect = Union[_Held, FrozenSet[str]]


def _apply(state: _HeldState, effect: _Effect) -> _HeldState:
    if isinstance(effect, frozenset):
        return frozenset(held for held in state if held[0] not in effect)
    return state | {effect}


def _apply_releases(state: _HeldState, effect: _Effect) -> _HeldState:
    # Releases (direct, via helper, or a with-block __exit__) still
    # count on the exceptional edge: the raising statement in
    # ``finally: lock.release()`` must not leak its own token to the
    # exceptional exit. Acquires do not — if acquire() raises, the
    # lock was never taken.
    if isinstance(effect, frozenset):
        return _apply(state, effect)
    return state


class _HeldLockAnalysis:
    """Forward may-analysis of explicitly-acquired (non-context-
    managed) tokens, with optional tracking of ``async with`` lock
    regions. Self-calls subtract the callee's transitive may-release
    set."""

    def __init__(self, project: Project,
                 track_with_regions: bool = False,
                 classifier: Optional[LockClassifier] = None) -> None:
        self.project = project
        self.track_with = track_with_regions
        self.classifier = classifier
        self._release_sets: Dict[int, FrozenSet[str]] = {}

    # -- release summaries ----------------------------------------------

    def may_release(self, func: FunctionInfo) -> FrozenSet[str]:
        """Token bases ``func`` may release, transitively through
        ``self.helper()`` calls (fixpoint over the call graph)."""
        cached = self._release_sets.get(id(func.node))
        if cached is not None:
            return cached
        self._release_sets[id(func.node)] = frozenset()
        result: Set[str] = set()
        for stmt in ast.walk(func.node):
            if not isinstance(stmt, ast.Call):
                continue
            base = _method_base(stmt, "release")
            if base is not None:
                result.add(base)
            callee = self.project.self_callee(func.cls, stmt, func)
            if callee is not None:
                result |= self.may_release(callee)
        summary = frozenset(result)
        self._release_sets[id(func.node)] = summary
        return summary

    # -- transfer -------------------------------------------------------

    def effects(self, func: FunctionInfo, node: Node) -> List[_Effect]:
        """Ordered lock effects of one CFG node of ``func``."""
        if node.kind == STMT and node.context_expr is not None \
                and self.track_with:
            base = _receiver_base(node.context_expr)
            if self.classifier is None \
                    or self.classifier.is_lock(base):
                return [(base, node.line, 0)]
            return []
        if node.kind == WITH_EXIT:
            if self.track_with and node.context_expr is not None:
                return [frozenset({_receiver_base(node.context_expr)})]
            return []
        if node.stmt is None:
            return []
        effects: List[_Effect] = []
        for item in statement_calls(node.stmt):
            if not isinstance(item, ast.Call):
                continue
            base = _method_base(item, "acquire")
            if base is not None:
                effects.append((base, getattr(item, "lineno", 0),
                                getattr(item, "col_offset", 0)))
                continue
            base = _method_base(item, "release")
            if base is not None:
                effects.append(frozenset({base}))
                continue
            callee = self.project.self_callee(func.cls, item, func)
            if callee is not None:
                released = self.may_release(callee)
                if released:
                    effects.append(released)
        return effects

    def run(self, func: FunctionInfo) -> Dict[int, _HeldState]:
        def events(node: Node) -> List[_Effect]:
            return self.effects(func, node)

        return solve_forward(
            func.cfg, frozenset(), fold(func.cfg, events, _apply),
            exc_transfer=fold(func.cfg, events, _apply_releases))


@register_rule
class AcquireWithoutGuaranteedRelease(Rule):
    """ACD002."""

    code = "ACD002"
    name = "acquire-without-guaranteed-release"
    description = (".acquire() that may reach a normal or exceptional "
                   "exit with no matching .release(); use async with "
                   "or try/finally")

    def check_project(self,
                      project: Project) -> Iterator[LintViolation]:
        analysis = _HeldLockAnalysis(project)
        for func in project.functions:
            states = analysis.run(func)
            leaked: Dict[_Held, str] = {}
            for exit_index, how in ((func.cfg.exit, "return"),
                                    (func.cfg.raise_exit, "exception")):
                for held in states.get(exit_index, frozenset()):
                    leaked.setdefault(held, how)
            for held in sorted(leaked):
                base, line, col = held
                yield self.violation(
                    func, ast.Pass(lineno=line, col_offset=col),
                    f"{base}.acquire() in {func.name}() may reach a "
                    f"{leaked[held]} exit without release; use "
                    f"async with or try/finally")


def _await_targets(stmt: ast.AST) -> Iterator[Tuple[ast.Await, str]]:
    """(await node, description) for awaits of unbounded operations."""
    for item in statement_calls(stmt):
        if not isinstance(item, ast.Await):
            continue
        value = item.value
        if isinstance(value, ast.Call):
            name = call_name(value)
            if callee_name(value) in UNBOUNDED_AWAIT_NAMES:
                yield item, f"{name}()"
        elif isinstance(value, (ast.Name, ast.Attribute)):
            # A bare future/task: unbounded unless externally timed.
            yield item, receiver_text(value)


@register_rule
class UnboundedAwaitHoldingLock(Rule):
    """ACD003."""

    code = "ACD003"
    name = "unbounded-await-holding-lock"
    description = ("await of an unbounded operation (socket read, "
                   "bare future, drain/wait/gather) while holding an "
                   "asyncio.Lock")

    def check_project(self,
                      project: Project) -> Iterator[LintViolation]:
        classifier = LockClassifier(project)
        analysis = _HeldLockAnalysis(project, track_with_regions=True,
                                     classifier=classifier)
        for func in _own_async_functions(project):
            states = analysis.run(func)
            for node in func.cfg.nodes:
                if node.stmt is None or node.index not in states:
                    continue
                held_locks = sorted(
                    {h[0] for h in states[node.index]
                     if classifier.is_lock(h[0])})
                if not held_locks:
                    continue
                for await_node, label in _await_targets(node.stmt):
                    yield self.violation(
                        func, await_node,
                        f"awaits unbounded {label} while holding "
                        f"{', '.join(held_locks)} — a stalled peer "
                        f"wedges every task queued on the lock")


#: Tracked binding: (local name, self attribute, went stale).
_Bind = Tuple[str, str, bool]
_BindState = FrozenSet[_Bind]


def _self_attr_reads(value: ast.expr) -> Set[str]:
    attrs: Set[str] = set()
    for node in ast.walk(value):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and isinstance(node.ctx, ast.Load)):
            attrs.add(node.attr)
    return attrs


def _rmw_events(node: Node) -> List[ast.AST]:
    """ACD004's events of one node: its first await, if any, then the
    statement itself when it is an assignment."""
    if node.stmt is None:
        return []
    events: List[ast.AST] = [item for item in statement_calls(node.stmt)
                             if isinstance(item, ast.Await)][:1]
    if isinstance(node.stmt, ast.Assign):
        events.append(node.stmt)
    return events


def _rmw_step(state: _BindState, event: ast.AST) -> _BindState:
    if isinstance(event, ast.Await):
        return frozenset((name, attr, True)
                         for name, attr, _stale in state)
    if not (isinstance(event, ast.Assign) and len(event.targets) == 1
            and isinstance(event.targets[0], ast.Name)):
        return state
    local = event.targets[0].id
    reads = _self_attr_reads(event.value)
    rebound = {bind for bind in state if bind[0] != local}
    if len(reads) == 1:
        rebound.add((local, reads.pop(), False))
    return frozenset(rebound)


@register_rule
class StaleReadModifyWrite(Rule):
    """ACD004."""

    code = "ACD004"
    name = "stale-read-modify-write-across-await"
    description = ("a self attribute read into a local, carried "
                   "across an await, then written back — another "
                   "task may have updated it at the await point")

    def check_project(self,
                      project: Project) -> Iterator[LintViolation]:
        for func in _own_async_functions(project):
            states = solve_forward(func.cfg, frozenset(),
                                   fold(func.cfg, _rmw_events, _rmw_step))
            for _node, event, binds in replay(func.cfg, states,
                                              _rmw_events, _rmw_step):
                if not (isinstance(event, ast.Assign)
                        and len(event.targets) == 1):
                    continue
                target = event.targets[0]
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                used = {node.id for node in ast.walk(event.value)
                        if isinstance(node, ast.Name)}
                for name, attr, stale in sorted(binds):
                    if stale and attr == target.attr and name in used:
                        yield self.violation(
                            func, event,
                            f"self.{target.attr} is written from local "
                            f"{name!r} that was read from self.{attr} "
                            f"before an await — another task may have "
                            f"updated it; re-read after the await or "
                            f"hold the owning lock across it")
