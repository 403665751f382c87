"""Generic forward worklist dataflow over a :class:`~.cfg.CFG`, and the
replay every dataflow rule reports from.

A rule states its analysis once, as ``events(node)`` (the ordered
effects of one CFG node) and ``step(state, event)`` (one effect on the
state). :func:`fold` turns them into the node transfer it hands to
:func:`solve_forward`; the rule then walks :func:`replay` over the solved IN
states to see the state just before each event — the point where a
finding is decided. There is no second, hand-copied transfer for
reporting.

:func:`solve_forward` owns reachability: a node no path reaches is
absent from its result, so no transfer, join or report ever sees an
"unreached" state. The default join is set union (may-analysis over
frozensets).

One convention matters for rule precision: **exception edges carry the
pre-state of the raising statement**, not its post-state. A statement
is treated as either completing (all its effects apply, normal edge)
or raising before any effect (exception edge). That keeps the
canonical ``lock.acquire()`` / ``try: ... finally: release()`` pattern
clean — if ``acquire()`` itself raises, the lock was never taken — at
the cost of under-approximating statements that raise *between* two
effects, which the rules here don't depend on.

An analysis can refine that convention with ``exc_transfer``: when
given, the state carried on an exception edge is
``exc_transfer(index, pre)`` instead of ``pre``. The held-lock
analysis uses it to apply *release* effects (but not acquires) on the
exceptional edge — otherwise the ``finally: lock.release()``
statement's own may-raise edge would leak the held token straight to
the function's exceptional exit and flag the very pattern the rule
recommends.
"""

from __future__ import annotations

import operator
from typing import (Callable, Dict, Iterable, Iterator, Optional, Tuple,
                    TypeVar)

from .cfg import CFG, Node

__all__ = ["fold", "replay", "solve_forward"]

S = TypeVar("S")
E = TypeVar("E")


def solve_forward(cfg: CFG, initial: S,
                  transfer: Callable[[int, S], S],
                  join: Callable[[S, S], S] = operator.or_,
                  exc_transfer: Optional[Callable[[int, S], S]] = None
                  ) -> Dict[int, S]:
    """Run ``transfer`` to fixpoint; return the IN state of every node
    reachable from the entry (which starts at ``initial``).

    States must be immutable values with ``==`` (frozensets, tuples,
    frozen dataclasses) — the solver detects convergence by equality.
    Exception edges carry ``exc_transfer(index, pre)`` when given,
    else the raw pre-state.
    """
    states: Dict[int, S] = {cfg.entry: initial}
    work = [cfg.entry]
    in_work = {cfg.entry}
    while work:
        index = work.pop()
        in_work.discard(index)
        node = cfg.nodes[index]
        pre = states[index]
        post = transfer(index, pre)
        exc = pre if exc_transfer is None else exc_transfer(index, pre)
        for succ in node.succ:
            _propagate(states, succ, post, join, work, in_work)
        for succ in node.raises_to:
            _propagate(states, succ, exc, join, work, in_work)
    return states


def _propagate(states: Dict[int, S], succ: int, carried: S,
               join: Callable[[S, S], S], work: list,
               in_work: set) -> None:
    if succ in states:
        merged = join(states[succ], carried)
        if merged == states[succ]:
            return
    else:
        merged = carried
    states[succ] = merged
    if succ not in in_work:
        work.append(succ)
        in_work.add(succ)


def fold(cfg: CFG, events: Callable[[Node], Iterable[E]],
         step: Callable[[S, E], S]) -> Callable[[int, S], S]:
    """The node transfer that applies ``step`` to each of
    ``events(node)`` in order."""
    def transfer(index: int, state: S) -> S:
        for event in events(cfg.nodes[index]):
            state = step(state, event)
        return state
    return transfer


def replay(cfg: CFG, states: Dict[int, S],
           events: Callable[[Node], Iterable[E]],
           step: Callable[[S, E], S]) -> Iterator[Tuple[Node, E, S]]:
    """``(node, event, state before the event)`` for every event of
    every reached node, in node order — ``step`` re-applied from each
    node's solved IN state."""
    for node in cfg.nodes:
        if node.index not in states:
            continue
        state = states[node.index]
        for event in events(node):
            yield node, event, state
            state = step(state, event)
