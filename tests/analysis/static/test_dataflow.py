"""The forward solver and its replay: unreached nodes are absent,
exception edges carry the pre-state (or ``exc_transfer``'s), and a
replay sees the state just before each event."""

from __future__ import annotations

import ast
import textwrap

from repro.analysis.static import (build_cfg, fold, replay, solve_forward,
                                   statement_calls)
from repro.analysis.static.cfg import STMT


def cfg_of(source: str):
    return build_cfg(ast.parse(textwrap.dedent(source)).body[0])


def calls(node):
    """Events: the plain names a statement calls, in evaluation
    order."""
    if node.stmt is None:
        return []
    return [item.func.id for item in statement_calls(node.stmt)
            if isinstance(item, ast.Call)
            and isinstance(item.func, ast.Name)]


def called(state, name):
    return state | {name}


def solve(cfg, **kwargs):
    """Solve the "names called so far" analysis, recording every node
    the transfer is asked about."""
    seen = []
    transfer = fold(cfg, calls, called)

    def recording(index, state):
        seen.append(index)
        return transfer(index, state)

    states = solve_forward(cfg, frozenset(), recording, **kwargs)
    assert set(seen) <= set(states), "transfer saw an unreached node"
    return states


def reached_lines(cfg, states):
    return sorted(cfg.nodes[index].line for index in states
                  if cfg.nodes[index].kind == STMT)


class TestUnreachedNodesAreAbsent:
    def test_after_return(self):
        cfg = cfg_of("""
            def f():
                a()
                return
                b()
            """)
        states = solve(cfg)
        assert reached_lines(cfg, states) == [3, 4]
        assert states[cfg.exit] == frozenset({"a"})

    def test_after_raise(self):
        cfg = cfg_of("""
            def f():
                a()
                raise E()
                b()
            """)
        states = solve(cfg)
        assert reached_lines(cfg, states) == [3, 4]
        assert cfg.exit not in states
        assert cfg.raise_exit in states

    def test_after_infinite_loop_without_break(self):
        cfg = cfg_of("""
            def f():
                while True:
                    a()
                b()
            """)
        states = solve(cfg)
        assert reached_lines(cfg, states) == [3, 4]
        assert cfg.exit not in states


class TestExceptionEdges:
    SOURCE = """
        def f():
            try:
                a()
            except E:
                b()
        """

    def handler_state(self, **kwargs):
        cfg = cfg_of(self.SOURCE)
        states = solve(cfg, **kwargs)
        (handler,) = [node for node in cfg.nodes if calls(node) == ["b"]]
        return states[handler.index]

    def test_carry_the_pre_state(self):
        # a() raised before it took effect.
        assert self.handler_state() == frozenset()

    def test_carry_exc_transfer_state_when_given(self):
        cfg = cfg_of(self.SOURCE)
        exc = fold(cfg, calls, called)
        assert self.handler_state(exc_transfer=exc) == frozenset({"a"})


class TestReplay:
    def test_yields_the_pre_event_state_and_skips_unreached(self):
        cfg = cfg_of("""
            def f():
                outer(inner())
                last()
                return
                dead()
            """)
        states = solve(cfg)
        assert [(node.line, event, state) for node, event, state
                in replay(cfg, states, calls, called)] == [
            (3, "inner", frozenset()),
            (3, "outer", frozenset({"inner"})),
            (4, "last", frozenset({"inner", "outer"})),
        ]
