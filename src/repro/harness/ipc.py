"""Tagged-pipe message protocol shared by every multiprocess tier.

Two subsystems move work over ``multiprocessing`` pipes: the sweep
scheduler (one worker process per experiment point,
``harness/scheduler.py``) and the sharded execution tier (one
long-lived executor process per partition, ``repro.dist``). Both speak
the same framing: every message is a ``(tag, payload)`` tuple, so a
single pipe can interleave streamed side-band traffic (telemetry
events) ahead of the messages that carry the protocol's actual state
machine forward.

Tags
----

``TAG_EVENT``
    A streamed :class:`~repro.obs.bus.TelemetryEvent` dict. Zero or
    more of these may arrive before any other message; receivers
    re-publish them and keep waiting.
``TAG_DONE``
    A scheduler worker's final message: ``(result, session, error)``.
    Exactly one per worker, always last.
``TAG_CMDS``
    A batch of executor commands ``[(op, args), ...]`` sent
    coordinator -> executor. Batching amortizes the pickle + syscall
    cost of the pipe over many fire-and-forget commands, which is what
    lets a sharded run keep every executor core busy.
``TAG_REPLY``
    An executor's response to a synchronous command:
    ``(ok, payload)`` where ``payload`` is the value on success, and on
    failure a formatted error string — or the ``(message, point, hit)``
    of a :class:`~repro.errors.SimulatedCrash` that fired over there.

The helpers are deliberately thin — the value of this module is that
both tiers agree on the framing (and that tests can speak it), not
that it hides the pipe.
"""

from __future__ import annotations

from typing import Any, Tuple

__all__ = ["TAG_EVENT", "TAG_DONE", "TAG_CMDS", "TAG_REPLY",
           "send", "try_send", "recv", "send_event", "send_done"]

TAG_EVENT = "event"
TAG_DONE = "done"
TAG_CMDS = "cmds"
TAG_REPLY = "reply"


def send(conn, tag: str, payload: Any) -> None:
    """Send one tagged message over ``conn``."""
    conn.send((tag, payload))


def try_send(conn, tag: str, payload: Any) -> bool:
    """Send, swallowing a dead pipe (the peer gave up on us); returns
    whether the message went out. Used by side-band publishers that
    must never raise into the workload they instrument."""
    try:
        conn.send((tag, payload))
    except (OSError, ValueError, BrokenPipeError):
        return False
    return True


def recv(conn) -> Tuple[str, Any]:
    """Receive one tagged message; raises EOFError/OSError on a dead
    pipe exactly like ``Connection.recv``."""
    return conn.recv()


def send_event(conn, payload: Any) -> bool:
    """Stream one telemetry event dict (side-band, never raises)."""
    return try_send(conn, TAG_EVENT, payload)


def send_done(conn, payload: Any) -> None:
    """Ship a worker's final ``(result, session, error)`` message."""
    send(conn, TAG_DONE, payload)
