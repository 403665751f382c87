"""A *holder*: the reason a commit parks.

Group commit holds a batch open only while somebody could still join
it — a session that holds, or is queued on, the partition's execution
lock. A test that wants a commit parked on the stage therefore needs
such a session. :class:`Holder` opens one and sends its ``begin``
without waiting for the answer: called between another session's
``begin`` and ``commit``, it queues behind that transaction, inherits
the lock at its logical commit, and keeps the commit parked until the
holder itself leaves (commit, abort, close), a ``flush`` verb, or a
crash.
"""

from __future__ import annotations

from .test_grants import Wire, _poll


class Holder(Wire):
    """A session with ``begin`` on its way to partition ``partition``'s
    lock; returns once the server has it holding or queued."""

    def __init__(self, address, partition: int = 0,
                 name: str = "holder") -> None:
        super().__init__(tuple(address))
        self.session = self.ok("open_session", name=name)["session"]
        self.send("begin", session=self.session, partition=partition)
        probe = Wire(tuple(address))
        try:
            assert _poll(lambda: any(
                s["session"] == self.session
                and (s["busy"] or s["state"] == "active-txn")
                for s in probe.ok("stats")["sessions"]))
        finally:
            probe.close()

    def granted(self) -> None:
        """Read the ``begin`` answer: the lock is the holder's now."""
        assert self.recv()["ok"]

    def set_last_seen(self, server, last_seen: float) -> None:
        """Move the holder's lease clock: far back and the reaper
        takes it at its next tick, far ahead and it never does (until
        the holder's next frame renews the lease for real)."""
        server._loop.call_soon_threadsafe(
            setattr, server._sessions[self.session], "last_seen",
            last_seen)
