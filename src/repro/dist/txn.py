"""Distributed transaction description: one branch per partition.

A cross-partition transaction is a *home* branch plus one or more
*remote* branches, each a stored procedure bound to the partition it
must run on. :meth:`repro.core.database.Database.execute_distributed`
runs it with two-phase commit (:mod:`repro.core.twopc`) — over
partitions in this process or, on a
:class:`repro.dist.coordinator.ShardedDatabase`, one executor process
per partition.

Branch procedures must be module-level callables: the sharded tier
pickles them across the executor pipes, exactly like sweep points and
workload procedures elsewhere in the harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence, Tuple

from ..errors import ConfigError

__all__ = ["Branch", "DistributedTransaction"]


@dataclass(frozen=True)
class Branch:
    """One partition's slice of a distributed transaction."""

    partition: int
    procedure: Callable[..., Any]
    args: Tuple[Any, ...] = field(default=())


class DistributedTransaction:
    """A home branch plus remote branches on distinct partitions.

    The branch order is canonical: home first, then remotes sorted by
    partition id. Two-phase commit runs in three rounds — prepare
    every branch, log the decision at home, finish every branch — and
    each round issues its calls in that order, so every partition sees
    the same commands as a one-branch-at-a-time run and the failure a
    round raises is the first in that order, on either transport.
    """

    __slots__ = ("home_branch", "remote_branches")

    def __init__(self, home: Branch,
                 remotes: Sequence[Branch] = ()) -> None:
        ordered = tuple(sorted(remotes, key=lambda b: b.partition))
        seen = {home.partition}
        for branch in ordered:
            if branch.partition in seen:
                raise ConfigError(
                    f"distributed transaction has two branches for "
                    f"partition {branch.partition}")
            seen.add(branch.partition)
        self.home_branch = home
        self.remote_branches = ordered

    @property
    def home(self) -> int:
        """Home partition id (owns the commit decision record)."""
        return self.home_branch.partition

    def branches(self) -> Tuple[Branch, ...]:
        """All branches in canonical order (home first)."""
        return (self.home_branch,) + self.remote_branches

    @property
    def participants(self) -> Tuple[int, ...]:
        return tuple(branch.partition for branch in self.branches())

    def __repr__(self) -> str:
        return (f"DistributedTransaction(home={self.home}, "
                f"remotes={[b.partition for b in self.remote_branches]})")
