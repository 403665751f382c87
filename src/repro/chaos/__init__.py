"""Chaos engineering for the network tier.

The network tier claims crash-safe, exactly-once commit semantics;
this package is the adversary that earns those claims. It has two
halves:

- :mod:`repro.chaos.proxy` — a frame-boundary-aware TCP fault proxy
  that sits between clients and the server and, from a seeded plan,
  drops, delays, truncates, corrupts, duplicates, or one-way
  blackholes wire frames.
- :mod:`repro.chaos.campaign` — the chaos campaign: N closed-loop
  clients (the :mod:`repro.harness.closed_loop` fleet) drive idempotent read-modify-write transactions through the
  proxy while a nemesis crashes and recovers the database, and a
  client-side **oracle** tracks a sound ``[min, max]`` bound on every
  key's final value (acked commit → both bounds advance; ambiguous
  outcome → only ``max``). At the end the campaign reconciles
  ambiguous commits against the server's commit ledger, checks every
  key against its bounds, and checks the server leaked no partition
  locks, admission slots, or group-commit waiters.

``python -m repro chaos`` runs a campaign from the command line; the
CI ``chaos-smoke`` job runs a fixed-seed one on every push.
"""

from .campaign import ChaosConfig, ChaosReport, run_chaos_campaign
from .proxy import FaultConfig, FaultProxyThread, NetworkFaultProxy

__all__ = [
    "FaultConfig", "NetworkFaultProxy", "FaultProxyThread",
    "ChaosConfig", "ChaosReport", "run_chaos_campaign",
]
