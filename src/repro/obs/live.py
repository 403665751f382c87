"""Live in-terminal progress for sweeps and crash campaigns.

The renderer is a sink on an :class:`~repro.obs.bus.EventBus`. It
applies each event to a tiny rolling model of the run: points
done/failed/retried, worker and simulated crashes, per-engine
throughput (freshest heartbeat wins, finished-point results override),
and an ETA from the observed point completion rate.

Two output modes, auto-detected from the stream:

* **TTY** — a single status line redrawn in place (``\\r`` + erase),
  updated at most every ``min_refresh_s``.
* **plain log** — one line per point lifecycle event plus a periodic
  heartbeat digest (at most every ``plain_heartbeat_s``); safe for CI
  logs and ``| tee``. Lines, like TTY redraws, are written only when
  the ``min_refresh_s`` window allows.

Rendering is synchronous inside ``publish``, so it costs the publisher
one write per refresh window, and never more memory than one event.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, Optional, TextIO

from . import bus as _bus
from .bus import EventBus, TelemetryEvent

__all__ = ["LiveRenderer"]

#: Minimum wall seconds between TTY redraws.
DEFAULT_REFRESH_S = 0.2

#: Minimum wall seconds between heartbeat digest lines in plain mode.
DEFAULT_PLAIN_HEARTBEAT_S = 5.0


def _fmt_rate(value: float) -> str:
    if value >= 1e6:
        return f"{value / 1e6:.1f}M"
    if value >= 1e3:
        return f"{value / 1e3:.1f}k"
    return f"{value:.0f}"


def _fmt_eta(seconds: float) -> str:
    seconds = max(0, int(seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


class LiveRenderer:
    """Render bus events as live progress on a terminal stream."""

    def __init__(self, bus: EventBus,
                 stream: Optional[TextIO] = None,
                 live: Optional[bool] = None,
                 min_refresh_s: float = DEFAULT_REFRESH_S,
                 plain_heartbeat_s: float = DEFAULT_PLAIN_HEARTBEAT_S,
                 clock=time.monotonic) -> None:
        self._stream = stream if stream is not None else sys.stderr
        if live is None:
            live = bool(getattr(self._stream, "isatty", lambda: False)())
        #: True: in-place status line; False: plain log lines.
        self.tty = live
        self._bus = bus
        bus.add_sink(self)
        self._clock = clock
        self._min_refresh_s = min_refresh_s
        self._plain_heartbeat_s = plain_heartbeat_s
        self._last_render = float("-inf")
        self._last_plain_heartbeat = float("-inf")
        self._started_at = clock()
        self._closed = False
        # Rolling model.
        self.total: Optional[int] = None
        self.finished = 0
        self.failed = 0
        self.retries = 0
        self.worker_crashes = 0
        self.sim_crashes = 0
        self._engine_rate: Dict[str, float] = {}
        self._line_len = 0

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------

    def __call__(self, event: TelemetryEvent) -> None:
        """Apply one event and redraw if the refresh window elapsed."""
        self._apply(event)
        now = self._clock()
        if now - self._last_render < self._min_refresh_s:
            return
        self._last_render = now
        if self.tty:
            self._redraw()
        else:
            self._log(event, now)

    def _apply(self, event: TelemetryEvent) -> None:
        data = event.data
        kind = event.kind
        if kind == _bus.SWEEP_STARTED:
            if self.total is None:
                self.total = data.get("points")
        elif kind == _bus.POINT_FINISHED:
            self.finished += 1
            if not data.get("ok", True):
                self.failed += 1
            engine = data.get("engine")
            throughput = data.get("throughput")
            if engine and throughput:
                self._engine_rate[engine] = float(throughput)
        elif kind == _bus.POINT_RETRIED:
            self.retries += 1
        elif kind == _bus.POINT_CRASHED:
            self.worker_crashes += 1
        elif kind == _bus.HEARTBEAT:
            engine = data.get("engine")
            sim_ns = data.get("sim_ns") or 0.0
            txns = data.get("txns") or 0
            if engine and sim_ns:
                self._engine_rate[engine] = txns / (sim_ns / 1e9)
            if "crashes" in data:
                self.sim_crashes = max(self.sim_crashes,
                                       int(data["crashes"]))

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def _status_line(self) -> str:
        parts = []
        done = f"{self.finished}"
        if self.total:
            done += f"/{self.total}"
        parts.append(f"{done} points")
        if self.failed:
            parts.append(f"{self.failed} failed")
        if self.retries:
            parts.append(f"{self.retries} retries")
        crashes = self.worker_crashes + self.sim_crashes
        if crashes:
            parts.append(f"{crashes} crashes")
        if self.total and 0 < self.finished < self.total:
            elapsed = self._clock() - self._started_at
            eta = elapsed / self.finished * (self.total - self.finished)
            parts.append(f"ETA {_fmt_eta(eta)}")
        if self._engine_rate:
            rates = ", ".join(
                f"{engine} {_fmt_rate(rate)} txn/s"
                for engine, rate in sorted(self._engine_rate.items()))
            parts.append(rates)
        return "[live] " + " | ".join(parts)

    def _redraw(self) -> None:
        """TTY mode: rewrite the one status line in place."""
        line = self._status_line()
        pad = " " * max(0, self._line_len - len(line))
        self._stream.write("\r" + line + pad)
        self._stream.flush()
        self._line_len = len(line)

    def _log(self, event: TelemetryEvent, now: float) -> None:
        """Plain mode: one line per lifecycle event, digested
        heartbeats."""
        data = event.data
        if event.kind == _bus.POINT_FINISHED:
            status = "ok" if data.get("ok", True) else \
                f"FAILED: {data.get('error', '?')}"
            rate = data.get("throughput")
            rate_s = f" {_fmt_rate(rate)} txn/s" if rate else ""
            self._line(f"point {data.get('index', '?')} "
                       f"{event.source}: {status}{rate_s} "
                       f"({data.get('host_seconds', 0.0):.2f}s)")
        elif event.kind == _bus.POINT_RETRIED:
            self._line(f"point {data.get('index', '?')} "
                       f"{event.source}: retrying "
                       f"(attempt {data.get('attempt', '?')}): "
                       f"{data.get('error', '?')}")
        elif event.kind == _bus.POINT_CRASHED:
            self._line(f"point {data.get('index', '?')} "
                       f"{event.source}: worker crashed "
                       f"(exit code {data.get('exitcode', '?')})")
        elif event.kind == _bus.HEARTBEAT:
            if now - self._last_plain_heartbeat \
                    >= self._plain_heartbeat_s:
                self._last_plain_heartbeat = now
                self._line(self._status_line())
        elif event.kind == _bus.SWEEP_STARTED:
            self._line(f"{event.kind}: "
                       f"{data.get('points', '?')} points")
        elif event.kind == _bus.CAMPAIGN_STARTED:
            engines = ", ".join(data.get("engines", [])) or "?"
            self._line(f"{event.kind}: {engines} "
                       f"(seed {data.get('seed', '?')})")

    def _line(self, text: str) -> None:
        self._stream.write(text + "\n")
        self._stream.flush()

    def close(self) -> None:
        """Erase the status line and print it once more as the closing
        summary."""
        if self._closed:
            return
        self._bus.remove_sink(self)
        if self.tty:
            self._stream.write("\r" + " " * self._line_len + "\r")
        self._line(self._status_line())
        self._closed = True

    def __enter__(self) -> "LiveRenderer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
