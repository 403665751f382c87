"""Span recorder: per-layer self time measured from outside.

The benchmark wraps the *public* methods at each layer boundary of the
program (see ``layers.py``) with :meth:`SpanRecorder.wrap`. A wrapped
call is one span: name, start, end, the span that caused it (the
innermost open span on the same thread) and the id of the transaction
the driver announced with :meth:`SpanRecorder.next_txn`.

A layer's **self time** is a span's duration minus the part of it its
child spans cover; summed over a layer's spans and divided by the
transaction count it is the layer's rung on the ladder. Self times are
accumulated as spans close, so a traced run of any length needs
constant memory; the spans of the first ``keep_txns`` transactions are
also kept whole and written as JSONL for after-the-fact inspection
(:func:`self_time_by_layer` recomputes the same figures from that
file, and the tests hold the two against each other).

Time spent in code that is not wrapped lands in the self time of the
innermost wrapped caller — unwrapped helpers count toward the layer
that called them — and time outside every span is reported as
``trace.unattributed_frac``.
"""

from __future__ import annotations

import functools
import json
import threading
import time
import types
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_clock = time.perf_counter_ns


class SpanRecorder:
    """Collects spans from wrapped callables on any thread."""

    def __init__(self, keep_txns: int = 0) -> None:
        #: Spans are recorded only while this is true, so set-up and
        #: teardown around a traced window cost one flag check a call.
        self.enabled = False
        self.keep_txns = keep_txns
        self.txn_id = 0
        #: (layer, name) -> [self_ns, calls, total_ns]
        self.totals: Dict[Tuple[str, str], List[int]] = {}
        #: Kept spans: (id, parent, txn, layer, name, start, end, thread)
        self.spans: List[Tuple[Any, ...]] = []
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []
        self._ids = 0

    # -- driver side ---------------------------------------------------

    def next_txn(self) -> int:
        """Announce the next transaction; spans opened from now on (on
        every thread) carry its id."""
        self.txn_id += 1
        return self.txn_id

    def reset(self) -> None:
        """Forget everything recorded so far (wrappers stay bound).
        Until the next :meth:`next_txn`, spans are only aggregated."""
        for cell in self.totals.values():
            cell[0] = cell[1] = cell[2] = 0
        self.spans.clear()
        self.txn_id = 0
        self._ids = 0

    # -- wrapping ------------------------------------------------------

    def wrap(self, layer: str, name: str, fn: Callable[..., Any],
             lazy: bool = True) -> Callable[..., Any]:
        """``fn`` with every call recorded as one ``layer`` span. With
        ``lazy``, a returned generator is itself traced step by step —
        each ``next()`` one more span of the same name — so the work a
        generator does lazily is charged to the layer that wrote it."""
        cell = self.totals.setdefault((layer, name), [0, 0, 0])
        recorder = self
        local = self._local

        def traced_iter(iterator):
            step = recorder.wrap(layer, name, next, lazy=False)
            done = object()
            while True:
                item = step(iterator, done)
                if item is done:
                    return
                yield item

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not recorder.enabled:
                return fn(*args, **kwargs)
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            frame = [0, 0]                  # [child_ns, span id]
            if 0 < recorder.txn_id <= recorder.keep_txns:
                recorder._ids += 1
                frame[1] = recorder._ids
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                cell[0] += duration - frame[0]
                cell[1] += 1
                cell[2] += duration
                parent = 0
                if stack:
                    outer = stack[-1]
                    outer[0] += duration
                    parent = outer[1]
                if frame[1]:
                    recorder.spans.append(
                        (frame[1], parent, recorder.txn_id, layer,
                         name, start, end, threading.get_ident()))
            if lazy and isinstance(result, types.GeneratorType):
                return traced_iter(result)
            return result

        return wrapper

    def install(self, layer: str, owner: Any,
                names: Optional[Iterable[str]] = None) -> None:
        """Wrap attributes of ``owner`` (a class or a module) in place.
        With ``names=None``: every public plain function the class
        itself defines (properties, static/class methods and abstract
        declarations are left alone)."""
        if names is None:
            names = [name for name, value in vars(owner).items()
                     if isinstance(value, types.FunctionType)
                     and not name.startswith("_")
                     and not getattr(value, "__isabstractmethod__",
                                     False)]
        label = getattr(owner, "__name__", str(owner)).rsplit(".", 1)[-1]
        for name in names:
            original = vars(owner)[name]
            setattr(owner, name,
                    self.wrap(layer, f"{label}.{name}", original))
            self._undo.append(
                functools.partial(setattr, owner, name, original))

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        while self._undo:
            self._undo.pop()()

    # -- results -------------------------------------------------------

    def layer_self_ns(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for (layer, __), cell in self.totals.items():
            totals[layer] = totals.get(layer, 0) + cell[0]
        return totals

    def layer_calls(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for (layer, __), cell in self.totals.items():
            totals[layer] = totals.get(layer, 0) + cell[1]
        return totals

    def mean_us(self, layer: str, *suffixes: str) -> Optional[float]:
        """Mean duration (µs) of a layer's spans whose name ends with
        one of ``suffixes`` (``".get"``, ``".put"``, ...); ``None``
        when no such span was recorded."""
        calls = total = 0
        for (span_layer, name), cell in self.totals.items():
            if span_layer == layer and name.endswith(suffixes):
                calls += cell[1]
                total += cell[2]
        return total / calls / 1000.0 if calls else None

    def calls(self, layer: str, *suffixes: str) -> int:
        return sum(cell[1] for (span_layer, name), cell
                   in self.totals.items()
                   if span_layer == layer and name.endswith(suffixes))

    def write_jsonl(self, path) -> int:
        """Write the kept spans, one JSON object per line; returns how
        many."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for (span_id, parent, txn, layer, name, start, end,
                 thread) in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "txn": txn,
                    "layer": layer, "name": name, "start_ns": start,
                    "end_ns": end, "thread": thread}) + "\n")
        return len(self.spans)


def self_time_by_layer(spans: Iterable[Dict[str, Any]]
                       ) -> Dict[str, int]:
    """Self time per layer recomputed from span records (dicts with
    ``id``, ``parent``, ``layer``, ``start_ns``, ``end_ns``): each
    span's duration minus its direct children's durations."""
    spans = list(spans)
    child_ns: Dict[int, int] = {}
    for span in spans:
        if span["parent"]:
            child_ns[span["parent"]] = child_ns.get(span["parent"], 0) \
                + span["end_ns"] - span["start_ns"]
    totals: Dict[str, int] = {}
    for span in spans:
        own = span["end_ns"] - span["start_ns"] \
            - child_ns.get(span["id"], 0)
        totals[span["layer"]] = totals.get(span["layer"], 0) + own
    return totals
