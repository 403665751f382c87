"""Reference transaction: a fixed pure-Python kernel timed beside the
real work of every workload.

This is a 2-vCPU guest on a shared machine. Measured while sizing the
benchmark: timed in a tight loop, the kernel below costs a steady
155 us at best, but its per-second *median* wanders between 184 and
350 us — the CPU flips, millisecond by millisecond, between a fast
state and one about twice as slow (a busy neighbour), and the share of
time spent in the slow one changes over seconds and minutes. Every
pure-Python code path slows with it; identical runs of an unscaled
workload then spread 20-40%.

The kernel does the kind of work a simulated transaction does — dict
probes, ``bytearray`` slicing, ``struct`` packing, bound method calls —
over a 64 KiB working set, takes no input from the program under test,
and never changes. Each workload interleaves calls to it with its real
transactions and times them with the same clock; the **mean** cost over
a segment says how slow the host was *during that segment*, and the
segment's figures are corrected by it (see
:func:`common.host_factor`). The mean, not the median: the median sits
in the fast state until the slow one passes 50% and then jumps.

``REF_NOMINAL_US`` is the kernel's cost on the host the first payload
was taken on, interleaved with real transactions (it runs with cold CPU
caches there). It only fixes the unit: corrected numbers still read as
txn/s and microseconds of that host. Changing the kernel or the
constant invalidates every committed payload.
"""

from __future__ import annotations

import struct

#: Nominal cost of one :meth:`RefKernel.run` in microseconds.
REF_NOMINAL_US = 250.0

_WORKING_SET = 64 * 1024
_SLOT = 64
_SLOTS = _WORKING_SET // _SLOT
_PAIR = struct.Struct("<QQ")
_STEPS = 272


class RefKernel:
    """A tiny key-value 'engine': a dict index over slots of one
    bytearray, read-modify-written through method calls."""

    def __init__(self) -> None:
        self._heap = bytearray(_WORKING_SET)
        self._index = {key: (key * 37 % _SLOTS) * _SLOT
                       for key in range(_SLOTS)}
        self._cursor = 1

    def _read(self, key: int) -> int:
        offset = self._index[key]
        return _PAIR.unpack_from(self._heap, offset)[1]

    def _write(self, key: int, value: int) -> None:
        offset = self._index[key]
        self._heap[offset:offset + 16] = _PAIR.pack(key, value)

    def run(self) -> int:
        """One reference transaction (a fixed number of steps over a
        deterministic key sequence; the result is consumed so the work
        cannot be skipped)."""
        key = self._cursor
        total = 0
        for __ in range(_STEPS):
            key = (key * 1103515245 + 12345) % _SLOTS
            value = self._read(key)
            self._write(key, (value + key) & 0xFFFFFFFF)
            total += value
        self._cursor = key
        return total
