"""Checkpointer for the in-place updates engine (Section 3.1).

The InP engine "periodically takes checkpoints that are stored on the
filesystem to bound recovery latency and reduce the storage space
consumed by the log", compressing them with gzip. A checkpoint is a
serialized snapshot of every table's committed tuples in the inlined
layout; recovery loads the last checkpoint and then replays the WAL.

Snapshots are double-buffered: each checkpoint is written and fsync'd
into the *inactive* slot file (``<name>.0`` / ``<name>.1``) and only
then installed by atomically flipping a one-byte pointer file. A crash
at any instant therefore leaves a complete previous snapshot readable —
overwriting the live snapshot in place would have a window (between its
truncation, which the PMFS-style filesystem makes durable immediately,
and the replacement's fsync) where a crash destroys committed data that
the since-truncated WAL no longer covers.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Dict, Iterator, Optional, Tuple

from ..core.schema import Schema
from ..core.tuple_codec import decode_inlined, encode_inlined
from ..fault.injector import FaultInjector, register_fault_point
from ..nvm.filesystem import NVMFilesystem

_RECORD = struct.Struct("<HI")  # table id, record length

#: Simulated CPU cost of (de)compression, ns per uncompressed byte.
COMPRESS_NS_PER_BYTE = 0.4

#: Raw bytes per (de)compressor call; bounds a snapshot's host memory.
_CHUNK = 64 * 1024


def _inflate(compressed: bytes) -> Iterator[bytes]:
    """Inflate a snapshot in chunks of at most ``_CHUNK`` raw bytes;
    raises :class:`zlib.error` if the stream is corrupt or truncated."""
    inflater = zlib.decompressobj()
    data = compressed
    while not inflater.eof:
        chunk = inflater.decompress(data, _CHUNK)
        data = inflater.unconsumed_tail
        if not (chunk or data or inflater.eof):
            raise zlib.error("incomplete or truncated stream")
        yield chunk


register_fault_point(
    "checkpoint.write.before_fsync",
    "snapshot written to the inactive slot, not yet fsync'd",
    engines=("inp", "hybrid-inp"))
register_fault_point(
    "checkpoint.write.after_fsync",
    "snapshot durable in the inactive slot, pointer not yet flipped",
    engines=("inp", "hybrid-inp"))
register_fault_point(
    "checkpoint.swap.after_write",
    "pointer byte written in place, not yet fsync'd",
    engines=("inp", "hybrid-inp"))


class Checkpointer:
    """Writes and reads gzip-compressed, double-buffered snapshots."""

    def __init__(self, filesystem: NVMFilesystem, clock,
                 file_name: str = "checkpoint/snapshot",
                 faults: FaultInjector = None) -> None:
        self._fs = filesystem
        self._clock = clock
        self.file_name = file_name
        self._pointer_name = f"{file_name}.current"
        self.checkpoints_taken = 0
        self._faults = faults if faults is not None else FaultInjector()

    def _slot_name(self, slot: int) -> str:
        return f"{self.file_name}.{slot}"

    def _active_slot(self) -> Optional[int]:
        """Slot the pointer file designates, or None before the first
        completed checkpoint."""
        if not self._fs.exists(self._pointer_name):
            return None
        data = self._fs.read_all(self._fs.open(self._pointer_name))
        if not data or data[:1] not in (b"0", b"1"):
            return None
        return int(data[:1])

    def write(self, tables: Dict[str, Tuple[Schema, Iterator[Dict[str, Any]]]]
              ) -> int:
        """Serialize, compress, and durably store a snapshot.

        ``tables`` maps table name -> (schema, iterator of tuple value
        dicts). Table ids are assigned by sorted table name. Returns
        the compressed size in bytes.
        """
        # Records stream into one deflate stream in bounded chunks; its
        # output does not depend on the split, so it equals
        # ``zlib.compress(raw, 6)`` without the raw image in memory.
        compressor = zlib.compressobj(6)
        parts = []
        pending = bytearray()
        raw_size = 0
        for table_id, name in enumerate(sorted(tables)):
            schema, rows = tables[name]
            header = _RECORD.pack(table_id, schema.inlined_size)
            for values in rows:
                pending += header
                pending += encode_inlined(schema, values)
                if len(pending) >= _CHUNK:
                    raw_size += len(pending)
                    parts.append(compressor.compress(pending))
                    pending.clear()
        raw_size += len(pending)
        parts += (compressor.compress(pending), compressor.flush())
        compressed = b"".join(parts)
        self._clock.advance(raw_size * COMPRESS_NS_PER_BYTE)

        active = self._active_slot()
        target = 0 if active != 0 else 1
        file = self._fs.open(self._slot_name(target), create=True)
        self._fs.truncate(file, 0)
        self._fs.append(file, compressed)
        self._faults.fire("checkpoint.write.before_fsync")
        self._fs.fsync(file)
        self._faults.fire("checkpoint.write.after_fsync")

        # Install: flip the one-byte pointer in place. The write is
        # covered by the filesystem's pending-write rollback until the
        # fsync, so a crash either keeps the old snapshot or installs
        # the new one — never neither.
        pointer = self._fs.open(self._pointer_name, create=True)
        byte = b"0" if target == 0 else b"1"
        if pointer.size == 0:
            self._fs.append(pointer, byte)
        else:
            self._fs.write(pointer, 0, byte)
        self._faults.fire("checkpoint.swap.after_write")
        self._fs.fsync(pointer)

        # The superseded slot is now garbage; reclaim its space.
        if active is not None:
            self._fs.truncate(self._fs.open(self._slot_name(active)), 0)
        self.checkpoints_taken += 1
        return len(compressed)

    def read(self, schemas_by_name: Dict[str, Schema]
             ) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Yield (table name, tuple values) from the last checkpoint."""
        active = self._active_slot()
        if active is None:
            return
        file = self._fs.open(self._slot_name(active))
        compressed = self._fs.read_all(file)
        if not compressed:
            return
        # Pass one measures the raw image (raising on a truncated one
        # before any record); pass two parses records across chunks.
        raw_size = sum(map(len, _inflate(compressed)))
        self._clock.advance(raw_size * COMPRESS_NS_PER_BYTE)
        names = sorted(schemas_by_name)
        rest = b""
        for chunk in _inflate(compressed):
            buffer = rest + chunk
            offset = 0
            while len(buffer) - offset >= _RECORD.size:
                table_id, record_length = _RECORD.unpack_from(buffer, offset)
                start = offset + _RECORD.size
                if len(buffer) - start < record_length:
                    break
                offset = start + record_length
                name = names[table_id]
                yield name, decode_inlined(schemas_by_name[name],
                                           buffer[start:offset])
            rest = buffer[offset:]

    @property
    def size_bytes(self) -> int:
        active = self._active_slot()
        if active is None:
            return 0
        return self._fs.open(self._slot_name(active)).size
