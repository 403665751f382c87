"""Filesystem-resident write-ahead log with group commit (Section 3.1).

Each entry records "the transaction identifier, the table modified, the
tuple identifier, and the before/after tuple images depending on the
operation". Entries are appended through the filesystem interface;
durability is deferred to a group-commit ``flush`` (one ``fsync`` per
batch), which is what the traditional engines do to amortize the
assumed-slow durable storage.

The serialized format is compact and self-describing so the log can be
replayed for redo/undo after a crash — and so that the log's byte
footprint tracks the analytical cost model of Table 3 (full tuple
images for inserts/deletes, changed-field images for updates).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Iterator

from ..core.tuple_codec import decode_key, encode_key
from ..fault.injector import FaultInjector, register_fault_point
from ..nvm.filesystem import NVMFile, NVMFilesystem

_HEADER = struct.Struct("<IBQH")  # entry length, op, txn id, table id

register_fault_point(
    "wal.append.before",
    "filesystem WAL: before the entry bytes are appended",
    engines=("inp", "hybrid-inp", "log"))
register_fault_point(
    "wal.append.after",
    "filesystem WAL: entry appended but not yet fsync'd",
    engines=("inp", "hybrid-inp", "log"))
register_fault_point(
    "wal.fsync.before",
    "group-commit boundary: entries pending, before the WAL fsync",
    engines=("inp", "hybrid-inp", "log"))
register_fault_point(
    "wal.fsync.after",
    "group-commit boundary: right after the WAL fsync",
    engines=("inp", "hybrid-inp", "log"))

OP_INSERT = 1
OP_UPDATE = 2
OP_DELETE = 3
OP_COMMIT = 4
OP_ABORT = 5

OP_NAMES = {OP_INSERT: "insert", OP_UPDATE: "update", OP_DELETE: "delete",
            OP_COMMIT: "commit", OP_ABORT: "abort"}


@dataclass(frozen=True)
class WALEntry:
    """One write-ahead log record."""

    op: int
    txn_id: int
    table_id: int = 0
    key: object = None
    before: bytes = b""
    after: bytes = b""

    def encode(self) -> bytes:
        key_bytes = encode_key(self.key) if self.key is not None else b""
        body = (struct.pack("<I", len(key_bytes)) + key_bytes
                + struct.pack("<I", len(self.before)) + self.before
                + struct.pack("<I", len(self.after)) + self.after)
        header = _HEADER.pack(len(body), self.op, self.txn_id,
                              self.table_id)
        return header + body

    @classmethod
    def decode(cls, data: bytes, offset: int) -> "tuple[WALEntry, int]":
        body_length, op, txn_id, table_id = _HEADER.unpack_from(
            data, offset)
        cursor = offset + _HEADER.size
        key_length = struct.unpack_from("<I", data, cursor)[0]
        cursor += 4
        key: object = None
        if key_length:
            key, __ = decode_key(data, cursor)
        cursor += key_length
        before_length = struct.unpack_from("<I", data, cursor)[0]
        cursor += 4
        before = bytes(data[cursor:cursor + before_length])
        cursor += before_length
        after_length = struct.unpack_from("<I", data, cursor)[0]
        cursor += 4
        after = bytes(data[cursor:cursor + after_length])
        cursor += after_length
        entry = cls(op, txn_id, table_id, key, before, after)
        return entry, _HEADER.size + body_length


class WriteAheadLog:
    """Append-only WAL on the NVM filesystem."""

    def __init__(self, filesystem: NVMFilesystem,
                 file_name: str = "wal/log",
                 faults: FaultInjector = None) -> None:
        self._fs = filesystem
        self._file: NVMFile = filesystem.open(file_name, create=True)
        self.file_name = file_name
        self._faults = faults if faults is not None else FaultInjector()

    def append(self, entry: WALEntry) -> None:
        """Append an entry (durable only after :meth:`flush`)."""
        self._faults.fire("wal.append.before")
        self._fs.append(self._file, entry.encode())
        self._faults.fire("wal.append.after")

    def flush(self) -> None:
        """Group-commit boundary: fsync the log (skipped when nothing
        was appended since the last flush)."""
        if self._file.pending_bytes:
            self._faults.fire("wal.fsync.before")
            self._fs.fsync(self._file)
            self._faults.fire("wal.fsync.after")

    def replay(self) -> Iterator[WALEntry]:
        """Iterate over every entry currently in the log."""
        data = self._fs.read_all(self._file)
        offset = 0
        while offset + _HEADER.size <= len(data):
            body_length = _HEADER.unpack_from(data, offset)[0]
            if offset + _HEADER.size + body_length > len(data):
                break  # torn tail write — ignore (never fsync'd)
            entry, consumed = WALEntry.decode(data, offset)
            yield entry
            offset += consumed

    def committed_txn_ids(self) -> set:
        """Transaction ids with a commit record in the log."""
        return {entry.txn_id for entry in self.replay()
                if entry.op == OP_COMMIT}

    def truncate(self) -> None:
        """Discard the log (after a checkpoint made it redundant)."""
        self._fs.truncate(self._file, 0)

    def pending_bytes(self) -> int:
        """Appended bytes not yet made durable by an fsync."""
        return self._file.pending_bytes

    @property
    def size_bytes(self) -> int:
        return self._file.size


def group_entries_by_txn(entries: Iterator[WALEntry]
                         ) -> Dict[int, list]:
    """Bucket data entries (not commit/abort markers) per transaction."""
    by_txn: Dict[int, list] = {}
    for entry in entries:
        if entry.op in (OP_COMMIT, OP_ABORT):
            continue
        by_txn.setdefault(entry.txn_id, []).append(entry)
    return by_txn
