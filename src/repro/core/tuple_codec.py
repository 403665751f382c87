"""Tuple serialization for the two storage layouts in the paper.

* **Slotted layout** (memory-optimized, Section 3.1): a fixed-size slot
  with one 8-byte field position per column. Integers, floats, and
  strings of columns up to 8 bytes are inline; longer strings live in
  a variable-length slot, with the 8-byte non-volatile pointer stored
  at the field's position.
* **Inlined layout** (HDD/SSD-optimized, Section 3.2): every field is
  stored at its full declared capacity so no random accesses are needed
  — this is the format the CoW engine keeps in its directories and the
  Log engine writes into SSTables.

Both, and the changed-fields images of the WALs, are compiled once
per schema into a :class:`TupleLayout`.
"""

from __future__ import annotations

import struct
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from ..errors import SchemaError
from .schema import FIELD_SLOT_SIZE, SLOT_HEADER_SIZE, ColumnType, Schema

_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")
#: A field image entry: column position, then the value (or a string's
#: length, followed by its bytes).
_FIELD_I64 = struct.Struct("<Bq")
_FIELD_F64 = struct.Struct("<Bd")
_FIELD_STR = struct.Struct("<BI")

#: Slot durability states (Section 4.1): after a restart, slots that
#: are allocated but not persisted transition back to unallocated.
STATE_UNALLOCATED = 0
STATE_ALLOCATED = 1
STATE_PERSISTED = 2

#: Bytes prepended to a variable-length slot (length prefix).
VARLEN_HEADER_SIZE = 4

#: Column kinds, spelled as the kind's format in the fixed-size slot.
INT, FLOAT, INLINE, VARLEN = "q", "d", f"{FIELD_SLOT_SIZE}s", "Q"
_SCALARS = {INT: _I64, FLOAT: _F64}

VarlenWriter = Callable[[bytes], int]
VarlenReader = Callable[[int], bytes]


def _encode_inline_string(value: str) -> bytes:
    raw = value.encode("utf-8")
    if len(raw) < FIELD_SLOT_SIZE:
        # A length byte (0-7), then the data.
        return bytes([len(raw)]) + raw.ljust(FIELD_SLOT_SIZE - 1, b"\x00")
    # Eight bytes fill the field. A first byte below 8 would read as a
    # length, so it gets the top five bits set: 0xF8-0xFF never occur
    # in UTF-8.
    if raw[0] < FIELD_SLOT_SIZE:
        return bytes([raw[0] | 0xF8]) + raw[1:]
    return raw


def _decode_inline_string(field: bytes) -> str:
    head = field[0]
    if head < FIELD_SLOT_SIZE:
        return field[1:1 + head].decode("utf-8")
    if head >= 0xF8:
        field = bytes([head & 0x07]) + field[1:]
    return field.decode("utf-8")


def _encode_varlen_string(value: str) -> bytes:
    raw = value.encode("utf-8")
    return _U32.pack(len(raw)) + raw


def _decode_varlen_string(data: bytes) -> str:
    length = _U32.unpack_from(data)[0]
    return data[VARLEN_HEADER_SIZE:VARLEN_HEADER_SIZE + length] \
        .decode("utf-8")


def _pack_field_string(position: int, value: str) -> bytes:
    raw = value.encode("utf-8")
    return _FIELD_STR.pack(position, len(raw)) + raw


class TupleLayout:
    """A schema's storage layouts, compiled once per :class:`Schema`
    (``schema.layout``) so no codec call re-derives them per column.

    A column's kind decides inline-or-varlen for every value: a STRING
    column is ``INLINE`` iff :attr:`Column.inline`, and an inline
    field holds any string the column admits (up to 8 bytes).
    ``packers[i]`` gives the bytes a value of column ``i`` is stored
    as: its slot field, or for ``VARLEN`` its variable-length slot.
    """

    __slots__ = ("names", "positions", "kinds", "inline", "varlen",
                 "varlen_names", "strings", "slot", "fields", "inlined",
                 "packers", "field_packers")

    def __init__(self, schema: Schema) -> None:
        columns = schema.columns
        self.names = tuple(column.name for column in columns)
        self.positions = {name: i for i, name in enumerate(self.names)}
        self.kinds = tuple(
            INT if column.type is ColumnType.INT
            else FLOAT if column.type is ColumnType.FLOAT
            else INLINE if column.inline else VARLEN
            for column in columns)
        self.inline = self._where(INLINE)
        self.varlen = self._where(VARLEN)
        self.varlen_names = tuple(self.names[i] for i in self.varlen)
        self.strings = tuple(i for i, kind in enumerate(self.kinds)
                             if kind not in _SCALARS)
        #: The fixed-size slot: a state byte, padding, one 8-byte field
        #: per column; ``fields`` reads the fields alone.
        body = "".join(self.kinds)
        self.slot = struct.Struct(f"<B{SLOT_HEADER_SIZE - 1}x{body}")
        self.fields = struct.Struct(f"<{SLOT_HEADER_SIZE}x{body}")
        #: The fully-inlined record: strings at full capacity, each
        #: behind a 4-byte length.
        self.inlined = struct.Struct(f"<{SLOT_HEADER_SIZE}x" + "".join(
            kind if kind in _SCALARS
            else f"{_U32.size + column.capacity}s"
            for column, kind in zip(columns, self.kinds)))
        stored = {INT: _I64.pack, FLOAT: _F64.pack,
                  INLINE: _encode_inline_string,
                  VARLEN: _encode_varlen_string}
        self.packers = tuple(stored[kind] for kind in self.kinds)
        imaged = {INT: _FIELD_I64.pack, FLOAT: _FIELD_F64.pack}
        self.field_packers = tuple(
            partial(imaged.get(kind, _pack_field_string), i)
            for i, kind in enumerate(self.kinds))

    def _where(self, kind: str) -> Tuple[int, ...]:
        return tuple(i for i, each in enumerate(self.kinds) if each == kind)

    def positions_of(self, names: Iterable[str]) -> List[int]:
        """Column positions of ``names``, in column order."""
        return sorted(map(self.positions.__getitem__, names))

    def slot_values(self, fields: Sequence[Any],
                    blobs: Iterable[bytes]) -> Dict[str, Any]:
        """A tuple from its unpacked slot ``fields`` and the contents
        of its variable-length slots, in ``varlen`` order."""
        values = list(fields)
        for i in self.inline:
            values[i] = _decode_inline_string(values[i])
        for i, blob in zip(self.varlen, blobs):
            values[i] = _decode_varlen_string(blob)
        return dict(zip(self.names, values))


def encode_slotted(schema: Schema, values: Dict[str, Any],
                   varlen_writer: VarlenWriter,
                   state: int = STATE_ALLOCATED) -> Tuple[bytes, List[int]]:
    """Encode a tuple into its fixed-size slot bytes.

    Non-inline fields are written through ``varlen_writer`` (which
    allocates a variable-length slot and returns its pointer). Returns
    ``(slot_bytes, varlen_pointers)`` so the caller can track (and
    later free) the out-of-line allocations. ``values`` must already
    be valid (:meth:`Schema.validate`): the engines validate each
    insert once, before anything is allocated or logged.
    """
    layout = schema.layout
    fields = [values[name] for name in layout.names]
    for i in layout.inline:
        fields[i] = _encode_inline_string(fields[i])
    pointers: List[int] = []
    for i in layout.varlen:
        fields[i] = varlen_writer(_encode_varlen_string(fields[i]))
        pointers.append(fields[i])
    return layout.slot.pack(state, *fields), pointers


def decode_slotted(schema: Schema, slot: bytes,
                   varlen_reader: VarlenReader) -> Dict[str, Any]:
    """Decode a fixed-size slot back into a value dict."""
    layout = schema.layout
    if len(slot) != layout.slot.size:
        raise SchemaError(
            f"table {schema.table}: slot is {len(slot)} bytes, "
            f"expected {layout.slot.size}")
    fields = layout.fields.unpack(slot)
    return layout.slot_values(
        fields, [varlen_reader(fields[i]) for i in layout.varlen])


def slot_state(slot: bytes) -> int:
    """Read the durability state byte of a fixed-size slot."""
    return slot[0]


def encode_inlined(schema: Schema, values: Dict[str, Any]) -> bytes:
    """Encode a tuple with every field inlined at full capacity;
    ``values`` must already be valid, as for :func:`encode_slotted`."""
    layout = schema.layout
    fields = [values[name] for name in layout.names]
    for i in layout.strings:
        fields[i] = _encode_varlen_string(fields[i])
    return layout.inlined.pack(*fields)


def decode_inlined(schema: Schema, data: bytes) -> Dict[str, Any]:
    """Decode a fully-inlined tuple."""
    layout = schema.layout
    fields = list(layout.inlined.unpack_from(data))
    for i in layout.strings:
        fields[i] = _decode_varlen_string(fields[i])
    return dict(zip(layout.names, fields))


def encode_fields(schema: Schema, changes: Dict[str, Any]) -> bytes:
    """Encode a subset of columns (WAL before/after images for updates
    record only the changed fields — Table 3's ``F + V`` terms)."""
    layout = schema.layout
    return bytes([len(changes)]) + b"".join(
        layout.field_packers[layout.positions[name]](value)
        for name, value in changes.items())


def decode_fields(schema: Schema, data: bytes) -> Dict[str, Any]:
    """Decode a changed-fields image back into a column dict."""
    layout = schema.layout
    offset = 1
    values: Dict[str, Any] = {}
    for __ in range(data[0]):
        i = data[offset]
        scalar = _SCALARS.get(layout.kinds[i])
        offset += 1
        if scalar is not None:
            values[layout.names[i]] = scalar.unpack_from(data, offset)[0]
            offset += scalar.size
        else:
            length = _U32.unpack_from(data, offset)[0]
            offset += _U32.size
            values[layout.names[i]] = data[offset:offset + length] \
                .decode("utf-8")
            offset += length
    return values


def encode_key(key: Any) -> bytes:
    """Encode a primary/secondary key (int, str, or tuple of those)."""
    if isinstance(key, bool):
        raise SchemaError("boolean keys are not supported")
    if isinstance(key, int):
        return b"i" + _I64.pack(key)
    if isinstance(key, str):
        raw = key.encode("utf-8")
        return b"s" + _U32.pack(len(raw)) + raw
    if isinstance(key, tuple):
        parts = [b"t", bytes([len(key)])]
        parts.extend(encode_key(part) for part in key)
        return b"".join(parts)
    raise SchemaError(f"unsupported key type {type(key)}")


def decode_key(data: bytes, offset: int = 0) -> Tuple[Any, int]:
    """Decode a key; returns (key, bytes consumed from offset)."""
    kind = data[offset:offset + 1]
    if kind == b"i":
        return _I64.unpack_from(data, offset + 1)[0], 9
    if kind == b"s":
        length = _U32.unpack_from(data, offset + 1)[0]
        start = offset + 5
        return data[start:start + length].decode("utf-8"), 5 + length
    if kind == b"t":
        count = data[offset + 1]
        consumed = 2
        parts = []
        for __ in range(count):
            part, used = decode_key(data, offset + consumed)
            parts.append(part)
            consumed += used
        return tuple(parts), consumed
    raise SchemaError(f"bad key encoding at offset {offset}")


def inlined_record_size(schema: Schema) -> int:
    """Size in bytes of one fully-inlined record."""
    return schema.layout.inlined.size
