"""Equivalence contract for the compiled tuple layout.

``Schema.layout`` compiles a schema's slot, inlined-record and
field-image formats once; every codec entry point reads it. Slot, WAL
and checkpoint sizes feed the simulated filesystem and cache, so the
compiled codec must write exactly the bytes the per-column codec it
replaced wrote. ``Reference`` below *is* that codec, kept verbatim,
and the properties drive both with random schemas and rows.

One case is deliberately outside the byte contract: an 8-byte value
in an inline (capacity <= 8) string column. The reference spills it
to a variable-length slot that its own decoder then misreads; the
layout stores it inline. The equivalence properties keep inline
strings to 7 bytes, and the round-trip properties cover the full
capacity.
"""

import pickle
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schema import (FIELD_SLOT_SIZE, SLOT_HEADER_SIZE, Column,
                               ColumnType, Schema)
from repro.core.tuple_codec import (INLINE, decode_fields, decode_inlined,
                                    decode_slotted, encode_fields,
                                    encode_inlined, encode_slotted,
                                    inlined_record_size)


class Reference:
    """The per-column codec as it was before the compiled layout."""

    _I64 = struct.Struct("<q")
    _F64 = struct.Struct("<d")
    _U64 = struct.Struct("<Q")
    _U32 = struct.Struct("<I")
    VARLEN_HEADER_SIZE = 4

    @staticmethod
    def _encode_inline_string(value):
        raw = value.encode("utf-8")
        return bytes([len(raw)]) + raw.ljust(FIELD_SLOT_SIZE - 1, b"\x00")

    @staticmethod
    def _decode_inline_string(field):
        length = field[0]
        return field[1:1 + length].decode("utf-8")

    @staticmethod
    def _string_fits_inline(value):
        return len(value.encode("utf-8")) <= FIELD_SLOT_SIZE - 1

    @classmethod
    def encode_slotted(cls, schema, values, varlen_writer, state=1):
        schema.validate(values)
        parts = [bytes([state]) + b"\x00" * (SLOT_HEADER_SIZE - 1)]
        pointers = []
        for column in schema.columns:
            value = values[column.name]
            if column.type is ColumnType.INT:
                parts.append(cls._I64.pack(value))
            elif column.type is ColumnType.FLOAT:
                parts.append(cls._F64.pack(float(value)))
            elif cls._string_fits_inline(value) and column.inline:
                parts.append(cls._encode_inline_string(value))
            else:
                raw = value.encode("utf-8")
                pointer = varlen_writer(cls._U32.pack(len(raw)) + raw)
                pointers.append(pointer)
                parts.append(cls._U64.pack(pointer))
        return b"".join(parts), pointers

    @classmethod
    def decode_slotted(cls, schema, slot, varlen_reader):
        values = {}
        offset = SLOT_HEADER_SIZE
        for column in schema.columns:
            field = slot[offset:offset + FIELD_SLOT_SIZE]
            if column.type is ColumnType.INT:
                values[column.name] = cls._I64.unpack(field)[0]
            elif column.type is ColumnType.FLOAT:
                values[column.name] = cls._F64.unpack(field)[0]
            elif column.inline:
                values[column.name] = cls._decode_inline_string(field)
            else:
                pointer = cls._U64.unpack(field)[0]
                raw = varlen_reader(pointer)
                length = cls._U32.unpack(raw[:cls.VARLEN_HEADER_SIZE])[0]
                values[column.name] = \
                    raw[cls.VARLEN_HEADER_SIZE:
                        cls.VARLEN_HEADER_SIZE + length].decode("utf-8")
            offset += FIELD_SLOT_SIZE
        return values

    @classmethod
    def encode_inlined(cls, schema, values):
        schema.validate(values)
        parts = [b"\x00" * SLOT_HEADER_SIZE]
        for column in schema.columns:
            value = values[column.name]
            if column.type is ColumnType.INT:
                parts.append(cls._I64.pack(value))
            elif column.type is ColumnType.FLOAT:
                parts.append(cls._F64.pack(float(value)))
            else:
                raw = value.encode("utf-8")
                parts.append(cls._U32.pack(len(raw))
                             + raw.ljust(column.capacity, b"\x00"))
        return b"".join(parts)

    @classmethod
    def encode_fields(cls, schema, changes):
        parts = [bytes([len(changes)])]
        names = schema.column_names
        for name, value in changes.items():
            column = schema.column(name)
            parts.append(bytes([names.index(name)]))
            if column.type is ColumnType.INT:
                parts.append(cls._I64.pack(value))
            elif column.type is ColumnType.FLOAT:
                parts.append(cls._F64.pack(float(value)))
            else:
                raw = value.encode("utf-8")
                parts.append(cls._U32.pack(len(raw)) + raw)
        return b"".join(parts)


class FakeVarlenPool:
    def __init__(self):
        self.slots = {}

    def write(self, data):
        addr = 4096 + 64 * len(self.slots)
        self.slots[addr] = data
        return addr


def _utf8_prefix(text, limit):
    return text.encode("utf-8")[:limit].decode("utf-8", errors="ignore")


_COLUMN = st.one_of(
    st.just((ColumnType.INT, FIELD_SLOT_SIZE)),
    st.just((ColumnType.FLOAT, FIELD_SLOT_SIZE)),
    st.tuples(st.just(ColumnType.STRING), st.integers(1, 8)),
    st.tuples(st.just(ColumnType.STRING), st.integers(9, 48)))

_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=48)


@st.composite
def schemas_and_rows(draw, inline_limit=FIELD_SLOT_SIZE):
    """A random schema and one row for it; inline strings hold at most
    ``inline_limit`` bytes."""
    specs = draw(st.lists(_COLUMN, min_size=1, max_size=10))
    columns = [Column(f"c{i}", kind, capacity=capacity)
               for i, (kind, capacity) in enumerate(specs)]
    schema = Schema.build("t", columns, primary_key=["c0"])
    row = {}
    for column in columns:
        if column.type is ColumnType.INT:
            row[column.name] = draw(st.integers(-(2 ** 63), 2 ** 63 - 1))
        elif column.type is ColumnType.FLOAT:
            row[column.name] = draw(st.one_of(
                st.floats(allow_nan=False), st.integers(-2 ** 60, 2 ** 60)))
        else:
            limit = column.capacity
            if column.inline:
                limit = min(limit, inline_limit)
            row[column.name] = _utf8_prefix(draw(_TEXT), limit)
    return schema, row


@settings(max_examples=300, deadline=None)
@given(schemas_and_rows(inline_limit=FIELD_SLOT_SIZE - 1), st.data())
def test_layout_writes_the_reference_bytes(case, data):
    schema, row = case
    ours, theirs = FakeVarlenPool(), FakeVarlenPool()
    slot, pointers = encode_slotted(schema, row, ours.write, state=2)
    assert (slot, pointers) == Reference.encode_slotted(
        schema, row, theirs.write, state=2)
    assert ours.slots == theirs.slots
    assert decode_slotted(schema, slot, ours.slots.__getitem__) == \
        Reference.decode_slotted(schema, slot, theirs.slots.__getitem__)
    record = encode_inlined(schema, row)
    assert record == Reference.encode_inlined(schema, row)
    assert len(record) == inlined_record_size(schema) == schema.inlined_size
    names = data.draw(st.permutations(list(row)))
    changes = {name: row[name]
               for name in names[:data.draw(st.integers(0, len(names)))]}
    assert encode_fields(schema, changes) == \
        Reference.encode_fields(schema, changes)
    # One inline field as the in-place update path writes it: the slot
    # bytes of that column in a one-column encoding.
    layout = schema.layout
    for position in layout.inline + tuple(
            i for i, kind in enumerate(layout.kinds) if kind in "qd"):
        name = layout.names[position]
        start = SLOT_HEADER_SIZE + position * FIELD_SLOT_SIZE
        assert layout.packers[position](row[name]) == \
            slot[start:start + FIELD_SLOT_SIZE]


def _same(decoded, row):
    # An int stored in a FLOAT column comes back as a float.
    return decoded == {name: float(value) if type(value) is int
                       and not isinstance(decoded[name], int) else value
                       for name, value in row.items()}


@settings(max_examples=300, deadline=None)
@given(schemas_and_rows())
def test_decode_inverts_encode(case):
    schema, row = case
    pool = FakeVarlenPool()
    slot, pointers = encode_slotted(schema, row, pool.write)
    assert len(slot) == schema.fixed_slot_size
    assert len(pointers) == len(schema.layout.varlen)
    assert _same(decode_slotted(schema, slot, pool.slots.__getitem__), row)
    assert _same(decode_inlined(schema, encode_inlined(schema, row)), row)
    fields = decode_fields(schema, encode_fields(schema, row))
    assert _same(fields, row)


def test_every_eight_byte_string_has_an_inline_form():
    schema = Schema.build("t", [Column("k", ColumnType.INT),
                                Column("s", ColumnType.STRING)],
                          primary_key=["k"])
    assert schema.layout.kinds[1] == INLINE
    firsts = [chr(code) for code in range(128)] + ["é", "€", "😀"]
    for first in firsts:
        value = _utf8_prefix(first + "abcdefgh", FIELD_SLOT_SIZE)
        value += "z" * (FIELD_SLOT_SIZE - len(value.encode("utf-8")))
        pool = FakeVarlenPool()
        slot, pointers = encode_slotted(schema, {"k": 1, "s": value},
                                        pool.write)
        assert pointers == [] and pool.slots == {}
        assert decode_slotted(schema, slot, pool.slots.__getitem__) == \
            {"k": 1, "s": value}


@settings(max_examples=50, deadline=None)
@given(schemas_and_rows())
def test_layout_is_rebuilt_after_pickle_not_carried(case):
    schema, row = case
    pool = FakeVarlenPool()
    slot, __ = encode_slotted(schema, row, pool.write)  # builds layout
    assert "layout" in vars(schema)
    copy = pickle.loads(pickle.dumps(schema))
    assert copy == schema
    assert "layout" not in vars(copy)
    assert encode_slotted(copy, row, FakeVarlenPool().write)[0] == slot
    assert copy.layout is not schema.layout
