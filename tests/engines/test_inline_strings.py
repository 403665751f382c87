"""An 8-byte value in a string column of capacity 8 is stored inline.

``Column.inline`` makes every string column of capacity <= 8 an
inline column, so its slot position must hold the value itself for
every value the column admits — 8-byte values included — on every
engine, whether the value arrives by insert or by update.
"""

import pytest

from repro import Column, ColumnType, Database, PlatformConfig, Schema
from repro.engines.base import engine_names

EIGHT = ["abcdefgh", "\x01short!", "\x03\x00\x00\x00\x00\x00\x00\x00",
         "héllo!!"]


def _database(engine):
    db = Database(engine,
                  platform_config=PlatformConfig.for_engine(engine))
    db.create_table(Schema.build(
        "t", [Column("k", ColumnType.INT), Column("s", ColumnType.STRING)],
        primary_key=["k"]))
    return db


@pytest.mark.parametrize("engine", engine_names())
def test_insert_then_update_eight_byte_string(engine):
    db = _database(engine)
    db.insert("t", {"k": 1, "s": "abcdefgh"})
    assert db.get("t", 1) == {"k": 1, "s": "abcdefgh"}
    for value in EIGHT[1:] + ["", "seven77"]:
        db.update("t", 1, {"s": value})
        assert db.get("t", 1) == {"k": 1, "s": value}
    db.close()


@pytest.mark.parametrize("engine", engine_names())
def test_update_short_string_to_eight_bytes(engine):
    db = _database(engine)
    db.insert("t", {"k": 1, "s": "short"})
    db.update("t", 1, {"s": "ABCDEFGH"})
    assert db.get("t", 1) == {"k": 1, "s": "ABCDEFGH"}
    db.close()
