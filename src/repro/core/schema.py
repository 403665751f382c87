"""Table schemas and column types.

The testbed follows the paper's storage layout (Section 3.1): any field
that fits in 8 bytes is stored inline in the tuple's fixed-size slot;
larger fields live in variable-length slots referenced by an 8-byte
pointer stored at the field's position.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import (TYPE_CHECKING, Any, Dict, List, Optional, Sequence,
                    Tuple)

from ..errors import SchemaError

if TYPE_CHECKING:
    from .tuple_codec import TupleLayout

#: Bytes each field occupies in the fixed-size slot (value or pointer).
FIELD_SLOT_SIZE = 8

#: Bytes of slot header (durability state + padding to 8 bytes).
SLOT_HEADER_SIZE = 8


class ColumnType(enum.Enum):
    """Supported column types."""

    INT = "int"          # 64-bit signed integer, always inline
    FLOAT = "float"      # 64-bit IEEE double, always inline
    STRING = "string"    # UTF-8, inline iff capacity <= 8 bytes


@dataclass(frozen=True)
class Column:
    """One column: a name, a type, and (for strings) a byte capacity."""

    name: str
    type: ColumnType
    capacity: int = FIELD_SLOT_SIZE

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")
        if self.capacity <= 0:
            raise SchemaError(f"column {self.name}: capacity must be > 0")
        if self.type is not ColumnType.STRING \
                and self.capacity != FIELD_SLOT_SIZE:
            raise SchemaError(
                f"column {self.name}: only STRING columns take a capacity")

    @property
    def inline(self) -> bool:
        """Whether values are stored inline in the fixed-size slot."""
        return self.type is not ColumnType.STRING \
            or self.capacity <= FIELD_SLOT_SIZE

    def validate(self, value: Any) -> None:
        """Raise :class:`SchemaError` if ``value`` does not fit."""
        if self.type is ColumnType.INT:
            if not isinstance(value, int) or isinstance(value, bool):
                raise SchemaError(
                    f"column {self.name}: expected int, got {type(value)}")
            if not -(2 ** 63) <= value < 2 ** 63:
                raise SchemaError(f"column {self.name}: int out of range")
        elif self.type is ColumnType.FLOAT:
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool):
                raise SchemaError(
                    f"column {self.name}: expected float, got {type(value)}")
        else:
            if not isinstance(value, str):
                raise SchemaError(
                    f"column {self.name}: expected str, got {type(value)}")
            if len(value.encode("utf-8")) > self.capacity:
                raise SchemaError(
                    f"column {self.name}: string exceeds capacity "
                    f"{self.capacity}")


@dataclass(frozen=True)
class Schema:
    """A table schema: name, ordered columns, primary key, secondaries.

    ``primary_key`` names one or more columns; ``secondary_indexes``
    maps index name -> tuple of column names (the paper's engines
    support secondary indexes as mappings from secondary key to primary
    key, Section 3.2).
    """

    table: str
    columns: Tuple[Column, ...]
    primary_key: Tuple[str, ...]
    secondary_indexes: Dict[str, Tuple[str, ...]] = field(
        default_factory=dict)

    def __post_init__(self) -> None:
        if not self.table:
            raise SchemaError("table name must be non-empty")
        if not self.columns:
            raise SchemaError(f"table {self.table}: needs columns")
        names = [column.name for column in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"table {self.table}: duplicate column names")
        if not self.primary_key:
            raise SchemaError(f"table {self.table}: needs a primary key")
        known = set(names)
        for name in self.primary_key:
            if name not in known:
                raise SchemaError(
                    f"table {self.table}: unknown primary key column {name}")
        for index_name, index_columns in self.secondary_indexes.items():
            for name in index_columns:
                if name not in known:
                    raise SchemaError(
                        f"table {self.table}: index {index_name} references "
                        f"unknown column {name}")

    @classmethod
    def build(cls, table: str, columns: Sequence[Column],
              primary_key: Sequence[str],
              secondary_indexes: Optional[Dict[str, Sequence[str]]] = None,
              ) -> "Schema":
        """Convenience constructor accepting plain sequences."""
        secondaries = {
            name: tuple(cols)
            for name, cols in (secondary_indexes or {}).items()
        }
        return cls(table, tuple(columns), tuple(primary_key), secondaries)

    @cached_property
    def layout(self) -> "TupleLayout":
        """The compiled tuple layout every codec call reads. Derived
        state: built on first use, outside ``==``, never pickled."""
        from .tuple_codec import TupleLayout
        return TupleLayout(self)

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("layout", None)
        return state

    def column(self, name: str) -> Column:
        position = self.layout.positions.get(name)
        if position is None:
            raise SchemaError(f"table {self.table}: no column {name}")
        return self.columns[position]

    @property
    def column_names(self) -> List[str]:
        return list(self.layout.names)

    @property
    def fixed_slot_size(self) -> int:
        """Bytes of the fixed-size slot (header + 8 bytes per field)."""
        return self.layout.slot.size

    @property
    def inlined_size(self) -> int:
        """Bytes of the fully-inlined layout used on block storage (CoW
        directories, SSTables): strings carry a 4-byte length prefix
        plus their full capacity."""
        return self.layout.inlined.size

    def key_of(self, values: Dict[str, Any]) -> Any:
        """Extract the primary key (scalar for single-column keys)."""
        if len(self.primary_key) == 1:
            return values[self.primary_key[0]]
        return tuple(values[name] for name in self.primary_key)

    def index_key_of(self, index_name: str, values: Dict[str, Any]) -> Any:
        columns = self.secondary_indexes[index_name]
        if len(columns) == 1:
            return values[columns[0]]
        return tuple(values[name] for name in columns)

    def validate(self, values: Dict[str, Any]) -> None:
        """Validate a full tuple against the schema."""
        for column in self.columns:
            if column.name not in values:
                raise SchemaError(
                    f"table {self.table}: missing value for {column.name}")
            column.validate(values[column.name])
        if len(values) != len(self.columns):
            extra = set(values) - self.layout.positions.keys()
            raise SchemaError(
                f"table {self.table}: unknown columns {sorted(extra)}")

    def validate_partial(self, changes: Dict[str, Any]) -> None:
        """Validate an update's changed columns."""
        if not changes:
            raise SchemaError(f"table {self.table}: empty update")
        for name, value in changes.items():
            self.column(name).validate(value)
        for name in self.primary_key:
            if name in changes:
                raise SchemaError(
                    f"table {self.table}: cannot update primary key "
                    f"column {name}")
