"""Table schemas.

Schemas are intentionally light: a named, ordered set of typed columns
plus a primary key.  Types are validated on insert (exactly strict
enough to catch the bugs that matter: a misspelled column, a string
where a number belongs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

_PY_TYPES = {
    "int": int,
    "float": (int, float),
    "text": str,
    "bool": bool,
}


@dataclass(frozen=True, slots=True)
class Column:
    """One typed column.  ``nullable`` permits ``None`` values."""

    name: str
    type: str
    nullable: bool = False

    def __post_init__(self) -> None:
        if self.type not in _PY_TYPES:
            raise ValueError(
                f"unknown column type {self.type!r}; expected one of {sorted(_PY_TYPES)}"
            )

    def validate(self, value: object) -> None:
        """Raise ``TypeError`` unless ``value`` fits the column."""
        if value is None:
            if not self.nullable:
                raise TypeError(f"column {self.name!r} is not nullable")
            return
        expected = _PY_TYPES[self.type]
        if self.type == "float" and isinstance(value, bool):
            raise TypeError(f"column {self.name!r} expects a number, got bool")
        if not isinstance(value, expected):
            raise TypeError(
                f"column {self.name!r} expects {self.type}, got {type(value).__name__}"
            )


@dataclass(frozen=True)
class TableSchema:
    """An ordered column list with a (possibly composite) primary key."""

    name: str
    columns: tuple[Column, ...]
    primary_key: tuple[str, ...]
    _by_name: dict[str, Column] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValueError("a table needs at least one column")
        by_name = {}
        for column in self.columns:
            if column.name in by_name:
                raise ValueError(f"duplicate column {column.name!r}")
            by_name[column.name] = column
        if not self.primary_key:
            raise ValueError("a table needs a primary key")
        for key_col in self.primary_key:
            if key_col not in by_name:
                raise ValueError(f"primary key column {key_col!r} not in schema")
            if by_name[key_col].nullable:
                raise ValueError(f"primary key column {key_col!r} cannot be nullable")
        object.__setattr__(self, "_by_name", by_name)

    @classmethod
    def of(
        cls,
        name: str,
        columns: list[tuple[str, str]] | list[Column],
        primary_key: list[str] | tuple[str, ...],
    ) -> "TableSchema":
        """Convenience constructor from ``(name, type)`` pairs."""
        cols = tuple(
            c if isinstance(c, Column) else Column(name=c[0], type=c[1]) for c in columns
        )
        return cls(name=name, columns=cols, primary_key=tuple(primary_key))

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"table {self.name!r} has no column {name!r}") from None

    def validate_row(self, row: dict[str, object]) -> None:
        """Check a full row against the schema."""
        unknown = set(row) - set(self._by_name)
        if unknown:
            raise KeyError(f"unknown columns for {self.name!r}: {sorted(unknown)}")
        for column in self.columns:
            if column.name not in row:
                if column.nullable:
                    continue
                raise KeyError(f"missing column {column.name!r} for {self.name!r}")
            column.validate(row[column.name])

    def key_of(self, row: dict[str, object]) -> tuple:
        """Primary key tuple of a row."""
        return tuple(row[k] for k in self.primary_key)
