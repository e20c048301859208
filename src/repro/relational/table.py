"""Tables: rows keyed by primary key, with secondary hash indexes.

DML goes through :class:`repro.relational.engine.Database` so that
statement triggers fire; the table itself only manages storage and
index maintenance.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.relational.predicate import AllOf, Comparison, Predicate, TruePredicate
from repro.relational.schema import TableSchema

Row = dict[str, object]


class Table:
    """In-memory heap of rows with a primary key and hash indexes."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._rows: dict[tuple, Row] = {}
        self._indexes: dict[str, dict[object, set[tuple]]] = {}

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows.values())

    def create_index(self, column: str) -> None:
        """Build (or rebuild) a secondary hash index on one column."""
        self.schema.column(column)
        index: dict[object, set[tuple]] = {}
        for key, row in self._rows.items():
            index.setdefault(row.get(column), set()).add(key)
        self._indexes[column] = index

    # ------------------------------------------------------------------
    # Storage primitives (engine-internal; use Database for DML)
    # ------------------------------------------------------------------
    def get(self, key: tuple) -> Row | None:
        row = self._rows.get(key)
        return dict(row) if row is not None else None

    def contains_key(self, key: tuple) -> bool:
        return key in self._rows

    def _store(self, row: Row) -> None:
        self.schema.validate_row(row)
        key = self.schema.key_of(row)
        if key in self._rows:
            raise KeyError(f"duplicate primary key {key} in table {self.schema.name!r}")
        full = {c.name: row.get(c.name) for c in self.schema.columns}
        self._rows[key] = full
        for column, index in self._indexes.items():
            index.setdefault(full.get(column), set()).add(key)

    def _erase(self, key: tuple) -> Row:
        row = self._rows.pop(key)
        for column, index in self._indexes.items():
            bucket = index.get(row.get(column))
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del index[row.get(column)]
        return row

    def _modify(self, key: tuple, changes: Row) -> tuple[Row, Row]:
        """Apply column changes; returns (old, new) copies."""
        if key not in self._rows:
            raise KeyError(f"no row with key {key} in table {self.schema.name!r}")
        old = dict(self._rows[key])
        new = dict(old)
        for column, value in changes.items():
            self.schema.column(column).validate(value)
            new[column] = value
        new_key = self.schema.key_of(new)
        if new_key != key and new_key in self._rows:
            raise KeyError(f"update collides with key {new_key} in {self.schema.name!r}")
        self._erase(key)
        self._store(new)
        return old, new

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def scan(self, where: Predicate | None = None) -> list[Row]:
        """All rows matching a predicate, using hash indexes for
        top-level equality comparisons when available."""
        predicate = where if where is not None else TruePredicate()
        candidates = self._candidate_keys(predicate)
        if candidates is None:
            return [dict(r) for r in self._rows.values() if predicate.matches(r)]
        out = []
        for key in candidates:
            row = self._rows.get(key)
            if row is not None and predicate.matches(row):
                out.append(dict(row))
        return out

    def keys_matching(self, where: Predicate | None = None) -> list[tuple]:
        predicate = where if where is not None else TruePredicate()
        candidates = self._candidate_keys(predicate)
        pool: Iterable[tuple] = candidates if candidates is not None else self._rows
        return [k for k in pool if k in self._rows and predicate.matches(self._rows[k])]

    def _candidate_keys(self, predicate: Predicate) -> set[tuple] | None:
        """Keys from the most selective usable equality index, or None
        when no index applies."""
        comparisons: list[Comparison] = []
        if isinstance(predicate, Comparison):
            comparisons = [predicate]
        elif isinstance(predicate, AllOf):
            comparisons = [p for p in predicate.parts if isinstance(p, Comparison)]
        best: set[tuple] | None = None
        for comp in comparisons:
            if comp.op != "==" or comp.column not in self._indexes:
                continue
            bucket = self._indexes[comp.column].get(comp.value, set())
            if best is None or len(bucket) < len(best):
                best = set(bucket)
        return best
