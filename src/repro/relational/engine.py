"""The database facade: DDL, trigger registration, and DML with
statement-trigger dispatch, plus the GROUP BY the cache reads use.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.relational.predicate import Predicate, TruePredicate
from repro.relational.schema import TableSchema
from repro.relational.table import Row, Table
from repro.relational.triggers import Trigger, TriggerEvent, TriggerInvocation, TriggerSet


class Database:
    """A named collection of tables plus a trigger set."""

    def __init__(self, max_trigger_depth: int = 32) -> None:
        self._tables: dict[str, Table] = {}
        self._triggers = TriggerSet(max_depth=max_trigger_depth)

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def create_table(self, schema: TableSchema) -> Table:
        if schema.name in self._tables:
            raise ValueError(f"table {schema.name!r} already exists")
        table = Table(schema)
        self._tables[schema.name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"no table named {name!r}") from None

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def create_trigger(self, trigger: Trigger) -> None:
        if trigger.table not in self._tables:
            raise KeyError(f"trigger targets unknown table {trigger.table!r}")
        self._triggers.register(trigger)

    # ------------------------------------------------------------------
    # DML (statement-level, trigger-firing)
    # ------------------------------------------------------------------
    def insert(self, table_name: str, rows: Iterable[Row]) -> int:
        """Insert rows as one statement; fires AFTER INSERT once."""
        table = self.table(table_name)
        inserted: list[Row] = []
        for row in rows:
            table._store(dict(row))
            inserted.append(table.get(table.schema.key_of(row)))  # type: ignore[arg-type]
        if inserted:
            self._triggers.fire(
                self,
                TriggerInvocation(
                    table=table_name,
                    event=TriggerEvent.INSERT,
                    inserted=tuple(inserted),
                ),
            )
        return len(inserted)

    def update(
        self,
        table_name: str,
        changes: Row,
        where: Predicate | None = None,
    ) -> int:
        """Set columns on matching rows; fires AFTER UPDATE once with
        old and new row images."""
        table = self.table(table_name)
        keys = table.keys_matching(where if where is not None else TruePredicate())
        old_rows: list[Row] = []
        new_rows: list[Row] = []
        for key in keys:
            old, new = table._modify(key, changes)
            old_rows.append(old)
            new_rows.append(new)
        if keys:
            self._triggers.fire(
                self,
                TriggerInvocation(
                    table=table_name,
                    event=TriggerEvent.UPDATE,
                    inserted=tuple(new_rows),
                    deleted=tuple(old_rows),
                ),
            )
        return len(keys)

    def delete(self, table_name: str, where: Predicate | None = None) -> int:
        """Delete matching rows; fires AFTER DELETE once."""
        table = self.table(table_name)
        keys = table.keys_matching(where if where is not None else TruePredicate())
        deleted = [table._erase(key) for key in keys]
        if deleted:
            self._triggers.fire(
                self,
                TriggerInvocation(
                    table=table_name,
                    event=TriggerEvent.DELETE,
                    deleted=tuple(dict(r) for r in deleted),
                ),
            )
        return len(deleted)

    def group_aggregate(
        self,
        table_name: str,
        group_by: Sequence[str],
        value_column: str,
        where: Predicate | None = None,
    ) -> list[Row]:
        """GROUP BY with the standard aggregates over one value column.

        Returns one row per group carrying the grouping columns plus
        ``count`` / ``sum`` / ``min`` / ``max`` of the (non-null)
        values — the shape the access methods need when they aggregate
        cache value weights across slots (Section VI-A).
        """
        if not group_by:
            raise ValueError("group_by needs at least one column")
        table = self.table(table_name)
        for column in list(group_by) + [value_column]:
            table.schema.column(column)
        groups: dict[tuple, dict] = {}
        for row in table.scan(where):
            key = tuple(row.get(c) for c in group_by)
            acc = groups.get(key)
            if acc is None:
                acc = {c: row.get(c) for c in group_by}
                acc.update({"count": 0, "sum": 0.0, "min": None, "max": None})
                groups[key] = acc
            value = row.get(value_column)
            if value is None:
                continue
            v = float(value)  # type: ignore[arg-type]
            acc["count"] += 1
            acc["sum"] += v
            acc["min"] = v if acc["min"] is None else min(acc["min"], v)
            acc["max"] = v if acc["max"] is None else max(acc["max"], v)
        return [groups[k] for k in sorted(groups, key=repr)]
