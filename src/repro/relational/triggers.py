"""Statement-level AFTER triggers.

The paper's cache maintenance runs as four SQL Server triggers that fire
after DML on the leaf-cache and cache tables, cascading updates to the
root (Section VI-B).  ``Trigger`` models exactly that: a callback bound
to (table, event) invoked once per DML *statement* with the affected
rows; trigger bodies may themselves issue DML, firing further triggers,
bounded by a cascade-depth guard (SQL Server's nesting limit is 32 —
we default to the same).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.relational.engine import Database
    from repro.relational.table import Row


class TriggerEvent(enum.Enum):
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"


@dataclass(frozen=True)
class TriggerInvocation:
    """What a trigger body receives.

    ``inserted`` carries new row images (INSERT and UPDATE); ``deleted``
    carries old row images (DELETE and UPDATE) — mirroring SQL Server's
    ``inserted`` / ``deleted`` pseudo-tables.
    """

    table: str
    event: TriggerEvent
    inserted: tuple["Row", ...] = field(default_factory=tuple)
    deleted: tuple["Row", ...] = field(default_factory=tuple)


TriggerBody = Callable[["Database", TriggerInvocation], None]


@dataclass(frozen=True)
class Trigger:
    """An AFTER trigger definition."""

    name: str
    table: str
    event: TriggerEvent
    body: TriggerBody


class TriggerSet:
    """Registry + dispatcher with cascade-depth protection."""

    def __init__(self, max_depth: int = 32) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be positive")
        self._triggers: dict[tuple[str, TriggerEvent], list[Trigger]] = {}
        self._names: set[str] = set()
        self._max_depth = max_depth
        self._depth = 0

    def register(self, trigger: Trigger) -> None:
        if trigger.name in self._names:
            raise ValueError(f"duplicate trigger name {trigger.name!r}")
        self._names.add(trigger.name)
        self._triggers.setdefault((trigger.table, trigger.event), []).append(trigger)

    def triggers_for(self, table: str, event: TriggerEvent) -> Sequence[Trigger]:
        return tuple(self._triggers.get((table, event), ()))

    def fire(self, db: "Database", invocation: TriggerInvocation) -> None:
        """Run every trigger bound to the invocation's (table, event)."""
        bound = self.triggers_for(invocation.table, invocation.event)
        if not bound:
            return
        if self._depth >= self._max_depth:
            raise RecursionError(
                f"trigger cascade exceeded depth {self._max_depth} at "
                f"{invocation.table}/{invocation.event.value}"
            )
        self._depth += 1
        try:
            for trigger in bound:
                trigger.body(db, invocation)
        finally:
            self._depth -= 1
