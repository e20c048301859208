"""Declarative row predicates.

Predicates are small composable objects evaluated per row.  Comparisons
additionally expose their column and operator so tables can satisfy
equality predicates from hash indexes instead of scanning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.geometry import Rect

Row = Mapping[str, object]


class Predicate:
    """Base class; subclasses implement ``matches``."""

    def __and__(self, other: "Predicate") -> "AllOf":
        return AllOf([self, other])


@dataclass(frozen=True)
class TruePredicate(Predicate):
    """Matches every row (the default WHERE clause)."""

    def matches(self, row: Row) -> bool:
        return True


_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Comparison(Predicate):
    """``row[column] <op> value``; null column values never match."""

    column: str
    op: str
    value: object

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown operator {self.op!r}")

    def matches(self, row: Row) -> bool:
        actual = row.get(self.column)
        if actual is None:
            return False
        return _OPS[self.op](actual, self.value)


@dataclass(frozen=True)
class InSet(Predicate):
    """Column-in-collection membership test."""

    column: str
    values: frozenset

    def __init__(self, column: str, values: Iterable[object]) -> None:
        object.__setattr__(self, "column", column)
        object.__setattr__(self, "values", frozenset(values))

    def matches(self, row: Row) -> bool:
        return row.get(self.column) in self.values


@dataclass(frozen=True)
class BBoxIntersects(Predicate):
    """Spatial filter: the row's stored bounding box (four float
    columns) intersects a query rectangle — the join predicate of the
    paper's layer-table traversal."""

    min_x_col: str
    min_y_col: str
    max_x_col: str
    max_y_col: str
    region: Rect

    def matches(self, row: Row) -> bool:
        try:
            box = Rect(
                float(row[self.min_x_col]),
                float(row[self.min_y_col]),
                float(row[self.max_x_col]),
                float(row[self.max_y_col]),
            )
        except (KeyError, TypeError):
            return False
        return self.region.intersects(box)


@dataclass(frozen=True)
class AllOf(Predicate):
    """Conjunction."""

    parts: tuple[Predicate, ...]

    def __init__(self, parts: Iterable[Predicate]) -> None:
        object.__setattr__(self, "parts", tuple(parts))

    def matches(self, row: Row) -> bool:
        return all(p.matches(row) for p in self.parts)


class _ColumnExpr:
    """Fluent builder: ``col("x") >= 3`` produces a Comparison."""

    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def __eq__(self, value: object) -> Comparison:  # type: ignore[override]
        return Comparison(self._name, "==", value)

    def __ne__(self, value: object) -> Comparison:  # type: ignore[override]
        return Comparison(self._name, "!=", value)

    def __lt__(self, value: object) -> Comparison:
        return Comparison(self._name, "<", value)

    def __gt__(self, value: object) -> Comparison:
        return Comparison(self._name, ">", value)

    def __ge__(self, value: object) -> Comparison:
        return Comparison(self._name, ">=", value)

    def in_(self, values: Iterable[object]) -> InSet:
        return InSet(self._name, values)

    __hash__ = None  # type: ignore[assignment]


def col(name: str) -> _ColumnExpr:
    """Column expression entry point: ``col("slot_id") >= 4``."""
    return _ColumnExpr(name)
