"""A miniature in-memory relational engine with statement triggers.

The paper implements COLR-Tree *entirely on top of SQL Server 2005*,
representing the tree and its caches as relations, traversing by
multiway joins, and maintaining the caches with four AFTER triggers
(Section VI).  To reproduce that design faithfully without SQL Server,
this package provides the minimal relational substrate it needs:

* typed tables with primary keys and secondary hash indexes,
* declarative predicates (column comparisons, conjunctions, spatial
  bounding-box tests),
* statement-level AFTER INSERT / UPDATE / DELETE triggers with cascade
  (triggers may issue DML that fires further triggers), and
* a GROUP BY aggregate.

:mod:`repro.relcolr` builds the layer-table / cache-table COLR-Tree on
top of this engine.
"""

from repro.relational.schema import Column, TableSchema
from repro.relational.predicate import (
    AllOf,
    BBoxIntersects,
    Comparison,
    InSet,
    Predicate,
    TruePredicate,
    col,
)
from repro.relational.table import Row, Table
from repro.relational.triggers import Trigger, TriggerEvent
from repro.relational.engine import Database

__all__ = [
    "AllOf",
    "BBoxIntersects",
    "Column",
    "Comparison",
    "Database",
    "InSet",
    "Predicate",
    "Row",
    "Table",
    "TableSchema",
    "Trigger",
    "TriggerEvent",
    "TruePredicate",
    "col",
]
