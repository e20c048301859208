import pytest

from repro.geometry import Rect
from repro.relational import (
    AllOf,
    BBoxIntersects,
    Comparison,
    InSet,
    TruePredicate,
    col,
)


ROW = {"a": 5, "b": 2.5, "s": "x", "n": None}


class TestComparison:
    def test_operators(self):
        assert Comparison("a", "==", 5).matches(ROW)
        assert Comparison("a", "!=", 4).matches(ROW)
        assert Comparison("a", "<", 6).matches(ROW)
        assert Comparison("a", "<=", 5).matches(ROW)
        assert Comparison("a", ">", 4).matches(ROW)
        assert Comparison("a", ">=", 5).matches(ROW)
        assert not Comparison("a", ">", 5).matches(ROW)

    def test_null_never_matches(self):
        assert not Comparison("n", "==", None).matches(ROW)
        assert not Comparison("missing", "==", 1).matches(ROW)

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            Comparison("a", "~", 1)


class TestCombinators:

    def test_in_set(self):
        assert InSet("s", ["x", "y"]).matches(ROW)
        assert not InSet("s", ["y"]).matches(ROW)

    def test_all_of(self):
        p = AllOf([Comparison("a", ">", 1), Comparison("b", "<", 3)])
        assert p.matches(ROW)
        assert not AllOf([Comparison("a", ">", 9), TruePredicate()]).matches(ROW)

    def test_operator_overloads(self):
        p = (col("a") > 1) & (col("b") < 3)
        assert p.matches(ROW)

    def test_col_builder(self):
        assert (col("a") == 5).matches(ROW)
        assert (col("a") != 6).matches(ROW)
        assert col("s").in_(["x"]).matches(ROW)


class TestBBoxIntersects:
    def test_intersecting(self):
        row = {"min_x": 0.0, "min_y": 0.0, "max_x": 2.0, "max_y": 2.0}
        p = BBoxIntersects("min_x", "min_y", "max_x", "max_y", Rect(1, 1, 3, 3))
        assert p.matches(row)

    def test_disjoint(self):
        row = {"min_x": 0.0, "min_y": 0.0, "max_x": 2.0, "max_y": 2.0}
        p = BBoxIntersects("min_x", "min_y", "max_x", "max_y", Rect(5, 5, 6, 6))
        assert not p.matches(row)

    def test_missing_columns_never_match(self):
        p = BBoxIntersects("min_x", "min_y", "max_x", "max_y", Rect(0, 0, 1, 1))
        assert not p.matches({"min_x": 0.0})
