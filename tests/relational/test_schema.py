import pytest

from repro.relational import Column, TableSchema


class TestColumn:
    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            Column("x", "varchar")

    def test_validate_int(self):
        Column("x", "int").validate(5)
        with pytest.raises(TypeError):
            Column("x", "int").validate("5")

    def test_validate_float_accepts_int(self):
        Column("x", "float").validate(5)
        Column("x", "float").validate(5.0)

    def test_validate_float_rejects_bool(self):
        with pytest.raises(TypeError):
            Column("x", "float").validate(True)

    def test_nullable(self):
        Column("x", "int", nullable=True).validate(None)
        with pytest.raises(TypeError):
            Column("x", "int").validate(None)


class TestTableSchema:
    def test_of_constructor(self):
        s = TableSchema.of("t", [("a", "int"), ("b", "text")], ["a"])
        assert tuple(c.name for c in s.columns) == ("a", "b")
        assert s.primary_key == ("a",)

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            TableSchema.of("t", [("a", "int"), ("a", "int")], ["a"])

    def test_missing_pk_column_rejected(self):
        with pytest.raises(ValueError):
            TableSchema.of("t", [("a", "int")], ["b"])

    def test_nullable_pk_rejected(self):
        with pytest.raises(ValueError):
            TableSchema(
                "t", columns=(Column("a", "int", nullable=True),), primary_key=("a",)
            )

    def test_empty_pk_rejected(self):
        with pytest.raises(ValueError):
            TableSchema.of("t", [("a", "int")], [])

    def test_validate_row(self):
        s = TableSchema.of("t", [("a", "int"), ("b", "float")], ["a"])
        s.validate_row({"a": 1, "b": 2.0})
        with pytest.raises(KeyError):
            s.validate_row({"a": 1})
        with pytest.raises(KeyError):
            s.validate_row({"a": 1, "b": 2.0, "c": 3})

    def test_composite_key_of(self):
        s = TableSchema.of("t", [("a", "int"), ("b", "int"), ("v", "float")], ["a", "b"])
        assert s.key_of({"a": 1, "b": 2, "v": 3.0}) == (1, 2)

    def test_unknown_column_lookup(self):
        s = TableSchema.of("t", [("a", "int")], ["a"])
        with pytest.raises(KeyError):
            s.column("z")
