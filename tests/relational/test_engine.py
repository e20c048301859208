import pytest

from repro.relational import Database, TableSchema, col


@pytest.fixture
def db() -> Database:
    db = Database()
    db.create_table(TableSchema.of("t", [("id", "int"), ("v", "float")], ["id"]))
    db.insert("t", [{"id": i, "v": float(i)} for i in range(5)])
    return db


class TestDDL:
    def test_duplicate_table_rejected(self, db):
        with pytest.raises(ValueError):
            db.create_table(TableSchema.of("t", [("id", "int")], ["id"]))

    def test_unknown_table_rejected(self, db):
        with pytest.raises(KeyError):
            db.table("nope")

    def test_table_names(self, db):
        assert db.table_names() == ["t"]


class TestDML:
    def test_insert_returns_count(self, db):
        assert db.insert("t", [{"id": 10, "v": 1.0}]) == 1
        assert len(db.table("t")) == 6

    def test_update_matching_rows(self, db):
        n = db.update("t", {"v": 100.0}, col("id") >= 3)
        assert n == 2
        assert db.table("t").get((3,))["v"] == 100.0
        assert db.table("t").get((0,))["v"] == 0.0

    def test_update_no_match(self, db):
        assert db.update("t", {"v": 1.0}, col("id") == 99) == 0

    def test_delete(self, db):
        assert db.delete("t", col("id") < 2) == 2
        assert len(db.table("t")) == 3

    def test_delete_all(self, db):
        assert db.delete("t") == 5
        assert len(db.table("t")) == 0
