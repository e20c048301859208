import pytest

from repro.relational import TableSchema, col
from repro.relational.table import Table


@pytest.fixture
def table() -> Table:
    schema = TableSchema.of(
        "readings",
        [("id", "int"), ("slot", "int"), ("value", "float")],
        ["id"],
    )
    t = Table(schema)
    for i in range(10):
        t._store({"id": i, "slot": i % 3, "value": float(i)})
    return t


class TestStorage:
    def test_len_and_iter(self, table):
        assert len(table) == 10
        assert len(list(table)) == 10

    def test_duplicate_pk_rejected(self, table):
        with pytest.raises(KeyError):
            table._store({"id": 3, "slot": 0, "value": 0.0})

    def test_get_returns_copy(self, table):
        row = table.get((3,))
        row["value"] = 999.0
        assert table.get((3,))["value"] == 3.0

    def test_get_missing(self, table):
        assert table.get((99,)) is None

    def test_erase(self, table):
        table._erase((3,))
        assert len(table) == 9
        assert not table.contains_key((3,))

    def test_modify_returns_old_and_new(self, table):
        old, new = table._modify((3,), {"value": 30.0})
        assert old["value"] == 3.0 and new["value"] == 30.0
        assert table.get((3,))["value"] == 30.0

    def test_modify_missing_rejected(self, table):
        with pytest.raises(KeyError):
            table._modify((99,), {"value": 1.0})

    def test_modify_key_collision_rejected(self, table):
        with pytest.raises(KeyError):
            table._modify((3,), {"id": 4})


class TestScanAndIndex:
    def test_scan_all(self, table):
        assert len(table.scan()) == 10

    def test_scan_with_predicate(self, table):
        rows = table.scan(col("slot") == 1)
        assert {r["id"] for r in rows} == {1, 4, 7}

    def test_index_used_and_maintained(self, table):
        table.create_index("slot")
        assert {r["id"] for r in table.scan(col("slot") == 1)} == {1, 4, 7}
        table._erase((4,))
        assert {r["id"] for r in table.scan(col("slot") == 1)} == {1, 7}
        table._store({"id": 40, "slot": 1, "value": 0.0})
        assert {r["id"] for r in table.scan(col("slot") == 1)} == {1, 7, 40}

    def test_index_with_conjunction(self, table):
        table.create_index("slot")
        rows = table.scan((col("slot") == 1) & (col("value") > 2.0))
        assert {r["id"] for r in rows} == {4, 7}

    def test_index_after_modify(self, table):
        table.create_index("slot")
        table._modify((1,), {"slot": 2})
        assert 1 not in {r["id"] for r in table.scan(col("slot") == 1)}
        assert 1 in {r["id"] for r in table.scan(col("slot") == 2)}

    def test_keys_matching(self, table):
        assert sorted(table.keys_matching(col("value") >= 8.0)) == [(8,), (9,)]

    def test_index_on_unknown_column_rejected(self, table):
        with pytest.raises(KeyError):
            table.create_index("nope")
