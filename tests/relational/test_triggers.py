import pytest

from repro.relational import Database, TableSchema, Trigger, TriggerEvent, col
from repro.relational.triggers import TriggerInvocation, TriggerSet


def fresh_db() -> Database:
    db = Database()
    db.create_table(TableSchema.of("a", [("id", "int"), ("v", "float")], ["id"]))
    db.create_table(TableSchema.of("log", [("seq", "int"), ("msg", "text")], ["seq"]))
    return db


class TestDispatch:
    def test_insert_trigger_receives_statement_rows(self):
        db = fresh_db()
        seen = []
        db.create_trigger(
            Trigger(
                "t1",
                "a",
                TriggerEvent.INSERT,
                lambda d, inv: seen.append([r["id"] for r in inv.inserted]),
            )
        )
        db.insert("a", [{"id": 1, "v": 1.0}, {"id": 2, "v": 2.0}])
        # Statement-level: one invocation for the whole insert.
        assert seen == [[1, 2]]

    def test_update_trigger_gets_old_and_new(self):
        db = fresh_db()
        captured = {}
        def body(d, inv):
            captured["old"] = inv.deleted[0]["v"]
            captured["new"] = inv.inserted[0]["v"]
        db.create_trigger(Trigger("t1", "a", TriggerEvent.UPDATE, body))
        db.insert("a", [{"id": 1, "v": 1.0}])
        db.update("a", {"v": 9.0}, col("id") == 1)
        assert captured == {"old": 1.0, "new": 9.0}

    def test_delete_trigger_gets_old_rows(self):
        db = fresh_db()
        seen = []
        db.create_trigger(
            Trigger(
                "t1",
                "a",
                TriggerEvent.DELETE,
                lambda d, inv: seen.extend(r["id"] for r in inv.deleted),
            )
        )
        db.insert("a", [{"id": 1, "v": 1.0}, {"id": 2, "v": 2.0}])
        db.delete("a", col("id") == 2)
        assert seen == [2]

    def test_no_fire_on_empty_statement(self):
        db = fresh_db()
        fired = []
        db.create_trigger(
            Trigger("t1", "a", TriggerEvent.DELETE, lambda d, inv: fired.append(1))
        )
        db.delete("a", col("id") == 99)
        assert fired == []

    def test_trigger_on_unknown_table_rejected(self):
        db = fresh_db()
        with pytest.raises(KeyError):
            db.create_trigger(
                Trigger("t1", "nope", TriggerEvent.INSERT, lambda d, inv: None)
            )


class TestCascade:
    def test_trigger_dml_fires_further_triggers(self):
        db = fresh_db()
        db.create_table(TableSchema.of("b", [("id", "int")], ["id"]))
        def into_b(d, inv):
            d.insert("b", [{"id": r["id"]} for r in inv.inserted])
        log = []
        db.create_trigger(Trigger("a_to_b", "a", TriggerEvent.INSERT, into_b))
        db.create_trigger(
            Trigger(
                "b_log",
                "b",
                TriggerEvent.INSERT,
                lambda d, inv: log.extend(r["id"] for r in inv.inserted),
            )
        )
        db.insert("a", [{"id": 7, "v": 0.0}])
        assert log == [7]
        assert len(db.table("b")) == 1

    def test_infinite_cascade_guarded(self):
        db = fresh_db()
        def recurse(d, inv):
            next_id = max(r["id"] for r in inv.inserted) + 1
            d.insert("a", [{"id": next_id, "v": 0.0}])
        db.create_trigger(Trigger("loop", "a", TriggerEvent.INSERT, recurse))
        with pytest.raises(RecursionError):
            db.insert("a", [{"id": 0, "v": 0.0}])


class TestTriggerSet:
    def test_duplicate_name_rejected(self):
        ts = TriggerSet()
        t = Trigger("x", "a", TriggerEvent.INSERT, lambda d, inv: None)
        ts.register(t)
        with pytest.raises(ValueError):
            ts.register(t)

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError):
            TriggerSet(max_depth=0)

    def test_fire_without_bindings_is_noop(self):
        ts = TriggerSet()
        ts.fire(None, TriggerInvocation(table="a", event=TriggerEvent.INSERT))
