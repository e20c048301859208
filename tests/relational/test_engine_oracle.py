"""Stateful differential test: random DML against a dict oracle.

Hypothesis drives arbitrary insert / update / delete sequences
against both the relational engine and a plain-dict model; after every
step the full table contents must agree, and reads through indexes must
match brute-force filtering.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import Database, TableSchema, col


def fresh_db(indexed: bool) -> Database:
    db = Database()
    table = db.create_table(
        TableSchema.of(
            "t", [("id", "int"), ("bucket", "int"), ("v", "float")], ["id"]
        )
    )
    if indexed:
        table.create_index("bucket")
    return db


op_strategy = st.one_of(
    st.tuples(
        st.just("insert"),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=5),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
    ),
    st.tuples(
        st.just("update"),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=5),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
    ),
    st.tuples(
        st.just("delete"),
        st.integers(min_value=0, max_value=30),
        st.just(0),
        st.just(0.0),
    ),
    st.tuples(
        st.just("delete_bucket"),
        st.integers(min_value=0, max_value=5),
        st.just(0),
        st.just(0.0),
    ),
)


@given(st.lists(op_strategy, max_size=60), st.booleans())
@settings(max_examples=150, deadline=None)
def test_engine_matches_dict_oracle(ops, indexed):
    db = fresh_db(indexed)
    oracle: dict[int, dict] = {}
    for op, a, b, c in ops:
        if op == "insert":
            row = {"id": a, "bucket": b, "v": c}
            if a in oracle:
                try:
                    db.insert("t", [row])
                    raise AssertionError("duplicate pk accepted")
                except KeyError:
                    pass
            else:
                db.insert("t", [row])
                oracle[a] = row
        elif op == "update":
            n = db.update("t", {"bucket": b, "v": c}, col("id") == a)
            if a in oracle:
                assert n == 1
                oracle[a] = {"id": a, "bucket": b, "v": c}
            else:
                assert n == 0
        elif op == "delete":
            n = db.delete("t", col("id") == a)
            assert n == (1 if a in oracle else 0)
            oracle.pop(a, None)
        elif op == "delete_bucket":
            n = db.delete("t", col("bucket") == a)
            victims = [k for k, row in oracle.items() if row["bucket"] == a]
            assert n == len(victims)
            for k in victims:
                del oracle[k]
        # Full-state agreement after every operation.
        rows = {r["id"]: r for r in db.table("t").scan()}
        assert rows == oracle
    # Indexed reads agree with brute force at the end.
    for bucket in range(6):
        expected = sorted(k for k, row in oracle.items() if row["bucket"] == bucket)
        got = sorted(r["id"] for r in db.table("t").scan(col("bucket") == bucket))
        assert got == expected
