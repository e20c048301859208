"""Batched slot-cache ingestion vs the one-reading-at-a-time reference.

``COLRTree.insert_readings_batch`` must leave every cache — leaf
contents, ancestor aggregates, registry, eviction bookkeeping — in
exactly the state the sequential ``insert_reading`` loop produces; only
the maintenance-op count may shrink.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import COLRTreeConfig, Reading
from tests.conftest import make_registry, make_tree, slot_ids


def _build_pair(config: COLRTreeConfig | None = None):
    registry = make_registry(n=120, seed=11)
    return make_tree(registry, config=config), make_tree(registry, config=config)


def _cache_state(tree):
    """Full observable cache state of a tree."""
    leaves = {}
    aggs = {}
    for node in tree.nodes():
        if node.is_leaf and node.leaf_cache is not None:
            leaves[node.node_id] = {
                r.sensor_id: (r.value, r.timestamp, r.expires_at)
                for r in (c.reading for c in node.leaf_cache.entries())
            }
        if not node.is_leaf and node.agg_cache is not None:
            aggs[node.node_id] = {
                slot: (
                    sketch.count,
                    sketch.total,
                    sketch.minimum,
                    sketch.maximum,
                    sketch.oldest_timestamp,
                    sketch.minmax_dirty,
                )
                for slot in slot_ids(node.agg_cache)
                for sketch in [node.agg_cache.sketch(slot)]
            }
    return leaves, aggs, tree.cached_reading_count


def _bookkeeping(tree):
    """Insertion orders of the ingest bookkeeping: the global registry
    (slot -> sensor -> fetched_at) and each leaf's sensor and slot
    tables.  Eviction and recomputation iterate these, so batched and
    one-by-one ingestion must leave them in the same order."""
    registry = [(slot, list(m.items())) for slot, m in tree._cache_registry.items()]
    leaves = [
        (
            node.node_id,
            [(sid, c.fetched_at) for sid, c in node.leaf_cache._by_sensor.items()],
            [(slot, sorted(ids)) for slot, ids in node.leaf_cache._slots.items()],
        )
        for node in tree.nodes()
        if node.is_leaf and node.leaf_cache is not None
    ]
    return registry, leaves


def _exact_slot_truth(tree):
    """Ground-truth per-(internal node, slot) aggregates recomputed from
    the leaf contents — what a from-scratch rebuild would hold."""
    from repro.core.slots import slot_of

    truth = {}
    for node in tree.nodes():
        if node.is_leaf or node.agg_cache is None:
            continue
        per_slot = {}
        for descendant in node.iter_subtree():
            if not descendant.is_leaf or descendant.leaf_cache is None:
                continue
            for r in (c.reading for c in descendant.leaf_cache.entries()):
                slot = slot_of(r.expires_at, tree.config.slot_seconds)
                entry = per_slot.setdefault(slot, [])
                entry.append(r)
        truth[node.node_id] = {
            slot: (
                len(rs),
                sum(r.value for r in rs),
                min(r.value for r in rs),
                max(r.value for r in rs),
                min(r.timestamp for r in rs),
            )
            for slot, rs in per_slot.items()
        }
    return truth


def _assert_state_equal(seq_tree, bat_tree):
    """Sequential and batched ingestion must agree on every observable
    that queries consume: leaf contents, registry counts, and per-slot
    count/min/max exactly; ``total`` up to float summation order (the
    grouped delta sums the same values in a different association); and
    ``oldest_timestamp`` either identical or conservatively older than
    the exact value (a displaced interior value's removal never
    recomputes, so whichever path recomputed *later* holds the exact
    timestamp while the other keeps a valid, older bound)."""
    seq_leaves, seq_aggs, seq_count = _cache_state(seq_tree)
    bat_leaves, bat_aggs, bat_count = _cache_state(bat_tree)
    assert seq_leaves == bat_leaves
    assert seq_count == bat_count
    assert seq_aggs.keys() == bat_aggs.keys()
    truth = _exact_slot_truth(seq_tree)
    for node_id in seq_aggs:
        assert seq_aggs[node_id].keys() == bat_aggs[node_id].keys(), node_id
        assert seq_aggs[node_id].keys() == truth[node_id].keys(), node_id
        for slot, s in seq_aggs[node_id].items():
            b = bat_aggs[node_id][slot]
            exact = truth[node_id][slot]
            for got in (s, b):
                assert got[0] == exact[0], (node_id, slot, got, exact)
                assert got[1] == pytest.approx(exact[1], rel=1e-9, abs=1e-9)
                assert got[2] == exact[2] and got[3] == exact[3]
                assert got[4] <= exact[4] + 1e-12  # conservative freshness
                assert got[5] is False  # dirty slots were recomputed
            assert s[1] == pytest.approx(b[1], rel=1e-9, abs=1e-9), (node_id, slot)


def _readings_for(tree, rng, count, now=0.0):
    """Random readings over the tree's sensor population, with repeats
    (updates) and a spread of expiries (multiple slots)."""
    sensor_ids = [s.sensor_id for s in [tree.sensor(i) for i in range(len(tree))]]
    out = []
    for _ in range(count):
        sid = int(rng.choice(sensor_ids))
        timestamp = now + float(rng.uniform(-60, 60))
        lifetime = float(rng.uniform(30, 600))
        out.append(
            Reading(
                sensor_id=sid,
                value=float(rng.uniform(-50, 50)),
                timestamp=timestamp,
                expires_at=timestamp + lifetime,
            )
        )
    return out


class TestBatchedIngestionEquivalence:
    def test_matches_sequential_loop(self):
        seq, bat = _build_pair()
        rng = np.random.default_rng(42)
        readings = _readings_for(seq, rng, 200)
        for r in readings:
            seq.insert_reading(r, fetched_at=100.0)
        seq._enforce_capacity()
        bat.insert_readings_batch(readings, fetched_at=100.0)
        _assert_state_equal(seq, bat)

    def test_repeated_batches_compose(self):
        seq, bat = _build_pair()
        rng = np.random.default_rng(7)
        for wave in range(4):
            readings = _readings_for(seq, rng, 60, now=wave * 90.0)
            for r in readings:
                seq.insert_reading(r, fetched_at=wave * 90.0)
            seq._enforce_capacity()
            bat.insert_readings_batch(readings, fetched_at=wave * 90.0)
            _assert_state_equal(seq, bat)

    def test_updates_displace_and_decrement(self):
        """The same sensor appearing twice in one batch: second value
        wins, ancestors hold exactly one contribution."""
        seq, bat = _build_pair()
        sensors = [seq.sensor(i) for i in range(len(seq))][:5]
        batch = []
        for i, s in enumerate(sensors):
            batch.append(
                Reading(
                    sensor_id=s.sensor_id,
                    value=10.0 + i,
                    timestamp=0.0,
                    expires_at=200.0,
                )
            )
            batch.append(
                Reading(
                    sensor_id=s.sensor_id,
                    value=-3.0 - i,
                    timestamp=5.0,
                    expires_at=500.0,  # different slot than the first
                )
            )
        for r in batch:
            seq.insert_reading(r, fetched_at=0.0)
        seq._enforce_capacity()
        bat.insert_readings_batch(batch, fetched_at=0.0)
        _assert_state_equal(seq, bat)
        leaf = bat.leaf_for(sensors[0].sensor_id)
        assert leaf.leaf_cache.get(sensors[0].sensor_id).reading.value == -3.0

    def test_same_sensor_twice_in_one_slot(self):
        """Both reports of a sensor fall in one expiry slot: the second
        displaces the first out of the slot it is about to re-enter
        (the leaf's slot set empties and is re-made in between)."""
        seq, bat = _build_pair()
        sensor_id = [seq.sensor(i) for i in range(len(seq))][0].sensor_id
        batch = [
            Reading(sensor_id=sensor_id, value=4.0, timestamp=0.0, expires_at=200.0),
            Reading(sensor_id=sensor_id, value=9.0, timestamp=1.0, expires_at=210.0),
        ]
        for r in batch:
            seq.insert_reading(r, fetched_at=2.0)
        assert bat.insert_readings_batch(batch, fetched_at=2.0) == 12
        _assert_state_equal(seq, bat)
        assert _bookkeeping(seq) == _bookkeeping(bat)
        cached = bat.leaf_for(sensor_id).leaf_cache.get(sensor_id)
        assert (cached.reading.value, cached.fetched_at) == (9.0, 2.0)
        assert bat.cached_reading_count == 1

    def test_scripted_batches_match_one_by_one_exactly(self):
        """Integer-valued readings make every float sum exact, so the
        grouped deltas must reproduce the one-by-one loop bit for bit —
        totals and the insertion order of every bookkeeping dict
        included.  The op counts are what ``insert_readings_batch``
        returned before ingestion became single-pass (PR 17): the
        modeled maintenance cost may not move."""
        seq, bat = _build_pair(
            COLRTreeConfig(
                max_expiry_seconds=600.0, slot_seconds=120.0, fanout=3, leaf_capacity=8
            )
        )
        assert seq.height() >= 3
        sensors = [seq.sensor(i) for i in range(len(seq))]
        first = [
            Reading(
                sensor_id=s.sensor_id,
                value=float(i % 7 - 3),
                timestamp=float(i % 5),
                expires_at=130.0 + 120.0 * (i % 3),
            )
            for i, s in enumerate(sensors[:60])
        ]
        # Updates: some stay in their slot, some move, extremes leave
        # (min/max recomputation), and three sensors report twice.
        second = [
            Reading(
                sensor_id=s.sensor_id,
                value=float(11 - i % 23),
                timestamp=20.0 + i % 4,
                expires_at=140.0 + 120.0 * (i % 4),
            )
            for i, s in enumerate(sensors[10:90:2])
        ]
        second += [
            Reading(sensor_id=s.sensor_id, value=-8.0, timestamp=25.0, expires_at=400.0)
            for s in sensors[10:16:2]
        ]
        ops = []
        for fetched_at, batch in ((5.0, first), (30.0, second)):
            for r in batch:
                seq.insert_reading(r, fetched_at=fetched_at)
            ops.append(bat.insert_readings_batch(batch, fetched_at=fetched_at))
            seq_leaves, seq_aggs, seq_count = _cache_state(seq)
            bat_leaves, bat_aggs, bat_count = _cache_state(bat)
            assert (seq_leaves, seq_count) == (bat_leaves, bat_count)
            # count, total, minimum, maximum — exactly.
            assert {
                node: {slot: agg[:4] for slot, agg in slots.items()}
                for node, slots in seq_aggs.items()
            } == {
                node: {slot: agg[:4] for slot, agg in slots.items()}
                for node, slots in bat_aggs.items()
            }
            assert _bookkeeping(seq) == _bookkeeping(bat)
        assert ops == [99, 160]

    def test_fewer_maintenance_ops_than_sequential(self):
        seq, bat = _build_pair()
        rng = np.random.default_rng(3)
        readings = _readings_for(seq, rng, 150)
        seq_ops = sum(seq.insert_reading(r, fetched_at=0.0) for r in readings)
        seq_ops += seq._enforce_capacity()
        bat_ops = bat.insert_readings_batch(readings, fetched_at=0.0)
        assert bat_ops < seq_ops
        _assert_state_equal(seq, bat)

    def test_caching_disabled_is_noop(self):
        registry = make_registry(n=40, seed=2)
        cfg = COLRTreeConfig(caching_enabled=False, max_expiry_seconds=600.0)
        tree = make_tree(registry, config=cfg)
        readings = _readings_for(tree, np.random.default_rng(0), 20)
        assert tree.insert_readings_batch(readings, fetched_at=0.0) == 0

    def test_unknown_sensor_raises(self):
        tree = make_tree(make_registry(n=20, seed=4))
        bogus = Reading(sensor_id=999_999, value=1.0, timestamp=0.0, expires_at=60.0)
        try:
            tree.insert_readings_batch([bogus], fetched_at=0.0)
        except KeyError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected KeyError for unindexed sensor")

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 80))
    def test_equivalence_property(self, seed, count):
        seq, bat = _build_pair()
        rng = np.random.default_rng(seed)
        readings = _readings_for(seq, rng, count)
        for r in readings:
            seq.insert_reading(r, fetched_at=50.0)
        seq._enforce_capacity()
        bat.insert_readings_batch(readings, fetched_at=50.0)
        _assert_state_equal(seq, bat)


class TestClearCaches:
    def test_resets_to_cold(self):
        tree = make_tree(make_registry(n=60, seed=6))
        readings = _readings_for(tree, np.random.default_rng(1), 80)
        tree.insert_readings_batch(readings, fetched_at=0.0)
        assert tree.cached_reading_count > 0
        tree.clear_caches()
        assert tree.cached_reading_count == 0
        cold = make_tree(make_registry(n=60, seed=6))
        assert _cache_state(tree) == _cache_state(cold)
