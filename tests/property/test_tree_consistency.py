"""Randomized consistency testing of the cache-maintenance machinery.

A long random sequence of inserts, updates, evictions, expiry rolls and
queries must preserve the structural invariants:

* every internal (node, slot) aggregate equals the recomputation from
  its children (the trigger-equivalence invariant);
* the global cached-reading count matches the per-leaf contents and the
  slot registry;
* the capacity constraint is never violated after enforcement.

This is a differential/metamorphic test rather than a Hypothesis one
because building a tree per example would dominate runtime; a seeded
RNG drives long operation sequences instead.
"""

import numpy as np
import pytest

from repro import COLRTreeConfig, Reading, Rect

from tests.conftest import leaves, make_registry, make_tree, slot_ids


def check_invariants(tree):
    # (1) aggregate consistency at every internal node and slot
    for node in tree.root.iter_subtree():
        if node.is_leaf or node.agg_cache is None:
            continue
        for slot in slot_ids(node.agg_cache):
            cached = node.agg_cache.sketch(slot)
            recomputed = tree._recompute_slot(node, slot)
            assert cached.count == recomputed.count, (node.node_id, slot)
            assert cached.total == pytest.approx(recomputed.total, abs=1e-6)
            if not cached.minmax_dirty and not recomputed.is_empty:
                assert cached.minimum == pytest.approx(recomputed.minimum)
                assert cached.maximum == pytest.approx(recomputed.maximum)
    # (2) global count vs leaf contents vs registry
    leaf_total = sum(
        len(n.leaf_cache) for n in leaves(tree.root) if n.leaf_cache is not None
    )
    registry_total = sum(len(m) for m in tree._cache_registry.values())
    assert tree.cached_reading_count == leaf_total == registry_total
    # (3) capacity
    if tree.config.cache_capacity is not None:
        assert tree.cached_reading_count <= tree.config.cache_capacity


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("capacity", [None, 60])
def test_random_operation_sequences_preserve_invariants(seed, capacity):
    registry = make_registry(n=250, seed=seed, expiry_range=(60.0, 600.0))
    tree = make_tree(
        registry,
        COLRTreeConfig(
            fanout=4,
            leaf_capacity=16,
            max_expiry_seconds=600.0,
            slot_seconds=120.0,
            cache_capacity=capacity,
        ),
        network_seed=seed,
    )
    rng = np.random.default_rng(seed + 100)
    sensors = registry.all()
    now = 0.0
    for step in range(300):
        now += float(rng.exponential(5.0))
        op = rng.random()
        if op < 0.5:
            # insert/update a random sensor's reading
            sensor = sensors[int(rng.integers(len(sensors)))]
            tree.insert_reading(
                Reading(
                    sensor_id=sensor.sensor_id,
                    value=float(rng.uniform(-50, 50)),
                    timestamp=now,
                    expires_at=now + sensor.expiry_seconds,
                ),
                fetched_at=now,
            )
            tree._enforce_capacity()
        elif op < 0.7:
            # expiry roll
            tree._prune_expired(now)
        elif op < 0.9:
            # sampled query (also probes + caches via the network)
            x = float(rng.uniform(0, 60))
            y = float(rng.uniform(0, 60))
            tree.query(
                Rect(x, y, x + 40, y + 40),
                now=now,
                max_staleness=float(rng.uniform(30, 600)),
                sample_size=int(rng.integers(5, 40)),
            )
        else:
            # exact query
            tree.query(
                Rect(10, 10, 90, 90), now=now, max_staleness=300.0, sample_size=0
            )
        if step % 25 == 0:
            check_invariants(tree)
    check_invariants(tree)


def test_long_time_jumps_expire_everything():
    registry = make_registry(n=120, seed=9)
    tree = make_tree(registry)
    rng = np.random.default_rng(9)
    now = 0.0
    for _ in range(10):
        for sensor in registry.all()[:40]:
            tree.insert_reading(
                Reading(
                    sensor_id=sensor.sensor_id,
                    value=float(rng.uniform(0, 10)),
                    timestamp=now,
                    expires_at=now + sensor.expiry_seconds,
                ),
                fetched_at=now,
            )
        now += 100_000.0  # everything expires
        tree._prune_expired(now)
        assert tree.cached_reading_count == 0
        check_invariants(tree)
