"""Reversible aggregation materialization (the paper's future-work
extension, Section VII-D): cached aggregates decomposed to the target.
"""

import numpy as np
import pytest

from repro import COLRTreeConfig, Rect

from tests.conftest import make_registry, make_tree, within


def warm_tree(reversible: bool, seed: int = 20):
    registry = make_registry(n=600, seed=seed)
    tree = make_tree(
        registry,
        COLRTreeConfig(
            fanout=4,
            leaf_capacity=16,
            max_expiry_seconds=600.0,
            slot_seconds=120.0,
            reversible_aggregates=reversible,
        ),
        network_seed=seed,
    )
    # Warm the cache completely: everything answered from cache next.
    tree.query(Rect(0, 0, 100, 100), now=0.0, max_staleness=600.0, sample_size=0)
    return registry, tree


class TestDecomposition:
    def test_overdelivery_without_decomposition(self):
        _, tree = warm_tree(reversible=False)
        answer = tree.query(
            Rect(0, 0, 100, 100), now=1.0, max_staleness=600.0, sample_size=20
        )
        # The whole-region aggregate over-delivers massively.
        assert answer.result_weight > 100

    def test_decomposition_tracks_target(self):
        _, tree = warm_tree(reversible=True)
        answer = tree.query(
            Rect(0, 0, 100, 100), now=1.0, max_staleness=600.0, sample_size=20
        )
        assert answer.stats.sensors_probed == 0  # still fully cache-served
        assert 20 <= answer.result_weight <= 60  # near the target, not 600

    def test_decomposition_reduces_pde(self):
        from repro.bench.harness import probe_discretization_error

        _, plain = warm_tree(reversible=False)
        _, rev = warm_tree(reversible=True)
        region = Rect(0, 0, 100, 100)
        pde_plain = probe_discretization_error(
            plain.query(region, now=1.0, max_staleness=600.0, sample_size=20)
        )
        pde_rev = probe_discretization_error(
            rev.query(region, now=1.0, max_staleness=600.0, sample_size=20)
        )
        assert abs(pde_rev) < abs(pde_plain)

    def test_partial_cache_still_probes_remainder(self):
        registry, tree = warm_tree(reversible=True)
        # A long jump: cache expires; a sampled query probes again.
        answer = tree.query(
            Rect(0, 0, 100, 100), now=100_000.0, max_staleness=600.0, sample_size=20
        )
        assert answer.stats.sensors_probed > 0

    def test_answer_weight_counts_decomposed_components(self):
        _, tree = warm_tree(reversible=True)
        answer = tree.query(
            Rect(0, 0, 100, 100), now=1.0, max_staleness=600.0, sample_size=30
        )
        component_weight = (
            len(answer.cached_readings) + sum(s.count for s in answer.cached_sketches)
        )
        assert component_weight == answer.result_weight

    def test_exact_queries_unaffected(self):
        registry, tree = warm_tree(reversible=True)
        answer = tree.query(
            Rect(10, 10, 60, 60), now=1.0, max_staleness=600.0, sample_size=0
        )
        assert answer.result_weight == len(within(registry, Rect(10, 10, 60, 60)))

    def test_sketch_nodes_parallel_after_decomposition(self):
        _, tree = warm_tree(reversible=True)
        answer = tree.query(
            Rect(0, 0, 100, 100), now=1.0, max_staleness=600.0, sample_size=20
        )
        assert len(answer.cached_sketches) == len(answer.cached_sketch_nodes)
