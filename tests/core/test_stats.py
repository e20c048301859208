from dataclasses import fields

import pytest

from repro.core.stats import (
    QUERY_STATS_FIELDS,
    ProcessingCostModel,
    QueryStats,
)


class TestQueryStats:
    def test_defaults_zero(self):
        stats = QueryStats()
        assert stats.nodes_traversed == 0
        assert stats.collection_latency_seconds == 0.0

    def test_merge_accumulates_every_field(self):
        a = QueryStats(nodes_traversed=3, sensors_probed=5, collection_latency_seconds=0.5)
        b = QueryStats(nodes_traversed=2, sensors_probed=1, collection_latency_seconds=0.25)
        a.merge(b)
        assert a.nodes_traversed == 5
        assert a.sensors_probed == 6
        assert a.collection_latency_seconds == 0.75

    def test_merge_walks_every_declared_counter(self):
        # ``merge`` iterates a tuple computed once after the class body;
        # a counter added to the dataclass must land in it.
        assert QUERY_STATS_FIELDS == tuple(f.name for f in fields(QueryStats))
        ones = QueryStats(**{name: 1 for name in QUERY_STATS_FIELDS})
        total = QueryStats()
        total.merge(ones)
        total.merge(ones)
        assert total == QueryStats(**{name: 2 for name in QUERY_STATS_FIELDS})


class TestProcessingCostModel:
    def test_zero_work_zero_latency(self):
        assert ProcessingCostModel().processing_seconds(QueryStats()) == 0.0

    def test_each_counter_contributes(self):
        model = ProcessingCostModel()
        base = model.processing_seconds(QueryStats())
        for field, value in (
            ("nodes_traversed", 10),
            ("slots_combined", 10),
            ("readings_scanned", 10),
            ("maintenance_ops", 10),
            ("sensors_probed", 10),
        ):
            stats = QueryStats(**{field: value})
            assert model.processing_seconds(stats) > base, field

    def test_linear_in_work(self):
        model = ProcessingCostModel()
        one = model.processing_seconds(QueryStats(nodes_traversed=1))
        ten = model.processing_seconds(QueryStats(nodes_traversed=10))
        assert ten == pytest.approx(10 * one)

    def test_custom_constants(self):
        model = ProcessingCostModel(per_node_traversal=1.0)
        assert model.processing_seconds(QueryStats(nodes_traversed=3)) == pytest.approx(3.0)
