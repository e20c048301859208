import pytest

from repro.bench.harness import (
    QueryRecord,
    probe_discretization_error,
    run_query_stream,
    target_accuracy,
)
from repro.bench.setup import EvalSetup
from repro.core.lookup import QueryAnswer, TerminalRecord
from repro.workloads.livelocal import QuerySpec


@pytest.fixture(scope="module")
def tiny_setup():
    return EvalSetup(n_sensors=1500, n_queries=40)


class TestRunQueryStream:
    def test_records_one_per_query(self, tiny_setup):
        system = tiny_setup.make_colr_tree()
        run = run_query_stream(system, tiny_setup.queries)
        assert len(run.records) == len(tiny_setup.queries)

    def test_sample_size_override(self, tiny_setup):
        system = tiny_setup.make_colr_tree()
        run = run_query_stream(system, tiny_setup.queries, sample_size=5)
        assert all(r.target_size == 5 for r in run.records)

    def test_use_sampling_false_forces_exact(self, tiny_setup):
        sampled = run_query_stream(
            tiny_setup.make_colr_tree(), tiny_setup.queries, use_sampling=True
        )
        exact = run_query_stream(
            tiny_setup.make_colr_tree(), tiny_setup.queries, use_sampling=False
        )
        assert sum(r.sensors_probed for r in exact.records) > sum(
            r.sensors_probed for r in sampled.records
        )

    def test_mean_and_total(self, tiny_setup):
        run = run_query_stream(tiny_setup.make_colr_tree(), tiny_setup.queries)
        assert run.mean("sensors_probed") == pytest.approx(
            sum(r.sensors_probed for r in run.records) / len(run.records)
        )

    def test_mean_of_empty_run_rejected(self):
        from repro.bench.harness import RunResult

        with pytest.raises(ValueError):
            RunResult().mean("sensors_probed")

    def test_records_carry_latencies(self, tiny_setup):
        run = run_query_stream(tiny_setup.make_colr_tree(), tiny_setup.queries)
        rec = run.records[0]
        assert rec.processing_seconds > 0
        assert rec.collection_seconds >= 0


class TestMetrics:
    def test_pde_zero_without_terminals(self):
        assert probe_discretization_error(QueryAnswer()) == 0.0

    def test_pde_positive_on_underdelivery(self):
        answer = QueryAnswer(
            terminals=[TerminalRecord(node_id=0, level=2, target=10.0, results=5, used_cache=False)]
        )
        assert probe_discretization_error(answer) == pytest.approx(0.5)

    def test_pde_negative_on_cache_overdelivery(self):
        answer = QueryAnswer(
            terminals=[TerminalRecord(node_id=0, level=2, target=10.0, results=30, used_cache=True)]
        )
        assert probe_discretization_error(answer) == pytest.approx(-2.0)

    def test_pde_skips_zero_targets(self):
        answer = QueryAnswer(
            terminals=[
                TerminalRecord(node_id=0, level=2, target=0.0, results=3, used_cache=False),
                TerminalRecord(node_id=1, level=2, target=10.0, results=10, used_cache=False),
            ]
        )
        assert probe_discretization_error(answer) == 0.0

    def test_target_accuracy_met(self):
        assert target_accuracy(result_weight=30, target_size=30, unsampled_result_size=500) == 1.0

    def test_target_accuracy_sparse_region(self):
        # Region holds fewer sensors than the target: achieving them all
        # is full accuracy.
        assert target_accuracy(result_weight=7, target_size=30, unsampled_result_size=7) == 1.0

    def test_target_accuracy_shortfall(self):
        assert target_accuracy(result_weight=15, target_size=30, unsampled_result_size=500) == 0.5

    def test_target_accuracy_empty_region(self):
        assert target_accuracy(result_weight=0, target_size=30, unsampled_result_size=0) == 1.0


class TestEvalSetup:
    def test_sensors_and_queries_cached(self, tiny_setup):
        assert tiny_setup.sensors is tiny_setup.sensors
        assert tiny_setup.queries is tiny_setup.queries

    def test_capacity_for_fraction(self, tiny_setup):
        assert tiny_setup.cache_capacity_for_fraction(0.16) == round(0.16 * 1500)
        with pytest.raises(ValueError):
            tiny_setup.cache_capacity_for_fraction(0.0)

    def test_factories_produce_expected_configs(self, tiny_setup):
        assert not tiny_setup.make_plain_rtree().config.caching_enabled
        hier = tiny_setup.make_hierarchical_cache()
        assert hier.config.caching_enabled and not hier.config.sampling_enabled
        colr = tiny_setup.make_colr_tree()
        assert colr.config.sampling_enabled

    def test_flat_cache_capacity_passthrough(self, tiny_setup):
        flat = tiny_setup.make_flat_cache(cache_capacity=99)
        assert flat.cache_capacity == 99
