"""The relational implementation under the query-stream meter: correctness parity
with the in-memory tree on a shared stream, plus relative throughput.
The paper's system is the relational one — this bench shows the
reproduction's two implementations tell the same story."""

import pytest

from repro import AvailabilityModel, COLRTree, COLRTreeConfig, SensorNetwork
from repro.bench.fleets import run_query_stream
from repro.relcolr import RelCOLRTree
from repro.workloads.livelocal import LiveLocalWorkload


CFG = COLRTreeConfig(
    fanout=4,
    leaf_capacity=16,
    max_expiry_seconds=600.0,
    slot_seconds=120.0,
)


@pytest.fixture(scope="module")
def shared_workload():
    wl = LiveLocalWorkload(
        n_sensors=1_500, n_queries=60, sample_size=25, seed=7
    )
    return wl.sensors(), wl.queries()


def build_mem(sensors):
    model = AvailabilityModel()
    return COLRTree(
        sensors,
        CFG,
        network=SensorNetwork(sensors, availability_model=model, seed=1),
        availability_model=model,
        build_method="str",
    )


def build_rel(sensors):
    model = AvailabilityModel()
    return RelCOLRTree(
        sensors,
        CFG,
        network=SensorNetwork(sensors, availability_model=model, seed=1),
        availability_model=model,
        build_method="str",
    )


class _RelAdapter:
    """Give RelCOLRTree the meter's interface (processing model)."""

    def __init__(self, rel):
        self.rel = rel
        from repro.core.stats import ProcessingCostModel

        self.cost_model = ProcessingCostModel()

    def query(self, region, now, max_staleness, sample_size=None):
        return self.rel.query(region, now, max_staleness, sample_size)

    def processing_seconds(self, stats):
        return self.cost_model.processing_seconds(stats)


def test_relational_stream_run(benchmark, shared_workload):
    sensors, queries = shared_workload
    rel = _RelAdapter(build_rel(sensors))

    def run():
        return run_query_stream(rel, queries)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(result.records) == len(queries)


def test_in_memory_stream_run(benchmark, shared_workload):
    sensors, queries = shared_workload
    mem = build_mem(sensors)

    def run():
        return run_query_stream(mem, queries)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(result.records) == len(queries)


def test_implementations_probe_comparably(benchmark, shared_workload):
    def check():
        sensors, queries = shared_workload
        mem_run = run_query_stream(build_mem(sensors), queries)
        rel_run = run_query_stream(_RelAdapter(build_rel(sensors)), queries)
        mem_probes = mem_run.mean("sensors_probed")
        rel_probes = rel_run.mean("sensors_probed")
        # Same workload, same caches: probe bills within 2.5x of each
        # other (the relational access method lacks the per-terminal
        # oversample/round details, so exact equality is not expected).
        assert rel_probes <= 2.5 * mem_probes + 5
        assert mem_probes <= 2.5 * rel_probes + 5
        # And both serve repeats mostly from cache.
        assert rel_run.records[-1].sensors_probed <= rel_run.records[0].sensors_probed * 2

    benchmark.pedantic(check, rounds=1, iterations=1)
