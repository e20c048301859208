"""Unit tests of the batch query executor (probe coalescing, fan-out,
stats attribution, parity with sequential execution)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.shared_scan import ScanRequest, coalesce_probes, shared_range_scan
from repro.geometry import GeoPoint, Rect
from repro.portal import SensorMapPortal, SensorQuery


def build_portal(
    availability: float = 1.0,
    n: int = 300,
    types: tuple[str, ...] = ("generic",),
    seed: int = 3,
) -> SensorMapPortal:
    rng = np.random.default_rng(seed)
    portal = SensorMapPortal(max_sensors_per_query=None)
    for i, (x, y) in enumerate(rng.random((n, 2)) * 100):
        portal.register_sensor(
            GeoPoint(float(x), float(y)),
            expiry_seconds=300.0,
            sensor_type=types[i % len(types)],
            availability=availability,
        )
    portal.rebuild_index()
    return portal


QUERY_A = SensorQuery(region=Rect(10, 10, 60, 60), staleness_seconds=120.0)
QUERY_B = SensorQuery(region=Rect(30, 30, 80, 80), staleness_seconds=120.0)
QUERY_A2 = SensorQuery(region=Rect(10, 10, 60, 60), staleness_seconds=120.0)


class TestCoalesceProbes:
    def test_union_preserves_first_request_order(self):
        union, owner = coalesce_probes([[3, 1, 2], [2, 4], [1, 5]])
        assert union == [3, 1, 2, 4, 5]
        assert owner == {3: 0, 1: 0, 2: 0, 4: 1, 5: 2}

    def test_empty(self):
        assert coalesce_probes([]) == ([], {})
        assert coalesce_probes([[], []]) == ([], {})


class TestSharedRangeScan:
    def test_repeated_region_shares_plan(self):
        portal = build_portal()
        tree = portal.tree("generic")
        scans = shared_range_scan(
            tree,
            [
                ScanRequest(QUERY_A.region, 120.0),
                ScanRequest(QUERY_B.region, 120.0),
                ScanRequest(QUERY_A2.region, 120.0),
            ],
            now=portal.clock.now(),
        )
        first, second, third = (answer.stats for answer, _ in scans)
        assert first.batch_shared_nodes == 0
        assert second.batch_shared_nodes == 0
        assert third.batch_shared_nodes > 0
        assert third.plan_cache_hits == 0  # batch sharing, not a cache hit
        # Shared plan produces the identical probe list.
        assert scans[0][1] == scans[2][1]

    def test_distinct_regions_match_sequential_scan(self):
        from repro.core.lookup import range_scan

        portal = build_portal()
        batch_tree = portal.tree("generic")
        seq_portal = build_portal()
        seq_tree = seq_portal.tree("generic")
        now = portal.clock.now()
        scans = shared_range_scan(
            batch_tree,
            [ScanRequest(QUERY_A.region, 120.0), ScanRequest(QUERY_B.region, 120.0)],
            now,
        )
        for (answer, to_probe), region in zip(scans, (QUERY_A.region, QUERY_B.region)):
            ref_answer, ref_probe = range_scan(seq_tree, region, now, 120.0)
            assert to_probe == ref_probe
            assert answer.stats == ref_answer.stats


class TestExecuteBatch:
    def test_each_sensor_probed_once(self, monkeypatch):
        portal = build_portal()
        network = portal.network
        contacts: list[int] = []
        sample = network.sample_attempts

        def recording_sample(sensor_ids, **kwargs):
            ids = list(sensor_ids)
            contacts.extend(ids)
            return sample(ids, **kwargs)

        monkeypatch.setattr(network, "sample_attempts", recording_sample)
        batch = portal.execute_batch([QUERY_A, QUERY_B, QUERY_A2])
        net = network.stats
        assert net.batches == 1
        assert net.probes_attempted == batch.stats.probes_issued == len(contacts)
        assert len(set(contacts)) == len(contacts)
        assert batch.stats.probes_coalesced == (
            batch.stats.probes_requested - batch.stats.probes_issued
        )
        assert batch.stats.probes_coalesced > 0

    def test_readings_fan_out_to_every_requester(self):
        portal = build_portal()
        batch = portal.execute_batch([QUERY_A, QUERY_A2])
        first, second = batch.results
        assert first.result_weight == second.result_weight > 0
        ids_first = {r.sensor_id for r in first.answers[0].probed_readings}
        ids_second = {r.sensor_id for r in second.answers[0].probed_readings}
        assert ids_first == ids_second
        # All of the second query's readings came from the first's probes.
        stats2 = second.answers[0].stats
        assert stats2.sensors_probed == 0
        assert stats2.probes_coalesced == len(ids_second)

    def test_owner_attribution_is_exact(self):
        portal = build_portal()
        batch = portal.execute_batch([QUERY_A, QUERY_B])
        total_probed = sum(
            r.answers[0].stats.sensors_probed for r in batch.results
        )
        assert total_probed == batch.stats.probes_issued

    def test_answer_parity_with_sequential(self):
        seq_portal = build_portal()
        batch_portal = build_portal()
        queries = [QUERY_A, QUERY_B, QUERY_A2]
        seq = [seq_portal.execute(q) for q in queries]
        batch = batch_portal.execute_batch(queries)
        for s, b in zip(seq, batch.results):
            assert s.result_weight == b.result_weight
            assert s.aggregate() == pytest.approx(b.aggregate())

    def test_fewer_probes_than_sequential_when_flaky(self):
        seq_portal = build_portal(availability=0.85)
        batch_portal = build_portal(availability=0.85)
        queries = [QUERY_A, QUERY_B, QUERY_A2] * 4
        for q in queries:
            seq_portal.execute(q)
        batch_portal.execute_batch(queries)
        assert (
            batch_portal.network.stats.probes_attempted
            < seq_portal.network.stats.probes_attempted
        )

    def test_multi_tree_batch(self):
        portal = build_portal(types=("air", "water"))
        q_air = SensorQuery(
            region=Rect(0, 0, 100, 100), staleness_seconds=120.0, sensor_type="air"
        )
        q_all = SensorQuery(region=Rect(0, 0, 100, 100), staleness_seconds=120.0)
        batch = portal.execute_batch([q_air, q_all])
        assert len(batch.results[0].answers) == 1
        assert len(batch.results[1].answers) == 2
        assert batch.results[1].result_weight == 300

    def test_mixed_exact_and_sampled(self):
        portal = build_portal()
        sampled = SensorQuery(
            region=Rect(0, 0, 100, 100), staleness_seconds=120.0, sample_size=25
        )
        batch = portal.execute_batch([QUERY_A, sampled, QUERY_A2])
        assert batch.results[1].result_weight > 0
        assert batch.results[0].result_weight == batch.results[2].result_weight
        assert batch.stats.probes_coalesced > 0

    def test_empty_batch(self):
        portal = build_portal()
        batch = portal.execute_batch([])
        assert batch.results == []
        assert batch.stats.queries == 0

    def test_unknown_type_raises(self):
        portal = build_portal()
        bad = SensorQuery(
            region=QUERY_A.region, staleness_seconds=120.0, sensor_type="nope"
        )
        with pytest.raises(KeyError):
            portal.execute_batch([QUERY_A, bad])

    def test_batch_results_align_with_queries(self):
        portal = build_portal()
        queries = [QUERY_B, QUERY_A]
        batch = portal.execute_batch(queries)
        assert [r.query for r in batch.results] == queries
