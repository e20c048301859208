import pytest

from repro import COLRTreeConfig, GeoPoint, Rect
from repro.portal import SensorMapPortal, SensorQuery

from tests.conftest import make_registry


@pytest.fixture
def portal() -> SensorMapPortal:
    portal = SensorMapPortal(
        COLRTreeConfig(max_expiry_seconds=600.0, slot_seconds=120.0)
    )
    registry = make_registry(n=300, seed=12)
    for sensor in registry.all():
        portal.register_sensor(
            sensor.location,
            sensor.expiry_seconds,
            sensor_type="restaurant" if sensor.sensor_id % 2 == 0 else "traffic",
        )
    return portal


class TestLifecycle:
    def test_rebuild_required_before_query(self, portal):
        portal.rebuild_index()
        assert set(portal.sensor_types()) == {"restaurant", "traffic"}

    def test_query_autobuilds(self, portal):
        result = portal.execute(
            SensorQuery(region=Rect(0, 0, 100, 100), staleness_seconds=600.0, sample_size=20)
        )
        assert result.result_weight > 0

    def test_registering_marks_dirty(self, portal):
        portal.rebuild_index()
        assert len(portal.tree("restaurant")) == 150
        for _ in range(50):
            portal.register_sensor(GeoPoint(50, 50), 300.0, sensor_type="restaurant")
        # The next tree access rebuilds with the new population.
        assert len(portal.tree("restaurant")) == 200

    def test_empty_portal_rejected(self):
        portal = SensorMapPortal()
        with pytest.raises(ValueError):
            portal.rebuild_index()


class TestExecution:
    def test_type_filter_restricts_results(self, portal):
        all_result = portal.execute(
            SensorQuery(region=Rect(0, 0, 100, 100), staleness_seconds=600.0)
        )
        restaurant_result = portal.execute(
            SensorQuery(
                region=Rect(0, 0, 100, 100),
                staleness_seconds=600.0,
                sensor_type="restaurant",
            )
        )
        assert restaurant_result.result_weight < all_result.result_weight

    def test_unknown_type_rejected(self, portal):
        with pytest.raises(KeyError):
            portal.execute(
                SensorQuery(
                    region=Rect(0, 0, 1, 1),
                    staleness_seconds=1.0,
                    sensor_type="submarine",
                )
            )

    def test_count_aggregate(self, portal):
        result = portal.execute(
            SensorQuery(region=Rect(0, 0, 100, 100), staleness_seconds=600.0)
        )
        assert result.aggregate() == float(result.result_weight)

    def test_latencies_positive(self, portal):
        result = portal.execute(
            SensorQuery(region=Rect(0, 0, 100, 100), staleness_seconds=600.0, sample_size=30)
        )
        assert result.processing_seconds > 0
        assert result.end_to_end_seconds >= result.processing_seconds

    def test_sql_round_trip(self, portal):
        result = portal.execute_sql(
            "SELECT count(*) FROM sensor S WHERE S.location WITHIN "
            "Rect(0, 0, 100, 100) AND S.time BETWEEN now()-10 AND now() mins "
            "SAMPLESIZE 25"
        )
        assert result.query.sample_size == 25
        assert result.result_weight > 0

    def test_clock_drives_staleness(self, portal):
        region = Rect(0, 0, 100, 100)
        q = SensorQuery(region=region, staleness_seconds=60.0, sample_size=30)
        r1 = portal.execute(q)
        portal.clock.advance(30.0)
        r2 = portal.execute(q)  # within staleness: cache helps
        portal.clock.advance(120.0)
        r3 = portal.execute(q)  # beyond staleness: probes again
        probed_2 = sum(a.stats.sensors_probed for a in r2.answers)
        probed_3 = sum(a.stats.sensors_probed for a in r3.answers)
        probed_1 = sum(a.stats.sensors_probed for a in r1.answers)
        assert probed_2 < probed_1
        assert probed_3 > probed_2


class TestGrouping:
    def test_cluster_produces_fewer_groups(self, portal):
        region = Rect(0, 0, 100, 100)
        fine = portal.execute(
            SensorQuery(region=region, staleness_seconds=600.0, sample_size=50)
        )
        portal.clock.advance(2000.0)  # expire cache to re-run cleanly
        coarse = portal.execute(
            SensorQuery(
                region=region,
                staleness_seconds=600.0,
                sample_size=50,
                cluster_miles=2000.0,
            )
        )
        assert len(coarse.groups) <= len(fine.groups)

    def test_group_weights_cover_answer(self, portal):
        result = portal.execute(
            SensorQuery(
                region=Rect(0, 0, 100, 100),
                staleness_seconds=600.0,
                sample_size=40,
                cluster_miles=500.0,
            )
        )
        assert sum(g.size for g in result.groups) == result.result_weight


class TestPortalStats:
    def test_stats_shape(self, portal):
        stats = portal.stats()
        assert stats["total_sensors"] == 300
        assert set(stats["types"]) == {"restaurant", "traffic"}
        for info in stats["types"].values():
            # Index shape only: a query's work is its answer's stats.
            assert set(info) == {"sensors", "height", "cached_readings"}
            assert info["sensors"] > 0

    def test_stats_track_activity(self, portal):
        portal.execute(
            SensorQuery(region=Rect(0, 0, 100, 100), staleness_seconds=600.0, sample_size=20)
        )
        stats = portal.stats()
        assert stats["network"]["probes_attempted"] > 0
        assert any(info["cached_readings"] > 0 for info in stats["types"].values())
