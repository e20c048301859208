import numpy as np
import pytest

from repro import COLRTreeConfig, GeoPoint, Rect
from repro.federation import FederatedPortal
from repro.portal import SensorMapPortal, SensorQuery

from tests.conftest import make_registry


@pytest.fixture
def portal():
    portal = SensorMapPortal(
        COLRTreeConfig(max_expiry_seconds=600.0, slot_seconds=120.0),
        max_sensors_per_query=None,
    )
    registry = make_registry(n=400, seed=70)
    for sensor in registry.all():
        portal.register_sensor(
            sensor.location,
            sensor.expiry_seconds,
            sensor_type="restaurant" if sensor.sensor_id % 2 == 0 else "traffic",
        )
    return portal


QUERY = SensorQuery(region=Rect(0, 0, 70, 70), staleness_seconds=600.0, sample_size=25)


class TestPortalExplain:
    def test_no_side_effects(self, portal):
        info = portal.explain(QUERY)
        assert info["expected_probes"] > 0
        assert portal.network.stats.probes_attempted == 0

    def test_per_type_plans(self, portal):
        info = portal.explain(QUERY)
        assert set(info["plans"]) == {"restaurant", "traffic"}

    def test_type_filter_restricts_plans(self, portal):
        info = portal.explain(
            SensorQuery(
                region=Rect(0, 0, 70, 70),
                staleness_seconds=600.0,
                sample_size=25,
                sensor_type="traffic",
            )
        )
        assert set(info["plans"]) == {"traffic"}

    def test_unknown_type_rejected(self, portal):
        with pytest.raises(KeyError):
            portal.explain(
                SensorQuery(
                    region=Rect(0, 0, 1, 1),
                    staleness_seconds=1.0,
                    sensor_type="submarine",
                )
            )

    def test_warm_cache_visible_in_plan(self, portal):
        cold = portal.explain(QUERY)
        portal.execute(QUERY)
        portal.clock.advance(5.0)
        warm = portal.explain(QUERY)
        assert warm["expected_probes"] < cold["expected_probes"]
        assert warm["cache_coverage"] > cold["cache_coverage"]

    def test_explain_tracks_execution_roughly(self, portal):
        info = portal.explain(QUERY)
        result = portal.execute(QUERY)
        probed = sum(a.stats.sensors_probed for a in result.answers)
        assert info["expected_probes"] == pytest.approx(probed, rel=0.6, abs=15)


def _two_unequal_types(portal):
    """A 10-sensor type and a 1,000-sensor type over one square."""
    rng = np.random.default_rng(71)
    for i in range(1010):
        x, y = rng.uniform(0.0, 100.0, size=2)
        portal.register_sensor(
            GeoPoint(float(x), float(y)),
            600.0,
            sensor_type="kiosk" if i < 10 else "traffic",
        )
    return portal


@pytest.mark.parametrize(
    "make_portal",
    [
        lambda: SensorMapPortal(max_sensors_per_query=None),
        lambda: FederatedPortal(n_shards=2, max_sensors_per_query=None),
    ],
    ids=["portal", "federation"],
)
def test_coverage_weighs_each_type_by_the_answer_it_needs(make_portal):
    """Only the small type is warm: the coverage of the whole answer is
    its share of the sensors, not the mean of the two types'."""
    portal = _two_unequal_types(make_portal())
    region = Rect(0.0, 0.0, 100.0, 100.0)
    portal.execute(
        SensorQuery(region=region, staleness_seconds=600.0, sensor_type="kiosk")
    )
    portal.clock.advance(5.0)
    info = portal.explain(SensorQuery(region=region, staleness_seconds=600.0))
    plans = (
        list(info["plans"].values())
        if "plans" in info
        else [p for e in info["shards"].values() for p in e["plans"].values()]
    )
    cached = sum(p.cached_weight for p in plans)
    assert 0 < cached <= 10
    assert sum(p.relevant_sensors for p in plans) == 1010
    assert info["cache_coverage"] == cached / 1010
