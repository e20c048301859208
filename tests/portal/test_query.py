import pytest

from repro import Rect
from repro.portal import SensorQuery


class TestValidation:
    def test_valid(self):
        SensorQuery(region=Rect(0, 0, 1, 1), staleness_seconds=60.0)

    def test_negative_staleness_rejected(self):
        with pytest.raises(ValueError):
            SensorQuery(region=Rect(0, 0, 1, 1), staleness_seconds=-1.0)

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(ValueError):
            SensorQuery(region=Rect(0, 0, 1, 1), staleness_seconds=1.0, aggregate="median")

    def test_nonpositive_cluster_rejected(self):
        with pytest.raises(ValueError):
            SensorQuery(
                region=Rect(0, 0, 1, 1), staleness_seconds=1.0, cluster_miles=0.0
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("staleness_seconds", float("nan")),
            ("cluster_miles", float("nan")),
        ],
    )
    def test_nan_rejected(self, field, value):
        # A NaN passes every ``<`` check: a NaN staleness re-probed every
        # cached sensor, a NaN cluster distance failed in grouping after
        # the probes were spent.
        kwargs = {"staleness_seconds": 1.0, field: value}
        with pytest.raises(ValueError):
            SensorQuery(region=Rect(0, 0, 1, 1), **kwargs)

    def test_infinite_staleness_allowed(self):
        SensorQuery(region=Rect(0, 0, 1, 1), staleness_seconds=float("inf"))

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            SensorQuery(region=Rect(0, 0, 1, 1), staleness_seconds=1.0, sample_size=-1)

    def test_defaults(self):
        q = SensorQuery(region=Rect(0, 0, 1, 1), staleness_seconds=1.0)
        assert q.aggregate == "count"
        assert q.cluster_miles is None
        assert q.sample_size is None
        assert q.sensor_type is None
