"""Property tests: snapshots and traces round-trip arbitrary inputs."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import COLRTree, COLRTreeConfig, GeoPoint, Reading, Sensor
from repro.persistence import load_tree, save_tree
from repro.workloads.trace import workload_from_dict, workload_to_dict


@st.composite
def sensor_lists(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    sensors = []
    for i in range(n):
        sensors.append(
            Sensor(
                sensor_id=i,
                location=GeoPoint(
                    draw(st.floats(min_value=-170, max_value=170, allow_nan=False)),
                    draw(st.floats(min_value=-80, max_value=80, allow_nan=False)),
                ),
                expiry_seconds=draw(st.floats(min_value=1, max_value=3600, allow_nan=False)),
                sensor_type=draw(st.sampled_from(["a", "b", "generic"])),
                availability=draw(st.floats(min_value=0, max_value=1, allow_nan=False)),
            )
        )
    return sensors


class TestSnapshotProperties:
    @given(sensor_lists(), st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), max_size=10))
    @settings(
        max_examples=40,
        deadline=None,
        # tmp_path is only a place to put the file; every example
        # overwrites it whole.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_snapshot_restore_preserves_cache(self, tmp_path, sensors, insert_times):
        tree = COLRTree(sensors, COLRTreeConfig(max_expiry_seconds=3600.0, slot_seconds=600.0))
        for k, t in enumerate(insert_times):
            sensor = sensors[k % len(sensors)]
            tree.insert_reading(
                Reading(
                    sensor_id=sensor.sensor_id,
                    value=float(k),
                    timestamp=t,
                    expires_at=t + sensor.expiry_seconds,
                ),
                fetched_at=t,
            )
        now = max(insert_times, default=0.0)
        path = tmp_path / "tree.snap"
        save_tree(tree, path, now=now)
        restored = load_tree(path)
        assert restored.root.weight == tree.root.weight
        # Restore drops readings already expired at snapshot time (the
        # source tree may still hold boundary-slot corpses until its
        # next prune); everything valid at `now` must survive intact.
        valid = [
            r
            for leaf in tree.root.iter_leaves()
            for r in leaf.leaf_cache.all_readings()
            if r.is_valid_at(now)
        ]
        assert restored.cached_reading_count == len(valid)
        for reading in valid:
            other = restored.leaf_for(reading.sensor_id).leaf_cache.get(
                reading.sensor_id
            )
            assert other is not None
            assert other.reading == reading


class TestTraceProperties:
    @given(sensor_lists())
    @settings(max_examples=60, deadline=None)
    def test_sensor_round_trip_exact(self, sensors):
        restored, _ = workload_from_dict(workload_to_dict(sensors, []))
        assert restored == sensors
