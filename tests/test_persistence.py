import json
from pathlib import Path

import pytest

from repro import COLRTreeConfig, Rect
from repro.convert import convert
from repro.persistence import SnapshotError, load_tree, save_tree
from repro.storage.checkpoint import read_checkpoint, write_checkpoint

from tests.conftest import make_registry, make_tree

GOLDEN_PR12 = Path(__file__).parent / "data" / "snapshot_v2_pr12.snap"


@pytest.fixture
def warm_tree():
    registry = make_registry(n=300, seed=21)
    tree = make_tree(registry)
    tree.query(Rect(0, 0, 60, 60), now=0.0, max_staleness=600.0, sample_size=0)
    return tree


class TestSnapshotRoundTrip:
    def test_structure_restored(self, warm_tree, tmp_path):
        path = tmp_path / "tree.json"
        save_tree(warm_tree, path, now=1.0)
        restored = load_tree(path)
        assert len(restored) == len(warm_tree)
        assert restored.height() == warm_tree.height()
        assert restored.root.weight == warm_tree.root.weight

    def test_cache_contents_restored(self, warm_tree, tmp_path):
        path = tmp_path / "tree.json"
        save_tree(warm_tree, path, now=1.0)
        restored = load_tree(path)
        assert restored.cached_reading_count == warm_tree.cached_reading_count
        # The restored cache must serve the same data.
        a = warm_tree.query(Rect(0, 0, 60, 60), now=2.0, max_staleness=600.0, sample_size=0)
        b = restored.query(Rect(0, 0, 60, 60), now=2.0, max_staleness=600.0, sample_size=0)
        assert a.result_weight == b.result_weight
        assert b.stats.sensors_probed == 0

    def test_aggregates_rebuilt_consistently(self, warm_tree, tmp_path):
        path = tmp_path / "tree.json"
        save_tree(warm_tree, path, now=1.0)
        restored = load_tree(path)
        for node in restored.root.iter_subtree():
            if node.is_leaf or node.agg_cache is None:
                continue
            for slot in node.agg_cache.slot_ids():
                cached = node.agg_cache.sketch(slot)
                recomputed = restored._recompute_slot(node, slot)
                assert cached.count == recomputed.count

    def test_expired_readings_dropped_on_load(self, warm_tree, tmp_path):
        path = tmp_path / "tree.json"
        # Save "much later": everything in the snapshot is expired.
        save_tree(warm_tree, path, now=100_000.0)
        restored = load_tree(path)
        assert restored.cached_reading_count == 0

    def test_config_round_trips(self, tmp_path):
        registry = make_registry(n=100, seed=22)
        config = COLRTreeConfig(
            fanout=5,
            leaf_capacity=10,
            max_expiry_seconds=500.0,
            slot_seconds=100.0,
            cache_capacity=40,
            reversible_aggregates=True,
        )
        tree = make_tree(registry, config)
        path = tmp_path / "t.json"
        save_tree(tree, path, now=0.0)
        restored = load_tree(path)
        assert restored.config == config

    def test_sensor_metadata_preserved(self, tmp_path):
        from repro import COLRTree, GeoPoint, SensorRegistry

        registry = SensorRegistry()
        registry.register(
            GeoPoint(1, 2), 300.0, sensor_type="water", metadata={"name": "gauge-7"}
        )
        registry.register(GeoPoint(3, 4), 200.0)
        tree = COLRTree(registry.all(), COLRTreeConfig())
        path = tmp_path / "t.json"
        save_tree(tree, path, now=0.0)
        restored = load_tree(path)
        s = restored.sensor(0)
        assert s.sensor_type == "water"
        assert dict(s.metadata) == {"name": "gauge-7"}


class TestFormats:
    def test_default_save_writes_checkpoint_container(self, warm_tree, tmp_path):
        from repro.storage.checkpoint import is_checkpoint_file

        path = tmp_path / "tree.snap"
        save_tree(warm_tree, path, now=1.0)
        assert is_checkpoint_file(path)

    def test_v2_loads_without_deprecation_warning(self, warm_tree, tmp_path):
        import warnings

        path = tmp_path / "tree.snap"
        save_tree(warm_tree, path, now=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            restored = load_tree(path)
        assert len(restored) == len(warm_tree)

    def test_corrupt_v2_file_rejected(self, warm_tree, tmp_path):
        path = tmp_path / "tree.snap"
        save_tree(warm_tree, path, now=1.0)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError):
            load_tree(path)


def _resave(path, meta=None, sensors=None):
    """Rewrite a snapshot file with its meta record or sensor list
    replaced (a well-formed container holding the wrong contents)."""
    old_meta, old_sensors, cached = read_checkpoint(path)
    write_checkpoint(
        path,
        meta=old_meta if meta is None else meta(old_meta),
        sensors=old_sensors if sensors is None else sensors,
        cached=cached if sensors is None else [],
    )


class TestErrors:
    @pytest.fixture
    def snap(self, warm_tree, tmp_path):
        path = tmp_path / "tree.snap"
        save_tree(warm_tree, path, now=0.0)
        return path

    def test_bad_version_rejected(self, snap):
        _resave(snap, meta=lambda m: {**m, "format_version": 99})
        with pytest.raises(SnapshotError, match="unsupported snapshot version"):
            load_tree(snap)

    def test_malformed_json_rejected(self, warm_tree, tmp_path):
        # Anything that is not a checkpoint container is refused
        # outright — garbage text and a well-formed JSON document (what
        # the retired version-1 format looked like) alike.
        for text in ("{not json", json.dumps({"format_version": 1, "sensors": []})):
            path = tmp_path / "bad.json"
            path.write_text(text)
            with pytest.raises(SnapshotError, match="not a checkpoint"):
                load_tree(path)

    def test_missing_fields_rejected(self, snap):
        _resave(snap, meta=lambda m: {k: v for k, v in m.items() if k != "config"})
        with pytest.raises(SnapshotError, match="malformed snapshot"):
            load_tree(snap)

    def test_unknown_config_key_dropped(self, snap, warm_tree):
        # Stored keys are matched against COLRTreeConfig's fields by
        # rule: one that is not a field (any more) is dropped, so
        # removing a field never strands a snapshot.
        _resave(snap, meta=lambda m: {**m, "config": {**m["config"], "bogus": 1}})
        assert load_tree(snap).config == warm_tree.config

    def test_empty_sensor_list_rejected(self, snap):
        _resave(snap, sensors=[])
        with pytest.raises(SnapshotError, match="no sensors"):
            load_tree(snap)


class TestOlderSnapshots:
    """A format-2 (pickled) snapshot is refused with the converter named,
    and loads once converted — including the keys of ``COLRTreeConfig``
    fields removed since it was written."""

    @pytest.fixture
    def converted(self, tmp_path):
        snap = tmp_path / "pr12.snap"
        snap.write_bytes(GOLDEN_PR12.read_bytes())
        assert convert(snap) == [snap]
        assert convert(snap) == []  # already current
        return snap

    def test_unconverted_snapshot_names_the_converter(self):
        with pytest.raises(SnapshotError, match="python -m repro.convert"):
            load_tree(GOLDEN_PR12)

    def test_pr12_snapshot_loads_warm(self, converted):
        # Written by the commit before flat_kernel_enabled /
        # plan_cache_enabled were removed: 60 sensors, all cached at t=0.
        meta, _, _ = read_checkpoint(converted)
        assert {
            "flat_kernel_enabled",
            "plan_cache_enabled",
            "classify_tile_nodes",
        } <= set(meta["config"])
        restored = load_tree(converted)
        assert len(restored) == 60
        assert restored.config == COLRTreeConfig(
            max_expiry_seconds=600.0, slot_seconds=120.0
        )
        answer = restored.query(
            Rect(0, 0, 100, 100), now=2.0, max_staleness=600.0, sample_size=0
        )
        assert answer.result_weight == 60
        assert answer.stats.sensors_probed == 0

    def test_stored_tile_size_is_dropped(self, converted):
        # The golden file stores classify_tile_nodes=None; a snapshot
        # saved by a tiled portal carried a number.  Labels were
        # bit-identical for every tile size, so dropping it keeps answers.
        _resave(
            converted,
            meta=lambda m: {**m, "config": {**m["config"], "classify_tile_nodes": 26_624}},
        )
        restored = load_tree(converted)
        assert restored.config == COLRTreeConfig(
            max_expiry_seconds=600.0, slot_seconds=120.0
        )
        answer = restored.query(
            Rect(0, 0, 100, 100), now=2.0, max_staleness=600.0, sample_size=0
        )
        assert (answer.result_weight, answer.stats.sensors_probed) == (60, 0)
