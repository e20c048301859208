"""Real-crash recovery: SIGKILL a writer mid-stream, recover a prefix.

The WAL's contract under a process kill is the *prefix property*: the
recovered batch sequence is exactly the first N batches the writer
appended, for some N at least as large as the writer's last
acknowledged sync.  The writer here is a separate Python process that
journals a deterministic batch sequence and reports progress through a
side file after each sync; the test SIGKILLs it mid-stream and checks
the directory recovers to a clean prefix.

The last test crashes a whole durable federation right after a
committed membership change and recovers every shard from disk.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np

from repro.federation import FederatedPortal
from repro.geometry import GeoPoint, Rect
from repro.portal import SensorQuery
from repro.rebalance import JoinSpec, ShardMover
from repro.sensors.registry import SensorRegistry
from repro.storage import StorageConfig, StorageEngine

WRITER = textwrap.dedent(
    """
    import os
    import sys

    from repro.geometry import GeoPoint
    from repro.sensors.registry import SensorRegistry
    from repro.sensors.sensor import Reading
    from repro.storage import StorageConfig, StorageEngine

    data_dir, progress_path = sys.argv[1], sys.argv[2]
    registry = SensorRegistry()
    sensors = [
        registry.register(GeoPoint(float(i), 0.0), expiry_seconds=600.0)
        for i in range(4)
    ]
    engine = StorageEngine(StorageConfig(data_dir=data_dir, fsync_enabled=False))
    for s in sensors:
        engine.journal_register(s)
    for i in range(100_000):
        t = float(i)
        engine.journal_batch(
            [
                Reading(
                    sensor_id=s.sensor_id,
                    value=t + s.sensor_id,
                    timestamp=t,
                    expires_at=t + 600.0,
                )
                for s in sensors
            ],
            fetched_at=t,
        )
        engine.sync()
        # Progress is only advertised after the sync: everything up to
        # this batch is on disk, so recovery must produce at least i+1.
        # Replaced, not rewritten: a kill must never find the file empty.
        with open(progress_path + ".next", "w") as f:
            f.write(str(i + 1))
        os.replace(progress_path + ".next", progress_path)
    """
)


def read_progress(path: Path) -> int:
    try:
        text = path.read_text()
        return int(text) if text else 0
    except (FileNotFoundError, ValueError):
        return 0


def test_sigkill_mid_stream_recovers_a_clean_prefix(tmp_path):
    data_dir = tmp_path / "data"
    progress_path = tmp_path / "progress"
    env = dict(os.environ)
    repo_src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-c", WRITER, str(data_dir), str(progress_path)],
        env=env,
    )
    try:
        deadline = time.monotonic() + 30.0
        while read_progress(progress_path) < 25:
            assert proc.poll() is None, "writer exited before the kill"
            assert time.monotonic() < deadline, "writer made no progress"
            time.sleep(0.01)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    acknowledged = read_progress(progress_path)
    assert acknowledged >= 25

    engine = StorageEngine(
        StorageConfig(data_dir=data_dir, fsync_enabled=False)
    )
    recovered = engine.recovered
    engine.close()
    assert [s.sensor_id for s in recovered.sensors] == [0, 1, 2, 3]
    n = len(recovered.batches)
    assert n >= acknowledged, "recovery lost an acknowledged batch"
    # The prefix property: batch i carries fetched_at == i with the full
    # deterministic payload — no gaps, no reordering, no partial batch.
    for i, (fetched_at, batch) in enumerate(recovered.batches):
        assert fetched_at == float(i)
        assert [r.sensor_id for r in batch] == [0, 1, 2, 3]
        assert [r.value for r in batch] == [float(i) + s for s in range(4)]


def test_federation_crashed_after_committed_joins_recovers_new_membership_warm(
    tmp_path,
):
    """Every shard crashes right after ``absorb_joins`` commits: each
    data directory recovers the *new* membership with the migrated
    cache, from the restage checkpoint alone — the registration batch
    the staging journaled was rotated away with its log."""
    rng = np.random.default_rng(11)
    registry = SensorRegistry()
    fleet = [
        registry.register(
            GeoPoint(float(x), float(y)), expiry_seconds=600.0, availability=1.0
        )
        for x, y in rng.uniform(0, 100, (200, 2))
    ]
    fed = FederatedPortal(
        n_shards=2,
        max_sensors_per_query=None,
        storage=StorageConfig(data_dir=tmp_path / "fed"),
    )
    fed.register_all(fleet)
    fed.rebuild_index()
    query = SensorQuery(region=Rect(0, 0, 100, 100), staleness_seconds=300.0)
    assert fed.execute(query).result_weight == 200  # every slot cache warm

    joined = ShardMover(fed).absorb_joins(
        [
            JoinSpec(location=GeoPoint(float(x), float(y)), expiry_seconds=600.0)
            for x, y in rng.uniform(0, 100, (40, 2))
        ]
    )
    members = [sorted(s.sensor_id for s in fed.shard_members(i)) for i in range(2)]
    assert sorted(members[0] + members[1]) == list(range(240))
    assert all(any(s.sensor_id in m for s in joined) for m in members)

    def cache_image(shard):
        return sorted(
            (r.sensor_id, r.value, r.timestamp, r.expires_at, fetched_at)
            for r, fetched_at in shard.export_cache()
        )

    images = [cache_image(fed.shard(i)) for i in range(2)]
    assert sum(len(image) for image in images) == 200
    for shard_id in range(2):
        fed.kill_shard(shard_id)  # crash(): WAL handle dropped, no sync
    for shard_id in range(2):
        assert fed.revive_shard(shard_id) > 0.0
    for shard_id in range(2):
        shard = fed.shard(shard_id)
        assert [s.sensor_id for s in shard.registry.all()] == members[shard_id]
        assert shard.last_recovery.wal_records == 0
        assert shard.last_recovery.checkpoint_pages > 0
        assert cache_image(shard) == images[shard_id]
    # Warm: only the sensors that joined cold are probed.
    result = fed.execute(query)
    assert result.result_weight == 240
    probes = sum(
        a.stats.sensors_probed
        for shard_result in result.shard_results.values()
        for a in shard_result.answers
    )
    assert probes == len(joined)
    fed.close()
