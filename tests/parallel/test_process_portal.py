"""The process execution backend end to end.

Workers are real forked processes, so these tests cover the contracts
the in-process suite cannot: answer bit-identity across the pipe, crash
degradation with a killed *process* (not a simulated flag), revival as a
fresh process, the rebuild → respawn lifecycle, and a coordinator that
holds no shard state of its own.  ``tests/conftest.py`` asserts no
orphaned worker after every test.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.core.tree import COLRTree
from repro.federation import FederatedPortal, FederationConfig
from repro.federation.backend import InProcessBackend, ShardDownError
from repro.geometry import GeoPoint, Polygon, Rect
from repro.parallel import ProcessBackend, framing
from repro.portal import SensorQuery
from repro.sensors.clock import SimClock
from repro.storage import StorageConfig

N_SENSORS = 300
EXTENT = 100.0
STALENESS = 300.0


def _build(
    execution: str, n_shards: int = 2, seed: int = 0, storage=None, **federation
) -> FederatedPortal:
    rng = np.random.default_rng(seed)
    portal = FederatedPortal(
        n_shards=n_shards,
        max_sensors_per_query=None,
        federation=FederationConfig(execution=execution, **federation),
        storage=storage,
    )
    for _ in range(N_SENSORS):
        portal.register_sensor(
            GeoPoint(float(rng.uniform(0, EXTENT)), float(rng.uniform(0, EXTENT))),
            expiry_seconds=float(rng.uniform(120, 600)),
            sensor_type=("temperature", "humidity")[int(rng.integers(2))],
            availability=0.9,
        )
    portal.rebuild_index()
    return portal


def _queries() -> list[SensorQuery]:
    rect = Rect(10.0, 10.0, 70.0, 70.0)
    poly = Polygon(
        [GeoPoint(20.0, 15.0), GeoPoint(85.0, 30.0), GeoPoint(40.0, 90.0)]
    )
    return [
        SensorQuery(region=rect, staleness_seconds=STALENESS),
        SensorQuery(region=poly, staleness_seconds=STALENESS, sample_size=25),
        SensorQuery(
            region=rect, staleness_seconds=STALENESS, sensor_type="humidity"
        ),
    ]


def _assert_identical(a, b):
    assert len(a.answers) == len(b.answers)
    for x, y in zip(a.answers, b.answers):
        assert x.probed_readings == y.probed_readings
        assert x.cached_readings == y.cached_readings
        assert x.terminals == y.terminals
        assert x.stats == y.stats
    assert a.groups == b.groups
    assert a.processing_seconds == b.processing_seconds
    assert a.collection_seconds == b.collection_seconds


class TestDispatch:
    def test_execution_field_selects_backend(self):
        with _build("process") as portal:
            assert isinstance(portal._backend, ProcessBackend)
            assert portal.shards() == []
            assert portal.worker_pid(0) is not None
        inproc = _build("inprocess")
        assert isinstance(inproc._backend, InProcessBackend)
        assert len(inproc.shards()) == inproc.n_shards
        assert inproc.worker_pid(0) is None

    def test_invalid_execution_rejected(self):
        with pytest.raises(ValueError):
            FederationConfig(execution="threads")


class TestParity:
    def test_process_answers_bit_identical(self):
        inproc = _build("inprocess")
        with _build("process") as proc:
            for phase in ("cold", "warm"):
                for query in _queries():
                    _assert_identical(inproc.execute(query), proc.execute(query))
                a = inproc.execute_batch(_queries())
                b = proc.execute_batch(_queries())
                for ra, rb in zip(a.results, b.results):
                    _assert_identical(ra, rb)
                assert a.stats == b.stats
                inproc.clock.advance(60.0)
                proc.clock.advance(60.0)
            assert (
                inproc.stats_summary()["federation"]
                == proc.stats_summary()["federation"]
            )

    def test_workers_are_real_processes(self):
        with _build("process") as proc:
            pids = {proc.worker_pid(i) for i in range(proc.n_shards)}
            assert os.getpid() not in pids
            assert len(pids) == proc.n_shards


class TestDegradation:
    def test_killed_worker_degrades_to_partial_answer(self):
        with _build("process") as proc:
            wide = SensorQuery(
                region=Rect(0.0, 0.0, EXTENT, EXTENT), staleness_seconds=STALENESS
            )
            healthy = proc.execute(wide)
            assert not healthy.partial

            victim_pid = proc.worker_pid(1)
            os.kill(victim_pid, signal.SIGKILL)
            # Give the kernel a beat to tear the socket down.
            deadline = time.time() + 5.0
            while time.time() < deadline:
                try:
                    os.kill(victim_pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.01)

            degraded = proc.execute(wide)
            assert degraded.partial
            assert 1 in degraded.failed_shards
            assert degraded.result_weight < healthy.result_weight

            proc.revive_shard(1)
            recovered = proc.execute(wide)
            assert not recovered.partial
            # The revived worker rebuilt with a fresh network RNG, so the
            # weight is not bit-equal to the first answer — but shard 1's
            # sensors are back in it.
            assert recovered.result_weight > degraded.result_weight

    def test_degraded_accounting_identical_across_backends(self, tmp_path):
        """One retry/backoff/recovery-charge loop drives both backends: a
        killed shard burning its retry budget on every call, then
        reviving from its data directory must leave the same counters,
        casualty lists and modeled seconds on either."""
        traces = [
            self._degradation_trace(execution, tmp_path / execution)
            for execution in ("inprocess", "process")
        ]
        assert traces[0] == traces[1]
        summary = traces[0][-1]
        assert summary["shard_retries"] > 0 and summary["shard_failures"] > 0
        assert summary["shard_recoveries"] == 1

    @staticmethod
    def _degradation_trace(execution: str, data_dir) -> list:
        wide, sampled_poly, _ = _queries()
        exact_poly = SensorQuery(region=sampled_poly.region, staleness_seconds=STALENESS)
        trace: list = []

        def record(result):
            trace.append(
                (
                    result.failed_shards,
                    result.shard_retries,
                    result.collection_seconds,
                    result.result_weight,
                )
            )

        def all_entry_points(portal, advance: float = 0.0):
            calls = (
                lambda: portal.execute(wide),
                lambda: portal.execute_polygon(exact_poly),
                lambda: portal.execute_streaming(sampled_poly, 0.1).final,
            )
            for call in calls:
                portal.clock.advance(advance)
                record(call())
            portal.clock.advance(advance)
            batch = portal.execute_batch(_queries())
            for result in batch.results:
                record(result)
            trace.append((batch.failed_shards, batch.stats.collection_seconds))

        with _build(
            execution,
            storage=StorageConfig(data_dir=data_dir, fsync_enabled=False),
            shard_retry_budget=2,
        ) as portal:
            all_entry_points(portal)
            portal.kill_shard(1)
            # Each entry point pays the full retry/backoff ladder itself.
            all_entry_points(portal)
            all_entry_points(portal, advance=31.0)
            trace.append(portal.revive_shard(1))
            # The revived shard's recovery seconds land on its next gather.
            all_entry_points(portal)
            trace.append(portal.stats_summary()["federation"])
        return trace

    def test_kill_and_revive_shard_api(self):
        with _build("process") as proc:
            proc.kill_shard(0)
            batch = proc.execute_batch(_queries())
            assert batch.failed_shards == (0,)
            proc.revive_shard(0)
            batch = proc.execute_batch(_queries())
            assert batch.failed_shards == ()

    def test_surviving_worker_untouched_by_crash(self):
        with _build("process") as proc:
            survivor_pid = proc.worker_pid(0)
            os.kill(proc.worker_pid(1), signal.SIGKILL)
            proc.execute(
                SensorQuery(
                    region=Rect(0.0, 0.0, EXTENT, EXTENT),
                    staleness_seconds=STALENESS,
                )
            )
            assert proc.worker_pid(0) == survivor_pid


class TestPipeStaysInStep:
    """One reply per op, matched by sequence number: a failed op must
    not shift every later reply by one."""

    def test_err_reply_leaves_no_reply_unread(self):
        with _build("process") as proc:
            backend = proc._backend
            with pytest.raises(RuntimeError, match="no_such_op"):
                backend.attempt([(0, "no_such_op", ()), (1, "stats", ())])
            # Shard 1's ``stats`` reply was read, not left for this call.
            assert backend.call(1, "export_cache", []) == []
            assert backend.call(0, "export_cache", []) == []
            assert "network" in backend.call(1, "stats")
            assert not proc.execute(_queries()[0]).partial

    def test_reply_out_of_step_kills_the_worker_instead_of_answering(self):
        with _build("process") as proc:
            backend = proc._backend
            # An op the coordinator forgot it sent: its reply is now the
            # next thing in the pipe.
            backend._send(1, "stats", ())
            backend._workers[1].pending.clear()
            with pytest.raises(ShardDownError, match="answered op 1, not op 2"):
                backend.call(1, "export_cache", [])
            assert proc.worker_pid(1) is None
            assert proc.worker_pid(0) is not None

    def test_oversized_reply_is_an_error_not_a_crash(self, monkeypatch):
        # Workers fork with the patched cap: big enough for the
        # bootstrap ack and an empty list, not for an answer.
        monkeypatch.setattr(framing, "MAX_FRAME_BYTES", 400)
        with _build("process") as proc:
            pid = proc.worker_pid(0)
            wide = SensorQuery(
                region=Rect(0.0, 0.0, EXTENT, EXTENT), staleness_seconds=STALENESS
            )
            with pytest.raises(RuntimeError, match="FrameTooLargeError"):
                proc._backend.call(0, "execute", wide)
            assert proc.worker_pid(0) == pid
            assert proc._backend.call(0, "export_cache", []) == []

    def test_oversized_op_is_refused_before_it_is_sent(self, monkeypatch):
        with _build("process") as proc:
            monkeypatch.setattr(framing, "MAX_FRAME_BYTES", 400)
            with pytest.raises(framing.FrameTooLargeError):
                proc._backend.call(0, "install_cache_entries", [b"x" * 1000])
            monkeypatch.undo()
            assert proc._backend.call(0, "export_cache", []) == []


class TestLifecycle:
    def test_rebuild_republishes_segments_and_respawns(self):
        with _build("process") as proc:
            before_pids = {proc.worker_pid(i) for i in range(proc.n_shards)}
            wide = SensorQuery(
                region=Rect(0.0, 0.0, EXTENT, EXTENT), staleness_seconds=STALENESS
            )
            first = proc.execute(wide)

            proc.rebuild_index()
            after_pids = {proc.worker_pid(i) for i in range(proc.n_shards)}
            assert before_pids.isdisjoint(after_pids)

            again = proc.execute(wide)
            assert again.result_weight == first.result_weight
            assert not again.partial

    def test_close_unlinks_everything(self):
        proc = _build("process")
        assert len(multiprocessing.active_children()) == proc.n_shards
        proc.close()
        assert multiprocessing.active_children() == []
        # close is idempotent
        proc.close()

    def test_stats_and_explain_survive_dead_worker(self):
        wide = SensorQuery(
            region=Rect(0.0, 0.0, EXTENT, EXTENT), staleness_seconds=STALENESS
        )
        with _build("process") as proc:
            proc.execute(wide)
            assert proc.stats_summary()["shards"][0]["network"]["probes_attempted"] > 0
            proc.kill_shard(0)
            summary = proc.stats_summary()
            assert "federation" in summary
            # The dead worker's counters died with it: no build-time zeros.
            assert summary["shards"][0] == {"down": True}
            assert "down" not in summary["shards"][1]
            assert proc.explain(wide)["skipped_shards"] == [0]

            # A worker that crashed without kill_shard reads the same way.
            os.kill(proc.worker_pid(1), signal.SIGKILL)
            plan = proc.explain(wide)
            assert plan["skipped_shards"] == [0, 1] and plan["shards"] == {}
            assert proc.stats_summary()["shards"][1] == {"down": True}

    def test_coordinator_builds_no_trees(self, monkeypatch):
        """Shards live in the workers only: neither a rebuild nor a
        membership change constructs a COLR-Tree in this process."""
        built = []
        init = COLRTree.__init__

        def counting(self, *args, **kwargs):
            built.append(os.getpid())
            init(self, *args, **kwargs)

        monkeypatch.setattr(COLRTree, "__init__", counting)
        with _build("process") as proc:
            proc.rebuild_index()
            members = [proc.shard_members(i) for i in range(2)]
            moved, members[0] = members[0][:5], members[0][5:]
            members[1] = members[1] + moved
            proc.rebalance_apply({0: members[0], 1: members[1]})
            assert proc.execute(
                SensorQuery(
                    region=Rect(0.0, 0.0, EXTENT, EXTENT),
                    staleness_seconds=STALENESS,
                )
            ).result_weight > 0
        assert built == []


class TestRestage:
    def test_same_spec_and_primed_write_identical_checkpoint_on_both_backends(
        self, tmp_path
    ):
        """A restaged shard is built with its migrated cache in-process or
        in a freshly forked worker, and written once: the two
        ``checkpoint-1`` files are byte-identical."""
        from dataclasses import replace

        fed = _build("inprocess")
        fed.execute(_queries()[0])
        primed = fed.rebalance_capture(0)
        assert primed
        spec = fed._spec(0, fed.shard_members(0))
        now = fed.clock.now()
        specs = {
            name: replace(
                spec, storage=StorageConfig(data_dir=tmp_path / name, fsync_enabled=False)
            )
            for name in ("inprocess", "process")
        }
        InProcessBackend(SimClock(now)).stage(specs["inprocess"], primed).close()
        backend = ProcessBackend(SimClock(now))
        try:
            backend.commit({0: backend.stage(specs["process"], primed)})
        finally:
            backend.close()
        files = [tmp_path / name / "checkpoint-1.db" for name in specs]
        assert files[0].read_bytes() == files[1].read_bytes()
