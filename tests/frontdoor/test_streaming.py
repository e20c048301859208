"""Streaming gather semantics beyond bit-parity: what a deadline
publishes on a degraded fleet, the monotone-subset guarantee, the
continuous-query manager's deadline path, and the process backend."""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.federation import FederationConfig
from repro.federation.federated import RETRY_BACKOFF_BASE, RETRY_BACKOFF_MULTIPLIER
from repro.portal.continuous import ContinuousQueryManager

from tests.frontdoor.conftest import (
    exact_query,
    make_fed,
    values_by_sensor,
)
from repro.geometry import Rect

QUERY_RECT = Rect(0.5, 0.5, 9.5, 9.5)  # routes to every shard
# A killed shard retried three times fails after 0.5 + 1 + 2 = 3.5 s of
# backoff, well after every healthy answer (0.6 s cold).
RETRIES = 3
FAILURE_LANDS = sum(
    RETRY_BACKOFF_BASE * RETRY_BACKOFF_MULTIPLIER**k for k in range(RETRIES)
)


def _degraded_gather(seed: int = 0, deadline: float = 2.0):
    """Twin reliable federations with one killed shard: the probe run
    (no deadline) pins the arrival timeline, the measured run publishes
    at ``deadline``.  The three retries' backoff guarantees the killed
    shard's failure lands after every healthy answer."""
    probe = make_fed(seed=seed, shard_retry_budget=RETRIES)
    fed = make_fed(seed=seed, shard_retry_budget=RETRIES)
    for f in (probe, fed):
        f.kill_shard(1)
    timeline = probe.execute_streaming(exact_query(QUERY_RECT))
    ok_landings = [a.landed_at for a in timeline.arrivals if a.status == "ok"]
    fail_landings = [a.landed_at for a in timeline.arrivals if a.status != "ok"]
    assert max(ok_landings) < deadline < min(fail_landings), "bad test calibration"
    gather = fed.execute_streaming(exact_query(QUERY_RECT), deadline_seconds=deadline)
    return fed, gather


class TestDegradedDeadline:
    def test_first_publishes_at_the_deadline_without_the_dead_shard(self):
        fed, gather = _degraded_gather()
        first, final = gather.first, gather.final
        assert first is not final
        # The killed shard's failure is still pending at the deadline:
        # it is deferred, the answer is partial, and the publish is held
        # exactly until the deadline.
        assert 1 in first.deferred_shards
        assert first.partial
        assert first.collection_seconds == gather.deadline_seconds
        # The final merge waited out the retry backoff and records the
        # failure instead.
        assert final.collection_seconds > first.collection_seconds
        assert 1 in final.failed_shards
        assert fed.stats.deferred_shard_answers >= 1
        assert fed.stats.streaming_queries >= 1

    def test_first_is_a_monotone_subset_of_final(self):
        _, gather = _degraded_gather(seed=1)
        first_values = values_by_sensor(gather.first)
        final_values = values_by_sensor(gather.final)
        assert set(first_values) <= set(final_values)
        for sensor_id, value in first_values.items():
            assert final_values[sensor_id] == value
        assert gather.first.result_weight <= gather.final.result_weight

    def test_generous_deadline_defers_nothing_healthy(self):
        fed = make_fed(seed=2)
        gather = fed.execute_streaming(
            exact_query(QUERY_RECT), deadline_seconds=1e9
        )
        assert gather.first is gather.final
        assert gather.first.deferred_shards == ()
        assert not gather.final.partial


class TestContinuousManager:
    def test_deadline_bounds_published_tick_latency_when_degraded(self):
        deadline = 2.0
        fed_sync = make_fed(seed=3, shard_retry_budget=RETRIES)
        fed_stream = make_fed(seed=3, shard_retry_budget=RETRIES)
        sync = ContinuousQueryManager(fed_sync)
        stream = ContinuousQueryManager(fed_stream, gather_deadline_seconds=deadline)
        for manager in (sync, stream):
            manager.subscribe(exact_query(QUERY_RECT), refresh_seconds=45.0)
        for manager, fed in ((sync, fed_sync), (stream, fed_stream)):
            manager.tick()  # warm, healthy
            fed.clock.advance(45.0)
            fed.kill_shard(1)
            manager.tick()
        sync_latency = next(iter(sync.subscriptions())).last_result.collection_seconds
        stream_latency = next(
            iter(stream.subscriptions())
        ).last_result.collection_seconds
        # Sync waits out the 3.5 s retry backoff; streaming publishes the
        # partial answer at the deadline.
        assert FAILURE_LANDS == 3.5
        assert sync_latency >= FAILURE_LANDS
        assert stream_latency == deadline
        assert next(iter(stream.subscriptions())).last_result.partial


class TestProcessBackend:
    def test_streaming_matches_inprocess_backend(self):
        from repro.bench.federation import _assert_identical

        inproc = make_fed(n=300, seed=5, n_shards=2)
        proc = make_fed(n=300, seed=5, n_shards=2, execution="process")
        try:
            assert proc.worker_pid(0) is not None  # shards live in workers
            query = exact_query(Rect(1.0, 1.0, 9.0, 9.0))
            for phase in ("cold", "warm"):
                _assert_identical(
                    f"process-streaming/{phase}",
                    inproc.execute_streaming(query).final,
                    proc.execute_streaming(query).final,
                )
        finally:
            proc.close()

    def test_invalid_execution_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            FederationConfig(execution="fibers")


# One case per entry point that takes a deadline: a NaN fails every
# comparison, so only a negated conjunction rejects it.
NAN, INF = float("nan"), float("inf")


def _gather_deadline(fed, value):
    ContinuousQueryManager(fed, gather_deadline_seconds=value)


def _streaming(fed, value):
    fed.execute_streaming(exact_query(QUERY_RECT), value)


class TestDeadlineValidation:
    @pytest.mark.parametrize(
        "entry, value",
        [
            (_gather_deadline, NAN),
            (_streaming, NAN),
            (_streaming, -1.0),
            (_streaming, 0.0),
        ],
        ids=[
            "gather-deadline-nan",
            "streaming-nan",
            "streaming-negative",
            "streaming-zero",
        ],
    )
    def test_rejected_before_anything_runs(self, entry, value):
        fed = make_fed(n=120, seed=6)
        before = asdict(fed.stats)
        with pytest.raises(ValueError):
            entry(fed, value)
        assert asdict(fed.stats) == before

    @pytest.mark.parametrize("value", [None, INF], ids=["none", "inf"])
    def test_reports_the_deadline_the_caller_passed(self, value):
        fed = make_fed(n=120, seed=6)
        gather = fed.execute_streaming(exact_query(QUERY_RECT), value)
        assert gather.deadline_seconds == value
