"""Admission control and the open-loop serving harness: token-bucket
arithmetic, the queue-guard-first ordering, exact shed accounting, and
the runner's queueing physics."""

from __future__ import annotations

import pytest

from repro.frontdoor import (
    AdmissionConfig,
    AdmissionController,
    FrontDoor,
    FrontDoorConfig,
    OpenLoopRunner,
    TokenBucket,
)
from repro.geometry import Rect
from repro.workloads import TenantRequest

from tests.frontdoor.conftest import exact_query, make_portal


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        bucket = TokenBucket(rate_qps=1.0, burst=3.0)
        assert [bucket.try_take(0.0) for _ in range(4)] == [True, True, True, False]

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate_qps=2.0, burst=2.0)
        assert bucket.try_take(0.0) and bucket.try_take(0.0)
        assert not bucket.try_take(0.0)
        # 0.5 s at 2 tokens/s -> exactly one token back.
        assert bucket.try_take(0.5)
        assert not bucket.try_take(0.5)

    def test_refill_capped_at_burst(self):
        bucket = TokenBucket(rate_qps=100.0, burst=2.0)
        assert bucket.try_take(0.0)
        taken = 0
        while bucket.try_take(1000.0):
            taken += 1
        assert taken == 2  # long idle refills to burst, never beyond


class TestAdmissionController:
    def _controller(self, **kwargs) -> AdmissionController:
        defaults = dict(
            enabled=True, tenant_rate_qps=1.0, tenant_burst=2.0, queue_depth=4
        )
        defaults.update(kwargs)
        return AdmissionController(AdmissionConfig(**defaults))

    def test_disabled_admits_everything(self):
        controller = self._controller(enabled=False)
        for _ in range(100):
            assert controller.offer("t", now=0.0, queue_depth=10_000) == "admit"
        assert controller.stats.admitted == 100 and controller.stats.shed == 0

    def test_queue_guard_runs_before_the_bucket(self):
        controller = self._controller()
        # Tokens are available, but the backlog is full: shed_queue, and
        # the tenant's bucket must not be charged.
        assert controller.offer("t", now=0.0, queue_depth=4) == "shed_queue"
        assert controller.offer("t", now=0.0, queue_depth=0) == "admit"
        assert controller.offer("t", now=0.0, queue_depth=0) == "admit"
        assert controller.offer("t", now=0.0, queue_depth=0) == "shed_rate"

    def test_tenants_isolated(self):
        controller = self._controller(tenant_burst=1.0)
        assert controller.offer("hog", now=0.0, queue_depth=0) == "admit"
        assert controller.offer("hog", now=0.0, queue_depth=0) == "shed_rate"
        # A different tenant still has its own full bucket.
        assert controller.offer("quiet", now=0.0, queue_depth=0) == "admit"

    def test_accounting_exact(self):
        controller = self._controller(tenant_burst=1.0, queue_depth=2)
        for i in range(50):
            controller.offer(i % 3, now=0.0, queue_depth=i % 4)
        stats = controller.stats
        assert stats.offered == 50
        assert stats.offered == stats.admitted + stats.shed_rate + stats.shed_queue
        assert stats.shed_fraction == pytest.approx(stats.shed / 50)


# ----------------------------------------------------------------------
# The open-loop runner
# ----------------------------------------------------------------------
def _requests(n: int, gap_seconds: float) -> list[TenantRequest]:
    query = exact_query(Rect(2.0, 2.0, 4.0, 4.0))
    return [
        TenantRequest(tenant=i % 2, arrival_seconds=i * gap_seconds, query=query)
        for i in range(n)
    ]


class TestOpenLoopRunner:
    def test_unprotected_run_serves_everything(self):
        door = FrontDoor(
            make_portal(n=200), FrontDoorConfig(admission=AdmissionConfig(enabled=False))
        )
        requests = _requests(12, gap_seconds=0.01)
        report = OpenLoopRunner(door, max_batch=4).run(requests)
        assert report.offered == 12 and report.served == 12 and report.shed == 0
        latency = report.latency()
        assert latency.count == 12
        assert all(r.latency_seconds >= 0.0 for r in report.records)
        arrivals = [r.arrival_seconds for r in report.records]
        assert arrivals == sorted(arrivals)

    def test_overload_sheds_and_accounts_exactly(self):
        config = FrontDoorConfig(
            l1_capacity=0,
            l2_enabled=False,
            admission=AdmissionConfig(
                tenant_rate_qps=0.5, tenant_burst=2.0, queue_depth=2
            ),
        )
        door = FrontDoor(make_portal(n=200), config)
        # A near-simultaneous burst: buckets drain, then the queue fills.
        report = OpenLoopRunner(door, max_batch=2).run(_requests(30, 1e-4))
        assert report.offered == 30
        assert report.served + report.shed == 30
        assert report.shed > 0
        stats = door.admission.stats
        assert stats.offered == 30
        assert stats.admitted + stats.shed_rate + stats.shed_queue == 30
        assert stats.admitted == report.served
        # Shed requests never reach the cache or the portal, and their
        # record shows a zero-latency rejection at arrival.
        for record in report.records:
            if record.status != "served":
                assert record.status in ("shed_rate", "shed_queue")
                assert record.finish_seconds == record.arrival_seconds
        assert report.max_queue_depth <= config.admission.queue_depth

    def test_latency_includes_queueing_delay(self):
        door = FrontDoor(
            make_portal(n=200),
            FrontDoorConfig(
                l1_capacity=0, l2_enabled=False, admission=AdmissionConfig(enabled=False)
            ),
        )
        # Everything arrives at t=0 with batch size 1: request k cannot
        # start before request k-1 finished, so latency is monotone
        # non-decreasing in queue position.  (Distinct tenants in queue
        # order keep the report's (arrival, tenant) sort = serve order.)
        query = exact_query(Rect(2.0, 2.0, 4.0, 4.0))
        requests = [
            TenantRequest(tenant=i, arrival_seconds=0.0, query=query)
            for i in range(5)
        ]
        report = OpenLoopRunner(door, max_batch=1).run(requests)
        starts = [r.start_seconds for r in report.records]
        finishes = [r.finish_seconds for r in report.records]
        assert starts == sorted(starts)
        for i in range(1, len(report.records)):
            assert starts[i] >= finishes[i - 1]

    def test_rejects_nonpositive_batch(self):
        door = FrontDoor(make_portal(n=50))
        with pytest.raises(ValueError):
            OpenLoopRunner(door, max_batch=0)
