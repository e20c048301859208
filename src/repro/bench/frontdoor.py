"""Front-door benchmark: tiered result cache, streaming gathers,
admission control.

Three probes, each with its own acceptance gates:

* **Cache tiers** — the Zipf multi-tenant Live-Local viewport stream
  runs through two identically built portals, one behind the tiered
  cache and one with caching disabled (both quantize viewports — the
  serving contract, not a cache trick).  Gates: warm-half L1+L2 hit
  rate >= 50%; cache-hit serving p99 at least 5x below the uncached
  serving p99.
* **Streaming gathers** — twin degraded federations (one shard killed)
  drive the same standing viewports through the continuous-query
  manager, one with synchronous gathers and one publishing at a
  freshness deadline.  Gates: streaming per-tick published-latency p99
  <= 0.7x sync; on a healthy fleet the streaming *final* answer is
  bit-identical to the synchronous gather (asserted with the
  federation bench's own parity comparator).
* **Admission** — the uncached open-loop serving harness runs at 2x
  the calibrated sustainable rate with admission off, then on.  Gates:
  admission keeps served p99 <= 0.5x the unprotected p99; shedding
  actually happened; and the accounting is exact (offered == served +
  shed — nothing disappears silently).

``--quick`` shrinks the fleet; every gate is still checked.

Run with ``PYTHONPATH=src python -m repro.bench frontdoor``.
"""

from __future__ import annotations

from repro.bench.federation import (
    VIEWPORT_HALF_RANGE,
    _assert_identical,
    make_federation,
)
from repro.bench.fleets import STALENESS, hotspot_pool, uncapped_portal
from repro.bench.harness import StreamSummary
from repro.bench.report import timed
from repro.bench.runner import Bench
from repro.federation.federated import RETRY_BACKOFF_BASE
from repro.frontdoor import (
    AdmissionConfig,
    FrontDoor,
    FrontDoorConfig,
    OpenLoopRunner,
)
from repro.portal import SensorMapPortal, SensorQuery
from repro.portal.continuous import ContinuousQueryManager
from repro.workloads import LiveLocalWorkload, OpenLoopWorkload

CACHE_ON = FrontDoorConfig(admission=AdmissionConfig(enabled=False))
CACHE_OFF = FrontDoorConfig(
    l1_capacity=0, l2_enabled=False, admission=AdmissionConfig(enabled=False)
)


def make_livelocal_portal(n_sensors: int, seed: int) -> SensorMapPortal:
    """The Live-Local fleet behind an uncapped portal."""
    return uncapped_portal(LiveLocalWorkload(n_sensors=n_sensors, seed=seed).sensors())


def make_requests(n_sensors: int, n_requests: int, seed: int, target_qps: float):
    return OpenLoopWorkload(
        base=LiveLocalWorkload(
            n_sensors=n_sensors, n_queries=n_requests, seed=seed
        ),
        n_requests=n_requests,
        target_qps=target_qps,
        seed=seed,
    ).requests()


# ----------------------------------------------------------------------
# Probe 1: cache tiers
# ----------------------------------------------------------------------
def run_cache_probe(
    n_sensors: int, n_requests: int, seed: int, target_qps: float = 50.0
) -> dict:
    """Drive the same stream through a cached and an uncached front
    door (fresh but identically seeded portals), advancing the clock to
    each arrival so slot windows age realistically.  Serving cost is
    ``FrontDoorResult.service_seconds`` — queueing is probe 3's
    subject, not this one's."""
    requests = make_requests(n_sensors, n_requests, seed, target_qps)
    out: dict = {"n_sensors": n_sensors, "n_requests": n_requests}
    services: dict[str, list] = {}
    for name, config in (("on", CACHE_ON), ("off", CACHE_OFF)):
        portal = make_livelocal_portal(n_sensors, seed)
        door = FrontDoor(portal, config)
        t0 = portal.clock.now()
        records = []
        for req in requests:
            target = t0 + req.arrival_seconds
            if target > portal.clock.now():
                portal.clock.advance(target - portal.clock.now())
            res = door.execute(req.query)
            records.append(res)
        warm = records[len(records) // 2 :]
        warm_hits = sum(1 for r in warm if r.cache_hit)
        summary = StreamSummary(r.service_seconds for r in records)
        services[name] = records
        out[name] = {
            "served": len(records),
            "warm_hit_rate": warm_hits / max(1, len(warm)),
            "served_from": {
                tier: sum(1 for r in records if r.served_from == tier)
                for tier in ("l1", "l2", "portal")
            },
            "service_seconds": summary.as_dict(),
            "cache": door.cache.stats.as_dict(),
        }
    hit_services = StreamSummary(
        r.service_seconds for r in services["on"] if r.cache_hit
    )
    off_p99 = out["off"]["service_seconds"]["p99"]
    out["hit_service_seconds"] = hit_services.as_dict() if hit_services.count else None
    out["hit_p99_speedup"] = (
        off_p99 / hit_services.p99 if hit_services.count else 0.0
    )
    return out


# ----------------------------------------------------------------------
# Probe 2: streaming gathers
# ----------------------------------------------------------------------
def _standing_viewports(n: int, seed: int) -> list[SensorQuery]:
    return [
        SensorQuery(region=region, staleness_seconds=STALENESS)
        for region in hotspot_pool(n, seed, VIEWPORT_HALF_RANGE)
    ]


def run_streaming_probe(
    n_sensors: int,
    seed: int,
    n_shards: int = 4,
    n_subscriptions: int = 12,
    warm_ticks: int = 2,
    degraded_ticks: int = 4,
    tick_seconds: float = 45.0,
) -> dict:
    """Continuous ticks over twin federations with a killed shard: the
    synchronous manager waits out the dead shard's retry penalty every
    tick; the streaming manager publishes at the deadline and defers
    the stragglers to the next refresh."""

    # Healthy-fleet bit-identity: the streaming final IS the sync
    # gather.  Twin federations (execute consumes shard RNG, so one
    # portal cannot serve both sides).
    fed_a = make_federation(n_sensors, seed, n_shards)
    fed_b = make_federation(n_sensors, seed, n_shards)
    identity_cells = 0
    for query in _standing_viewports(4, seed + 7):
        _assert_identical(
            f"streaming-final/q{identity_cells}",
            fed_a.execute(query),
            fed_b.execute_streaming(query).final,
        )
        identity_cells += 1

    queries = _standing_viewports(n_subscriptions, seed + 11)

    def run_side(deadline: float | None, probe_deadline: bool = False):
        fed = make_federation(n_sensors, seed, n_shards)
        manager = ContinuousQueryManager(
            fed, gather_deadline_seconds=deadline
        )
        for query in queries:
            manager.subscribe(query, refresh_seconds=tick_seconds)
        published: list[float] = []
        healthy_max = 0.0
        for t in range(warm_ticks):
            manager.tick()
            # Calibrate off the *last* warm tick only: the first tick
            # runs cold (every slot cache empty) and would inflate the
            # deadline past the dead shard's retry penalty.
            if probe_deadline and t == warm_ticks - 1:
                healthy_max = max(
                    s.last_result.collection_seconds
                    for s in manager.subscriptions()
                )
            fed.clock.advance(tick_seconds)
        fed.kill_shard(n_shards // 2)
        for t in range(degraded_ticks):
            for subscription, _delta in manager.tick():
                published.append(subscription.last_result.collection_seconds)
            fed.clock.advance(tick_seconds)
        return fed, published, healthy_max

    # Calibrate the deadline off the sync side's *healthy* warm ticks:
    # generous enough that a healthy gather always beats it, tight
    # enough to cut out the dead shard's retry backoff.
    fed_sync, sync_published, healthy_max = run_side(None, probe_deadline=True)
    deadline = min(healthy_max * 1.25, healthy_max + 0.5 * RETRY_BACKOFF_BASE)
    fed_stream, stream_published, _ = run_side(deadline)

    sync_p99 = StreamSummary(sync_published).p99
    stream_p99 = StreamSummary(stream_published).p99
    return {
        "n_sensors": n_sensors,
        "n_shards": n_shards,
        "n_subscriptions": n_subscriptions,
        "identity_cells": identity_cells,
        "healthy_tick_max_seconds": healthy_max,
        "deadline_seconds": deadline,
        "degraded_sync_p99": sync_p99,
        "degraded_streaming_p99": stream_p99,
        "streaming_vs_sync": stream_p99 / sync_p99 if sync_p99 else 1.0,
        "deferred_shard_answers": fed_stream.stats.deferred_shard_answers,
        "streaming_queries": fed_stream.stats.streaming_queries,
    }


# ----------------------------------------------------------------------
# Probe 3: admission at 2x sustainable load
# ----------------------------------------------------------------------
def run_admission_probe(
    n_sensors: int,
    n_requests: int,
    seed: int,
    max_batch: int = 8,
    queue_depth: int = 8,
) -> dict:
    """Open-loop serving at twice the sustainable rate, uncached (clean
    capacity arithmetic), admission off then on.

    The sustainable rate is calibrated on *this* probe's own fleet AND
    its serving shape: a throwaway portal serves a slice of the stream
    in ``max_batch``-sized batches (the runner's shape — batched
    traversals are most of the serving capacity) and the warm-half mean
    per-request cost sets capacity."""
    calibration = make_requests(n_sensors, min(96, max(1, n_requests)), seed + 1, 10.0)
    door = FrontDoor(make_livelocal_portal(n_sensors, seed), CACHE_OFF)
    per_request: list[float] = []
    for i in range(0, len(calibration), max_batch):
        chunk = calibration[i : i + max_batch]
        outcome = door.execute_batch([r.query for r in chunk])
        per_request.extend([outcome.service_seconds / len(chunk)] * len(chunk))
    warm_half = per_request[len(per_request) // 2 :]
    mean_service_seconds = sum(warm_half) / max(1, len(warm_half))
    sustainable_qps = 1.0 / max(1e-9, mean_service_seconds)
    offered_qps = 2.0 * sustainable_qps
    out: dict = {
        "n_sensors": n_sensors,
        "n_requests": n_requests,
        "mean_service_seconds": mean_service_seconds,
        "sustainable_qps": sustainable_qps,
        "offered_qps": offered_qps,
        "max_batch": max_batch,
        "queue_depth": queue_depth,
    }
    requests = make_requests(n_sensors, n_requests, seed + 1, offered_qps)
    n_tenants = max(t.tenant for t in requests) + 1
    admission_on = AdmissionConfig(
        # Per-tenant fair share of the *sustainable* rate with headroom:
        # hot Zipf tenants blow through it (shed_rate), the backlog guard
        # catches the rest (shed_queue).
        tenant_rate_qps=2.0 * sustainable_qps / n_tenants,
        tenant_burst=max(2.0, queue_depth / 4),
        queue_depth=queue_depth,
    )
    for name, admission in (
        ("off", AdmissionConfig(enabled=False)),
        ("on", admission_on),
    ):
        config = FrontDoorConfig(l1_capacity=0, l2_enabled=False, admission=admission)
        door = FrontDoor(make_livelocal_portal(n_sensors, seed), config)
        report = OpenLoopRunner(door, max_batch=max_batch).run(requests)
        stats = door.admission.stats
        out[name] = {
            "report": report.as_dict(),
            "admission": stats.as_dict(),
            "accounting_exact": stats.offered
            == stats.admitted + stats.shed_rate + stats.shed_queue
            and report.offered == len(requests),
        }
    off_p99 = out["off"]["report"]["latency"]["p99"]
    on_p99 = out["on"]["report"]["latency"]["p99"]
    out["p99_ratio_on_vs_off"] = on_p99 / off_p99 if off_p99 else 1.0
    return out


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run(n_sensors: int, n_requests: int, seed: int) -> dict:
    cache = timed(run_cache_probe, n_sensors, n_requests, seed)
    streaming = timed(run_streaming_probe, min(n_sensors, 4_000), seed)
    # The unprotected baseline's pain is its backlog, which takes a
    # long enough open-loop horizon to accumulate — don't shrink the
    # stream below 600 arrivals except in quick mode.
    admission = timed(
        run_admission_probe, min(n_sensors, 4_000), min(n_requests, 600), seed
    )
    return {
        "phases": {"cache": cache, "streaming": streaming, "admission": admission},
        "checks": {
            "warm_hit_rate_ge_50pct": cache["on"]["warm_hit_rate"] >= 0.50,
            "hit_p99_speedup_ge_5x": cache["hit_p99_speedup"] >= 5.0,
            # A tile fill writes only the sensors of the tiles it fills,
            # so it must not strand its own viewport's compose.
            "fill_fallbacks_le_5pct_of_misses": cache["on"]["cache"]["fill_fallbacks"]
            <= 0.05 * cache["on"]["cache"]["misses"],
            "streaming_p99_le_0.7x_sync": streaming["streaming_vs_sync"] <= 0.7,
            "streaming_final_bit_identical": streaming["identity_cells"] > 0,
            "admission_p99_le_0.5x_unprotected": admission["p99_ratio_on_vs_off"]
            <= 0.5,
            "admission_shed_metered": admission["on"]["admission"]["shed_rate"]
            + admission["on"]["admission"]["shed_queue"]
            > 0,
            "admission_accounting_exact": admission["on"]["accounting_exact"]
            and admission["off"]["accounting_exact"],
        },
    }


BENCH = Bench(
    name="frontdoor",
    full={"n_sensors": 40_000, "n_requests": 2_000, "seed": 0},
    quick={"n_sensors": 2_500, "n_requests": 300, "seed": 0},
    run=run,
)
