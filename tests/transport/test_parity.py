"""Bit-identity of the dispatcher's parity mode with ``network.probe``.

``TransportConfig.parity()`` (no retries, no overlap, no dedup tables,
no cooldown) — what a portal built without a transport config runs —
must leave zero observable trace: answers, stats, network counters and
availability estimates all match a portal whose probes are direct
``network.probe`` calls (``tests/transport/sync_probe.py``) — across
multiple ticks, flaky networks, and both ``execute`` and
``execute_batch``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import COLRTree, SensorNetwork
from repro.geometry import GeoPoint, Rect
from repro.portal import SensorMapPortal, SensorQuery
from repro.relcolr import RelCOLRTree
from repro.transport import TransportConfig

from tests.transport.sync_probe import use_sync_probe


def _build_portal(transport=None, availability=1.0, n=150):
    rng = np.random.default_rng(5)
    portal = SensorMapPortal(max_sensors_per_query=None, transport=transport)
    for x, y in rng.random((n, 2)) * 100:
        portal.register_sensor(
            GeoPoint(float(x), float(y)),
            expiry_seconds=300.0,
            availability=availability,
        )
    portal.rebuild_index()
    return portal


def _assert_answers_identical(plain, parity):
    assert len(plain.answers) == len(parity.answers)
    for a, b in zip(plain.answers, parity.answers):
        assert a.probed_readings == b.probed_readings
        assert a.cached_readings == b.cached_readings
        assert a.cached_sketches == b.cached_sketches
        assert a.cached_sketch_nodes == b.cached_sketch_nodes
        assert a.terminals == b.terminals
        assert a.stats == b.stats
    assert plain.groups == parity.groups
    assert plain.processing_seconds == parity.processing_seconds
    assert plain.collection_seconds == parity.collection_seconds


QUERIES = [
    SensorQuery(region=Rect(10.0, 10.0, 60.0, 60.0), staleness_seconds=120.0),
    SensorQuery(region=Rect(40.0, 30.0, 90.0, 85.0), staleness_seconds=120.0),
    SensorQuery(
        region=Rect(0.0, 0.0, 100.0, 100.0),
        staleness_seconds=120.0,
        sample_size=25,
    ),
    SensorQuery(region=Rect(55.0, 5.0, 95.0, 45.0), staleness_seconds=60.0),
]


@pytest.mark.parametrize("availability", [1.0, 0.8])
def test_execute_parity_over_ticks(availability):
    plain = use_sync_probe(_build_portal(availability=availability))
    parity = _build_portal(availability=availability)
    for _ in range(3):
        for query in QUERIES:
            _assert_answers_identical(plain.execute(query), parity.execute(query))
        plain.clock.advance(45.0)
        parity.clock.advance(45.0)
    assert plain.network.stats == parity.network.stats


@pytest.mark.parametrize("availability", [1.0, 0.8])
def test_execute_batch_parity_over_ticks(availability):
    plain = use_sync_probe(_build_portal(availability=availability))
    parity = _build_portal(availability=availability)
    for _ in range(3):
        a = plain.execute_batch(QUERIES)
        b = parity.execute_batch(QUERIES)
        assert len(a.results) == len(b.results)
        for ra, rb in zip(a.results, b.results):
            _assert_answers_identical(ra, rb)
        assert a.stats == b.stats
        for result in b.results:
            for answer in result.answers:
                assert answer.stats.probes_deduped == 0
                assert answer.stats.probes_cooldown_skipped == 0
                assert answer.stats.probes_retried == 0
        plain.clock.advance(45.0)
        parity.clock.advance(45.0)
    assert plain.network.stats == parity.network.stats


def test_parity_config_is_parity():
    cfg = TransportConfig.parity()
    assert cfg.max_retries == 0
    assert cfg.overlap_enabled is False
    assert cfg.inflight_ttl == 0.0
    assert cfg.cooldown_seconds == 0.0
    assert TransportConfig() != cfg


def test_unconfigured_transport_means_parity_dispatcher():
    """No transport config is not "no dispatcher": the portal, a bare
    ``COLRTree`` and a ``RelCOLRTree`` each hold one in parity mode."""
    portal = _build_portal(n=20)
    sensors = portal.registry.all()
    tree = COLRTree(sensors, network=SensorNetwork(sensors))
    rel = RelCOLRTree(sensors, network=SensorNetwork(sensors))
    assert portal.dispatcher.config == TransportConfig.parity()
    assert portal.tree("generic").transport is portal.dispatcher
    assert tree.transport.config == TransportConfig.parity()
    assert rel.dispatcher.config == TransportConfig.parity()
