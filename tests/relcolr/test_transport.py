"""Relational COLR-Tree probe collection through the transport layer.

``RelCOLRTree`` routes ``query()``'s probe round through a
``ProbeDispatcher`` configured by ``transport=...``; ingestion stays
pure DML (the dispatcher gets ``tree=None``), so the trigger cascade is
untouched.  In parity mode the transport path must be bit-identical to
a direct synchronous ``network.probe`` call
(``tests/transport/sync_probe.py``); with the dedup tables on,
overlapping queries stop re-contacting sensors."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import (
    AvailabilityModel,
    COLRTreeConfig,
    Rect,
    SensorNetwork,
)
from repro.relcolr import RelCOLRTree
from repro.transport import TransportConfig

from tests.conftest import cached_rows, make_registry
from tests.transport.sync_probe import SyncProbeDispatcher


CFG = COLRTreeConfig(
    fanout=4,
    leaf_capacity=16,
    max_expiry_seconds=600.0,
    slot_seconds=120.0,
)


def make_rel(registry, transport=None, availability=None, seed=2):
    network = SensorNetwork(
        registry.all(), availability_model=AvailabilityModel(), seed=seed
    )
    return RelCOLRTree(
        registry.all(), CFG, network=network, build_method="str", transport=transport
    )


def make_sync_rel(registry):
    """A tree whose probe round is a direct ``network.probe`` call."""
    rel = make_rel(registry)
    rel.dispatcher = SyncProbeDispatcher(rel.network)
    return rel


REGIONS = [
    Rect(10.0, 10.0, 60.0, 60.0),
    Rect(30.0, 25.0, 90.0, 80.0),
    Rect(0.0, 0.0, 100.0, 100.0),
]


class TestConstruction:
    def test_transport_requires_network(self):
        registry = make_registry(n=40, seed=4)
        with pytest.raises(ValueError):
            RelCOLRTree(registry.all(), CFG, transport=TransportConfig.parity())


class TestParity:
    @pytest.mark.parametrize("availability", [1.0, 0.7])
    def test_query_parity_with_sync_path(self, availability):
        """Parity-mode transport leaves no observable trace on the
        relational query path: answers, stats, cached state and network
        counters all match the synchronous tree over multiple ticks."""
        sync = make_sync_rel(make_registry(n=150, availability=availability, seed=4))
        via = make_rel(
            make_registry(n=150, availability=availability, seed=4),
            transport=TransportConfig.parity(),
        )
        for tick in range(3):
            now = tick * 45.0
            for region in REGIONS:
                a = sync.query(region, now=now, max_staleness=120.0, sample_size=25)
                b = via.query(region, now=now, max_staleness=120.0, sample_size=25)
                assert a.probed_readings == b.probed_readings
                assert a.cached_readings == b.cached_readings
                assert a.cached_sketches == b.cached_sketches
                assert a.stats == b.stats
                assert a.terminals == b.terminals
        assert sync.network.stats == via.network.stats
        assert cached_rows(sync) == cached_rows(via)

    def test_exact_query_parity(self):
        sync = make_sync_rel(make_registry(n=100, seed=9))
        via = make_rel(
            make_registry(n=100, seed=9), transport=TransportConfig.parity()
        )
        a = sync.query(Rect(0, 0, 100, 100), now=0.0, max_staleness=60.0,
                       sample_size=10**9)
        b = via.query(Rect(0, 0, 100, 100), now=0.0, max_staleness=60.0,
                      sample_size=10**9)
        assert a.probed_readings == b.probed_readings
        assert a.stats == b.stats


class TestDedup:
    def test_recent_failures_not_recontacted_within_ttl(self):
        """With the recently-probed table on, a failed sensor is not
        re-contacted by a second query inside the ttl — the relational
        path gets the transport layer's traffic savings."""
        registry = make_registry(n=120, availability=0.5, seed=4)
        rel = make_rel(
            registry,
            transport=replace(TransportConfig.parity(), inflight_ttl=60.0),
        )
        region = Rect(0.0, 0.0, 100.0, 100.0)
        rel.query(region, now=0.0, max_staleness=120.0, sample_size=10**9)
        attempted = rel.network.stats.probes_attempted
        failures = attempted - rel.network.stats.probes_succeeded
        assert failures > 0
        # Same exact query 10s later: successes are in the leaf cache
        # (not re-selected), failures are re-selected but absorbed by
        # the dispatcher's cached-failure entries.
        rel.query(region, now=10.0, max_staleness=120.0, sample_size=10**9)
        assert rel.network.stats.probes_attempted == attempted
        assert rel.dispatcher.stats.dedup_recent == failures

    def test_ingestion_stays_relational(self):
        """The dispatcher never ingests for the relational tree — the
        round is submitted with ``tree=None`` and readings land in the
        leaf-cache table via DML (visible to a later cache read)."""
        registry = make_registry(n=80, seed=4)
        rel = make_rel(registry, transport=TransportConfig.parity())
        answer = rel.query(
            Rect(0, 0, 100, 100), now=0.0, max_staleness=120.0, sample_size=10**9
        )
        assert rel.dispatcher.stats.streamed_readings == 0
        assert cached_rows(rel) == len(answer.probed_readings)
