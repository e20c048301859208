"""``SensorNetwork.probe`` behind the dispatcher's interface.

Index code used to call ``network.probe`` inline when no transport was
configured; now every probe goes through a ``ProbeDispatcher`` and
"no transport" means ``TransportConfig.parity()``.  This stand-in keeps
the old synchronous call as the reference the parity suites compare the
parity configuration against, across whole portals and many ticks.
"""

from __future__ import annotations

import math

from repro.transport import ProbeRound, TransportConfig, TransportStats


class SyncProbeDispatcher:
    """One blocking ``network.probe`` per round, no tables, no events."""

    streams_ingestion = False

    def __init__(self, network) -> None:
        self.network = network
        self.config = TransportConfig.parity()
        self.stats = TransportStats()

    def submit(self, sensor_ids, now, tree=None, max_staleness=math.inf):
        rnd = ProbeRound(list(sensor_ids), now, tree)
        rnd.contacted = list(rnd.requested)
        return rnd

    def drain(self, rounds):
        for rnd in rounds:
            result = self.network.probe(rnd.requested, rnd.now)
            rnd.readings = dict(result.readings)
            rnd.unavailable = list(result.unavailable)
            rnd.timed_out = list(result.timed_out)
            rnd.latency_seconds = result.latency_seconds
            rnd.resolved = True

    def collect(self, sensor_ids, now, tree=None, max_staleness=math.inf):
        rnd = self.submit(sensor_ids, now, tree=tree, max_staleness=max_staleness)
        self.drain([rnd])
        return rnd


def use_sync_probe(portal):
    """Swap a built portal's dispatcher (and its trees') for the
    synchronous reference."""
    reference = SyncProbeDispatcher(portal.network)
    portal._dispatcher = reference
    for sensor_type in portal.sensor_types():
        portal.tree(sensor_type).transport = reference
    return portal
