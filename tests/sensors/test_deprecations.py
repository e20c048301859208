"""Deprecation surface of the sensors package.

``ProbeResult.failed`` went through the full cycle: deprecated in the
sharded-federation PR, removed once every internal caller had migrated
to the ``unavailable`` / ``timed_out`` split.  These tests pin the
removal so the combined property cannot quietly come back.
"""

from __future__ import annotations

import warnings

from repro import AvailabilityModel, SensorNetwork

from tests.conftest import make_registry


def _probe(availability=0.0, n=10):
    registry = make_registry(n=n, availability=availability, seed=5)
    network = SensorNetwork(
        registry.all(), availability_model=AvailabilityModel(), seed=2
    )
    return network.probe([s.sensor_id for s in registry.all()], now=0.0)


class TestProbeResultFailedRemoval:
    def test_failed_property_is_gone(self):
        result = _probe()
        assert not hasattr(result, "failed")

    def test_replacements_do_not_warn(self):
        result = _probe()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            _ = result.unavailable
            _ = result.timed_out
