"""A live dashboard: standing queries + model-based estimates.

Combines two portal-layer features on top of the index:

* a :class:`ContinuousQueryManager` keeps two viewports refreshed and
  reports deltas (what appeared / changed) as simulated time advances;
* a :class:`ModelView` answers "what is it like *here*?" at arbitrary
  map points from cached data alone — zero extra sensor probes.

Run:  python examples/live_dashboard.py
"""

import numpy as np

from repro import COLRTreeConfig, GeoPoint, Rect, SpatialField
from repro.models import ModelView
from repro.portal import ContinuousQueryManager, SensorMapPortal, SensorQuery

from repro.sensors.registry import SensorRegistry


def main() -> None:
    # A temperature-like field sensed by 3,000 stations.
    domain = Rect(0, 0, 100, 100)
    field = SpatialField(domain, n_bumps=7, amplitude=15.0, base=60.0, noise_sigma=0.3, seed=9)
    rng = np.random.default_rng(9)
    registry = SensorRegistry()
    for _ in range(3_000):
        registry.register(
            GeoPoint(float(rng.uniform(0, 100)), float(rng.uniform(0, 100))),
            expiry_seconds=float(rng.uniform(180, 600)),
            sensor_type="weather",
            availability=0.95,
        )
    portal = SensorMapPortal(
        COLRTreeConfig(max_expiry_seconds=600.0, slot_seconds=120.0),
        value_fn=lambda s, t: field.sample(s.location, t),
        max_sensors_per_query=200,
    )
    portal.register_all(registry.all())
    portal.rebuild_index()

    # Two users keep viewports open; the manager refreshes them.
    manager = ContinuousQueryManager(portal)
    downtown = manager.subscribe(
        SensorQuery(region=Rect(20, 20, 40, 40), staleness_seconds=180.0,
                    sample_size=25, aggregate="avg"),
        refresh_seconds=120.0,
    )
    suburbs = manager.subscribe(
        SensorQuery(region=Rect(50, 50, 90, 90), staleness_seconds=180.0,
                    sample_size=25, aggregate="avg"),
        refresh_seconds=120.0,
    )

    print("t(s)   viewport   avg    appeared  changed  probes")
    for _ in range(5):
        for subscription, delta in manager.tick():
            name = "downtown" if subscription is downtown else "suburbs"
            result = subscription.last_result
            probes = sum(a.stats.sensors_probed for a in result.answers)
            print(
                f"{portal.clock.now():5.0f}  {name:>9}  {result.aggregate():5.1f}  "
                f"{len(delta.appeared):8d}  {len(delta.changed):7d}  {probes:6d}"
            )
        portal.clock.advance(120.0)

    # Model view: estimate conditions anywhere from the warm cache.
    tree = portal.tree("weather")
    view = ModelView(tree)
    print("\nmodel-based point estimates (no probes once the cache is warm):")
    for x, y in ((30.0, 30.0), (70.0, 70.0), (10.0, 90.0)):
        estimate = view.estimate_at(
            GeoPoint(x, y), now=portal.clock.now(), max_staleness=600.0
        )
        truth = field.mean_value(GeoPoint(x, y), portal.clock.now())
        print(f"  at ({x:.0f},{y:.0f}): model {estimate:5.1f}  field {truth:5.1f}")


if __name__ == "__main__":
    main()
