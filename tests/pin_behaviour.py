"""Behaviour pin: one seeded run of every index entry point, as text.

Not a test.  Run it on two checkouts and diff the output to show a
refactor left observable behaviour alone::

    PYTHONPATH=<checkout>/src python tests/pin_behaviour.py [--transport]

Forty ticks over a flaky mixed fleet drive ``SensorMapPortal.execute``
and ``execute_batch`` (plus one closing batch tick that repeats a
viewport, so a shared spatial plan is pinned too), a one-subscription
``ContinuousQueryManager.tick``, ``RelCOLRTree.query`` and a two-shard
``FederatedPortal`` — built without a transport config, or with
``TransportConfig()`` under ``--transport``.  Every answer's sensor
ids, values and ``QueryStats`` fields, every portal result's display
groups in order, and every ``NetworkStats`` and ``TransportStats``
counter, go into one SHA-256 per section.

Twelve more ticks over a denser fleet drive the polygon paths with a
convex hexagon, a concave ring, a thin corridor and a rectangle drawn
as a polygon: ``SensorMapPortal.execute_polygon`` (geoblock planner,
one exact scan of the polygon), the two-shard
``FederatedPortal.execute_polygon`` (clipped routing), and a
``FrontDoor`` over a two-shard federation asked each viewport twice —
the first request fills and composes tiles (boundary tiles cropped per
sensor), the second is served by the cached tier.

``QueryStats.probes_timed_out`` is summed beside the digest instead of
into it: the inline ``network.probe`` branches that PR 13 removed never
copied the network's timeouts into it, so without a transport config it
read 0 there and reads the real count since (``NetworkStats`` had it
all along).
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import asdict

import numpy as np

from repro import AvailabilityModel, COLRTreeConfig, SensorNetwork
from repro.federation import FederatedPortal
from repro.frontdoor import AdmissionConfig, FrontDoor, FrontDoorConfig
from repro.geometry import GeoPoint, Polygon, Rect
from repro.portal import SensorMapPortal, SensorQuery
from repro.portal.continuous import ContinuousQueryManager
from repro.relcolr import RelCOLRTree
from repro.sensors.registry import SensorRegistry
from repro.transport import TransportConfig

TICKS = 40
TICK_SECONDS = 45.0
TYPES = ("temperature", "wind")
NETWORK = {"latency_jitter": 0.3, "timeout_seconds": 0.45}
POLYGON_TICKS = 12
POLYGON_EXTENT = 10.0


def fleet(n: int, seed: int, extent: float = 100.0):
    rng = np.random.default_rng(seed)
    for i in range(n):
        yield dict(
            location=GeoPoint(
                float(rng.uniform(0, extent)), float(rng.uniform(0, extent))
            ),
            expiry_seconds=float(rng.uniform(120, 600)),
            sensor_type=TYPES[i % len(TYPES)],
            availability=0.35 if rng.random() < 0.3 else 0.95,
        )


def queries(tick: int) -> list[SensorQuery]:
    rng = np.random.default_rng(1000 + tick)
    out = []
    for k in range(4):
        cx, cy = (float(v) for v in rng.uniform(15, 85, 2))
        half = float(rng.uniform(5, 25))
        out.append(
            SensorQuery(
                region=Rect(cx - half, cy - half, cx + half, cy + half),
                staleness_seconds=120.0,
                sample_size=20 if k == 2 else None,
                sensor_type=TYPES[0] if k == 3 else None,
            )
        )
    return out


def polygon_queries(tick: int) -> list[SensorQuery]:
    """A convex hexagon, a concave ring, a thin corridor and a rectangle
    drawn as a polygon, each somewhere new every tick."""
    rng = np.random.default_rng(2000 + tick)

    def ring(radii) -> Polygon:
        cx, cy = (float(v) for v in rng.uniform(2.5, 7.5, 2))
        turn = float(rng.uniform(0, 2 * np.pi))
        step = 2 * np.pi / len(radii)
        return Polygon(
            GeoPoint(
                cx + r * float(np.cos(turn + i * step)),
                cy + r * float(np.sin(turn + i * step)),
            )
            for i, r in enumerate(radii)
        )

    def corridor() -> Polygon:
        cx, cy = (float(v) for v in rng.uniform(2.5, 7.5, 2))
        turn = float(rng.uniform(0, np.pi))
        ux, uy = 1.4 * float(np.cos(turn)), 1.4 * float(np.sin(turn))
        px, py = -0.08 * uy, 0.08 * ux
        return Polygon(
            [
                GeoPoint(cx - ux + px, cy - uy + py),
                GeoPoint(cx + ux + px, cy + uy + py),
                GeoPoint(cx + ux - px, cy + uy - py),
                GeoPoint(cx - ux - px, cy - uy - py),
            ]
        )

    def rectangle() -> Polygon:
        cx, cy = (float(v) for v in rng.uniform(2.5, 7.5, 2))
        return Polygon(Rect(cx - 1.2, cy - 0.8, cx + 1.2, cy + 0.8).corners())

    regions = [ring([1.4] * 6), ring([1.5, 0.7] * 5), corridor(), rectangle()]
    return [
        SensorQuery(
            region=region,
            staleness_seconds=120.0,
            sensor_type=TYPES[0] if k % 2 else None,
        )
        for k, region in enumerate(regions)
    ]


class Section:
    """One entry point's observations: text lines for the digest, and
    the ``probes_timed_out`` total kept out of it."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.timed_out = 0

    def add_result(self, result) -> None:
        """A portal result: its answers, then its display groups in the
        order the result reports them."""
        self.add(result.answers)
        self.lines.append(
            repr(
                [
                    (g.center.x, g.center.y, g.size, g.sketch.total, g.from_cache_node)
                    for g in result.groups
                ]
            )
        )

    def add(self, answers) -> None:
        for a in answers:
            probed = sorted((r.sensor_id, r.value) for r in a.probed_readings)
            cached = sorted((r.sensor_id, r.value) for r in a.cached_readings)
            stats = asdict(a.stats)
            self.timed_out += stats.pop("probes_timed_out")
            self.lines += [
                repr(probed),
                repr(cached),
                repr([(s.count, s.total) for s in a.cached_sketches]),
                repr(sorted(stats.items())),
            ]

    def add_counters(self, owner) -> None:
        """A portal's or tree's cumulative counters: its network's, then
        its dispatcher's."""
        self.lines.append(repr(asdict(owner.network.stats)))
        self.lines.append(repr(asdict(owner.dispatcher.stats)))

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.lines).encode()).hexdigest()[:16]


def build(cls, transport, extent: float = 100.0, **extra):
    portal = cls(
        max_sensors_per_query=None,
        transport=transport,
        network_options=dict(NETWORK),
        **extra,
    )
    for spec in fleet(600, seed=3, extent=extent):
        portal.register_sensor(**spec)
    portal.rebuild_index()
    return portal


def main() -> None:
    transport = TransportConfig() if "--transport" in sys.argv[1:] else None

    # SensorMapPortal: execute, execute_batch, a lone standing query.
    single, batch, standing = (build(SensorMapPortal, transport) for _ in range(3))
    manager = ContinuousQueryManager(standing)
    manager.subscribe(
        SensorQuery(region=Rect(20, 20, 70, 70), staleness_seconds=90.0),
        refresh_seconds=TICK_SECONDS,
    )
    federated = build(FederatedPortal, transport, n_shards=2)
    sections = {
        k: Section()
        for k in ("execute", "execute_batch", "continuous", "federated", "relcolr")
    }

    def add_tick(result) -> None:
        for r in result.results:
            sections["execute_batch"].add_result(r)
        stats = asdict(result.stats)
        for key in ("wall_seconds", "probes_timed_out"):  # older checkouts
            stats.pop(key, None)
        sections["execute_batch"].lines.append(repr(sorted(stats.items())))

    for tick in range(TICKS):
        qs = queries(tick)
        for q in qs:
            sections["execute"].add_result(single.execute(q))
            sections["federated"].add_result(federated.execute(q))
        add_tick(batch.execute_batch(qs))
        for subscription, delta in manager.tick():
            sections["continuous"].lines.append(repr(delta))
            sections["continuous"].add_result(subscription.last_result)
        for portal in (single, batch, standing, federated):
            portal.clock.advance(TICK_SECONDS)
    sections["execute"].add_counters(single)
    sections["execute_batch"].add_counters(batch)
    # One closing tick in which the first viewport repeats (same region,
    # same type): the repeat inherits its peer's spatial plan, so its
    # answers record ``batch_shared_nodes``.
    closing = queries(TICKS)
    add_tick(batch.execute_batch([*closing, closing[0]]))
    sections["continuous"].add_counters(standing)
    for shard in federated.shards():
        sections["federated"].add_counters(shard)

    # The polygon paths, over a fleet dense enough to fill their cells.
    polygon = build(SensorMapPortal, transport, extent=POLYGON_EXTENT)
    fed_polygon = build(FederatedPortal, transport, extent=POLYGON_EXTENT, n_shards=2)
    behind_door = build(FederatedPortal, transport, extent=POLYGON_EXTENT, n_shards=2)
    door = FrontDoor(
        behind_door, FrontDoorConfig(admission=AdmissionConfig(enabled=False))
    )
    for name in ("polygon", "fed_polygon", "frontdoor"):
        sections[name] = Section()
    for tick in range(POLYGON_TICKS):
        for q in polygon_queries(tick):
            sections["polygon"].add_result(polygon.execute_polygon(q))
            sections["fed_polygon"].add_result(fed_polygon.execute_polygon(q))
            for _ in range(2):  # tile fill + compose, then the cached tier
                served = door.execute(q)
                sections["frontdoor"].lines.append(
                    repr((served.status, served.served_from, served.tiles_composed))
                )
                sections["frontdoor"].add_result(served.result)
        for portal in (polygon, fed_polygon, behind_door):
            portal.clock.advance(TICK_SECONDS)
    sections["polygon"].add_counters(polygon)
    for name, federation in (("fed_polygon", fed_polygon), ("frontdoor", behind_door)):
        for shard in federation.shards():
            sections[name].add_counters(shard)
    sections["frontdoor"].lines.append(repr(sorted(asdict(door.cache.stats).items())))

    # RelCOLRTree.query over the same kind of fleet.
    registry = SensorRegistry()
    for spec in fleet(200, seed=5):
        registry.register(**spec)
    model = AvailabilityModel()
    network = SensorNetwork(registry.all(), availability_model=model, seed=2, **NETWORK)
    rel = RelCOLRTree(
        registry.all(),
        COLRTreeConfig(fanout=4, leaf_capacity=16),
        network=network,
        availability_model=model,
        transport=transport,
    )
    for tick in range(TICKS):
        for q in queries(tick)[:2]:
            answer = rel.query(
                q.region, now=tick * TICK_SECONDS, max_staleness=120.0, sample_size=15
            )
            sections["relcolr"].add([answer])
    sections["relcolr"].add_counters(rel)

    for name, section in sections.items():
        print(
            f"{name:<14} {len(section.lines):>6} lines  sha256 {section.digest()}  "
            f"probes_timed_out {section.timed_out}"
        )
    if "--dump" in sys.argv[1:]:
        for name, section in sections.items():
            for i, line in enumerate(section.lines):
                print(f"{name}[{i}] {line}")


if __name__ == "__main__":
    main()
