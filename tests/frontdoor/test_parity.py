"""Parity: the front door never changes an answer, only when and how
fast it is served.

* cache-off vs cache-hit: within one slot window, a cached (L1 or
  tile-composed L2) answer is content-identical to an uncached
  recomputation of the same quantized viewport;
* streaming vs sync: on a healthy fleet the streaming gather's final
  answer is *bit*-identical to the synchronous gather (the federation
  bench's own comparator);
* a hypothesis property for tile-cover composition: any viewport over
  any warm/cold mix of cached tiles composes to the direct answer.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.federation import (
    STALENESS as FED_STALENESS,
    _assert_identical,
    make_federation,
)
from repro.frontdoor import AdmissionConfig, FrontDoor, FrontDoorConfig
from repro.geometry import Rect
from repro.geometry.grid import cell_rect, cells_covering
from repro.portal.query import SensorQuery

from tests.frontdoor.conftest import (
    EXTENT,
    assert_same_content,
    exact_query,
    groups_by_sensor,
    make_portal,
)

NO_ADMISSION = AdmissionConfig(enabled=False)
ON = FrontDoorConfig(admission=NO_ADMISSION)
OFF = FrontDoorConfig(l1_capacity=0, l2_enabled=False, admission=NO_ADMISSION)


def _twin_doors(n: int = 300, seed: int = 0) -> tuple[FrontDoor, FrontDoor]:
    """Two identically seeded reliable portals, one cached, one not.
    Both doors quantize viewports (the serving contract), and on a
    reliable fleet with the deterministic value function the two
    portals' answers have identical content at equal clock times."""
    return (
        FrontDoor(make_portal(n=n, seed=seed), ON),
        FrontDoor(make_portal(n=n, seed=seed), OFF),
    )


# ----------------------------------------------------------------------
# Cache-off vs cache-hit, one slot window
# ----------------------------------------------------------------------
class TestCacheParity:
    def test_l1_and_l2_hits_match_uncached_recompute(self):
        door_on, door_off = _twin_doors()
        viewports = [
            Rect(1.2, 1.3, 2.8, 2.9),  # cold: fills its tile cover
            Rect(1.4, 1.1, 2.6, 2.7),  # same quantized viewport: L1 hit
            Rect(6.1, 6.2, 7.3, 7.4),
            Rect(1.2, 1.3, 1.8, 1.9),  # new viewport over warm tiles: L2
            Rect(6.1, 6.2, 7.3, 7.4),  # revisit: L1 hit
        ]
        tiers = []
        for i, viewport in enumerate(viewports):
            query = exact_query(viewport)
            res_on = door_on.execute(query)
            res_off = door_off.execute(query)
            assert res_off.served_from == "portal"
            assert_same_content(
                res_on.result, res_off.result, context=f"viewport {i}"
            )
            tiers.append(res_on.served_from)
        # The stream genuinely exercised both hit tiers.
        assert "l1" in tiers and "l2" in tiers

    def test_one_group_per_reading_whichever_tier_serves(self):
        # One viewport, served by the portal, then from L1 — and, on a
        # door without an L1, composed from L2 tiles.
        viewport = exact_query(Rect(1.2, 1.3, 2.8, 2.9))
        served = {}
        for config in (ON, FrontDoorConfig(l1_capacity=0, admission=NO_ADMISSION)):
            door = FrontDoor(make_portal(), config)
            for _ in range(2):
                res = door.execute(viewport)
                served[res.served_from] = res.result
        assert set(served) == {"portal", "l1", "l2"}
        for tier, result in served.items():
            assert len(result.groups) == result.result_weight > 0, tier
            assert groups_by_sensor(result) == groups_by_sensor(served["portal"]), tier

    def test_parity_holds_as_the_clock_advances_within_the_slot(self):
        door_on, door_off = _twin_doors(seed=1)
        query = exact_query(Rect(2.2, 2.2, 4.4, 4.4))
        for step in range(4):
            res_on = door_on.execute(query)
            res_off = door_off.execute(query)
            assert_same_content(res_on.result, res_off.result, context=f"t{step}")
            if step:
                assert res_on.cache_hit
            for door in (door_on, door_off):
                door.portal.clock.advance(10.0)  # stays inside the slot

    def test_sampled_queries_replay_their_own_draw(self):
        # Sampled answers are RNG draws, so cross-portal content parity
        # is not defined; the L1 contract instead is replay: a hit is
        # the *same* result object the fill produced.
        door_on, _ = _twin_doors(seed=2)
        query = SensorQuery(
            region=Rect(1.0, 1.0, 6.0, 6.0),
            staleness_seconds=120.0,
            sample_size=25,
        )
        filled = door_on.execute(query)
        assert filled.served_from == "portal"
        hit = door_on.execute(query)
        assert hit.served_from == "l1"
        assert hit.result is filled.result


# ----------------------------------------------------------------------
# Streaming final vs sync gather (healthy fleet)
# ----------------------------------------------------------------------
class TestStreamingParity:
    def test_final_bit_identical_to_sync(self):
        # Twin federations: execute consumes shard RNG, so one fleet
        # cannot serve both sides of the comparison.
        fed_sync = make_federation(800, seed=0, n_shards=4)
        fed_stream = make_federation(800, seed=0, n_shards=4)
        queries = [
            SensorQuery(
                region=Rect(12.0, 18.0, 68.0, 74.0), staleness_seconds=FED_STALENESS
            ),
            SensorQuery(
                region=Rect(5.0, 40.0, 95.0, 90.0),
                staleness_seconds=FED_STALENESS,
                sample_size=60,  # exercises the redistribution overlap
            ),
            SensorQuery(
                region=Rect(30.0, 5.0, 55.0, 35.0),
                staleness_seconds=FED_STALENESS,
                sensor_type="temperature",
            ),
        ]
        for phase in ("cold", "warm"):
            for i, query in enumerate(queries):
                gather = fed_stream.execute_streaming(query)
                _assert_identical(
                    f"{phase}/q{i}", fed_sync.execute(query), gather.final
                )
                # No deadline: the first publishable answer IS the final.
                assert gather.first is gather.final
                assert gather.first.deferred_shards == ()


# ----------------------------------------------------------------------
# Hypothesis: tile-cover composition
# ----------------------------------------------------------------------
coords = st.floats(
    min_value=0.0, max_value=EXTENT, allow_nan=False, allow_infinity=False
)
extents = st.sampled_from([0.25, 0.5, 1.0])


@given(x1=coords, x2=coords, y1=coords, y2=coords, e=extents)
@settings(max_examples=60, deadline=None)
def test_tile_cover_properties(x1, x2, y1, y2, e):
    region = Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
    tiles = cells_covering(region, e)
    assert tiles, "every rectangle (even degenerate) gets a cover"
    assert len(tiles) == len(set(tiles)), "no duplicate tiles"
    rects = [cell_rect(t, e) for t in tiles]
    union = Rect(
        min(r.min_x for r in rects),
        min(r.min_y for r in rects),
        max(r.max_x for r in rects),
        max(r.max_y for r in rects),
    )
    assert union.contains_rect(region), "the cover contains the region"
    grid_w = round((union.max_x - union.min_x) / e)
    grid_h = round((union.max_y - union.min_y) / e)
    assert len(tiles) == grid_w * grid_h, "the cover is a full grid"
    for r in rects:
        assert r.intersects(region), "no gratuitous tiles"


_DOORS: tuple[FrontDoor, FrontDoor] | None = None


def _shared_doors() -> tuple[FrontDoor, FrontDoor]:
    # One warm pair across all examples: successive examples hit an
    # arbitrary mix of cached and uncached tiles, which is exactly the
    # composition state space the property is about.
    global _DOORS
    if _DOORS is None:
        _DOORS = _twin_doors(n=250, seed=4)
    return _DOORS


viewport_coords = st.floats(
    min_value=0.0, max_value=EXTENT, allow_nan=False, allow_infinity=False
)


@given(x1=viewport_coords, x2=viewport_coords, y1=viewport_coords, y2=viewport_coords)
@settings(max_examples=25, deadline=None)
def test_any_viewport_composes_to_the_direct_answer(x1, x2, y1, y2):
    door_on, door_off = _shared_doors()
    region = Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
    query = exact_query(region)
    res_on = door_on.execute(query)
    res_off = door_off.execute(query)
    assert res_on.served and res_off.served
    assert_same_content(res_on.result, res_off.result, context=str(region))
