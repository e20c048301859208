"""The geoblock grid is a view over the leaf slot caches.

Over random scripts of ingest / displace / capacity-evict /
clock-advance / rebuild, ``serve_cell`` returns exactly the cell's
population as ``tree.query(cell_rect, sample_size=0,
aggregate_termination=False)`` would serve it from cache, and ``None``
exactly when that query would have to probe.  The traversal half of
that query (``range_scan``, which mutates nothing) is compared against
every cell after every step; the ``query`` step runs the query itself,
whose probe fill is one more way readings reach the leaves.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lookup import range_scan
from repro.geometry import Rect
from repro.geometry.grid import cell_rect, cells_covering
from repro.sensors.sensor import Reading

from tests.geoblocks.conftest import EXTENT, STALENESS, make_portal

CELL = 2.5  # 4 x 4 cells over the extent, ~3 of the 48 sensors in each
# Every cell of the extent plus one that owns no sensor.  The fleet's
# coordinates are uniform floats, so no sensor sits on a cell edge and
# a cell's closed rectangle holds exactly its half-open population.
CELLS = cells_covering(Rect(0.0, 0.0, EXTENT, EXTENT), CELL) + [(40, 40)]

ingests = st.tuples(
    st.just("ingest"),
    st.lists(st.integers(0, 47), min_size=1, max_size=30, unique=True),
    st.floats(0.0, 200.0),  # age: some readings arrive already stale
    st.floats(30.0, 600.0),  # lifetime: some arrive already expired
    st.floats(-50.0, 50.0),
)
advances = st.tuples(st.just("advance"), st.floats(1.0, 400.0))
rebuilds = st.tuples(st.just("rebuild"))
queries = st.tuples(st.just("query"), st.integers(0, len(CELLS) - 1))
scripts = st.lists(
    st.one_of(ingests, ingests, advances, queries, rebuilds), max_size=20
)


def by_sensor(readings) -> list[Reading]:
    return sorted(readings, key=lambda r: r.sensor_id)


def assert_view_matches_the_leaves(portal) -> None:
    grid = portal.geoblocks()
    tree = portal._trees["generic"]
    now = portal.clock.now()
    for cell in CELLS:
        served = grid.serve_cell("generic", cell, now, STALENESS)
        answer, to_probe = range_scan(
            tree, cell_rect(cell, CELL), now, STALENESS,
            aggregate_termination=False,
        )
        assert not answer.cached_sketches
        if to_probe:
            assert served is None
        else:
            assert served == by_sensor(answer.cached_readings)


@settings(max_examples=60, deadline=None)
@given(script=scripts, capacity=st.sampled_from([None, 6, 20]))
def test_serve_cell_is_the_cache_served_cell_query(script, capacity):
    portal = make_portal(n=48, seed=9, cell_degrees=CELL, cache_capacity=capacity)
    sensor_ids = sorted(s.sensor_id for s in portal.registry)
    assert_view_matches_the_leaves(portal)
    for step in script:
        now = portal.clock.now()
        tree = portal._trees["generic"]
        if step[0] == "ingest":
            # Re-ingesting a cached sensor displaces its entry; on a
            # capacity-bounded tree a large batch evicts.
            _, picks, age, lifetime, value = step
            tree.insert_readings_batch(
                [
                    Reading(sensor_ids[i], value + i, now - age, now - age + lifetime)
                    for i in picks
                ],
                fetched_at=now,
            )
        elif step[0] == "advance":
            portal.clock.advance(step[1])
        elif step[0] == "rebuild":
            portal.rebuild_index()
        else:
            cell = CELLS[step[1]]
            served = portal.geoblocks().serve_cell("generic", cell, now, STALENESS)
            answer = tree.query(
                cell_rect(cell, CELL),
                now=now,
                max_staleness=STALENESS,
                sample_size=0,
                aggregate_termination=False,
            )
            if answer.stats.sensors_probed:
                assert served is None
            else:
                assert served == by_sensor(answer.cached_readings)
        if capacity is not None:
            assert portal._trees["generic"].cached_reading_count <= capacity
        assert_view_matches_the_leaves(portal)
