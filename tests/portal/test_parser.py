import pytest

from repro import Polygon, Rect
from repro.portal import QueryParseError, parse_query


PAPER_QUERY = """
SELECT count(*)
FROM sensor S
WHERE S.location WITHIN Polygon((47.2, -122.5), (47.9, -122.5), (47.9, -121.9), (47.2, -121.9))
AND S.time BETWEEN now()-10 AND now() mins
CLUSTER 10 miles
SAMPLESIZE 30
"""


class TestPaperExample:
    def test_parses(self):
        q = parse_query(PAPER_QUERY)
        assert q.aggregate == "count"
        assert isinstance(q.region, Polygon)
        assert q.staleness_seconds == 600.0
        assert q.cluster_miles == 10.0
        assert q.sample_size == 30

    def test_polygon_latlon_to_xy(self):
        q = parse_query(PAPER_QUERY)
        bbox = q.region.bounding_box
        assert bbox.min_x == -122.5 and bbox.max_x == -121.9
        assert bbox.min_y == 47.2 and bbox.max_y == 47.9


class TestVariants:
    def test_rect_shorthand(self):
        q = parse_query(
            "SELECT avg(value) FROM sensor S WHERE S.location WITHIN "
            "Rect(47.0, -123.0, 48.0, -122.0) AND S.time BETWEEN now()-5 AND now() mins"
        )
        assert q.aggregate == "avg"
        assert q.region == Rect(-123.0, 47.0, -122.0, 48.0)
        assert q.cluster_miles is None and q.sample_size is None

    def test_type_filter(self):
        q = parse_query(
            "SELECT count(*) FROM sensor S WHERE S.location WITHIN "
            "Rect(0, 0, 1, 1) AND S.type = 'restaurant' "
            "AND S.time BETWEEN now()-10 AND now() mins"
        )
        assert q.sensor_type == "restaurant"

    @pytest.mark.parametrize(
        "unit,expected",
        [("secs", 10.0), ("mins", 600.0), ("hours", 36_000.0), ("", 600.0)],
    )
    def test_time_units(self, unit, expected):
        q = parse_query(
            "SELECT count(*) FROM sensor S WHERE S.location WITHIN Rect(0,0,1,1) "
            f"AND S.time BETWEEN now()-10 AND now() {unit}"
        )
        assert q.staleness_seconds == expected

    def test_case_insensitive(self):
        q = parse_query(
            "select COUNT(*) from SENSOR s where s.LOCATION within rect(0,0,1,1) "
            "and s.time BETWEEN NOW()-2 and now() MINS samplesize 5"
        )
        assert q.sample_size == 5

    def test_min_max_sum(self):
        for agg in ("min", "max", "sum"):
            q = parse_query(
                f"SELECT {agg}(value) FROM sensor S WHERE S.location WITHIN "
                "Rect(0,0,1,1) AND S.time BETWEEN now()-1 AND now()"
            )
            assert q.aggregate == agg


class TestErrors:
    def test_missing_select(self):
        with pytest.raises(QueryParseError):
            parse_query("WHERE S.location WITHIN Rect(0,0,1,1)")

    def test_missing_region(self):
        with pytest.raises(QueryParseError):
            parse_query(
                "SELECT count(*) FROM sensor S WHERE S.time BETWEEN now()-1 AND now()"
            )

    def test_missing_time_window(self):
        with pytest.raises(QueryParseError):
            parse_query(
                "SELECT count(*) FROM sensor S WHERE S.location WITHIN Rect(0,0,1,1)"
            )

    def test_polygon_too_few_vertices(self):
        with pytest.raises(QueryParseError):
            parse_query(
                "SELECT count(*) FROM sensor S WHERE S.location WITHIN "
                "Polygon((0,0),(1,1)) AND S.time BETWEEN now()-1 AND now()"
            )

    def test_rect_wrong_arity(self):
        with pytest.raises(QueryParseError):
            parse_query(
                "SELECT count(*) FROM sensor S WHERE S.location WITHIN "
                "Rect(0,0,1) AND S.time BETWEEN now()-1 AND now()"
            )

    def test_rect_inverted(self):
        with pytest.raises(QueryParseError):
            parse_query(
                "SELECT count(*) FROM sensor S WHERE S.location WITHIN "
                "Rect(5,5,1,1) AND S.time BETWEEN now()-1 AND now()"
            )


def _within(region: str):
    return parse_query(
        f"SELECT count(*) FROM sensor S WHERE S.location WITHIN {region} "
        "AND S.time BETWEEN now()-1 AND now()"
    )


class TestRegionsAreParsedStrictly:
    """The vertex list used to be *scanned* for digit pairs, so whatever
    the scan could not match changed the region instead of failing."""

    def test_exponent_is_part_of_the_number(self):
        # Was read as lat -3: the scan started at the "-3" of "1e-3".
        region = _within("Polygon((1e-3, 2), (3, 4), (5, 0))").region
        assert region == Polygon.from_latlon_pairs([(0.001, 2), (3, 4), (5, 0)])

    def test_leading_dot_is_part_of_the_number(self):
        # Was read as lat 5.
        region = _within("Polygon((.5, 1), (3, 4), (5, 0))").region
        assert region == Polygon.from_latlon_pairs([(0.5, 1), (3, 4), (5, 0)])

    def test_a_vertex_missing_its_comma_is_an_error(self):
        # Was the triangle of the other three vertices.
        with pytest.raises(QueryParseError, match=r"47\.5 -122"):
            _within("Polygon((47.5 -122), (47.7, -122.1), (47.6, -121.9), (47.0, -121))")

    def test_rect_nan_bound_is_a_parse_error(self):
        # Was a bare ValueError from Rect: NaN compares as "not inverted".
        with pytest.raises(QueryParseError):
            _within("Rect(nan, 0, 1, 1)")

    @pytest.mark.parametrize(
        "body",
        [
            "(1, 2), (3, 4), (5, 0) and more",
            "(1, 2), (3, 4), (5, 0),",
            "(1, 2) (3, 4), (5, 0)",
            "(1, 2, 3), (3, 4), (5, 0)",
            "(1, two), (3, 4), (5, 0)",
            "(1, 2), (nan, 4), (5, 0)",
            "(1, 2), (3, inf), (5, 0)",
            "1, 2, 3, 4, 5, 0",
            "",
        ],
    )
    def test_text_the_vertex_list_does_not_account_for(self, body):
        with pytest.raises(QueryParseError):
            _within(f"Polygon({body})")

    def test_whitespace_and_signs_are_free(self):
        region = _within("Polygon( ( +1 ,2. ) ,\n(3,-4),(5,0) )").region
        assert region == Polygon.from_latlon_pairs([(1, 2), (3, -4), (5, 0)])
