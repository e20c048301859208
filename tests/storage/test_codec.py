"""The storage codec: golden bytes per record kind, round trips, the
schema guard, loud format errors, and batch-encoding speed."""

import json
import math
import pickle
import timeit
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import GeoPoint
from repro.sensors.sensor import Reading, Sensor
from repro.storage import codec

GOLDEN = Path(__file__).parents[1] / "data" / "codec_golden.json"


def golden_records() -> dict[str, bytes]:
    """One record of each kind, from fixed inputs.  Regenerate the golden
    file only for a change that means to move the format (and bump its
    version): ``PYTHONPATH=src python -c "from tests.storage.test_codec
    import write_golden; write_golden()"``."""
    sensors = [
        Sensor(3, GeoPoint(-12.5, 40.25), 600.0),
        Sensor(7, GeoPoint(1e-9, -0.0), 1.5, "température", 0.25, (("name", "gauge-7"),)),
        Sensor(2**40, GeoPoint(179.0, -89.0), 86400.0, "水位", 1.0, (("a", ""), ("ü", "ß"))),
    ]
    readings = [Reading(3, 21.5, 100.0, 700.0), Reading(7, -3.0, 90.0, 91.5)]
    return {
        "batch": codec.encode_batch(readings, 100.0),
        "empty_batch": codec.encode_batch([], 42.0),
        "sensors_frame": codec.encode_sensors_frame(sensors[1:2]),
        "meta": codec.encode_meta(
            {
                "epoch": 2,
                "clock_now": 120.5,
                "config": {"fanout": 8, "cache_capacity": None, "caching_enabled": True},
                "note": "ok",
            }
        ),
        "sensors": codec.encode_sensors(sensors),
        "readings": codec.encode_cached([(readings[0], 100.0), (readings[1], 95.0)]),
        "empty_readings": codec.encode_cached([]),
    }


def write_golden() -> None:
    GOLDEN.write_text(
        json.dumps({k: v.hex() for k, v in golden_records().items()}, indent=1) + "\n"
    )


class TestGoldenBytes:
    def test_every_record_kind_encodes_to_its_golden_bytes(self):
        golden = {k: bytes.fromhex(v) for k, v in json.loads(GOLDEN.read_text()).items()}
        assert golden == golden_records()

    def test_golden_bytes_decode(self):
        golden = {k: bytes.fromhex(v) for k, v in json.loads(GOLDEN.read_text()).items()}
        kind, fetched_at, batch = codec.decode_frame(golden["batch"])
        assert (kind, fetched_at) == ("batch", 100.0)
        assert batch == [Reading(3, 21.5, 100.0, 700.0), Reading(7, -3.0, 90.0, 91.5)]
        assert len(golden["batch"]) == 13 + 32 * 2
        assert codec.decode_frame(golden["empty_batch"]) == ("batch", 42.0, [])
        (kind, (sensor,)) = codec.decode_frame(golden["sensors_frame"])
        assert kind == "sensors" and sensor.sensor_type == "température"
        assert dict(sensor.metadata) == {"name": "gauge-7"}
        sensors = codec.decode_sensors(golden["sensors"])
        assert [s.sensor_id for s in sensors] == [3, 7, 2**40]
        assert sensors[2].metadata == (("a", ""), ("ü", "ß"))
        assert codec.decode_meta(golden["meta"])["config"]["cache_capacity"] is None
        cached = codec.decode_cached(golden["readings"])
        assert [f for _, f in cached] == [100.0, 95.0]
        assert len(golden["readings"]) == 4 + 40 * 2
        assert codec.decode_cached(golden["empty_readings"]) == []


def test_layouts_name_every_dataclass_field():
    """A field added to ``Sensor`` or ``Reading`` must be added to the
    codec's layout too, or durable files would silently drop it."""
    assert tuple(f.name for f in fields(Sensor)) == codec.SENSOR_FIELDS
    assert tuple(f.name for f in fields(Reading)) == codec.READING_FIELDS


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
text = st.text(max_size=12)


@st.composite
def sensor_lists(draw):
    ids = draw(st.lists(st.integers(0, 2**63 - 1), unique=True, max_size=20))
    return [
        Sensor(
            sid,
            GeoPoint(draw(finite), draw(finite)),
            draw(st.floats(min_value=1e-6, max_value=1e9)),
            draw(text),
            draw(st.floats(min_value=0.0, max_value=1.0)),
            tuple(draw(st.lists(st.tuples(text, text), max_size=3))),
        )
        for sid in ids
    ]


readings = st.builds(
    lambda sid, value, stamp, life: Reading(sid, value, stamp, stamp + life),
    st.integers(-(2**63), 2**63 - 1),
    st.floats(allow_nan=False, width=64),
    st.floats(-1e12, 1e12),
    st.floats(0.0, 1e9),
)
meta_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**63), 2**63 - 1) | finite | text,
    lambda children: st.dictionaries(text, children, max_size=4),
    max_leaves=12,
)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(sensor_lists())
    def test_sensors(self, sensors):
        assert codec.decode_sensors(codec.encode_sensors(sensors)) == sensors
        assert codec.decode_frame(codec.encode_sensors_frame(sensors)) == ("sensors", sensors)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(readings, max_size=300), finite)
    def test_batches(self, batch, fetched_at):
        # Past 128 rows a batch is packed in runs: same layout.
        assert codec.decode_frame(codec.encode_batch(batch, fetched_at)) == (
            "batch",
            fetched_at,
            batch,
        )

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(readings, finite), max_size=40))
    def test_cache(self, cached):
        assert codec.decode_cached(codec.encode_cached(cached)) == cached

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(text, meta_values, max_size=6))
    def test_meta(self, meta):
        assert codec.decode_meta(codec.encode_meta(meta)) == meta


# ----------------------------------------------------------------------
# Loud failures
# ----------------------------------------------------------------------
class TestFormatErrors:
    def test_pickled_meta_names_its_format(self):
        old = pickle.dumps({"format": 2, "epoch": 1}, protocol=pickle.HIGHEST_PROTOCOL)
        with pytest.raises(codec.FormatError, match="format 2"):
            codec.decode_meta(old)

    def test_other_version_is_refused(self):
        raw = bytearray(codec.encode_meta({}))
        raw[8] = codec.CHECKPOINT_FORMAT + 1
        with pytest.raises(codec.FormatError, match="this version reads"):
            codec.decode_meta(bytes(raw))

    @pytest.mark.parametrize("cut", [1, 5, 20, -1])
    def test_cut_records_raise(self, cut):
        records = golden_records()
        for kind in ("sensors", "readings"):
            decode = codec.decode_sensors if kind == "sensors" else codec.decode_cached
            with pytest.raises(codec.FormatError):
                decode(records[kind][:cut])
        with pytest.raises(codec.FormatError):
            codec.decode_frame(records["batch"][:cut])

    def test_unknown_frame_kind(self):
        with pytest.raises(codec.FormatError, match="unknown WAL frame kind"):
            codec.decode_frame(b"Zjunk")

    def test_format_error_names_the_converter(self):
        assert "python -m repro.convert /x/wal-1.log" in str(
            codec.format_error("/x/wal-1.log", "bad magic")
        )


# ----------------------------------------------------------------------
# Speed: the read path journals small batches on every probe round
# ----------------------------------------------------------------------
def _pickled_batch(batch, fetched_at):
    """The frame payload the WAL used to write for one batch."""
    return pickle.dumps(
        ("batch", float(fetched_at), tuple((r.sensor_id, r.value, r.timestamp, r.expires_at) for r in batch)),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


@pytest.mark.parametrize("n", [1, 5, 65])
def test_batch_encoding_is_no_slower_than_pickle(n):
    batch = [Reading(i, i * 0.5 + 20.0, 100.0, 700.0) for i in range(n)]
    number = max(200, 20_000 // n)
    best = {"codec": math.inf, "pickle": math.inf}
    for _ in range(7):  # interleaved, best of each: timer noise only
        best["codec"] = min(best["codec"], timeit.timeit(lambda: codec.encode_batch(batch, 100.0), number=number))
        best["pickle"] = min(best["pickle"], timeit.timeit(lambda: _pickled_batch(batch, 100.0), number=number))
    assert best["codec"] <= best["pickle"], best
