"""Versioned byte layouts of everything the storage engine writes.

Nothing here unpickles.  Every record is a little-endian ``struct``
layout (the small meta map behind its ``struct`` header is JSON), so a renamed dataclass field or a Python upgrade cannot break
recovery, and opening a data directory never executes what its bytes
say.

WAL frame payloads (behind the WAL's magic and per-frame CRC) are one
kind byte, then a body:

``B`` — one acknowledged slot-cache batch
    ``<cdI`` (kind, fetched_at, n), then n rows ``qddd`` (sensor_id,
    value, timestamp, expires_at): 13 + 32·n bytes.  The rows are
    packed by one cached ``struct.Struct`` per row count up to 128, and
    a longer batch in runs of 128, so the cache stays bounded (a
    ``Struct`` holds one entry per field) whatever batch sizes arrive.
``S`` — sensor registrations
    a sensors section (below).

Checkpoint sections, one record per heap of a checkpoint file:

meta
    ``<8sH`` (``b"COLRMETA"``, :data:`CHECKPOINT_FORMAT`), then one
    JSON object: explicit key → value (ints, floats — exact, JSON
    floats round-trip through ``repr`` — strings, bools, ``None`` and
    nested objects), like the manifest beside it.
sensors
    ``<II`` (n, type count), the type names, then the columns as one
    ``<{n}q{4n}d{n}H`` block — sensor_id; x, y, expiry_seconds,
    availability; type index: 42 B a sensor — then ``<I`` the number of
    sensors with metadata and, for each, ``<II`` (row, pair count) and
    its key / value strings.
readings
    ``<I`` n, then the columns as one ``<{n}q{4n}d`` block —
    sensor_id; value, timestamp, expires_at, fetched_at: 40 B a cached
    reading.

A column block is one ``struct`` call whatever n is (a repeat count
compiles to one code), and the layout is little-endian on any host.

A string is ``<I`` byte length + UTF-8.  Bytes that do not parse as
the current layout — among them a format-2 checkpoint, whose records
were pickles — raise :class:`FormatError`; :func:`format_error` names
the converter (:data:`CONVERTER`) in the message.
"""

from __future__ import annotations

import json
import struct
from functools import lru_cache, wraps
from itertools import starmap
from typing import Sequence

from repro.geometry import GeoPoint
from repro.sensors.sensor import Reading, Sensor

__all__ = [
    "CHECKPOINT_FORMAT",
    "CONVERTER",
    "FormatError",
    "decode_cached",
    "decode_frame",
    "decode_meta",
    "decode_sensors",
    "encode_batch",
    "encode_cached",
    "encode_meta",
    "encode_sensors",
    "encode_sensors_frame",
    "format_error",
]

CHECKPOINT_FORMAT = 3
CONVERTER = "python -m repro.convert"

#: The dataclass fields the layouts store, in constructor order.  A
#: field added to ``Sensor`` or ``Reading`` must be added here and to
#: its layout (``tests/storage/test_codec.py`` fails until it is).
SENSOR_FIELDS = (
    "sensor_id",
    "location",
    "expiry_seconds",
    "sensor_type",
    "availability",
    "metadata",
)
READING_FIELDS = ("sensor_id", "value", "timestamp", "expires_at")

BATCH = b"B"
SENSORS = b"S"
META_MAGIC = b"COLRMETA"

_U32 = struct.Struct("<I")
_PAIR = struct.Struct("<II")
_META_HEAD = struct.Struct("<8sH")
_BATCH_HEAD = struct.Struct("<cdI")
_READING_ROW = struct.Struct("<qddd")


class FormatError(ValueError):
    """Bytes that are not the current version of a codec layout."""


def format_error(path: object, reason: str) -> FormatError:
    """The error for a file this version cannot read, naming the
    one-shot converter that upgrades older files."""
    return FormatError(
        f"{path}: {reason}; a file written by an older version converts "
        f"with `{CONVERTER} {path}`"
    )


# ----------------------------------------------------------------------
# WAL frames
# ----------------------------------------------------------------------
_RUN_ROWS = 128


@lru_cache(maxsize=None)  # called with 0..._RUN_ROWS only
def _rows_layout(n: int) -> struct.Struct:
    return struct.Struct("<" + "qddd" * n)


def encode_batch(readings: Sequence[Reading], fetched_at: float) -> bytes:
    """One ``B`` frame: a slot-cache batch with its fetch time."""
    # A plain loop: faster here than attrgetter/chain or pickling the
    # rows as tuples (tests/storage/test_codec.py times it).
    flat: list = []
    for r in readings:
        flat += (r.sensor_id, r.value, r.timestamp, r.expires_at)
    n = len(readings)
    head = _BATCH_HEAD.pack(BATCH, fetched_at, n)
    if n <= _RUN_ROWS:
        return head + _rows_layout(n).pack(*flat)
    parts = [head]
    for start in range(0, n, _RUN_ROWS):
        run = flat[4 * start : 4 * (start + _RUN_ROWS)]
        parts.append(_rows_layout(len(run) // 4).pack(*run))
    return b"".join(parts)


def encode_sensors_frame(sensors: Sequence[Sensor]) -> bytes:
    """One ``S`` frame: registered sensors."""
    return SENSORS + encode_sensors(sensors)


def decode_frame(payload: bytes) -> tuple:
    """``("batch", fetched_at, readings)`` or ``("sensors", sensors)``."""
    kind = payload[:1]
    try:
        if kind == BATCH:
            _, fetched_at, n = _BATCH_HEAD.unpack_from(payload)
            rows = memoryview(payload)[_BATCH_HEAD.size :]
            if len(rows) != n * _READING_ROW.size:
                raise FormatError(f"batch frame of {n} readings is {len(payload)} B")
            return "batch", fetched_at, list(starmap(Reading, _READING_ROW.iter_unpack(rows)))
        if kind == SENSORS:
            return "sensors", decode_sensors(memoryview(payload)[1:])
    except struct.error as exc:
        raise FormatError(f"malformed WAL frame: {exc}") from exc
    raise FormatError(f"unknown WAL frame kind {kind!r}")


# ----------------------------------------------------------------------
# Checkpoint sections
# ----------------------------------------------------------------------
def _put_str(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    out += _U32.pack(len(raw))
    out += raw


def _get_str(buf, off: int) -> tuple[str, int]:
    (size,) = _U32.unpack_from(buf, off)
    off += _U32.size
    if off + size > len(buf):
        raise FormatError("string runs past the end of its record")
    return str(buf[off : off + size], "utf-8"), off + size


def _checked(decode):
    """Report a record cut short, or cut wrongly, as a FormatError."""

    @wraps(decode)
    def wrapper(buf):
        try:
            return decode(buf)
        except (struct.error, UnicodeDecodeError) as exc:
            raise FormatError(f"malformed record: {exc}") from exc

    return wrapper


def encode_sensors(sensors: Sequence[Sensor]) -> bytes:
    """The sensors section, in the given order."""
    types: dict[str, int] = {}
    index = [types.setdefault(s.sensor_type, len(types)) for s in sensors]
    n = len(sensors)
    out = bytearray(_PAIR.pack(n, len(types)))
    for name in types:
        _put_str(out, name)
    out += struct.pack(
        f"<{n}q{4 * n}d{n}H",
        *[s.sensor_id for s in sensors],
        *[s.location.x for s in sensors],
        *[s.location.y for s in sensors],
        *[s.expiry_seconds for s in sensors],
        *[s.availability for s in sensors],
        *index,
    )
    tagged = [(row, s.metadata) for row, s in enumerate(sensors) if s.metadata]
    out += _U32.pack(len(tagged))
    for row, pairs in tagged:
        out += _PAIR.pack(row, len(pairs))
        for key, value in pairs:
            _put_str(out, str(key))
            _put_str(out, str(value))
    return bytes(out)


@_checked
def decode_sensors(buf) -> list[Sensor]:
    """The sensors of one sensors section, in stored order."""
    n, n_types = _PAIR.unpack_from(buf)
    off = _PAIR.size
    types = []
    for _ in range(n_types):
        name, off = _get_str(buf, off)
        types.append(name)
    block = f"<{n}q{4 * n}d{n}H"
    columns = struct.unpack_from(block, buf, off)
    off += struct.calcsize(block)
    ids, xs, ys, expiry, availability, type_index = (
        columns[i * n : (i + 1) * n] for i in range(6)
    )
    (n_tagged,) = _U32.unpack_from(buf, off)
    off += _U32.size
    metadata: dict[int, tuple] = {}
    for _ in range(n_tagged):
        row, n_pairs = _PAIR.unpack_from(buf, off)
        off += _PAIR.size
        pairs = []
        for _ in range(n_pairs):
            key, off = _get_str(buf, off)
            value, off = _get_str(buf, off)
            pairs.append((key, value))
        metadata[row] = tuple(pairs)
    if off != len(buf):
        raise FormatError(f"{len(buf) - off} B after the sensors section")
    return [
        Sensor(sid, GeoPoint(x, y), exp, types[t], avail, metadata.get(row, ()))
        for row, (sid, x, y, exp, avail, t) in enumerate(
            zip(ids, xs, ys, expiry, availability, type_index)
        )
    ]


def encode_cached(cached: Sequence[tuple[Reading, float]]) -> bytes:
    """The readings section: cached readings with their fetch times,
    in the given order."""
    readings = [reading for reading, _ in cached]
    n = len(readings)
    return _U32.pack(n) + struct.pack(
        f"<{n}q{4 * n}d",
        *[r.sensor_id for r in readings],
        *[r.value for r in readings],
        *[r.timestamp for r in readings],
        *[r.expires_at for r in readings],
        *[fetched_at for _, fetched_at in cached],
    )


@_checked
def decode_cached(buf) -> list[tuple[Reading, float]]:
    """``(reading, fetched_at)`` pairs of one readings section."""
    (n,) = _U32.unpack_from(buf)
    block = f"<{n}q{4 * n}d"
    if _U32.size + struct.calcsize(block) != len(buf):
        raise FormatError(f"readings section of {n} is {len(buf)} B")
    columns = struct.unpack_from(block, buf, _U32.size)
    return [
        (Reading(sid, value, stamp, expires_at), fetched_at)
        for sid, value, stamp, expires_at, fetched_at in zip(
            *(columns[i * n : (i + 1) * n] for i in range(5))
        )
    ]


def encode_meta(meta: dict) -> bytes:
    """The meta section: the format header, then ``meta`` as JSON."""
    return _META_HEAD.pack(META_MAGIC, CHECKPOINT_FORMAT) + json.dumps(meta).encode()


@_checked
def decode_meta(buf) -> dict:
    """The meta map; :class:`FormatError` unless the record carries
    this version's magic and format number."""
    if len(buf) < _META_HEAD.size:
        raise FormatError("meta record shorter than its header")
    magic, version = _META_HEAD.unpack_from(buf)
    if magic != META_MAGIC:
        raise FormatError(
            "checkpoint meta has no format header (format 2 stored pickles)"
        )
    if version != CHECKPOINT_FORMAT:
        raise FormatError(
            f"checkpoint format {version}, this version reads {CHECKPOINT_FORMAT}"
        )
    try:
        meta = json.loads(bytes(buf[_META_HEAD.size :]))
    except ValueError as exc:
        raise FormatError(f"meta record is not JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise FormatError("meta record is not one key → value map")
    return meta
