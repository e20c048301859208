"""One-shot converter for files written before the struct codec.

    python -m repro.convert PATH [PATH ...]

Format-2 checkpoints stored each record as a pickle, and
``COLRWAL1`` write-ahead logs framed pickled records.  This tool
rewrites them in place as :mod:`repro.storage.codec` layouts.  A PATH
may be

- a checkpoint file;
- a data directory (its manifested checkpoint and WAL);
- a federation directory (every ``shard-<i>`` data directory in it).

Old records are read by an unpickler whose ``find_class`` refuses every
global: only the builtin containers and scalars those formats held can
load, so converting a file never executes what it says.  Each output is
written beside its input and renamed over it; a file already in the
current format is left alone.  A torn WAL tail is dropped, as replay
would drop it.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import struct
import sys
import zlib
from pathlib import Path

from repro.geometry import GeoPoint
from repro.sensors.sensor import Reading, Sensor
from repro.storage import codec
from repro.storage.checkpoint import write_checkpoint
from repro.storage.engine import MANIFEST_NAME
from repro.storage.heap import RecordHeap
from repro.storage.pager import Pager
from repro.storage.wal import WriteAheadLog

__all__ = ["convert", "convert_checkpoint", "convert_wal", "main"]

LEGACY_WAL_MAGIC = b"COLRWAL1"
_FRAME = struct.Struct("<II")


class _NoGlobals(pickle.Unpickler):
    def find_class(self, module: str, name: str):
        raise pickle.UnpicklingError(f"refusing to load global {module}.{name}")


def _load(raw: bytes) -> object:
    return _NoGlobals(io.BytesIO(raw)).load()


def _sensor(record: tuple) -> Sensor:
    sid, x, y, expiry, sensor_type, availability, metadata = record
    return Sensor(
        int(sid),
        GeoPoint(float(x), float(y)),
        float(expiry),
        str(sensor_type),
        float(availability),
        tuple((str(k), str(v)) for k, v in metadata),
    )


def _reading(record: tuple) -> Reading:
    sid, value, timestamp, expires_at = record
    return Reading(int(sid), float(value), float(timestamp), float(expires_at))


def convert_checkpoint(path: str | Path) -> bool:
    """Rewrite one format-2 engine checkpoint.  Returns whether it
    needed converting."""
    path = Path(path)
    pager = Pager(path)
    try:
        meta_rec, sensor_recs, cached_recs = (
            RecordHeap(pager, name).read_all() for name in ("meta", "sensors", "readings")
        )
    finally:
        pager.close(fsync=False)
    if meta_rec and meta_rec[0].startswith(codec.META_MAGIC):
        return False
    if len(meta_rec) != 1:
        raise codec.FormatError(f"{path}: {len(meta_rec)} meta records, expected one")
    meta = dict(_load(meta_rec[0]))
    # Engine checkpoints carried their format as a key; the format now
    # lives in the meta header.
    meta.pop("format", None)
    cached = []
    for raw in cached_recs:
        record, fetched_at = _load(raw)
        cached.append((_reading(record), float(fetched_at)))
    tmp = path.with_name(path.name + ".convert")
    write_checkpoint(
        tmp,
        meta=meta,
        sensors=[_sensor(_load(raw)) for raw in sensor_recs],
        cached=cached,
        page_size=pager.page_size,
    )
    os.replace(tmp, path)
    return True


def convert_wal(path: str | Path) -> bool:
    """Rewrite one ``COLRWAL1`` log as codec frames behind the current
    magic.  Returns whether it needed converting."""
    path = Path(path)
    raw = path.read_bytes() if path.exists() else b""
    if not raw.startswith(LEGACY_WAL_MAGIC):
        return False
    payloads = []
    off = len(LEGACY_WAL_MAGIC)
    while off + _FRAME.size <= len(raw):
        length, crc = _FRAME.unpack_from(raw, off)
        body = raw[off + _FRAME.size : off + _FRAME.size + length]
        if len(body) < length or zlib.crc32(body) != crc:
            break  # torn tail
        record = _load(body)
        if record[0] == "sensor":
            payloads.append(codec.encode_sensors_frame([_sensor(record[1])]))
        elif record[0] == "batch":
            readings = [_reading(r) for r in record[2]]
            payloads.append(codec.encode_batch(readings, float(record[1])))
        else:
            raise codec.FormatError(f"{path}: unknown record kind {record[0]!r}")
        off += _FRAME.size + length
    tmp = path.with_name(path.name + ".convert")
    tmp.unlink(missing_ok=True)
    with WriteAheadLog(tmp) as wal:
        wal.append_many(payloads)
    os.replace(tmp, path)
    return True


def _data_dirs(path: Path) -> list[Path]:
    own = [path] if (path / MANIFEST_NAME).exists() else []
    shards = sorted(
        p for p in path.glob("shard-*") if (p / MANIFEST_NAME).exists()
    )
    return own + shards


def convert(path: str | Path) -> list[Path]:
    """Convert a file or directory in place; returns the files
    rewritten."""
    path = Path(path)
    if path.is_file():
        return [path] if convert_checkpoint(path) else []
    rewritten = []
    for data_dir in _data_dirs(path):
        manifest = json.loads((data_dir / MANIFEST_NAME).read_text())
        checkpoint = manifest.get("checkpoint")
        if checkpoint and convert_checkpoint(data_dir / checkpoint):
            rewritten.append(data_dir / checkpoint)
        wal = data_dir / f"wal-{int(manifest['epoch'])}.log"
        if convert_wal(wal):
            rewritten.append(wal)
    return rewritten


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print(f"usage: {codec.CONVERTER} PATH [PATH ...]", file=sys.stderr)
        return 2
    for path in paths:
        rewritten = convert(path)
        for file in rewritten:
            print(f"converted {file}")
        if not rewritten:
            print(f"{path}: nothing to convert")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
