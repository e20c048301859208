"""Checkpoint files: one immutable page file per checkpoint.

A checkpoint captures everything a portal needs to resume — the
registered sensors, the cached readings with their fetch times, and a
small meta record (clock, config fingerprint) — as three record heaps
inside one page file, one columnar :mod:`codec <repro.storage.codec>`
record each.  Checkpoints are written whole to a fresh file and then
flipped into the manifest, so a crash mid-checkpoint can never tear the
previous one.

Cached readings are stored sorted by ``(fetched_at, sensor_id)`` and
re-installed grouped by ``fetched_at`` through the grouped-delta batch
ingestion path.  Leaf contents, per-slot counts, min/max and result
weights reproduce bit-identically; a slot's ``total`` agrees up to
float summation order (the same association caveat batched ingestion
documents in :meth:`repro.core.tree.COLRTree.insert_readings_batch`).
WAL replay, by contrast, preserves the original batch boundaries
exactly, so crash recovery of an un-checkpointed portal is
bit-identical *including* totals.
"""

from __future__ import annotations

from pathlib import Path

from repro.sensors.sensor import Reading, Sensor
from repro.storage import codec
from repro.storage.heap import RecordHeap
from repro.storage.pager import PAGE_SIZE, Pager
from repro.storage.stats import StorageStats


def write_checkpoint(
    path: str | Path,
    meta: dict,
    sensors: list[Sensor],
    cached: list[tuple[Reading, float]],
    page_size: int = PAGE_SIZE,
    stats: StorageStats | None = None,
    fsync: bool = True,
) -> None:
    """Write one whole checkpoint file (truncating any existing file).

    A write that fails part-way leaves a file no manifest names; the
    next open sweeps it."""
    path = Path(path)
    if path.exists():
        path.unlink()
    pager = Pager(path, page_size=page_size, stats=stats)
    RecordHeap(pager, "meta").append(codec.encode_meta(dict(meta)))
    RecordHeap(pager, "sensors").append(
        codec.encode_sensors(sorted(sensors, key=lambda s: s.sensor_id))
    )
    RecordHeap(pager, "readings").append(
        codec.encode_cached(sorted(cached, key=lambda rf: (rf[1], rf[0].sensor_id)))
    )
    pager.close(fsync=fsync)


def read_checkpoint(
    path: str | Path,
    stats: StorageStats | None = None,
) -> tuple[dict, list[Sensor], list[tuple[Reading, float]]]:
    """Load ``(meta, sensors, cached_readings)`` from a checkpoint file.

    ``cached_readings`` come back in stored order — sorted by
    ``(fetched_at, sensor_id)`` — ready to group into priming batches.
    A file of another format raises
    :class:`~repro.storage.codec.FormatError` naming the converter.
    """
    pager = Pager(Path(path), stats=stats)
    try:
        meta_rec, sensor_rec, cached_rec = (
            RecordHeap(pager, name).read_all() for name in ("meta", "sensors", "readings")
        )
        if len(meta_rec) != 1 or len(sensor_rec) != 1 or len(cached_rec) != 1:
            raise codec.FormatError(
                "checkpoint sections hold "
                f"{len(meta_rec)} / {len(sensor_rec)} / {len(cached_rec)} records, not one each"
            )
        meta = codec.decode_meta(meta_rec[0])
        sensors = codec.decode_sensors(sensor_rec[0])
        cached = codec.decode_cached(cached_rec[0])
    except codec.FormatError as exc:
        raise codec.format_error(path, str(exc)) from None
    finally:
        pager.close(fsync=False)
    return meta, sensors, cached


def group_by_fetch(
    cached: list[tuple[Reading, float]],
) -> list[tuple[float, list[Reading]]]:
    """Priming batches: one batch per distinct ``fetched_at``, ascending."""
    batches: list[tuple[float, list[Reading]]] = []
    for reading, fetched_at in sorted(
        cached, key=lambda rf: (rf[1], rf[0].sensor_id)
    ):
        if batches and batches[-1][0] == fetched_at:
            batches[-1][1].append(reading)
        else:
            batches.append((fetched_at, [reading]))
    return batches
