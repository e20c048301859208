"""Storage benchmark: durability overhead, crash recovery, warm restart.

Drives a multi-tick viewport workload through durable portals and
measures what the storage engine costs and what recovery buys:

``overhead``
    The identical workload through an in-memory portal and a durable
    one (WAL journaling every acknowledged probe batch).  Answers must
    be bit-identical — durability is an observational layer — and the
    report shows the disk I/O and wall-clock cost of the journaling.
``crash``
    The durable portal is killed mid-flight (WAL handle abandoned, no
    checkpoint) and reopened.  Replay preserves the original batch
    boundaries, so the recovered portal's answers are bit-identical
    *including* float sums, and the first tick after restart is
    probe-free for every fresh slot.
``checkpoint``
    The WAL is compacted into a checkpoint page file, the portal closes
    cleanly and reopens.  Counts, weights and extremes reproduce
    exactly; sums agree to float tolerance (checkpoint compaction
    groups readings by fetch time, which can reassociate additions).
``determinism``
    After more ticks and a second crash, the data directory is copied
    byte-for-byte and both copies are recovered independently.  The two
    recovered portals must answer bit-identically — recovery is a pure
    function of the bytes on disk.
``federation``
    A durable federation kills one shard (a real crash of its engine),
    revives it through disk recovery, and checks the modeled recovery
    time is reported and charged to the revived shard's next gather.
    Then it restages one shard in place with its own warm cache
    (``rebalance_apply``) and counts the ``os.fsync`` calls that takes
    — a restaged shard is written once, as ``checkpoint-1``.

Byte counts: ``wal_bytes_per_reading`` (framed batch bytes of the
durable run's WAL over the readings they carry), ``checkpoint_bytes``
and ``fsyncs_per_restage`` are counts, deterministic per seed.

Acceptance gates:

- crash reopen bit-identical (weights and sums) with zero probes;
- checkpoint reopen exact weights, sums to 1e-9 relative tolerance,
  zero probes;
- the two independently recovered directory copies bit-identical;
- warm-restart first tick issues <= 20% of the cold first tick's
  probes;
- ``revive_shard`` returns positive modeled recovery seconds and the
  next gather's collection makespan is at least that long;
- a restage takes at most five fsyncs and leaves the shard warm.

``--quick`` shrinks the workload; the gates are unchanged.

Run with ``PYTHONPATH=src python -m repro.bench storage``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Sequence

from repro.bench.fleets import (
    STALENESS,
    TICK_SECONDS,
    hotspot_pool,
    uncapped_portal,
    uniform_fleet,
)
from repro.bench.runner import Bench
from repro.federation.federated import FederatedPortal
from repro.portal import SensorMapPortal, SensorQuery
from repro.sensors.sensor import Sensor
from repro.storage import StorageConfig
from repro.storage import codec
from repro.storage.wal import replay

WARM_PROBE_RATIO_MAX = 0.2
SUM_RTOL = 1e-9
RESTAGE_FSYNCS_MAX = 5


def make_fleet(n_sensors: int, seed: int) -> list[Sensor]:
    """A deterministic sensor fleet, reusable across portal opens (the
    same ``Sensor`` objects register identically against a fresh portal
    and a recovered one)."""
    return uniform_fleet(
        n_sensors, seed, expiry=(150.0, 600.0), types=("temperature", "humidity")
    )


def open_portal(
    fleet: list[Sensor], seed: int, data_dir: Path | None
) -> SensorMapPortal:
    """Open (or recover) a portal over the fleet; ``data_dir=None``
    keeps it in-memory."""
    storage = StorageConfig(data_dir=data_dir) if data_dir is not None else None
    return uncapped_portal(fleet, network_seed=seed, storage=storage)


def make_viewports(n_viewports: int, seed: int) -> list[SensorQuery]:
    return [
        SensorQuery(region=region, staleness_seconds=STALENESS, aggregate="sum")
        for region in hotspot_pool(n_viewports, seed, (3.0, 8.0), margin=10.0)
    ]


def run_tick(portal, queries: Sequence[SensorQuery]) -> dict:
    """One tick: every viewport once.  Returns per-query fingerprints
    plus tick-level probe/latency totals."""
    weights = []
    sums = []
    probes = 0
    collection = 0.0
    for query in queries:
        result = portal.execute(query)
        weights.append(result.result_weight)
        sums.append(result.aggregate() if result.result_weight else 0.0)
        probes += sum(a.stats.sensors_probed for a in result.answers)
        collection += result.collection_seconds
    return {
        "weights": weights,
        "sums": sums,
        "probes": probes,
        "collection_seconds": collection,
    }


def answers_match(a: dict, b: dict, sum_rtol: float = 0.0) -> bool:
    """Whether two tick fingerprints agree — weights exactly, sums
    bit-exactly (``sum_rtol=0``) or to a relative tolerance."""
    if a["weights"] != b["weights"]:
        return False
    for va, vb in zip(a["sums"], b["sums"]):
        if sum_rtol == 0.0:
            if va != vb:
                return False
        elif abs(va - vb) > sum_rtol * max(1.0, abs(va), abs(vb)):
            return False
    return True


def drive_ticks(portal, queries: Sequence[SensorQuery], ticks: int) -> list[dict]:
    """Run ``ticks`` ticks, advancing the simulated clock between them;
    returns every tick's fingerprint (tick 0 is the cold tick)."""
    out = []
    for i in range(ticks):
        if i:
            portal.clock.advance(TICK_SECONDS)
        out.append(run_tick(portal, queries))
    return out


@contextmanager
def counting_fsyncs() -> Iterator[list[int]]:
    """Count ``os.fsync`` calls inside the block (into ``calls[0]``)."""
    calls = [0]
    real = os.fsync

    def counting(fd: int) -> None:
        calls[0] += 1
        real(fd)

    os.fsync = counting
    try:
        yield calls
    finally:
        os.fsync = real


def wal_bytes_per_reading(path: Path) -> float:
    """Framed bytes of a WAL's batch records per reading they carry."""
    size = readings = 0
    for payload in replay(path, truncate_torn_tail=False):
        frame = codec.decode_frame(payload)
        if frame[0] == "batch":
            size += 8 + len(payload)  # the frame's length and CRC words
            readings += len(frame[2])
    return size / max(1, readings)


def run_single_portal_phase(
    n_sensors: int, n_viewports: int, ticks: int, seed: int, tmp: Path
) -> dict:
    fleet = make_fleet(n_sensors, seed)
    queries = make_viewports(n_viewports, seed + 1)
    data_dir = tmp / "portal"

    # -- overhead: identical workload, in-memory vs durable ------------
    memory_portal = open_portal(fleet, seed, None)
    with_timer = time.perf_counter()
    memory_ticks = drive_ticks(memory_portal, queries, ticks)
    memory_wall = time.perf_counter() - with_timer

    durable = open_portal(fleet, seed, data_dir)
    with_timer = time.perf_counter()
    durable_ticks = drive_ticks(durable, queries, ticks)
    durable_wall = time.perf_counter() - with_timer
    parity = all(
        answers_match(m, d) for m, d in zip(memory_ticks, durable_ticks)
    )
    io = {
        k: getattr(durable.storage.stats, k)
        for k in ("page_reads", "page_writes", "wal_appends", "wal_fsyncs")
    }
    per_reading = wal_bytes_per_reading(data_dir / "wal-1.log")
    cold_probes = durable_ticks[0]["probes"]
    reference_clock = durable.clock.now()
    reference = run_tick(durable, queries)  # warm, probe-free baseline

    # -- crash: reopen must be bit-identical and probe-free ------------
    durable.crash()
    recover_timer = time.perf_counter()
    recovered = open_portal(fleet, seed, data_dir)
    recovery_wall = time.perf_counter() - recover_timer
    recovered.clock.advance_to(reference_clock)
    warm = run_tick(recovered, queries)
    crash_gate = {
        "bit_identical": answers_match(reference, warm),
        "warm_probes": warm["probes"],
        "cold_probes": cold_probes,
        "probe_free": warm["probes"] == 0,
        "recovery_modeled_seconds": recovered.recovery_seconds,
        "recovery_wall_seconds": recovery_wall,
        "wal_records_replayed": recovered.last_recovery.wal_records,
        "nonzero_answers": sum(reference["weights"]) > 0,
    }

    # -- checkpoint: compact, clean close, reopen ----------------------
    recovered.checkpoint()
    checkpoint_file = recovered.storage.checkpoint_name
    checkpoint_bytes = (data_dir / checkpoint_file).stat().st_size
    recovered.close()
    recover_timer = time.perf_counter()
    reopened = open_portal(fleet, seed, data_dir)
    checkpoint_recovery_wall = time.perf_counter() - recover_timer
    reopened.clock.advance_to(reference_clock)
    after_checkpoint = run_tick(reopened, queries)
    checkpoint_gate = {
        "weights_exact": after_checkpoint["weights"] == reference["weights"],
        "sums_close": answers_match(reference, after_checkpoint, SUM_RTOL),
        "probe_free": after_checkpoint["probes"] == 0,
        "checkpoint_bytes": checkpoint_bytes,
        "checkpoint_pages": reopened.last_recovery.checkpoint_pages,
        "wal_records_replayed": reopened.last_recovery.wal_records,
        "recovery_modeled_seconds": reopened.recovery_seconds,
        "recovery_wall_seconds": checkpoint_recovery_wall,
    }

    # -- determinism: two recoveries of the same bytes agree -----------
    reopened.clock.advance(TICK_SECONDS * (ticks + 1))  # age everything out
    post_checkpoint_ticks = drive_ticks(reopened, queries, 2)
    assert post_checkpoint_ticks[0]["probes"] > 0  # fresh WAL on top
    determinism_clock = reopened.clock.now()
    reopened.crash()
    copy_dir = tmp / "portal-copy"
    shutil.copytree(data_dir, copy_dir)
    left = open_portal(fleet, seed, data_dir)
    right = open_portal(fleet, seed, copy_dir)
    left.clock.advance_to(determinism_clock)
    right.clock.advance_to(determinism_clock)
    left_tick = run_tick(left, queries)
    # Advancing the shared-free clocks independently keeps both portals
    # at the same instant; the comparison is bit-exact.
    right_tick = run_tick(right, queries)
    determinism_gate = {
        "bit_identical": answers_match(left_tick, right_tick),
        "probe_free": left_tick["probes"] == 0 and right_tick["probes"] == 0,
    }
    left.close()
    right.close()

    return {
        "n_sensors": n_sensors,
        "n_viewports": n_viewports,
        "ticks": ticks,
        "overhead": {
            "memory_wall_seconds": memory_wall,
            "durable_wall_seconds": durable_wall,
            "answers_identical": parity,
            "io": io,
            "wal_bytes": sum(
                p.stat().st_size for p in data_dir.glob("wal-*.log")
            ),
            "wal_bytes_per_reading": per_reading,
        },
        "crash": crash_gate,
        "checkpoint": checkpoint_gate,
        "determinism": determinism_gate,
        "warm_probe_ratio": crash_gate["warm_probes"] / max(1, cold_probes),
    }


def run_federation_phase(
    n_sensors: int, n_viewports: int, seed: int, tmp: Path, n_shards: int = 4
) -> dict:
    fleet = make_fleet(n_sensors, seed + 100)
    queries = make_viewports(n_viewports, seed + 101)
    portal = FederatedPortal(
        n_shards=n_shards,
        max_sensors_per_query=None,
        network_seed=seed,
        storage=StorageConfig(data_dir=tmp / "federation"),
    )
    portal.register_all(fleet)
    portal.rebuild_index()
    warm_ticks = drive_ticks(portal, queries, 2)
    reference = run_tick(portal, queries)
    portal.kill_shard(0)
    degraded = run_tick(portal, queries)
    recovery_seconds = portal.revive_shard(0)
    revived = run_tick(portal, queries)
    warm = portal.rebalance_capture(0)
    with counting_fsyncs() as fsyncs:
        portal.rebalance_apply({0: portal.shard_members(0)}, primed={0: warm})
    restaged = run_tick(portal, queries)
    out = {
        "n_shards": portal.n_shards,
        "cold_probes": warm_ticks[0]["probes"],
        "revive_recovery_seconds": recovery_seconds,
        "revived_bit_identical": answers_match(reference, revived),
        "revived_probes": revived["probes"],
        "recovery_charged_to_gather": revived["collection_seconds"]
        >= recovery_seconds,
        "degraded_weight_drop": sum(reference["weights"])
        - sum(degraded["weights"]),
        "shard_recoveries": portal.stats.shard_recoveries,
        "recovery_seconds_total": portal.stats.recovery_seconds_total,
        "fsyncs_per_restage": fsyncs[0],
        "restaged_probes": restaged["probes"],
    }
    portal.close()
    return out


def run(n_sensors: int, n_viewports: int, ticks: int, seed: int) -> dict:
    tmp = Path(tempfile.mkdtemp(prefix="colr-bench-storage-"))
    try:
        single = run_single_portal_phase(n_sensors, n_viewports, ticks, seed, tmp)
        fed = run_federation_phase(
            max(200, n_sensors // 4), max(4, n_viewports // 4), seed, tmp
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "phases": {"single_portal": single, "federation": fed},
        "checks": {
            "durable_answers_identical": single["overhead"]["answers_identical"],
            "crash_reopen_bit_identical": single["crash"]["bit_identical"],
            "crash_reopen_probe_free": single["crash"]["probe_free"],
            "crash_workload_answered": single["crash"]["nonzero_answers"],
            "checkpoint_reopen_weights_exact": single["checkpoint"]["weights_exact"],
            "checkpoint_reopen_sums_close": single["checkpoint"]["sums_close"],
            "checkpoint_reopen_probe_free": single["checkpoint"]["probe_free"],
            "recovery_deterministic": single["determinism"]["bit_identical"],
            "warm_restart_probes_le_20pct_of_cold": single["warm_probe_ratio"]
            <= WARM_PROBE_RATIO_MAX,
            "revive_reports_recovery_seconds": fed["revive_recovery_seconds"] > 0,
            "revive_recovery_charged_to_gather": fed["recovery_charged_to_gather"],
            "revived_shard_bit_identical": fed["revived_bit_identical"],
            "restage_writes_once_and_stays_warm": fed["fsyncs_per_restage"]
            <= RESTAGE_FSYNCS_MAX
            and fed["restaged_probes"] == 0,
        },
    }


BENCH = Bench(
    name="storage",
    full={"n_sensors": 20_000, "n_viewports": 32, "ticks": 5, "seed": 0},
    quick={"n_sensors": 2_000, "n_viewports": 8, "ticks": 3, "seed": 0},
    run=run,
)
