"""Crash at every fail point of one durable workload, reopen, check.

The workload (:func:`run_workload`) is a fresh two-shard durable
federation driven through everything that writes: an exact
whole-extent query per tick (every sensor re-probed: staleness is half
the tick), ``absorb_joins`` after the second tick, ``fed.checkpoint()``
after the third, ``kill_shard(0)`` / ``revive_shard(0)`` after the
fourth, and a last tick.  An uncrashed pass counts the :mod:`repro.failpoints` it
reaches, in order.  For each *k* the workload then runs again on a
fresh directory with a hook that raises :class:`Crash` at the *k*-th
point; every shard's handles are abandoned as ``crash()`` does, and
the directory is reopened the way an operator would: through
:func:`repro.rebalance.resolve_pending`, then a rebuild on the
membership it decides.  After each reopen (:func:`check_crash_at`):

- **membership is the journal's winner** — the before map for a crash
  up to the ``prepared`` write, the after map from then on, a journal
  pending exactly while the step was between its intent and its
  commit;
- **no sensor is orphaned or duplicated** — every shard directory
  stores exactly its members, and the federation covers the fleet once;
- **each shard holds the durable prefix** — a shard whose directory
  held its members recovers, for every member, the reading of the last
  tick that finished before the crash (or of the tick in flight, if
  that batch was journaled); a shard whose directory did not (wiped by
  the roll-back, or never finished) comes back cold;
- **the next query answers as a never-crashed twin would** — an
  in-memory federation with the same membership and seeds, handed the
  same cache image through the ordinary install path, returns the same
  readings with the same probes.

The fleet and the joins are pinned seeds, and every *k* runs in about
a second, so tier-1 sweeps them all (``test_crash_sweep.py``);
``python -m tests.storage.crash_sweep`` does the same and prints how
many times the workload passes each point.
"""

from __future__ import annotations

import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import failpoints
from repro.federation import FederatedPortal
from repro.federation.partitioner import FixedPartitioner
from repro.geometry import GeoPoint, Rect
from repro.portal import SensorQuery
from repro.rebalance import JoinSpec, ShardMover, resolve_pending
from repro.sensors.registry import SensorRegistry
from repro.storage import StorageConfig, stored_sensor_ids

EXTENT = 100.0
TICK = 60.0
N_TICKS = 5
JOIN_AFTER, CHECKPOINT_AFTER, REVIVE_AFTER = 1, 2, 3
QUERY = SensorQuery(region=Rect(0, 0, EXTENT, EXTENT), staleness_seconds=TICK / 2)


class Crash(BaseException):
    """Process death at an armed fail point (a BaseException, so no
    ``except Exception`` on the way up can swallow it)."""


def make_fleet(n: int = 40, seed: int = 7) -> list:
    rng = np.random.default_rng(seed)
    registry = SensorRegistry()
    return [
        registry.register(GeoPoint(float(x), float(y)), expiry_seconds=600.0)
        for x, y in rng.uniform(0, EXTENT, (n, 2))
    ]


def make_joins(n: int = 4, seed: int = 8) -> list[JoinSpec]:
    rng = np.random.default_rng(seed)
    return [
        JoinSpec(location=GeoPoint(float(x), float(y)), expiry_seconds=600.0)
        for x, y in rng.uniform(0, EXTENT, (n, 2))
    ]


def new_fed(storage: StorageConfig, membership: dict, sensors: dict) -> FederatedPortal:
    """A federation over ``membership`` (shard id -> sensor ids), not
    yet built."""
    assignment = {sid: shard for shard, ids in membership.items() for sid in ids}
    fed = FederatedPortal(
        partitioner=FixedPartitioner(assignment, n_shards=len(membership)),
        max_sensors_per_query=None,
        storage=storage,
    )
    fed.register_all([sensors[sid] for sid in sorted(assignment)])
    return fed


def members(fed: FederatedPortal) -> dict[int, list[int]]:
    return {
        shard: sorted(s.sensor_id for s in fed.shard_members(shard))
        for shard in range(fed.n_shards)
    }


@dataclass
class Progress:
    """What the run had finished when it stopped."""

    fed: FederatedPortal | None = None
    ticks_done: list[float] = field(default_factory=list)
    tick_started: float | None = None


def initial_membership(fleet: list) -> dict[int, list[int]]:
    """West half on shard 0, east half on shard 1."""
    before: dict[int, list[int]] = {0: [], 1: []}
    for s in fleet:
        before[int(s.location.x >= EXTENT / 2)].append(s.sensor_id)
    return before


def run_workload(storage: StorageConfig, fleet: list, progress: Progress) -> None:
    sensors = {s.sensor_id: s for s in fleet}
    fed = progress.fed = new_fed(storage, initial_membership(fleet), sensors)
    fed.rebuild_index()
    for tick in range(N_TICKS):
        now = tick * TICK
        fed.clock.advance_to(now)
        progress.tick_started = now
        fed.execute(QUERY)
        progress.ticks_done.append(now)
        progress.tick_started = None
        if tick == JOIN_AFTER:
            ShardMover(fed).absorb_joins(make_joins())
        if tick == CHECKPOINT_AFTER:
            fed.checkpoint()
        if tick == REVIVE_AFTER:
            fed.kill_shard(0)
            fed.revive_shard(0)


@dataclass(frozen=True)
class Reference:
    """The uncrashed run: the points it passes, the memberships either
    side of its membership change, and its sensors, joins included."""

    points: tuple[str, ...]
    before: dict
    after: dict
    sensors: dict


def reference_run(root: Path) -> Reference:
    fleet = make_fleet()
    points: list[str] = []
    progress = Progress()
    with failpoints.armed(points.append):
        run_workload(StorageConfig(data_dir=root, fsync_enabled=False), fleet, progress)
    fed = progress.fed
    reference = Reference(
        points=tuple(points),
        before=initial_membership(fleet),
        after=members(fed),
        sensors={s.sensor_id: s for s in fed.registry.all()},
    )
    fed.close()
    return reference


def crash_at(k: int, root: Path) -> Progress:
    """Run the workload with a crash at the ``k``-th fail point (1-based)
    and abandon every handle the way a dead process would."""
    seen = 0

    def hook(name: str) -> None:
        nonlocal seen
        seen += 1
        if seen == k:
            raise Crash(name)

    progress = Progress()
    try:
        with failpoints.armed(hook):
            run_workload(
                StorageConfig(data_dir=root, fsync_enabled=False), make_fleet(), progress
            )
    except Crash:
        pass
    else:
        raise AssertionError(f"the workload passed fewer than {k} fail points")
    if progress.fed is not None:
        for portal in progress.fed.shards():
            portal.crash()
    return progress


def _latest(image) -> dict[int, float]:
    """Sensor id -> fetch time of its newest cached reading."""
    latest: dict[int, float] = {}
    for reading, fetched_at in image:
        latest[reading.sensor_id] = max(fetched_at, latest.get(reading.sensor_id, fetched_at))
    return latest


def _answer(result) -> tuple:
    readings = sorted(
        (r.sensor_id, r.value, r.timestamp)
        for answer in result.answers
        for r in list(answer.probed_readings) + list(answer.cached_readings)
    )
    probes = sum(a.stats.sensors_probed for a in result.answers)
    return result.result_weight, probes, readings


def check_crash_at(k: int, root: Path, ref: Reference) -> None:
    """Crash at point ``k``, reopen and check."""
    progress = crash_at(k, root)
    storage = StorageConfig(data_dir=root, fsync_enabled=False)

    # Membership: decided by where the crash fell against the step's
    # journal writes (each point runs before its write).
    at = {
        phase: ref.points.index(f"journal.{phase}") + 1
        for phase in ("intent", "prepared", "committed")
    }
    resolution = resolve_pending(storage)
    assert (resolution is not None) == (at["intent"] < k <= at["committed"])
    membership = ref.after if k > at["prepared"] else ref.before
    if resolution is not None:
        assert resolution.membership == membership
    expect_warm = {
        shard: stored_sensor_ids(storage.for_shard(shard)) == set(ids)
        for shard, ids in membership.items()
    }

    fed = new_fed(storage, membership, ref.sensors)
    try:
        fed.rebuild_index()
        # No sensor orphaned or duplicated.
        assert members(fed) == membership
        fleet = sorted(sid for ids in membership.values() for sid in ids)
        assert sum(e.weight for e in fed.directory.entries()) == len(fleet)
        for shard, ids in membership.items():
            assert stored_sensor_ids(storage.for_shard(shard)) == set(ids)
        assert not stored_sensor_ids(storage.for_shard(len(membership)))

        # Each shard holds the durable prefix, or comes back cold.
        images = {shard: fed.shard(shard).export_cache() for shard in membership}
        for shard, ids in membership.items():
            latest = _latest(images[shard])
            if not expect_warm[shard]:
                assert latest == {}, f"shard {shard} should have come back cold"
                continue
            for sid in ids:
                allowed = _allowed_stamps(sid, progress, ref)
                assert latest.get(sid) in allowed, (
                    f"shard {shard} sensor {sid}: {latest.get(sid)} not in {allowed}"
                )

        # The next query answers as a never-crashed twin would.
        now = (progress.ticks_done[-1] if progress.ticks_done else 0.0) + 10.0
        if progress.tick_started is not None:
            now = progress.tick_started + 10.0
        twin = FederatedPortal(
            partitioner=fed.partitioner, max_sensors_per_query=None
        )
        twin.register_all(fed.registry.all())
        twin.rebuild_index()
        for shard, image in images.items():
            twin.shard(shard).install_cache_entries(image)
        fed.clock.advance_to(now)
        twin.clock.advance_to(now)
        assert _answer(fed.execute(QUERY)) == _answer(twin.execute(QUERY))
    finally:
        fed.close()


def _allowed_stamps(sid: int, progress: Progress, ref: Reference) -> set:
    """Fetch times the newest durable reading of ``sid`` may carry: that
    of the last tick it took part in that finished before the crash
    (``None`` if none did), or of the tick in flight."""
    original = sid in ref.before[0] or sid in ref.before[1]
    # Joined sensors take part from the tick after the joins.
    first = 0.0 if original else (JOIN_AFTER + 1) * TICK
    done = [t for t in progress.ticks_done if t >= first]
    allowed = {done[-1] if done else None}
    if progress.tick_started is not None and progress.tick_started >= first:
        allowed.add(progress.tick_started)
    return allowed


def sweep(root: Path) -> Reference:
    """Crash at every point the workload reaches; raises on the first
    reopen that fails a check, naming the point."""
    ref = reference_run(root / "reference")
    for k, name in enumerate(ref.points, start=1):
        try:
            check_crash_at(k, root / f"k{k}", ref)
        except AssertionError as exc:
            raise AssertionError(f"crash at point {k} ({name}): {exc}") from exc
    return ref


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="colr-crash-sweep-") as tmp:
        ref = sweep(Path(tmp))
        print(f"crashed at each of {len(ref.points)} fail points; every reopen checked")
        for name in failpoints.POINTS:
            print(f"  {name:<18} {ref.points.count(name):>4}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
