"""The background rebalancer: bounded steps interleaved with traffic.

``Rebalancer`` is a policy loop over :class:`ShardMover`.  Each
:meth:`step` inspects the live directory, picks at most one bounded
operation — split the overloaded shard, merge the starved one, or move
a capped sensor batch from heaviest to lightest — and executes it as a
single two-phase migration.  Between steps the coordinator is entirely
free to serve queries; during a step it serves them too (the flip is
atomic), so the loop can run interleaved with production traffic.

The triggers are population-based split/merge in SampleTree's
population-bounded spirit: a shard heavier than :data:`SPLIT_FACTOR` x
the mean population splits, a shard lighter than :data:`MERGE_FRACTION`
x the mean merges into its nearest neighbour; the move batch and the
balance tolerance come from
:class:`~repro.rebalance.config.RebalanceConfig`.
:meth:`verify_invariants` asserts the
conservation contract the test harness pins: dense shard ids, exact
weight conservation, the shard groups partitioning the registry, and
every sensor inside its shard's MBR.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.rebalance.config import RebalanceConfig
from repro.rebalance.migration import MigrationAborted, ShardMover

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.federation.federated import FederatedPortal

__all__ = ["Rebalancer", "StepReport"]

# A shard heavier than ``SPLIT_FACTOR`` x the mean population splits; one
# lighter than ``MERGE_FRACTION`` x the mean merges into its nearest
# alive neighbour.
SPLIT_FACTOR = 2.0
MERGE_FRACTION = 0.25


@dataclass(frozen=True)
class StepReport:
    """What one rebalance step did."""

    op: str  # "move" | "split" | "merge" | "noop" | "aborted"
    detail: str
    moved: int
    directory_version: int


@dataclass
class _Plan:
    op: str
    shards: tuple[int, ...]
    sensor_ids: tuple[int, ...] = ()
    reason: str = ""


class Rebalancer:
    """Population-triggered incremental rebalancing."""

    def __init__(
        self,
        fed: "FederatedPortal",
        config: RebalanceConfig | None = None,
        on_phase: Callable[[str], None] | None = None,
    ) -> None:
        self.fed = fed
        self.config = config if config is not None else RebalanceConfig()
        self.mover = ShardMover(fed, on_phase=on_phase)

    # ------------------------------------------------------------------
    # Policy
    # ------------------------------------------------------------------
    def imbalance(self) -> float:
        """Relative population spread ``(max - min) / mean`` over alive
        shards (0.0 when balanced or fewer than two alive shards)."""
        weights = self._alive_weights()
        if len(weights) < 2:
            return 0.0
        mean = sum(w for _, w in weights) / len(weights)
        spread = max(w for _, w in weights) - min(w for _, w in weights)
        return spread / mean if mean > 0 else 0.0

    def plan(self) -> _Plan | None:
        """Pick the next bounded operation, or ``None`` when balanced."""
        cfg = self.config
        fed = self.fed
        weights = self._alive_weights()
        if not weights:
            return None
        mean = fed.directory.total_weight() / len(fed.directory)
        # 1. Population split: heaviest shard beyond the split factor.
        heavy_id, heavy_w = max(weights, key=lambda t: (t[1], -t[0]))
        if heavy_w > SPLIT_FACTOR * mean and heavy_w >= 2:
            return _Plan("split", (heavy_id,), reason=f"population {heavy_w}")
        if len(weights) < 2:
            return None
        # 2. Merge: starved shard folds into the nearest alive shard.
        light_id, light_w = min(weights, key=lambda t: (t[1], t[0]))
        if light_w < MERGE_FRACTION * mean:
            partner = self._nearest_alive(light_id)
            if partner is not None:
                return _Plan(
                    "merge", (light_id, partner), reason=f"population {light_w}"
                )
        # 3. Bounded move from heaviest to lightest.
        gap = heavy_w - light_w
        if mean > 0 and gap / mean > cfg.imbalance_tolerance and gap >= 2:
            batch = min(cfg.max_moves_per_step, gap // 2)
            batch = min(batch, heavy_w - 1)  # never empties the shard
            if batch >= 1:
                movers = self._pick_movers(heavy_id, light_id, batch)
                if movers:
                    return _Plan(
                        "move",
                        (heavy_id, light_id),
                        sensor_ids=tuple(movers),
                        reason=f"gap {gap}",
                    )
        return None

    def step(self) -> StepReport:
        """Plan and execute one bounded operation."""
        plan = self.plan()
        fed = self.fed
        if plan is None:
            return StepReport("noop", "balanced", 0, fed.directory.version)
        try:
            if plan.op == "split":
                new_id = self.mover.split(plan.shards[0])
                detail = f"split shard {plan.shards[0]} -> {new_id} ({plan.reason})"
                moved = fed.directory.entry(new_id).weight
            elif plan.op == "merge":
                kept = self.mover.merge(plan.shards[0], plan.shards[1])
                detail = (
                    f"merge shard {plan.shards[0]}+{plan.shards[1]} -> {kept}"
                    f" ({plan.reason})"
                )
                moved = fed.directory.entry(kept).weight
            else:
                movers = self.mover.move(
                    plan.sensor_ids, plan.shards[0], plan.shards[1]
                )
                detail = (
                    f"move {len(movers)} sensors {plan.shards[0]} -> "
                    f"{plan.shards[1]} ({plan.reason})"
                )
                moved = len(movers)
        except MigrationAborted as exc:
            return StepReport("aborted", str(exc), 0, fed.directory.version)
        return StepReport(plan.op, detail, moved, fed.directory.version)

    def run(self, max_steps: int = 16) -> list[StepReport]:
        """Run bounded steps until balanced (or the step cap)."""
        reports: list[StepReport] = []
        for _ in range(max_steps):
            report = self.step()
            if report.op in ("noop", "aborted"):
                if report.op == "aborted":
                    reports.append(report)
                break
            reports.append(report)
        return reports

    # ------------------------------------------------------------------
    # Invariants (the contract the test harness pins)
    # ------------------------------------------------------------------
    def verify_invariants(self) -> None:
        """Raise ``AssertionError`` unless the conservation contract
        holds: dense ids, exact weight conservation, the shard groups
        partitioning the registry, MBRs covering their populations."""
        fed = self.fed
        directory = fed.directory
        n = len(directory)
        assert n == fed.n_shards, "directory/shard count mismatch"
        seen: dict[int, int] = {}
        total = 0
        for shard_id in range(n):
            entry = directory.entry(shard_id)
            assert entry.shard_id == shard_id, "shard ids must stay dense"
            group = fed.shard_members(shard_id)
            assert len(group) == entry.weight, (
                f"shard {shard_id} weight {entry.weight} != population {len(group)}"
            )
            total += entry.weight
            types = {s.sensor_type for s in group}
            assert types == set(entry.sensor_types), (
                f"shard {shard_id} directory types out of date"
            )
            for sensor in group:
                assert sensor.sensor_id not in seen, (
                    f"sensor {sensor.sensor_id} owned by shards "
                    f"{seen[sensor.sensor_id]} and {shard_id}"
                )
                seen[sensor.sensor_id] = shard_id
                assert entry.mbr.contains_point(sensor.location), (
                    f"sensor {sensor.sensor_id} outside shard {shard_id} MBR"
                )
        assert total == directory.total_weight()
        registry_ids = {s.sensor_id for s in fed.registry}
        assert set(seen) == registry_ids, (
            "shard groups do not partition the registry: "
            f"{len(seen)} owned vs {len(registry_ids)} registered"
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _alive_weights(self) -> list[tuple[int, int]]:
        fed = self.fed
        return [
            (shard_id, fed.directory.entry(shard_id).weight)
            for shard_id in range(len(fed.directory))
            if not fed.shard_killed(shard_id)
        ]

    def _nearest_alive(self, shard_id: int) -> int | None:
        fed = self.fed
        center = fed.directory.entry(shard_id).mbr.center
        best: tuple[float, int] | None = None
        for other_id, _ in self._alive_weights():
            if other_id == shard_id:
                continue
            other = fed.directory.entry(other_id).mbr.center
            d2 = (other.x - center.x) ** 2 + (other.y - center.y) ** 2
            if best is None or (d2, other_id) < best:
                best = (d2, other_id)
        return best[1] if best is not None else None

    def _pick_movers(self, src: int, dst: int, batch: int) -> list[int]:
        """The ``batch`` source sensors nearest the destination MBR
        center — moves erode the heavy shard from the edge facing the
        light one, keeping both MBRs compact."""
        fed = self.fed
        target = fed.directory.entry(dst).mbr.center
        group = fed.shard_members(src)
        ordered = sorted(
            group,
            key=lambda s: (
                (s.location.x - target.x) ** 2 + (s.location.y - target.y) ** 2,
                s.sensor_id,
            ),
        )
        return [s.sensor_id for s in ordered[:batch]]
