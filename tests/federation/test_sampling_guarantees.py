"""Statistical guarantees of federated sampling (Theorem 2, one level up).

The paper's Theorem 2 says layered sampling gives every in-region
sensor the same inclusion probability ``R/N``.  The federation must
preserve that when it splits ``R`` across shards by Algorithm 1's share
rule: a sensor's inclusion frequency may not depend on *which shard it
landed on*, however skewed the partition populations are.

The Monte-Carlo suite here runs a seeded repeated-sampling experiment
over deliberately skewed 2 / 4 / 8-shard partitions and checks

* per-shard inclusion frequency within the share-quantization bound
  plus a binomial tolerance of the uniform ``R/N``, and
* per-sensor frequencies free of gross outliers (a cache- or
  RNG-reuse bug would pin the same sensors every round).

A second group pins the cross-shard REDISTRIBUTE guarantees at test
scale: recovery to within 2% of the target on the availability-skewed
fleet (or provable pool exhaustion), no top-up ever exceeding a
shard's pool, and termination inside the round bound even when the
target is unfillable.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.bench.federation import run_shortfall_recovery
from repro.core.config import COLRTreeConfig
from repro.federation import FederatedPortal, FederationConfig, make_partitioner
from repro.geometry import GeoPoint, Rect
from repro.portal import SensorQuery

EXTENT = 100.0
WHOLE = Rect(0.0, 0.0, EXTENT, EXTENT)


class _FixedStripsPartitioner:
    """Equal-*width* vertical strips (NOT equal population — the stock
    ``GridPartitioner`` balances populations by construction, which
    would defeat a skew test)."""

    def __init__(self, n_shards: int) -> None:
        self.n_shards = n_shards

    def assign(self, sensors) -> list[int]:
        width = EXTENT / self.n_shards
        return [
            min(int(s.location.x / width), self.n_shards - 1) for s in sensors
        ]


def _skewed_portal(n_sensors: int, n_shards: int, seed: int) -> FederatedPortal:
    """A federation whose shards hold very different populations:
    sensor density falls off quadratically in x, and the fixed-width
    strip partitioner does not rebalance, so low-x strips are crowded
    and high-x strips sparse.  Availability is 1.0 and caching /
    oversampling are off, so every execute draws a fresh independent
    sample and delivers it deterministically."""
    fed = FederatedPortal(
        partitioner=_FixedStripsPartitioner(n_shards),
        config=COLRTreeConfig(caching_enabled=False, oversampling_enabled=False),
        max_sensors_per_query=None,
        network_options={"latency_jitter": 0.0},
    )
    rng = np.random.default_rng(seed)
    xs = EXTENT * rng.random(n_sensors) ** 2
    ys = EXTENT * rng.random(n_sensors)
    for i in range(n_sensors):
        fed.register_sensor(
            GeoPoint(float(xs[i]), float(ys[i])),
            expiry_seconds=600.0,
            availability=1.0,
        )
    fed.rebuild_index()
    return fed


def _included_ids(result) -> set[int]:
    ids: set[int] = set()
    for answer in result.answers:
        for reading in answer.probed_readings:
            ids.add(reading.sensor_id)
        for reading in answer.cached_readings:
            ids.add(reading.sensor_id)
    return ids


class TestFederatedInclusionUniformity:
    """Theorem 2, federation edition: inclusion frequency is flat across
    shards of wildly different populations."""

    N_SENSORS = 1200
    TARGET = 180
    REPEATS = 60

    @pytest.mark.parametrize("n_shards", [2, 4, 8])
    def test_per_shard_inclusion_matches_global_rate(self, n_shards):
        fed = _skewed_portal(self.N_SENSORS, n_shards, seed=7)
        populations = [e.weight for e in fed.directory.entries()]
        # The partitions must actually be skewed for this test to mean
        # anything: the most crowded strip holds at least double the
        # population of the sparsest one.
        assert max(populations) >= 2 * min(populations)

        query = SensorQuery(
            region=WHOLE, staleness_seconds=600.0, sample_size=self.TARGET
        )
        counts: dict[int, int] = {}
        for _ in range(self.REPEATS):
            for sid in _included_ids(fed.execute(query)):
                counts[sid] = counts.get(sid, 0) + 1

        p = self.TARGET / self.N_SENSORS
        for entry in fed.directory.entries():
            shard = fed.shard(entry.shard_id)
            members = [s.sensor_id for s in shard.registry.all()]
            n_i = len(members)
            freq = sum(counts.get(sid, 0) for sid in members) / (
                self.REPEATS * n_i
            )
            # The deterministic largest-remainder share is off the exact
            # quota by at most one unit (|share_i/n_i - p| <= 1/n_i);
            # on top of that the Monte-Carlo mean of n_i * REPEATS
            # Bernoulli draws gets a 5-sigma binomial allowance.
            sigma = math.sqrt(p * (1.0 - p) / (self.REPEATS * n_i))
            tolerance = 1.0 / n_i + 5.0 * sigma
            assert abs(freq - p) <= tolerance, (
                f"shard {entry.shard_id} (n={n_i}): inclusion {freq:.4f} vs "
                f"uniform {p:.4f} (tolerance {tolerance:.4f})"
            )

    def test_no_sensor_is_pinned_or_starved(self):
        """Per-sensor frequencies stay inside a generous binomial band —
        the failure mode being hunted is systematic (a cached sample
        replayed every round shows up as frequency 1.0)."""
        fed = _skewed_portal(self.N_SENSORS, 4, seed=11)
        query = SensorQuery(
            region=WHOLE, staleness_seconds=600.0, sample_size=self.TARGET
        )
        counts: dict[int, int] = {}
        for _ in range(self.REPEATS):
            for sid in _included_ids(fed.execute(query)):
                counts[sid] = counts.get(sid, 0) + 1
        p = self.TARGET / self.N_SENSORS
        # Share quantization shifts a shard's per-sensor rate by at most
        # 1/n_i; with the smallest shard comfortably over 100 sensors a
        # 6-sigma band plus 0.01 covers it for every sensor.
        sigma = math.sqrt(p * (1.0 - p) / self.REPEATS)
        band = 6.0 * sigma + 0.01
        worst = max(
            abs(counts.get(s.sensor_id, 0) / self.REPEATS - p)
            for s in fed.registry.all()
        )
        assert worst <= band, f"worst per-sensor deviation {worst:.3f} > {band:.3f}"


class TestShortfallRecovery:
    """The bench's acceptance claim at test scale: >= 10% first-round
    shortfall on the availability-skewed fleet, recovered to within 2%
    of the target by one top-up round (or every pool provably dry)."""

    def test_topup_recovers_skewed_fleet_shortfall(self):
        probe = run_shortfall_recovery(2_000, seed=1, n_shards=8)
        assert probe["first_round_shortfall_fraction"] >= 0.10
        assert probe["redistribution_rounds_run"] >= 1
        assert probe["topup_sensors_gained"] > 0
        assert (
            probe["recovered_gap_fraction"] <= 0.02
            or probe["all_pools_exhausted"]
        )
        # The residual shortfall the coordinator reports is consistent
        # with what the probe measured from the merged answer.
        assert probe["residual_shortfall"] == max(
            0, probe["target_readings"] - probe["recovered_achieved"]
        )

    def test_disabled_redistribution_leaves_shortfall_standing(self):
        probe = run_shortfall_recovery(
            2_000, seed=1, n_shards=8, redistribution_rounds=0
        )
        assert probe["first_round_shortfall_fraction"] >= 0.10


class TestRedistributionInvariants:
    """Safety properties of the top-up rounds, checked on live
    federations rather than the splitter in isolation."""

    def _skewed_availability_portal(
        self, n_sensors: int, n_shards: int, seed: int, rounds: int
    ) -> FederatedPortal:
        fed = FederatedPortal(
            partitioner=make_partitioner("grid", n_shards, seed=seed),
            max_sensors_per_query=None,
            network_options={"latency_jitter": 0.0},
            federation=FederationConfig(
                shard_retry_budget=0,
                redistribution_rounds=rounds,
            ),
        )
        rng = np.random.default_rng(seed)
        for x, y in rng.random((n_sensors, 2)) * EXTENT:
            fed.register_sensor(
                GeoPoint(float(x), float(y)),
                expiry_seconds=600.0,
                availability=0.15 if x < EXTENT / 2 else 1.0,
            )
        fed.rebuild_index()
        return fed

    @pytest.mark.parametrize("target", [40, 150, 400])
    def test_topups_never_exceed_shard_pools(self, target):
        """However the shortfall re-splits, no shard ever contributes
        more distinct sensors than it owns (top-up shares are capped by
        the residual-pool estimate)."""
        fed = self._skewed_availability_portal(800, 4, seed=3, rounds=2)
        query = SensorQuery(
            region=WHOLE, staleness_seconds=600.0, sample_size=target
        )
        result = fed.execute(query)
        per_shard: dict[int, set[int]] = {}
        for sid, sub in result.shard_results.items():
            per_shard.setdefault(sid, set()).update(_included_ids(sub))
        for sid, sub in result.topup_results:
            per_shard.setdefault(sid, set()).update(_included_ids(sub))
        for sid, ids in per_shard.items():
            population = fed.directory.entry(sid).weight
            assert len(ids) <= population

    def test_unfillable_target_terminates_within_round_bound(self):
        """A target beyond the whole fleet's pool cannot close; the
        rounds must stop early on a zero-gain round instead of burning
        the full budget, and the shortfall must be reported."""
        fed = self._skewed_availability_portal(400, 4, seed=5, rounds=6)
        query = SensorQuery(
            region=WHOLE, staleness_seconds=600.0, sample_size=5_000
        )
        result = fed.execute(query)
        assert result.redistribution_rounds_run <= 6
        assert result.sampled_shortfall > 0
        assert not result.partial  # shortfall is not a failure
        # Every distinct sensor at most once in the merged answer.
        seen: set[int] = set()
        for answer in result.answers:
            for reading in answer.probed_readings + answer.cached_readings:
                assert reading.sensor_id not in seen
                seen.add(reading.sensor_id)

    def test_single_shard_federation_never_redistributes(self):
        fed = self._skewed_availability_portal(300, 1, seed=9, rounds=3)
        query = SensorQuery(
            region=WHOLE, staleness_seconds=600.0, sample_size=150
        )
        result = fed.execute(query)
        assert result.redistribution_rounds_run == 0
        assert result.topup_results == ()
        assert fed.stats.redistributions == 0
