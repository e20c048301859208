"""Unit tests of the benchmark's own arithmetic.

Run explicitly (tier-1 ``testpaths`` does not collect this directory):

    python3 -m pytest benchmarks/e2e/test_harness.py -q
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

import compare  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.geometry import GeoPoint, Rect  # noqa: E402
from repro.portal.query import SensorQuery  # noqa: E402
from repro.sensors.sensor import Sensor  # noqa: E402


def no_shape(_counts: dict) -> list[str]:
    return []


def fake_segment(latency, probes=10, **overrides) -> dict:
    """A child result as ``run_segment`` returns it."""
    segment = {
        "latency_s": list(latency),
        "modeled_s": [0.001] * len(latency),
        "failures": [],
        "counts": {"network.probes_attempted": probes},
        "setup_s": 0.5,
        "gen_s": 0.1,
        "peak_rss_mb": 50.0,
        "worker_cpu_s": 0.0,
    }
    segment.update(overrides)
    return segment


# ----------------------------------------------------------------------
# Percentiles carry their sample count
# ----------------------------------------------------------------------
def test_percentile_reports_samples_beyond():
    value, beyond = harness.percentile(list(range(1000)), 99.0)
    assert beyond == 10
    assert value == pytest.approx(989.01)
    assert harness.percentile(list(range(1000)), 50.0)[1] == 500


def test_full_scale_run_needs_ten_samples_beyond_p99():
    short = [[fake_segment([0.001] * 700)]]
    assert any("p99" in e for e in harness.reduce_run(short, no_shape)["shape_errors"])
    # --quick runs report the percentile anyway.
    assert harness.reduce_run(short, no_shape, full_scale=False)["shape_errors"] == []
    enough = [[fake_segment([0.001] * 1000)]]
    assert harness.reduce_run(enough, no_shape)["shape_errors"] == []


# ----------------------------------------------------------------------
# Best-of-reps, pooled over segments
# ----------------------------------------------------------------------
def test_best_of_reps_is_per_operation():
    assert harness.best_of_reps([[3.0, 1.0, 5.0], [2.0, 4.0, 5.5]]) == [2.0, 1.0, 5.0]


def test_reduce_pools_segments_and_takes_minima():
    slow = [0.004] * 600
    fast = [0.002] * 600
    run = harness.reduce_run(
        [
            [fake_segment(slow, setup_s=0.4), fake_segment(fast, setup_s=0.6)],
            [fake_segment(fast, setup_s=0.5), fake_segment(slow, setup_s=0.7)],
        ],
        no_shape,
    )
    assert run["operations"] == 1200
    metrics = run["metrics"]
    assert metrics["latency_p50_ms"] == pytest.approx(2.0)
    assert metrics["throughput_qps"] == pytest.approx(500.0)
    assert metrics["probes_per_query"] == pytest.approx(20 / 1200)
    assert metrics["setup_s"] == pytest.approx(0.55)  # median of all four set-ups
    # Each rep on its own reads 3 ms at the median; the spread between
    # reps is what compare.py uses to call a difference unresolved.
    assert run["rep_spread"]["latency_p50_ms"] == pytest.approx(0.0)
    assert run["rep_spread"]["setup_s"] > 0.0


# ----------------------------------------------------------------------
# Host-speed normalisation
# ----------------------------------------------------------------------
def probed_segment(latency, slowdown_of, **overrides) -> dict:
    """``fake_segment`` with one probe between operations; the host runs
    ``slowdown_of(i)`` times slower than the reference around operation
    ``i``.  Operations are 1 s apart, far outside each other's window."""
    n = len(latency)
    floor = harness.HOST_REFERENCE_S
    return fake_segment(
        latency,
        started_s=[float(i) for i in range(n)],
        host_at_s=[i + 0.05 for i in range(n)],
        host_cost_s=[floor * slowdown_of(i) for i in range(n)],
        host_setup_s=[floor * slowdown_of(0)] * 4,
        **overrides,
    )


def test_slowdown_comes_from_the_probes_around_each_operation():
    segment = probed_segment([0.001] * 10, lambda i: 1.0 if i < 5 else 2.0)
    assert harness.op_slowdowns(segment).tolist() == pytest.approx([1.0] * 5 + [2.0] * 5)
    # No probes recorded: wall times stand as measured.
    assert harness.op_slowdowns(fake_segment([0.001] * 3)).tolist() == [1.0] * 3


def test_a_run_that_never_saw_a_quiet_host_is_still_corrected():
    # Every probe of the run reads 1.3x the reference: the run's own
    # cheapest probe would call that full speed and correct nothing.
    run = harness.reduce_run([[probed_segment([0.0026] * 1000, lambda i: 1.3)]], no_shape)
    assert run["metrics"]["latency_p50_ms"] == pytest.approx(2.0)
    assert run["metrics"]["host_slowdown"] == pytest.approx(1.3)


def test_a_slow_host_phase_does_not_move_the_metrics():
    quiet = harness.reduce_run([[probed_segment([0.002] * 1000, lambda i: 1.0)]], no_shape)
    # Same replay, but from operation 500 on the host runs at half speed.
    slowed = [0.002] * 500 + [0.004] * 500
    noisy = harness.reduce_run(
        [[probed_segment(slowed, lambda i: 1.0 if i < 500 else 2.0, setup_s=0.5)]], no_shape
    )
    for name in ("latency_p50_ms", "latency_p95_ms", "throughput_qps", "setup_s"):
        assert noisy["metrics"][name] == pytest.approx(quiet["metrics"][name])
    assert noisy["metrics"]["raw_latency_p95_ms"] == pytest.approx(4.0)
    assert noisy["metrics"]["host_slowdown"] == pytest.approx(1.5)


# ----------------------------------------------------------------------
# The determinism assertion
# ----------------------------------------------------------------------
def test_determinism_assertion_fires_on_a_counter():
    a = fake_segment([0.001] * 5, probes=10)
    b = fake_segment([0.002] * 5, probes=11)
    with pytest.raises(harness.DeterminismError, match="network.probes_attempted"):
        harness.assert_deterministic([a, b])
    harness.assert_deterministic([a, fake_segment([0.009] * 5, probes=10)])


def test_determinism_assertion_fires_on_modeled_seconds():
    a = fake_segment([0.001] * 5)
    b = fake_segment([0.001] * 5, modeled_s=[0.001] * 4 + [0.002])
    with pytest.raises(harness.DeterminismError, match="modeled"):
        harness.assert_deterministic([a, b])


# ----------------------------------------------------------------------
# Span self-time arithmetic
# ----------------------------------------------------------------------
def nested_trace() -> list:
    # root 0..10 (frontdoor) > a 1..7 (federation) > b 2..4 and c 4..6 (portal)
    #                        > d 8..9 (storage)
    return [
        ["root", "frontdoor", 0.0, 10.0, -1, 7],
        ["a", "federation", 1.0, 7.0, 0, 7],
        ["b", "portal", 2.0, 4.0, 1, 7],
        ["c", "portal", 4.0, 6.0, 1, 7],
        ["d", "storage", 8.0, 9.0, 0, 7],
        ["setup", "core", 0.0, 3.0, -1, -1],
    ]


def test_self_time_is_duration_minus_direct_children():
    assert tracing.self_times(nested_trace()) == [3.0, 2.0, 2.0, 2.0, 1.0, 3.0]


def test_self_times_sum_to_the_root_span_per_request():
    spans = nested_trace()
    assert tracing.root_residuals(spans) == {7: 0.0}
    # A span that lost its parent link breaks the identity visibly.
    spans[2][4] = -1
    assert tracing.root_residuals(spans)[7] > 0.05


# ----------------------------------------------------------------------
# A failed output check is counted, never raised
# ----------------------------------------------------------------------
def tiny_workload() -> workloads.Workload:
    def make(seed: int, scale: float) -> workloads.Inputs:
        sensors = [
            Sensor(i, GeoPoint(10.0 + i % 10, 10.0 + i // 10), expiry_seconds=600.0)
            for i in range(100)
        ]
        query = SensorQuery(region=Rect(9.0, 9.0, 21.0, 21.0), staleness_seconds=300.0)

        def wrong_region(stack):
            response = stack.door.execute(query, tenant=1)
            elsewhere = replace(response.query, region=Rect(50.0, 50.0, 51.0, 51.0))
            return replace(response, query=elsewhere)

        def raises(_stack):
            raise RuntimeError("boom")

        def ops(_stack):
            yield workloads.Op("read", 1.0, lambda s: s.door.execute(query, tenant=0))
            yield workloads.Op("read", 2.0, wrong_region)
            yield workloads.Op("checkpoint", 3.0, raises)

        return workloads.Inputs(sensors, ops)

    return workloads.Workload("tiny", "test", 2, "inprocess", make, lambda s: [])


def test_failed_checks_are_counted_not_raised(tmp_path):
    result = harness.run_segment(tiny_workload(), 1, 0, 1.0, tmp_path / "data")
    assert len(result["latency_s"]) == 3
    assert result["counts"]["reads"] == 2 and result["counts"]["writes"] == 1
    kinds = [(index, kind) for index, kind, _ in result["failures"]]
    assert kinds == [(1, "read"), (2, "checkpoint")]
    assert "outside the query region" in result["failures"][0][2]
    assert "boom" in result["failures"][1][2]
    assert result["counts"]["network.probes_attempted"] >= 100


# ----------------------------------------------------------------------
# compare.py verdicts
# ----------------------------------------------------------------------
def test_compare_verdicts():
    assert compare.verdict(10.0, 10.9, "lower", 0.10, 0.0) == "ok"
    assert compare.verdict(10.0, 11.5, "lower", 0.10, 0.0) == "worse"
    assert compare.verdict(10.0, 11.5, "lower", 0.10, 0.2) == "unresolved"
    assert compare.verdict(100.0, 85.0, "higher", 0.10, 0.0) == "worse"
    assert compare.verdict(100.0, 130.0, "higher", 0.10, 0.0) == "ok"
