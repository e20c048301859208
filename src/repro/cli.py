"""Command-line entry point: ``python -m repro <command>``.

Commands regenerate the paper's figures and ablations at a chosen
scale, run a small interactive demo, or run the subsystem benches
(``repro bench``, the same runner as ``python -m repro.bench``).  Output
is the plain-text tables of :mod:`repro.bench.report`, suitable for
redirecting into a results file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.bench import runner


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "COLR-Tree reproduction (ICDE 2008): regenerate the paper's "
            "figures, run ablations, or demo the index."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scale(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--sensors", type=int, default=40_000, help="sensor population size"
        )
        p.add_argument("--queries", type=int, default=500, help="query stream length")
        p.add_argument("--seed", type=int, default=0, help="workload RNG seed")

    sub.add_parser("fig2", help="slot-size utility/cost sweep (Figure 2)")
    for name, desc in (
        ("fig3", "node traversal vs result size (Figure 3)"),
        ("fig4", "probes & latency vs freshness (Figure 4)"),
        ("fig5", "cache limit x sample size (Figure 5)"),
        ("fig6", "sampling accuracy & pde (Figure 6)"),
    ):
        add_scale(sub.add_parser(name, help=desc))
    fig7 = sub.add_parser("fig7", help="approximation error vs sample size (Figure 7)")
    fig7.add_argument("--trials", type=int, default=25, help="trials per sample size")
    sub.add_parser("ablations", help="design-choice ablations")
    all_cmd = sub.add_parser("all", help="every figure + ablations")
    add_scale(all_cmd)
    demo = sub.add_parser("demo", help="tiny end-to-end portal demo")
    demo.add_argument("--sensors", type=int, default=2_000)
    demo.add_argument(
        "--data-dir",
        type=Path,
        default=None,
        help="run the durable portal demo over this data directory: the "
        "first run journals its probes, later runs warm-restart from disk "
        "(probe-free first tick)",
    )
    demo.add_argument(
        "--transport",
        action="store_true",
        help="route probes through the async dispatcher and print its counters",
    )
    demo.add_argument(
        "--shards",
        type=int,
        default=0,
        help="run the demo through a scatter-gather federation of N portal "
        "shards (0 keeps the single-tree demo)",
    )
    demo.add_argument(
        "--workers",
        type=int,
        default=0,
        help="run the federated demo on the process execution backend: one "
        "worker process per shard, each building its own shard (implies "
        "--shards N when --shards is not given; 0 keeps in-process execution)",
    )
    demo.add_argument(
        "--qps",
        type=float,
        default=0.0,
        help="run the front-door demo instead: an open-loop multi-tenant "
        "stream offered at this rate against the tiered result cache "
        "and admission control (0 keeps the plain demo)",
    )
    demo.add_argument(
        "--tenants",
        type=int,
        default=20,
        help="tenant count of the front-door demo's Zipf stream "
        "(only with --qps)",
    )
    demo.add_argument(
        "--churn",
        action="store_true",
        help="run the live-rebalancing demo instead: a drifting churn "
        "workload joins/leaves sensors while the background rebalancer "
        "splits, merges and moves bounded batches between shards "
        "(use --shards to set the starting shard count)",
    )
    demo.add_argument(
        "--polygon",
        action="store_true",
        help="run the geoblocks demo instead: a polygon viewport served "
        "through the cell plan (cold, then probe-free from the warm "
        "grid) and a sliding analytic window panning across the map",
    )
    shard = sub.add_parser(
        "shard", help="partition a fleet and print the shard directory"
    )
    shard.add_argument("--sensors", type=int, default=10_000)
    shard.add_argument("--shards", type=int, default=4)
    shard.add_argument("--partitioner", choices=("grid", "kmeans"), default="grid")
    shard.add_argument("--seed", type=int, default=0)
    storage = sub.add_parser("storage", help="inspect a durable data directory")
    storage.add_argument("data_dir", type=Path, help="data directory to inspect")
    bench = sub.add_parser(
        "bench",
        help="run subsystem benches (same as python -m repro.bench): "
        "NAME... | --all [--quick] [--check] [--out DIR]",
    )
    runner.add_arguments(bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    if command == "fig2":
        from repro.bench.fig2 import run_fig2

        print(run_fig2().format_table())
        return 0
    if command in ("fig3", "fig4", "fig5", "fig6", "all"):
        from repro.bench.setup import EvalSetup

        setup = EvalSetup(
            n_sensors=args.sensors, n_queries=args.queries, seed=args.seed
        )
    if command == "fig3":
        from repro.bench.fig3 import run_fig3

        print(run_fig3(setup).format_table())
        return 0
    if command == "fig4":
        from repro.bench.fig4 import run_fig4

        result = run_fig4(setup)
        print(result.format_table())
        print()
        for key, value in result.summary().items():
            print(f"{key}: {value:.2f}")
        return 0
    if command == "fig5":
        from repro.bench.fig5 import run_fig5

        print(run_fig5(setup).format_table())
        return 0
    if command == "fig6":
        from repro.bench.fig6 import run_fig6

        print(run_fig6(setup).format_table())
        return 0
    if command == "fig7":
        from repro.bench.fig7 import run_fig7

        print(run_fig7(n_trials=args.trials).format_table())
        return 0
    if command == "ablations":
        from repro.bench.ablations import run_all_ablations

        print(run_all_ablations().format_table())
        return 0
    if command == "all":
        from repro.bench.ablations import run_all_ablations
        from repro.bench.fig2 import run_fig2
        from repro.bench.fig3 import run_fig3
        from repro.bench.fig4 import run_fig4
        from repro.bench.fig5 import run_fig5
        from repro.bench.fig6 import run_fig6
        from repro.bench.fig7 import run_fig7

        print(run_fig2().format_table(), end="\n\n")
        print(run_fig3(setup).format_table(), end="\n\n")
        print(run_fig4(setup).format_table(), end="\n\n")
        print(run_fig5(setup).format_table(), end="\n\n")
        print(run_fig6(setup).format_table(), end="\n\n")
        print(run_fig7().format_table(), end="\n\n")
        print(run_all_ablations().format_table())
        return 0
    if command == "demo":
        if args.churn:
            return _demo_churn(
                args.sensors, args.shards if args.shards > 0 else 4
            )
        if args.polygon:
            return _demo_polygon(args.sensors)
        if args.data_dir is not None:
            return _demo_durable(args.sensors, args.data_dir)
        if args.qps > 0:
            return _demo_frontdoor(args.sensors, args.qps, args.tenants)
        if args.shards > 0 or args.workers > 0:
            return _demo_federated(
                args.sensors,
                args.shards if args.shards > 0 else args.workers,
                transport=args.transport,
                workers=args.workers,
            )
        return _demo(args.sensors, transport=args.transport)
    if command == "shard":
        return _shard(args.sensors, args.shards, args.partitioner, args.seed)
    if command == "storage":
        return _storage_inspect(args.data_dir)
    if command == "bench":
        return runner.run_from_args(args)
    raise AssertionError(f"unhandled command {command!r}")  # pragma: no cover


def _demo(n_sensors: int, transport: bool = False) -> int:
    """A tiny scripted tour of the index (see examples/ for more)."""
    import numpy as np

    from repro import (
        AvailabilityModel,
        COLRTree,
        COLRTreeConfig,
        GeoPoint,
        Rect,
        SensorNetwork,
        SensorRegistry,
    )

    rng = np.random.default_rng(0)
    registry = SensorRegistry()
    for _ in range(n_sensors):
        registry.register(
            GeoPoint(float(rng.uniform(0, 100)), float(rng.uniform(0, 100))),
            expiry_seconds=float(rng.uniform(120, 600)),
            availability=0.9,
        )
    model = AvailabilityModel()
    network = SensorNetwork(registry.all(), availability_model=model, seed=1)
    dispatcher = None
    if transport:
        from repro.transport import ProbeDispatcher, TransportConfig

        dispatcher = ProbeDispatcher(network, TransportConfig())
    tree = COLRTree(
        registry.all(),
        COLRTreeConfig(max_expiry_seconds=600.0, slot_seconds=120.0),
        network=network,
        availability_model=model,
        transport=dispatcher,
    )
    print(f"indexed {len(tree)} sensors (height {tree.height()})")
    region = Rect(20, 20, 70, 70)
    for label, t in (("cold", 0.0), ("warm", 5.0), ("expired", 10_000.0)):
        answer = tree.query(region, now=t, max_staleness=300.0, sample_size=30)
        print(
            f"{label:>8}: probed {answer.stats.sensors_probed:>4} sensors, "
            f"answer weight {answer.result_weight:>4}, "
            f"count estimate {answer.estimate('count') if answer.result_weight else 0:.0f}"
        )
    if transport:
        from repro.bench.report import format_counters, network_counters, transport_counters

        print()
        print(format_counters(network_counters(network.stats), title="network"))
        print()
        print(
            format_counters(
                transport_counters(tree.transport.stats), title="transport"
            )
        )
    return 0


def _demo_federated(
    n_sensors: int, n_shards: int, transport: bool = False, workers: int = 0
) -> int:
    """Scripted tour of the scatter-gather federation: directory, a few
    queries, and graceful degradation with a killed shard.  With
    ``workers`` > 0 the shards run as real worker processes (the
    process execution backend)."""
    import numpy as np

    from repro.federation import FederatedPortal, FederationConfig
    from repro.geometry import GeoPoint, Rect
    from repro.portal import SensorQuery
    from repro.transport import TransportConfig

    rng = np.random.default_rng(0)
    portal = FederatedPortal(
        n_shards=n_shards,
        transport=TransportConfig() if transport else None,
        federation=FederationConfig(
            execution="process" if workers > 0 else "inprocess"
        ),
    )
    for _ in range(n_sensors):
        portal.register_sensor(
            GeoPoint(float(rng.uniform(0, 100)), float(rng.uniform(0, 100))),
            expiry_seconds=float(rng.uniform(120, 600)),
            sensor_type=("temperature", "humidity")[int(rng.integers(2))],
            availability=0.9,
        )
    portal.rebuild_index()
    backend = (
        f"{portal.n_shards} worker processes" if workers > 0 else "in-process shards"
    )
    print(
        f"federated {len(portal.registry)} sensors across {portal.n_shards} "
        f"shards ({backend})"
    )
    for entry in portal.directory.entries():
        print(
            f"  shard {entry.shard_id}: {entry.weight:>5} sensors, mbr "
            f"({entry.mbr.min_x:.1f}, {entry.mbr.min_y:.1f})-"
            f"({entry.mbr.max_x:.1f}, {entry.mbr.max_y:.1f})"
        )
    query = SensorQuery(
        region=Rect(20, 20, 70, 70), staleness_seconds=300.0, sample_size=60
    )
    result = portal.execute(query)
    print(
        f"sampled query: {len(result.shard_results)} shards answered, "
        f"weight {result.result_weight}, "
        f"count estimate {result.aggregate():.0f}"
    )
    victim = portal.n_shards // 2
    portal.kill_shard(victim)
    degraded = portal.execute(query)
    print(
        f"shard {victim} killed: partial={degraded.partial} "
        f"(failed shards {list(degraded.failed_shards)}), "
        f"weight {degraded.result_weight}, retries {degraded.shard_retries}"
    )
    portal.revive_shard(victim)
    recovered = portal.execute(query)
    print(f"shard {victim} revived: partial={recovered.partial}")
    f = portal.stats
    print(
        f"coordinator: {f.queries} queries, {f.subqueries_scattered} sub-queries, "
        f"{f.shard_retries} shard retries, {f.partial_answers} partial answers"
    )
    print(
        f"redistribution: {f.redistributions} triggered, "
        f"{f.topup_subqueries} top-up sub-queries, "
        f"{f.topup_sensors_gained} sensors recovered, "
        f"residual shortfall {f.sampled_shortfall}"
    )
    portal.close()
    return 0


def _demo_churn(n_sensors: int, n_shards: int) -> int:
    """Scripted tour of live rebalancing: a drifting churn stream joins
    and leaves sensors while the background rebalancer absorbs the skew
    in bounded steps, with a conservation query after every tick."""
    import numpy as np

    from repro.federation import FederatedPortal
    from repro.geometry import GeoPoint, Rect
    from repro.portal import SensorQuery
    from repro.rebalance import RebalanceConfig, Rebalancer
    from repro.workloads import ChurnWorkload

    rng = np.random.default_rng(0)
    portal = FederatedPortal(n_shards=n_shards, max_sensors_per_query=None)
    for _ in range(n_sensors):
        portal.register_sensor(
            GeoPoint(float(rng.uniform(0, 100)), float(rng.uniform(0, 100))),
            expiry_seconds=float(rng.uniform(300, 600)),
            availability=1.0,
        )
    portal.rebuild_index()
    rebalancer = Rebalancer(
        portal, RebalanceConfig(max_moves_per_step=max(8, n_sensors // 20))
    )
    churn = ChurnWorkload(join_rate=n_sensors / 40, leave_rate=n_sensors / 80)
    query = SensorQuery(region=Rect(0, 0, 100, 100), staleness_seconds=600.0)
    print(
        f"churn demo: {len(portal.registry)} sensors across "
        f"{portal.n_shards} shards, hotspot joins at "
        f"{churn.join_rate:.0f}/tick, leaves at {churn.leave_rate:.0f}/tick"
    )
    for _ in range(8):
        tick = churn.tick([s.sensor_id for s in portal.registry])
        if tick.joins:
            rebalancer.mover.absorb_joins(tick.joins)
        if tick.leave_ids:
            rebalancer.mover.absorb_leaves(tick.leave_ids)
        reports = rebalancer.run(max_steps=2)
        result = portal.execute(query)
        ops = ", ".join(r.op for r in reports) if reports else "noop"
        print(
            f"  tick {tick.tick}: +{len(tick.joins)}/-{len(tick.leave_ids)} "
            f"sensors, fleet {len(portal.registry)}, "
            f"{len(portal.directory)} shards, imbalance "
            f"{rebalancer.imbalance():.2f}, steps [{ops}], "
            f"query weight {result.result_weight}/{len(portal.registry)}"
        )
        portal.clock.advance(30.0)
    rebalancer.verify_invariants()
    print("invariants hold: every sensor has exactly one owner")
    portal.close()
    return 0


def _demo_frontdoor(n_sensors: int, qps: float, n_tenants: int) -> int:
    """Scripted tour of the portal front door: a Zipf multi-tenant
    open-loop stream at the offered rate, served cache-first with
    admission control, then the serving report and cache counters."""
    from repro.bench.harness import StreamSummary
    from repro.bench.report import format_counters
    from repro.frontdoor import (
        AdmissionConfig,
        FrontDoor,
        FrontDoorConfig,
        OpenLoopRunner,
    )
    from repro.portal import SensorMapPortal
    from repro.workloads import LiveLocalWorkload, OpenLoopWorkload

    n_requests = max(50, int(10 * qps))
    portal = SensorMapPortal(max_sensors_per_query=None)
    portal.register_all(LiveLocalWorkload(n_sensors=n_sensors, seed=0).sensors())
    portal.rebuild_index()
    door = FrontDoor(
        portal,
        FrontDoorConfig(
            admission=AdmissionConfig(
                tenant_rate_qps=max(0.5, 2.0 * qps / n_tenants),
                tenant_burst=8.0,
                queue_depth=32,
            )
        ),
    )
    requests = OpenLoopWorkload(
        base=LiveLocalWorkload(n_sensors=n_sensors, n_queries=n_requests, seed=0),
        n_requests=n_requests,
        n_tenants=n_tenants,
        target_qps=qps,
    ).requests()
    print(
        f"front door over {n_sensors} sensors: {n_requests} requests from "
        f"{n_tenants} tenants offered at {qps:g} q/s"
    )
    report = OpenLoopRunner(door).run(requests)
    latency = report.latency()
    print(
        f"served {report.served}/{report.offered} "
        f"({report.served_qps:.1f} q/s sustained, "
        f"shed {report.shed_fraction:.1%}, "
        f"max queue depth {report.max_queue_depth})"
    )
    if isinstance(latency, StreamSummary) and latency.count:
        print(
            f"latency: p50 {latency.p50 * 1e3:.1f}ms  "
            f"p95 {latency.p95 * 1e3:.1f}ms  p99 {latency.p99 * 1e3:.1f}ms"
        )
    print()
    print(format_counters(door.cache.stats.as_dict(), title="result cache"))
    print()
    print(format_counters(door.admission.stats.as_dict(), title="admission"))
    return 0


def _demo_polygon(n_sensors: int) -> int:
    """Scripted tour of the geoblock subsystem: one city-boundary
    polygon served cold (exact sub-queries warm the grid through the
    reading listeners) then warm (interior cells probe-free from the
    mirror), and a sliding analytic window panning one cell per step."""
    from repro.geoblocks import GeoBlockConfig, PolygonResult, SlidingWindow
    from repro.geometry import Rect
    from repro.portal import SensorMapPortal, SensorQuery
    from repro.workloads import CITIES, LiveLocalWorkload, PolygonWorkload

    # A power-of-two cell edge is exactly representable, so the demo's
    # grid-snapped viewports cover exactly 5x5 cells at every step.
    cell_degrees = 0.25
    portal = SensorMapPortal(
        max_sensors_per_query=None,
        geoblocks=GeoBlockConfig(cell_degrees=cell_degrees),
    )
    portal.register_all(
        LiveLocalWorkload(n_sensors=n_sensors, expiry_seconds=1_800.0, seed=0).sensors()
    )
    portal.rebuild_index()
    print(f"geoblock grid over {n_sensors} sensors ({cell_degrees}° cells)")

    workload = PolygonWorkload(
        n_sensors=n_sensors,
        n_queries=8,
        family_weights=(1.0, 0.0, 0.0),
        revisit_probability=0.0,
        seed=0,
    )
    spec = max(
        workload.queries(), key=lambda s: s.region.bounding_box.area
    )
    query = SensorQuery(region=spec.region, staleness_seconds=900.0)
    for label in ("cold", "warm"):
        result = portal.execute(query)
        assert isinstance(result, PolygonResult)
        probes = sum(a.stats.sensors_probed for a in result.answers)
        print(
            f"{label:>6} {spec.family}: {result.interior_cells} interior + "
            f"{result.boundary_cells} boundary cells, "
            f"{result.grid_cells_served} grid-served, probed {probes} "
            f"({result.interior_probes} interior), "
            f"{len(result.groups)} display groups"
        )

    window = SlidingWindow(
        portal,
        staleness_seconds=900.0,
        sensor_type="restaurant",
        temporal_steps=3,
    )
    anchor = max(CITIES, key=lambda c: c.population)
    # Snap the viewport to integer cell indices so the cover is exactly
    # 5x5 cells at every step (no float-edge wobble).
    col0 = int(anchor.lon // cell_degrees)
    row0 = int(anchor.lat // cell_degrees)
    print(f"\nsliding window: 5x5-cell viewport panning east from {anchor.name}")
    for step in range(4):
        result = window.step(
            Rect(
                (col0 + step) * cell_degrees,
                row0 * cell_degrees,
                (col0 + step + 5) * cell_degrees,
                (row0 + 5) * cell_degrees,
            )
        )
        aggregate = (
            f"{result.window_aggregate:.2f}"
            if result.window_aggregate is not None
            else "n/a"
        )
        print(
            f"  step {step}: {result.cells_reused}/{result.cells_total} cells "
            f"reused, {result.cells_refreshed} refreshed, "
            f"3-step avg {aggregate}"
        )
        portal.clock.advance(30.0)
    return 0


def _demo_durable(n_sensors: int, data_dir: Path) -> int:
    """Scripted tour of the durable portal: the first run over an empty
    directory registers a fleet, probes it (journaling every batch) and
    checkpoints; re-running against the same directory warm-restarts
    from disk — same answers, zero probes on the first tick."""
    import numpy as np

    from repro.bench.report import format_counters, storage_counters
    from repro.geometry import GeoPoint, Rect
    from repro.portal import SensorMapPortal, SensorQuery
    from repro.sensors.registry import SensorRegistry
    from repro.storage import StorageConfig

    rng = np.random.default_rng(0)
    registry = SensorRegistry()
    fleet = [
        registry.register(
            GeoPoint(float(rng.uniform(0, 100)), float(rng.uniform(0, 100))),
            expiry_seconds=float(rng.uniform(300, 600)),
            sensor_type=("temperature", "humidity")[i % 2],
        )
        for i in range(n_sensors)
    ]
    portal = SensorMapPortal(
        max_sensors_per_query=None, storage=StorageConfig(data_dir=data_dir)
    )
    portal.register_all(fleet)
    portal.rebuild_index()
    recovery = portal.last_recovery
    if recovery is not None and recovery.has_state:
        print(
            f"warm restart: {len(recovery.sensors)} sensors and "
            f"{recovery.reading_count} readings recovered from {data_dir} "
            f"({recovery.wal_records} WAL records, "
            f"{recovery.checkpoint_pages} checkpoint pages; modeled "
            f"recovery {portal.recovery_seconds * 1e3:.2f} ms)"
        )
    else:
        print(f"cold start: {data_dir} was empty, journaling into it")
    query = SensorQuery(
        region=Rect(20, 20, 70, 70), staleness_seconds=300.0, sample_size=60
    )
    for tick in range(2):
        if tick:
            portal.clock.advance(30.0)
        result = portal.execute(query)
        probes = sum(a.stats.sensors_probed for a in result.answers)
        print(
            f"tick {tick}: probed {probes:>4} sensors, "
            f"weight {result.result_weight:>4}, "
            f"count estimate {result.aggregate():.0f}"
        )
    portal.checkpoint()
    print()
    print(format_counters(storage_counters(portal.storage.stats), title="storage"))
    portal.close()
    print(f"\ncheckpointed and closed; re-run to warm-restart from {data_dir}")
    return 0


def _storage_inspect(data_dir: Path) -> int:
    """Print a read-only description of a durable data directory."""
    from repro.bench.report import format_counters
    from repro.storage.engine import describe_data_dir

    info = describe_data_dir(data_dir)
    if not info["exists"]:
        print(f"{info['data_dir']}: no MANIFEST.json — not a data directory")
        return 1
    print(f"{info['data_dir']}: epoch {info['epoch']}")
    if info["checkpoint"] is not None:
        print()
        print(format_counters(info["checkpoint"], title="checkpoint"))
    else:
        print("no checkpoint (WAL-only state)")
    if info["wal"] is not None:
        print()
        print(format_counters(info["wal"], title="wal"))
    else:
        print("no WAL segment for the current epoch")
    return 0


def _shard(n_sensors: int, n_shards: int, partitioner: str, seed: int) -> int:
    """Partition a synthetic fleet and print the shard directory plus a
    scatter plan for a sample viewport."""
    import numpy as np

    from repro.federation import FederatedPortal, ShardDirectory, make_partitioner
    from repro.geometry import GeoPoint, Rect
    from repro.portal import SensorQuery

    rng = np.random.default_rng(seed)
    portal = FederatedPortal(
        partitioner=make_partitioner(partitioner, n_shards, seed=seed)
    )
    for _ in range(n_sensors):
        portal.register_sensor(
            GeoPoint(float(rng.uniform(0, 100)), float(rng.uniform(0, 100))),
            expiry_seconds=float(rng.uniform(120, 600)),
            sensor_type=("temperature", "humidity", "wind")[int(rng.integers(3))],
        )
    portal.rebuild_index()
    print(
        f"{partitioner} partitioner: {len(portal.registry)} sensors -> "
        f"{portal.n_shards} shards"
    )
    print(f"{'shard':>5} {'sensors':>8} {'mbr':>34}  types")
    for entry in portal.directory.entries():
        mbr = (
            f"({entry.mbr.min_x:6.1f}, {entry.mbr.min_y:6.1f})-"
            f"({entry.mbr.max_x:6.1f}, {entry.mbr.max_y:6.1f})"
        )
        print(
            f"{entry.shard_id:>5} {entry.weight:>8} {mbr:>34}  "
            f"{', '.join(sorted(entry.sensor_types))}"
        )
    query = SensorQuery(
        region=Rect(25, 25, 75, 75), staleness_seconds=300.0, sample_size=100
    )
    routes = portal.directory.route(query.region)
    shares = ShardDirectory.split_target(query.sample_size, routes)
    print(f"\nscatter plan for viewport (25,25)-(75,75), SAMPLESIZE {query.sample_size}:")
    for route in routes:
        print(
            f"  shard {route.shard_id}: overlap {route.overlap:.3f}, "
            f"share {shares[route.shard_id]}"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
