#!/usr/bin/env python3
"""Memory of the whole stack at the paper's scale, by source file.

    PYTHONPATH=src python tools/scale_probe.py [--sensors 370000]
        [--shards 8] [--viewports 250] [--seed 1] [--trace] [--top 12]

Builds Live-Local sensors at 90 % availability behind ``--shards``
in-process grid shards (``TransportConfig()``, durable
``StorageConfig`` in a temporary directory) and a ``FrontDoor``, then
replays ``--viewports`` exact viewports of the open-loop stream.
It prints the build wall, the viewports' wall, the peak RSS and the
entry counts of the L2 tile tier and of the shards' plan caches.  With
``--trace`` tracemalloc runs from the end of the build: it adds the
largest growers by file (what serving grew) and the traced bytes per
entry of both caches (what dropping each frees, divided by its
entries); tracing inflates the wall and the RSS, so take the peak RSS
from a run without it.  A 370k run takes about a minute and ~1 GB.
"""

from __future__ import annotations

import argparse
import gc
import resource
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import repro
from repro.federation import FederatedPortal, FederationConfig, make_partitioner
from repro.frontdoor import FrontDoor, FrontDoorConfig
from repro.storage import StorageConfig
from repro.transport import TransportConfig
from repro.workloads.livelocal import LiveLocalWorkload, OpenLoopWorkload

SRC = str(Path(repro.__file__).resolve().parent)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def freed_per_entry(clear, entries: int) -> float | None:
    """Traced bytes that ``clear()`` frees, per entry (``None``: no
    entries, or not tracing)."""
    if not entries or not tracemalloc.is_tracing():
        return None
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    clear()
    gc.collect()
    return (before - tracemalloc.get_traced_memory()[0]) / entries


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sensors", type=int, default=370_000)
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument("--viewports", type=int, default=250)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--top", type=int, default=12)
    args = parser.parse_args(argv)

    base = LiveLocalWorkload(
        n_sensors=args.sensors,
        n_queries=args.viewports,
        expiry_seconds=300.0,
        availability=0.9,
        staleness_seconds=60.0,
        seed=args.seed,
    )
    requests = OpenLoopWorkload(
        base=base, n_requests=args.viewports, exact=True, seed=args.seed
    ).requests()
    with tempfile.TemporaryDirectory() as data:
        t0 = time.perf_counter()
        fed = FederatedPortal(
            partitioner=make_partitioner("grid", args.shards, seed=args.seed),
            transport=TransportConfig(),
            storage=StorageConfig(Path(data)),
            max_sensors_per_query=None,
            network_seed=args.seed,
            federation=FederationConfig(execution="inprocess"),
        )
        fed.register_all(base.sensors())
        fed.rebuild_index()
        door = FrontDoor(fed, FrontDoorConfig())
        build_s = time.perf_counter() - t0
        build_rss = peak_rss_mb()
        try:
            gc.collect()
            if args.trace:
                tracemalloc.start()
                start = tracemalloc.take_snapshot()
            clock = fed.clock
            t0 = time.perf_counter()
            for request in requests:
                clock.advance_to(max(clock.now(), request.arrival_seconds))
                door.execute(request.query, tenant=request.tenant)
            serve_s = time.perf_counter() - t0
            if args.trace:
                grown = tracemalloc.take_snapshot().compare_to(start, "filename")
            cache = door.cache
            tiles = len(cache._l2)

            def drop_l2() -> None:
                # The tier has no clear(): freeing it is replacing it.
                cache._l2 = type(cache._l2)()

            tile_bytes = freed_per_entry(drop_l2, tiles)
            caches = [
                tree.plan_cache
                for shard in fed.shards()
                for tree in shard._trees.values()
            ]
            plans = sum(map(len, caches))
            plan_bytes = freed_per_entry(
                lambda: [plan_cache.clear() for plan_cache in caches], plans
            )
            tracemalloc.stop()
        finally:
            fed.close()

    print(f"sensors {args.sensors}  shards {args.shards}  viewports {args.viewports}")
    print(f"build {build_s:.1f} s  serve {serve_s:.1f} s")
    print(
        f"peak RSS {build_rss:.0f} MB after the build, "
        f"{peak_rss_mb():.0f} MB at the end"
    )
    if args.trace:
        print("traced growth by file (MB):")
        for stat in grown[: args.top]:
            name = stat.traceback[0].filename
            if name.startswith(SRC):
                name = name[len(SRC) + 1 :]
            print(f"  {stat.size_diff / 1e6:+8.1f}  {name}")

    def per_entry(value: float | None) -> str:
        return "" if value is None else f" ({value:,.0f} B each)"

    print(f"L2 tiles {tiles}{per_entry(tile_bytes)}")
    print(f"plans {plans}{per_entry(plan_bytes)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
