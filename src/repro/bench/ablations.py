"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation toggles one mechanism of the full index and reports the
metric that mechanism is supposed to move:

* **oversampling** (1/a availability scale-up) → achieved sample size
  under an unreliable fleet;
* **redistribution** (Algorithm 2) → achieved sample size under a
  spatially skewed deployment;
* **aggregate caching** (slot caches at internal nodes vs leaf-only
  caching) → probes and processing latency;
* **build method** (k-means clustering vs STR packing) → traversal;
* **live slot size** (Δ on the running system, complementing the
  Figure 2 model) → probes and latency;
* **terminal level** (the zoom knob ``T``) → traversal and terminals;
* **reversible aggregates** (the future-work extension) → |pde|.

    python -m repro.bench ablations [--quick]

One phase per ``ablation.variant`` holds that variant's metrics; each
check is one claim about the mechanism its ablation toggles.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.bench.fleets import EvalSetup, run_query_stream
from repro.bench.runner import Bench
from repro.core.config import COLRTreeConfig
from repro.core.tree import COLRTree
from repro.geometry import GeoPoint, Rect
from repro.sensors.availability import AvailabilityModel
from repro.sensors.network import SensorNetwork
from repro.sensors.registry import SensorRegistry
from repro.workloads.livelocal import QuerySpec

Variants = dict[str, dict[str, float]]


def oversampling(setup: EvalSetup) -> Variants:
    """Unreliable fleet: does the 1/a scale-up recover the target R?"""
    variants: Variants = {}
    for variant, enabled in (("on", True), ("off", False)):
        config = replace(setup.config, oversampling_enabled=enabled)
        system = setup.make_colr_tree(config)
        # Warm the availability history first so estimates are honest.
        run_query_stream(system, setup.queries[:50])
        stream = run_query_stream(system, setup.queries[50:])
        achieved = np.mean(
            [
                min(r.result_weight, r.target_size) / max(1, r.target_size)
                for r in stream.records
            ]
        )
        variants[variant] = {
            "achieved_fraction": float(achieved),
            "mean_probes": stream.mean("sensors_probed"),
        }
    return variants


def redistribution(seed: int = 0) -> Variants:
    """Skewed deployment with spatial holes: does Algorithm 2 recover
    genuine shortfalls?

    The query covers only the *sparse* part of a heavily skewed
    population, with a target close to the in-region population:
    overlap-weighted shares routinely exceed thin subtrees' real pools
    (the bounding-box uniformity assumption fails at the dense/sparse
    boundary), so without redistribution the sample under-delivers.
    """
    rng = np.random.default_rng(seed)
    registry = SensorRegistry()
    for _ in range(1800):  # dense corner
        registry.register(
            GeoPoint(float(rng.uniform(0, 15)), float(rng.uniform(0, 15))),
            expiry_seconds=300.0,
        )
    for _ in range(200):  # sparse elsewhere
        registry.register(
            GeoPoint(float(rng.uniform(15, 100)), float(rng.uniform(15, 100))),
            expiry_seconds=300.0,
        )
    queries = [
        QuerySpec(
            region=Rect(15, 15, 100, 100),
            at_time=float(i) * 1000.0,  # cold cache each time
            staleness_seconds=60.0,
            sample_size=150,
        )
        for i in range(30)
    ]
    variants: Variants = {}
    for variant, enabled in (("on", True), ("off", False)):
        config = COLRTreeConfig(
            caching_enabled=False, redistribution_enabled=enabled, seed=seed
        )
        network = SensorNetwork(registry.all(), seed=seed)
        tree = COLRTree(registry.all(), config, network=network)
        stream = run_query_stream(tree, queries)
        achieved = np.mean([r.result_weight for r in stream.records])
        variants[variant] = {"achieved_size": float(achieved)}
    return variants


def aggregate_cache(setup: EvalSetup) -> Variants:
    """Leaf-only caching vs the full slot-cache tree."""
    variants: Variants = {}
    for variant, enabled in (("tree", True), ("leaf_only", False)):
        config = replace(setup.config, aggregate_caching_enabled=enabled)
        stream = run_query_stream(setup.make_colr_tree(config), setup.queries)
        variants[variant] = {
            "mean_probes": stream.mean("sensors_probed"),
            "mean_latency_ms": stream.mean("processing_seconds") * 1e3,
        }
    return variants


def build_method(setup: EvalSetup) -> Variants:
    """k-means clustering (the paper's builder) vs STR and Hilbert
    packing."""
    variants: Variants = {}
    for method in ("kmeans", "str", "hilbert"):
        model = AvailabilityModel()
        network = SensorNetwork(setup.sensors, availability_model=model, seed=setup.seed + 1)
        tree = COLRTree(
            setup.sensors,
            setup.config,
            network=network,
            availability_model=model,
            cost_model=setup.cost_model,
            build_method=method,
        )
        stream = run_query_stream(tree, setup.queries)
        variants[method] = {
            "mean_nodes_traversed": stream.mean("nodes_traversed"),
            "mean_probes": stream.mean("sensors_probed"),
        }
    return variants


def slot_size(setup: EvalSetup, slot_seconds: list[float]) -> Variants:
    """Sweep Δ on the running index (Figure 2 validated the model; this
    validates the live system's sensitivity)."""
    variants: Variants = {}
    for delta in slot_seconds:
        config = setup.config.with_slot_seconds(delta)
        stream = run_query_stream(setup.make_colr_tree(config), setup.queries)
        variants[f"{delta:.0f}s"] = {
            "mean_probes": stream.mean("sensors_probed"),
            "mean_latency_ms": stream.mean("processing_seconds") * 1e3,
        }
    return variants


def terminal_level(setup: EvalSetup, levels: list[int]) -> Variants:
    """Sweep the terminal threshold ``T`` (the zoom knob): shallower
    thresholds terminate paths higher, trading traversal for coarser
    per-terminal allocation."""
    variants: Variants = {}
    for level in levels:
        system = setup.make_colr_tree(
            replace(
                setup.config,
                terminal_level=level,
                oversample_level=max(level, setup.config.oversample_level),
            )
        )
        stream = run_query_stream(system, setup.queries)
        variants[f"T={level}"] = {
            "mean_nodes_traversed": stream.mean("nodes_traversed"),
            "mean_terminals": stream.mean("terminal_count"),
            "mean_probes": stream.mean("sensors_probed"),
        }
    return variants


def reversible_aggregates(setup: EvalSetup) -> Variants:
    """The future-work extension: decomposable cached aggregates should
    cut the cache-induced probe discretization error at small targets
    without extra probes."""
    variants: Variants = {}
    for variant, enabled in (("on", True), ("off", False)):
        config = replace(setup.config, reversible_aggregates=enabled)
        stream = run_query_stream(
            setup.make_colr_tree(config), setup.queries, sample_size=30
        )
        variants[variant] = {
            "mean_abs_pde": float(np.mean([abs(r.terminal_pde) for r in stream.records])),
            "mean_probes": stream.mean("sensors_probed"),
            "mean_result_weight": stream.mean("result_weight"),
        }
    return variants


def run(slot_seconds: list[float], terminal_levels: list[int]) -> dict:
    """Every ablation over its own workload: an unreliable 10 k fleet for
    oversampling, a skewed one for redistribution, and one 10 k Live-Local
    stream for the rest."""
    setup = EvalSetup(n_sensors=10_000, n_queries=300)
    ablations = {
        "oversampling": oversampling(
            EvalSetup(n_sensors=10_000, n_queries=200, availability=0.5)
        ),
        "redistribution": redistribution(),
        "aggregate_cache": aggregate_cache(setup),
        "build_method": build_method(setup),
        "slot_size": slot_size(setup, slot_seconds),
        "terminal_level": terminal_level(setup, terminal_levels),
        "reversible_aggregates": reversible_aggregates(setup),
    }
    phases = {
        f"{ablation}.{variant}": metrics
        for ablation, variants in ablations.items()
        for variant, metrics in variants.items()
    }

    over, redist = ablations["oversampling"], ablations["redistribution"]
    agg, rev = ablations["aggregate_cache"], ablations["reversible_aggregates"]
    km, st, hb = (
        ablations["build_method"][method]["mean_nodes_traversed"]
        for method in ("kmeans", "str", "hilbert")
    )
    levels = ablations["terminal_level"]
    shallow, deep = f"T={min(terminal_levels)}", f"T={max(terminal_levels)}"
    slots = ablations["slot_size"]
    return {
        "phases": phases,
        "checks": {
            "oversampling_raises_achieved_fraction": over["on"]["achieved_fraction"]
            > over["off"]["achieved_fraction"],
            "oversampling_issues_more_probes": over["on"]["mean_probes"]
            > over["off"]["mean_probes"],
            "redistribution_achieves_at_least_off": redist["on"]["achieved_size"]
            >= redist["off"]["achieved_size"],
            "aggregate_cache_fewer_probes_than_leaf_only": agg["tree"]["mean_probes"]
            < agg["leaf_only"]["mean_probes"],
            "build_kmeans_and_str_traversal_within_3x": km < 3 * st and st < 3 * km,
            "build_hilbert_and_kmeans_traversal_within_3x": hb < 3 * km and km < 3 * hb,
            "reversible_aggregates_cut_abs_pde": rev["on"]["mean_abs_pde"]
            < rev["off"]["mean_abs_pde"],
            "reversible_aggregates_lower_result_weight": rev["on"]["mean_result_weight"]
            < rev["off"]["mean_result_weight"],
            "shallowest_terminal_level_traverses_le_1_1x_deepest": levels[shallow][
                "mean_nodes_traversed"
            ]
            <= levels[deep]["mean_nodes_traversed"] * 1.1,
            "slot_120s_probes_le_single_600s_slot": slots["120s"]["mean_probes"]
            <= slots["600s"]["mean_probes"],
        },
    }


BENCH = Bench(
    name="ablations",
    full={"slot_seconds": [30.0, 120.0, 300.0, 600.0], "terminal_levels": [0, 1, 2, 3]},
    quick={"slot_seconds": [120.0, 600.0], "terminal_levels": [0, 3]},
    run=run,
)
