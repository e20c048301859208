"""Result-set-size binning for Figure 3.

The paper bins queries by their *ideal result set size* (the number of
sensors inside the query region, regardless of sampling or caching) and
plots per-bin averages.  ``ideal_result_sizes`` computes the exact
counts with vectorized point-in-rectangle tests; ``bin_by_result_size``
builds logarithmic bins and averages an arbitrary metric per bin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.sensors.sensor import Sensor
from repro.workloads.livelocal import QuerySpec


def ideal_result_sizes(
    sensors: Sequence[Sensor], queries: Sequence[QuerySpec]
) -> np.ndarray:
    """Exact sensor count inside each query's rectangle."""
    if not sensors:
        return np.zeros(len(queries), dtype=np.int64)
    xs = np.array([s.location.x for s in sensors])
    ys = np.array([s.location.y for s in sensors])
    out = np.empty(len(queries), dtype=np.int64)
    for i, spec in enumerate(queries):
        r = spec.region
        mask = (xs >= r.min_x) & (xs <= r.max_x) & (ys >= r.min_y) & (ys <= r.max_y)
        out[i] = int(mask.sum())
    return out


@dataclass(frozen=True, slots=True)
class Bin:
    """One result-size bin with the averaged metric."""

    low: int
    high: int
    n_queries: int
    mean_value: float


def bin_by_result_size(
    sizes: np.ndarray,
    values: Sequence[float],
    n_bins: int = 8,
) -> list[Bin]:
    """Average ``values`` in logarithmic result-size bins.

    Queries with zero ideal results are collected into a dedicated
    [0, 0] bin; the rest use log-spaced edges from 1 to the max size.
    """
    if len(sizes) != len(values):
        raise ValueError("sizes and values must align")
    if len(sizes) == 0:
        return []
    values_arr = np.asarray(values, dtype=np.float64)
    bins: list[Bin] = []
    zero_mask = sizes == 0
    if zero_mask.any():
        bins.append(
            Bin(0, 0, int(zero_mask.sum()), float(values_arr[zero_mask].mean()))
        )
    nonzero = sizes[~zero_mask]
    if nonzero.size == 0:
        return bins
    top = max(2, int(nonzero.max()))
    edges = np.unique(
        np.round(np.logspace(0, np.log10(top), n_bins + 1)).astype(np.int64)
    )
    for low, high in zip(edges[:-1], edges[1:]):
        mask = (~zero_mask) & (sizes >= low) & (sizes < high if high != edges[-1] else sizes <= high)
        if mask.any():
            bins.append(
                Bin(int(low), int(high), int(mask.sum()), float(values_arr[mask].mean()))
            )
    return bins
