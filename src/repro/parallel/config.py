"""Knobs of the process-execution backend."""

from __future__ import annotations

from dataclasses import dataclass

#: Prefix of every shared-memory segment this package creates.  Tests
#: and benches scan ``/dev/shm`` for it to assert nothing leaked.
SHM_PREFIX = "colr"


@dataclass(frozen=True, slots=True)
class ParallelConfig:
    """Tunables of :class:`repro.parallel.portal.ParallelFederatedPortal`.

    Parameters
    ----------
    tile_nodes:
        Classification tile length (nodes) applied to every shard
        kernel, coordinator *and* worker side.  ``None`` (the default)
        auto-sizes from the CPU's L2 cache via
        :func:`repro.core.flat.auto_tile_nodes`; pass an explicit value
        to pin it (tests sweep tiny tiles).  Labels are bit-identical
        for any value.
    verify_adoption:
        When true (the default) each worker compares the shared-memory
        arrays against its locally rebuilt kernel before adopting them —
        a one-time O(index) guard that publisher and worker built the
        same tree.  Disable for faster worker startup on large fleets.
    """

    tile_nodes: int | None = None
    verify_adoption: bool = True

    def __post_init__(self) -> None:
        if self.tile_nodes is not None and self.tile_nodes < 1:
            raise ValueError("tile_nodes must be positive or None")
