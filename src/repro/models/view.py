"""Model views over a COLR-Tree's cache.

A :class:`ModelView` gathers the fresh cached readings around a query
location (an expanding-radius search over the tree's leaf caches) and
fits a spatial model to them, answering point estimates with **zero
sensor probes**.  When the cache cannot support an estimate the view
raises :class:`InsufficientSupport`.
"""

from __future__ import annotations

from repro.core.tree import COLRTree
from repro.geometry import GeoPoint, Rect
from repro.models.interpolation import IDWModel, SpatialModel
from repro.sensors.sensor import Reading


class InsufficientSupport(RuntimeError):
    """Raised when too few fresh cached readings surround the query."""


class ModelView:
    """A read-only model-based view over one tree's cached data.

    Parameters
    ----------
    tree:
        The backing index (with caching enabled).
    model:
        A :class:`~repro.models.interpolation.SpatialModel`; a fresh
        instance is fitted per estimate.  Defaults to IDW.
    min_support:
        Minimum fresh cached readings required to answer.
    """

    def __init__(
        self,
        tree: COLRTree,
        model: SpatialModel | None = None,
        min_support: int = 4,
    ) -> None:
        if not tree.config.caching_enabled:
            raise ValueError("model views need a caching-enabled tree")
        if min_support < 1:
            raise ValueError("min_support must be at least 1")
        self.tree = tree
        self._model = model if model is not None else IDWModel()
        self.min_support = int(min_support)

    # ------------------------------------------------------------------
    # Cache harvesting
    # ------------------------------------------------------------------
    def cached_readings_near(
        self,
        p: GeoPoint,
        now: float,
        max_staleness: float,
        want: int,
    ) -> list[Reading]:
        """Fresh cached readings around ``p``, found by doubling a
        search rectangle until ``want`` readings (or the whole domain)
        are covered."""
        domain = self.tree.root.bbox
        radius = max(domain.width, domain.height) / 64.0 or 1.0
        seen: list[Reading] = []
        while True:
            probe_rect = Rect.from_center(p, radius, radius)
            seen = self._harvest(probe_rect, now, max_staleness)
            if len(seen) >= want or probe_rect.contains_rect(domain):
                return seen
            radius *= 2.0

    def _harvest(self, rect: Rect, now: float, max_staleness: float) -> list[Reading]:
        out: list[Reading] = []
        stack = [self.tree.root]
        while stack:
            node = stack.pop()
            if not rect.intersects(node.bbox):
                continue
            if node.is_leaf:
                if node.leaf_cache is None:
                    continue
                for reading in node.leaf_cache.fresh_readings(now, max_staleness):
                    if rect.contains_point(self.tree.sensor(reading.sensor_id).location):
                        out.append(reading)
            else:
                stack.extend(node.children)
        return out

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def estimate_at(self, p: GeoPoint, now: float, max_staleness: float) -> float:
        """Estimate the sensed value at an arbitrary location."""
        readings = self.cached_readings_near(
            p, now, max_staleness, want=max(self.min_support, 8)
        )
        if len(readings) < self.min_support:
            raise InsufficientSupport(
                f"only {len(readings)} fresh cached readings near "
                f"({p.x:.3f}, {p.y:.3f}); need {self.min_support}"
            )
        locations = [self.tree.sensor(r.sensor_id).location for r in readings]
        self._model.fit(locations, [r.value for r in readings])
        return self._model.predict(p)
