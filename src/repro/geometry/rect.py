"""Axis-aligned rectangles.

``Rect`` is the bounding-box type used for COLR-Tree node extents and for
viewport (range) queries.  Beyond the usual intersection / containment
tests it implements ``overlap_fraction``, the ``Overlap(BB(i), A)`` term
of the paper's layered-sampling Algorithm 1: the fraction of *this*
rectangle's area that lies inside another region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.geometry.point import GeoPoint


@dataclass(frozen=True, slots=True)
class Rect:
    """An axis-aligned rectangle ``[min_x, max_x] x [min_y, max_y]``.

    Degenerate rectangles (zero width or height) are allowed; they arise
    naturally as bounding boxes of single points or collinear sensors.
    """

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        # Written as a negated conjunction so a NaN bound (every
        # comparison false) is rejected too; ±inf bounds stay legal for
        # unbounded regions.
        if not (self.min_x <= self.max_x and self.min_y <= self.max_y):
            raise ValueError(
                f"invalid Rect: ({self.min_x}, {self.min_y}) .. "
                f"({self.max_x}, {self.max_y})"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_points(cls, points: Iterable[GeoPoint]) -> "Rect":
        """Bounding box of a non-empty collection of points."""
        xs: list[float] = []
        ys: list[float] = []
        for p in points:
            xs.append(p.x)
            ys.append(p.y)
        if not xs:
            raise ValueError("cannot build a Rect from zero points")
        return cls(min(xs), min(ys), max(xs), max(ys))

    @classmethod
    def from_center(cls, center: GeoPoint, half_width: float, half_height: float) -> "Rect":
        """Rectangle centered at ``center`` with the given half extents."""
        if half_width < 0 or half_height < 0:
            raise ValueError("half extents must be non-negative")
        return cls(
            center.x - half_width,
            center.y - half_height,
            center.x + half_width,
            center.y + half_height,
        )

    @classmethod
    def union_of(cls, rects: Sequence["Rect"]) -> "Rect":
        """Smallest rectangle covering every rectangle in ``rects``."""
        if not rects:
            raise ValueError("cannot union zero rectangles")
        return cls(
            min(r.min_x for r in rects),
            min(r.min_y for r in rects),
            max(r.max_x for r in rects),
            max(r.max_y for r in rects),
        )

    # ------------------------------------------------------------------
    # Basic measures
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> GeoPoint:
        return GeoPoint((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------
    def contains_point(self, p: GeoPoint) -> bool:
        """Closed containment test for a point."""
        return self.min_x <= p.x <= self.max_x and self.min_y <= p.y <= self.max_y

    def contains_rect(self, other: "Rect") -> bool:
        """True when ``other`` lies entirely inside this rectangle."""
        return (
            self.min_x <= other.min_x
            and self.min_y <= other.min_y
            and other.max_x <= self.max_x
            and other.max_y <= self.max_y
        )

    def intersects(self, other: "Rect") -> bool:
        """True when the closed rectangles share at least a boundary point."""
        return not (
            other.min_x > self.max_x
            or other.max_x < self.min_x
            or other.min_y > self.max_y
            or other.max_y < self.min_y
        )

    def intersects_rect(self, rect: "Rect") -> bool:
        """Alias of :meth:`intersects` so ``Rect`` and ``Polygon`` expose
        the same region protocol (``intersects_rect`` / ``contains_rect``
        / ``contains_point``) to the index."""
        return self.intersects(rect)

    def intersection(self, other: "Rect") -> "Rect | None":
        """The overlapping rectangle, or ``None`` when disjoint."""
        if not self.intersects(other):
            return None
        return Rect(
            max(self.min_x, other.min_x),
            max(self.min_y, other.min_y),
            min(self.max_x, other.max_x),
            min(self.max_y, other.max_y),
        )

    def overlap_fraction(self, region: "Rect") -> float:
        """Fraction of *this* rectangle's area inside ``region``.

        This is ``Overlap(BB(i), A)`` from Algorithm 1.  For a degenerate
        (zero-area) rectangle the fraction degrades gracefully: 1.0 when
        the center lies inside the region, otherwise 0.0 — a point-like
        node either contributes fully or not at all.
        """
        inter = self.intersection(region)
        if inter is None:
            return 0.0
        if self.area <= 0.0:
            return 1.0 if region.contains_point(self.center) else 0.0
        return inter.area / self.area

    def expanded(self, margin: float) -> "Rect":
        """A rectangle grown by ``margin`` on every side."""
        if margin < 0 and (self.width < -2 * margin or self.height < -2 * margin):
            raise ValueError("negative margin would invert the rectangle")
        return Rect(
            self.min_x - margin,
            self.min_y - margin,
            self.max_x + margin,
            self.max_y + margin,
        )

    def corners(self) -> tuple[GeoPoint, GeoPoint, GeoPoint, GeoPoint]:
        """The four corner points, counterclockwise from the lower-left."""
        return (
            GeoPoint(self.min_x, self.min_y),
            GeoPoint(self.max_x, self.min_y),
            GeoPoint(self.max_x, self.max_y),
            GeoPoint(self.min_x, self.max_y),
        )
