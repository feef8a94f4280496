"""Oriented rectangles and axis-aligned boxes.

Angles are degrees everywhere. A two-finger gripper cannot tell a grasp
rectangle from its 180-degree rotation, so every orientation is normalized
into the half-open range [-90, 90) and angle distances live in [0, 90].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MIN_SIDE = 1e-6


def normalize_angle(theta: float) -> float:
    """Map an angle in degrees onto [-90, 90) under 180-degree symmetry."""
    return (theta + 90.0) % 180.0 - 90.0


@dataclass(frozen=True)
class OrientedRect:
    """Grasp rectangle: center ``(x, y)``, size ``(w, h)``, rotation ``theta``.

    ``theta`` is measured from the +x axis toward +y and is normalized at
    construction. Sides shorter than 1e-6 are rejected as degenerate.
    """

    x: float
    y: float
    w: float
    h: float
    theta: float

    def __post_init__(self) -> None:
        # A float sum is finite only when every term is, and the leading 0.0
        # converts each int term on its own, as math.isfinite does. The sum
        # also fails when it overflows, or when a term is too large for a
        # float or not a number; the per-name test then tells these apart.
        try:
            finite = math.isfinite(0.0 + self.x + self.y + self.w + self.h + self.theta)
        except (OverflowError, TypeError):
            finite = False
        if not finite:
            for name in ("x", "y", "w", "h", "theta"):
                if not math.isfinite(getattr(self, name)):
                    raise ValueError(f"non-finite rectangle parameter {name}")
        if self.w < _MIN_SIDE or self.h < _MIN_SIDE:
            raise ValueError(f"degenerate rectangle: w={self.w}, h={self.h}")
        object.__setattr__(self, "theta", normalize_angle(self.theta))

    @property
    def center(self) -> tuple[float, float]:
        return (self.x, self.y)

    @property
    def area(self) -> float:
        return self.w * self.h


@dataclass(frozen=True)
class AABox:
    """Axis-aligned box with strictly ordered corners and a finite, non-zero
    area."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        # one isfinite test, as in OrientedRect
        try:
            finite = math.isfinite(0.0 + self.xmin + self.ymin + self.xmax + self.ymax)
        except (OverflowError, TypeError):
            finite = False
        if not finite:
            for name in ("xmin", "ymin", "xmax", "ymax"):
                if not math.isfinite(getattr(self, name)):
                    raise ValueError(f"non-finite box coordinate {name}")
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ValueError(
                f"empty box: ({self.xmin}, {self.ymin}, {self.xmax}, {self.ymax})"
            )
        # the overlap ratios divide by areas (the area property, inline),
        # so an area may neither underflow to 0 nor overflow to inf
        area = (self.xmax - self.xmin) * (self.ymax - self.ymin)
        if not 0.0 < area < math.inf:
            what = "underflows to 0" if area == 0.0 else "overflows to inf"
            raise ValueError(
                f"box area {what}: ({self.xmin}, {self.ymin}, {self.xmax}, {self.ymax})"
            )

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return ((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.xmin, self.ymin, self.xmax, self.ymax)


def _vertex_list(r: OrientedRect) -> list[tuple[float, float]]:
    t = math.radians(r.theta)
    c, s = math.cos(t), math.sin(t)
    hw, hh = r.w / 2.0, r.h / 2.0
    # the corners (r.x + c * px - s * py, r.y + s * px + c * py) at
    # (px, py) = (-hw, -hh), (hw, -hh), (hw, hh), (-hw, hh); a product with
    # a negated factor is the negated product, so the values are the same
    chw, shw, chh, shh = c * hw, s * hw, c * hh, s * hh
    x, y = r.x, r.y
    return [
        (x - chw + shh, y - shw - chh),
        (x + chw + shh, y + shw - chh),
        (x + chw - shh, y + shw + chh),
        (x - chw - shh, y - shw + chh),
    ]


def rect_vertices(r: OrientedRect) -> np.ndarray:
    """Corner coordinates of ``r``, shape (4, 2), counter-clockwise.

    The first corner is the rotated image of ``(-w/2, -h/2)``; the centroid
    of the four corners equals the rectangle center.
    """
    return np.array(_vertex_list(r), dtype=float)


def clip_polygon(subject, clipper):
    """Sutherland-Hodgman clip of ``subject`` by a convex CCW ``clipper``.

    Both arguments are vertex sequences; the result is a (possibly empty)
    vertex list of the intersection polygon.
    """
    output = list(subject)
    n = len(clipper)
    for i in range(n):
        if not output:
            return []
        ax, ay = clipper[i]
        bx, by = clipper[(i + 1) % n]
        # a vertex is inside when it lies left of (or on) the directed edge
        # a->b: ux * (py - ay) - uy * (px - ax) >= 0
        ux, uy = bx - ax, by - ay
        # the clip line's terms of the segment intersection
        dcx, dcy = ax - bx, ay - by
        tol = 1e-12 * math.hypot(dcx, dcy)
        n1 = ax * by - ay * bx
        source, output = output, []
        sx, sy = source[-1]
        s_in = ux * (sy - ay) - uy * (sx - ax) >= 0.0
        for e in source:
            ex, ey = e
            e_in = ux * (ey - ay) - uy * (ex - ax) >= 0.0
            if e_in != s_in:
                dpx, dpy = sx - ex, sy - ey
                den = dcx * dpy - dcy * dpx
                # a segment (anti)parallel to the clip line only "crosses" it
                # through rounding noise in the side test; its endpoints
                # already lie on the line, so taking one keeps the polygon
                # intact. den is the product of the two lengths and the sine
                # of the angle between the lines.
                if abs(den) <= tol * math.hypot(dpx, dpy):
                    output.append(e)
                else:
                    n2 = sx * ey - sy * ex
                    output.append(((n1 * dpx - n2 * dcx) / den, (n1 * dpy - n2 * dcy) / den))
            if e_in:
                output.append(e)
            sx, sy, s_in = ex, ey, e_in
    return output


def polygon_area(vertices) -> float:
    """Absolute shoelace area of a simple polygon."""
    if len(vertices) < 3:
        return 0.0
    acc = 0.0
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        acc += x0 * y1 - x1 * y0
    return abs(acc) / 2.0


def rotated_jaccard(a: OrientedRect, b: OrientedRect) -> float:
    """Jaccard index (intersection over union) of two oriented rectangles.

    The intersection of two convex quadrilaterals is computed exactly by
    clipping one against the other; areas come from the shoelace formula.
    Result is clamped into [0, 1].
    """
    ra = math.hypot(a.w, a.h) / 2.0
    rb = math.hypot(b.w, b.h) / 2.0
    if (a.x - b.x) ** 2 + (a.y - b.y) ** 2 >= (ra + rb) ** 2:
        return 0.0
    inter = polygon_area(clip_polygon(_vertex_list(a), _vertex_list(b)))
    # the areas as OrientedRect.area computes them
    union = a.w * a.h + b.w * b.h - inter
    return min(max(inter / union, 0.0), 1.0)


def angle_difference(t1: float, t2: float) -> float:
    """Distance in degrees between two orientations modulo 180, in [0, 90]."""
    return abs(normalize_angle(t1 - t2))


def aabb_iou(a: AABox, b: AABox) -> float:
    """Intersection over union of two axis-aligned boxes."""
    iw = min(a.xmax, b.xmax) - max(a.xmin, b.xmin)
    ih = min(a.ymax, b.ymax) - max(a.ymin, b.ymin)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    # the areas as AABox.area computes them
    return inter / (
        (a.xmax - a.xmin) * (a.ymax - a.ymin) + (b.xmax - b.xmin) * (b.ymax - b.ymin) - inter
    )
