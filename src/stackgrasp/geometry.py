"""Oriented rectangles and axis-aligned boxes.

Angles are degrees everywhere. A two-finger gripper cannot tell a grasp
rectangle from its 180-degree rotation, so every orientation is normalized
into the half-open range [-90, 90) and angle distances live in [0, 90].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

_MIN_SIDE = 1e-6


def normalize_angle(theta: float) -> float:
    """Map an angle in degrees onto [-90, 90) under 180-degree symmetry."""
    return (theta + 90.0) % 180.0 - 90.0


def _slot_setters(cls) -> tuple:
    """The ``__set__`` of each field's slot in the slotted dataclass
    ``cls``, in field order. A hand-written ``__init__`` stores each field
    once through these, past the frozen ``__setattr__``, where the
    generated one calls ``object.__setattr__`` per field."""
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))


@dataclass(frozen=True, slots=True, init=False)
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

    def __init__(self, x: float, y: float, w: float, h: float, theta: float) -> None:
        # A float sum is finite only when every term is, and the leading 0.0
        # converts each int term on its own, as math.isfinite does. The sum
        # also fails when it overflows, or when a term is too large for a
        # float or not a number; the per-name test then tells these apart.
        try:
            finite = math.isfinite(0.0 + x + y + w + h + theta)
        except (OverflowError, TypeError):
            finite = False
        if not finite:
            for name, v in zip(("x", "y", "w", "h", "theta"), (x, y, w, h, theta)):
                if not math.isfinite(v):
                    raise ValueError(f"non-finite rectangle parameter {name}")
        if w < _MIN_SIDE or h < _MIN_SIDE:
            raise ValueError(f"degenerate rectangle: w={w}, h={h}")
        set_x, set_y, set_w, set_h, set_theta = _RECT_SLOTS
        set_x(self, x)
        set_y(self, y)
        set_w(self, w)
        set_h(self, h)
        set_theta(self, normalize_angle(theta))

    @property
    def center(self) -> tuple[float, float]:
        return (self.x, self.y)

    @property
    def area(self) -> float:
        return self.w * self.h


_RECT_SLOTS = _slot_setters(OrientedRect)


@dataclass(frozen=True, slots=True, init=False)
class AABox:
    """Axis-aligned box with strictly ordered corners and a finite, non-zero
    area."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __init__(self, xmin: float, ymin: float, xmax: float, ymax: float) -> None:
        # one isfinite test, as in OrientedRect
        try:
            finite = math.isfinite(0.0 + xmin + ymin + xmax + ymax)
        except (OverflowError, TypeError):
            finite = False
        if not finite:
            for name, v in zip(("xmin", "ymin", "xmax", "ymax"), (xmin, ymin, xmax, ymax)):
                if not math.isfinite(v):
                    raise ValueError(f"non-finite box coordinate {name}")
        if not (xmin < xmax and ymin < ymax):
            raise ValueError(f"empty box: ({xmin}, {ymin}, {xmax}, {ymax})")
        # the overlap ratios divide by areas (the area property, inline),
        # so an area may neither underflow to 0 nor overflow to inf
        area = (xmax - xmin) * (ymax - ymin)
        if not 0.0 < area < math.inf:
            what = "underflows to 0" if area == 0.0 else "overflows to inf"
            raise ValueError(f"box area {what}: ({xmin}, {ymin}, {xmax}, {ymax})")
        set_xmin, set_ymin, set_xmax, set_ymax = _BOX_SLOTS
        set_xmin(self, xmin)
        set_ymin(self, ymin)
        set_xmax(self, xmax)
        set_ymax(self, ymax)

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


_BOX_SLOTS = _slot_setters(AABox)


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
        source, output = output, []
        sx, sy = source[-1]
        s_side = ux * (sy - ay) - uy * (sx - ax)
        s_in = s_side >= 0.0
        for e in source:
            ex, ey = e
            e_side = ux * (ey - ay) - uy * (ex - ax)
            e_in = e_side >= 0.0
            if e_in != s_in:
                # the crossing as a point of the segment s->e: a segment that
                # runs along the clip line, its ends on either side only by
                # rounding, keeps its crossing on that line
                t = s_side / (s_side - e_side)
                output.append((sx + t * (ex - sx), sy + t * (ey - sy)))
            if e_in:
                output.append(e)
            sx, sy, s_side, s_in = ex, ey, e_side, e_in
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
