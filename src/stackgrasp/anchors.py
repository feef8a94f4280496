"""Oriented anchor grid and the grasp <-> delta coding between anchors and
ground truth rectangles.

A region of interest is divided into ``grid_w x grid_h`` cells with ``k``
square anchors per cell, one per canonical orientation. Regression targets
are expressed relative to the matched anchor: center offsets scale with the
anchor size, sizes are log-ratios, and the angle residual scales with the
orientation spacing ``90 / k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ._json import integer, number
from .geometry import AABox, OrientedRect, _slot_setters, angle_difference, normalize_angle


@dataclass(frozen=True)
class AnchorConfig:
    grid_w: int = 7
    grid_h: int = 7
    k: int = 4
    anchor_size: float = 24.0

    def __post_init__(self) -> None:
        # the cell sizes divide by the grid sizes, so each must be an
        # integer that converts to a float
        for name in ("grid_w", "grid_h", "k"):
            value = integer(name, getattr(self, name))
            number(name, value)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "anchor_size", number("anchor_size", self.anchor_size))
        if self.grid_w < 1 or self.grid_h < 1:
            raise ValueError("grid dimensions must be positive")
        if self.k < 1:
            raise ValueError("need at least one orientation per cell")
        if not (math.isfinite(self.anchor_size) and self.anchor_size > 0):
            raise ValueError("anchor size must be positive")

    @property
    def anchors_per_roi(self) -> int:
        return self.grid_w * self.grid_h * self.k


@dataclass(frozen=True, slots=True, init=False)
class OrientedAnchor:
    """One square anchor: center, side length, canonical orientation."""

    x: float
    y: float
    w: float
    h: float
    theta: float
    cell: tuple[int, int]  # (row, col)
    orient_index: int

    def __init__(
        self, x: float, y: float, w: float, h: float, theta: float,
        cell: tuple[int, int], orient_index: int,
    ) -> None:
        set_x, set_y, set_w, set_h, set_theta, set_cell, set_orient_index = _ANCHOR_SLOTS
        set_x(self, x)
        set_y(self, y)
        set_w(self, w)
        set_h(self, h)
        set_theta(self, theta)
        set_cell(self, cell)
        set_orient_index(self, orient_index)


_ANCHOR_SLOTS = _slot_setters(OrientedAnchor)


def anchor_orientations(k: int) -> list[float]:
    """The k canonical orientations: midpoints of equal bins over [-90, 90)."""
    return [-90.0 + (i + 0.5) * 180.0 / k for i in range(k)]


def generate_anchors(roi: AABox, cfg: AnchorConfig) -> list[OrientedAnchor]:
    """All anchors of one ROI in row-major cell order, orientations innermost.

    Anchor index == (row * grid_w + col) * k + orient_index.
    """
    cell_w = roi.width / cfg.grid_w
    cell_h = roi.height / cfg.grid_h
    orients = list(enumerate(anchor_orientations(cfg.k)))
    size = cfg.anchor_size
    xs = [roi.xmin + (col + 0.5) * cell_w for col in range(cfg.grid_w)]
    out = []
    for row in range(cfg.grid_h):
        cy = roi.ymin + (row + 0.5) * cell_h
        for col, cx in enumerate(xs):
            cell = (row, col)
            for i, theta in orients:
                # positional: x, y, w, h, theta, cell, orient_index
                out.append(OrientedAnchor(cx, cy, size, size, theta, cell, i))
    return out


@dataclass(frozen=True)
class GraspDelta:
    """Regression offsets of a grasp rectangle relative to an anchor."""

    dx: float
    dy: float
    dw: float
    dh: float
    dtheta: float

    def __post_init__(self) -> None:
        for name in ("dx", "dy", "dw", "dh", "dtheta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite delta component {name}")

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.dx, self.dy, self.dw, self.dh, self.dtheta)


def decode_grasp(anchor: OrientedAnchor, delta: GraspDelta, k: int) -> OrientedRect:
    """Apply regression offsets to an anchor.

    x = dx * w_a + x_a, y = dy * h_a + y_a, w = exp(dw) * w_a,
    h = exp(dh) * h_a, theta = dtheta * (90 / k) + theta_a (normalized).
    """
    aw, ah = anchor.w, anchor.h
    try:
        w = math.exp(delta.dw) * aw
        h = math.exp(delta.dh) * ah
    except OverflowError:
        raise ValueError(f"size delta overflow: dw={delta.dw}, dh={delta.dh}")
    if not (math.isfinite(w) and math.isfinite(h)):
        raise ValueError(f"size delta overflow: dw={delta.dw}, dh={delta.dh}")
    # positional: x, y, w, h, theta
    return OrientedRect(
        delta.dx * aw + anchor.x,
        delta.dy * ah + anchor.y,
        w,
        h,
        delta.dtheta * (90.0 / k) + anchor.theta,
    )


def encode_grasp(anchor: OrientedAnchor, grasp: OrientedRect, k: int) -> GraspDelta:
    """Exact inverse of :func:`decode_grasp`.

    The angle residual is the representative of (theta - theta_a) nearest
    zero modulo 180, so decode(encode(g)) == g after normalization.
    """
    return GraspDelta(
        dx=(grasp.x - anchor.x) / anchor.w,
        dy=(grasp.y - anchor.y) / anchor.h,
        dw=math.log(grasp.w / anchor.w),
        dh=math.log(grasp.h / anchor.h),
        dtheta=normalize_angle(grasp.theta - anchor.theta) / (90.0 / k),
    )


@dataclass(frozen=True)
class AnchorAssignment:
    """Result of matching ground-truth grasps onto an anchor grid.

    ``positives`` pairs anchor indices with ground-truth indices; every
    anchor not matched is a candidate negative. ``skipped`` lists ground
    truth that could not be assigned (center outside the ROI, or its anchor
    already taken by an earlier grasp).
    """

    positives: tuple[tuple[int, int], ...]
    negatives: tuple[int, ...]
    skipped: tuple[int, ...]

    def __post_init__(self) -> None:
        pos_anchors = [a for a, _ in self.positives]
        if len(set(pos_anchors)) != len(pos_anchors):
            raise ValueError("anchor matched to more than one ground truth")
        gts = [g for _, g in self.positives]
        if len(set(gts)) != len(gts):
            raise ValueError("ground truth matched to more than one anchor")
        if set(pos_anchors) & set(self.negatives):
            raise ValueError("anchor listed as both positive and negative")


def _containing_cell(v: float, vmin: float, size: float, count: int) -> int | None:
    # Cells are closed intervals; a point on a shared boundary belongs to the
    # lower-index cell. Returns None outside [vmin, vmin + count * size].
    t = (v - vmin) / size
    if t < 0.0 or t > count:
        return None
    i = int(math.floor(t))
    if i >= 1 and t == i:
        i -= 1
    return min(i, count - 1)


def match_anchors(
    anchors: Sequence[OrientedAnchor],
    gt: Sequence[OrientedRect],
    cfg: AnchorConfig,
    roi: AABox,
) -> AnchorAssignment:
    """Assign each ground-truth grasp to one anchor of its containing cell.

    The anchor with the nearest canonical orientation (modulo 180) wins;
    orientation ties go to the lower orient_index. Ground truth centered
    outside the ROI is skipped, as is ground truth whose chosen anchor was
    already claimed by an earlier grasp.
    """
    if len(anchors) != cfg.anchors_per_roi:
        raise ValueError(
            f"expected {cfg.anchors_per_roi} anchors, got {len(anchors)}"
        )
    thetas = anchor_orientations(cfg.k)
    cell_w = roi.width / cfg.grid_w
    cell_h = roi.height / cfg.grid_h
    taken: dict[int, int] = {}
    skipped: list[int] = []
    for gi, g in enumerate(gt):
        col = _containing_cell(g.x, roi.xmin, cell_w, cfg.grid_w)
        row = _containing_cell(g.y, roi.ymin, cell_h, cfg.grid_h)
        if col is None or row is None:
            skipped.append(gi)
            continue
        best = min(range(cfg.k), key=lambda i: (angle_difference(g.theta, thetas[i]), i))
        idx = (row * cfg.grid_w + col) * cfg.k + best
        if idx in taken:
            skipped.append(gi)
            continue
        taken[idx] = gi
    positives = tuple(sorted(taken.items()))
    negatives = tuple(i for i in range(len(anchors)) if i not in taken)
    return AnchorAssignment(positives=positives, negatives=negatives, skipped=tuple(skipped))
