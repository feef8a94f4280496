import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stackgrasp.geometry import (
    AABox,
    OrientedRect,
    aabb_iou,
    angle_difference,
    clip_polygon,
    normalize_angle,
    polygon_area,
    rotated_jaccard,
)

from oracle_utils import (
    rect_vertices,
    mc_jaccard,
    reference_clip_polygon,
    reference_rotated_jaccard,
    reference_vertex_list,
)

angles = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
sides = st.floats(min_value=0.5, max_value=50.0, allow_nan=False)


def rects(draw):
    return OrientedRect(
        x=draw(coords), y=draw(coords), w=draw(sides), h=draw(sides), theta=draw(angles)
    )


rect_strategy = st.builds(
    OrientedRect, x=coords, y=coords, w=sides, h=sides, theta=angles
)


class TestNormalizeAngle:
    def test_identity_inside_range(self):
        assert normalize_angle(0.0) == 0.0
        assert normalize_angle(-45.0) == -45.0
        assert normalize_angle(89.9) == pytest.approx(89.9)

    def test_wrapping(self):
        assert normalize_angle(90.0) == -90.0
        assert normalize_angle(-90.0) == -90.0
        assert normalize_angle(180.0) == 0.0
        assert normalize_angle(270.0) == -90.0
        assert normalize_angle(-260.0) == pytest.approx(100.0 - 180.0)

    @given(theta=angles)
    def test_range_and_period(self, theta):
        n = normalize_angle(theta)
        assert -90.0 <= n < 90.0
        # compare across the wrap seam with the modular distance
        assert angle_difference(normalize_angle(theta + 180.0), n) < 1e-6

    @given(theta=angles)
    def test_idempotent(self, theta):
        n = normalize_angle(theta)
        assert normalize_angle(n) == n


class TestAngleDifference:
    def test_known_values(self):
        assert angle_difference(0.0, 0.0) == 0.0
        assert angle_difference(30.0, 10.0) == pytest.approx(20.0)
        assert angle_difference(89.0, -89.0) == pytest.approx(2.0)
        assert angle_difference(45.0, -45.0) == pytest.approx(90.0)

    @given(t1=angles, t2=angles)
    def test_symmetric_and_bounded(self, t1, t2):
        d = angle_difference(t1, t2)
        assert 0.0 <= d <= 90.0
        assert d == pytest.approx(angle_difference(t2, t1), abs=1e-9)


class TestOrientedRect:
    def test_theta_normalized_on_construction(self):
        r = OrientedRect(0, 0, 2, 1, 135.0)
        assert r.theta == -45.0

    def test_rejects_degenerate_sides(self):
        with pytest.raises(ValueError):
            OrientedRect(0, 0, 0.0, 1, 0)
        with pytest.raises(ValueError):
            OrientedRect(0, 0, 1, 1e-9, 0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            OrientedRect(float("nan"), 0, 1, 1, 0)
        with pytest.raises(ValueError):
            OrientedRect(0, 0, 1, 1, float("inf"))

    def test_area_and_center(self):
        r = OrientedRect(3, 4, 2, 5, 30)
        assert r.area == 10.0
        assert r.center == (3, 4)


class TestAABox:
    def test_rejects_unordered(self):
        with pytest.raises(ValueError):
            AABox(1, 0, 1, 2)
        with pytest.raises(ValueError):
            AABox(0, 3, 2, 3)

    def test_rejects_area_that_underflows(self):
        with pytest.raises(ValueError, match="underflows"):
            AABox(0, 0, 1e-200, 1e-200)
        assert AABox(0, 0, 1e-200, 1e100).area == pytest.approx(1e-100)

    def test_rejects_area_that_overflows(self):
        # aabb_iou would divide by inf and return NaN, which matches nothing
        with pytest.raises(ValueError, match="overflows to inf"):
            AABox(0, 0, 1e200, 1e200)
        with pytest.raises(ValueError, match="overflows to inf"):
            AABox(-1e308, 0, 1e308, 1)
        assert AABox(0, 0, 1e200, 1e100).area == pytest.approx(1e300)

    def test_dimensions(self):
        b = AABox(1, 2, 4, 8)
        assert (b.width, b.height, b.area) == (3.0, 6.0, 18.0)
        assert b.center == (2.5, 5.0)
        assert b.as_tuple() == (1, 2, 4, 8)


class TestRectVertices:
    @given(r=rect_strategy)
    @settings(max_examples=50)
    def test_centroid_is_center(self, r):
        v = rect_vertices(r)
        assert v.shape == (4, 2)
        assert np.allclose(v.mean(axis=0), [r.x, r.y], atol=1e-9)

    @given(r=rect_strategy)
    @settings(max_examples=50)
    def test_counter_clockwise_and_area(self, r):
        v = rect_vertices(r)
        signed = 0.0
        for i in range(4):
            x0, y0 = v[i]
            x1, y1 = v[(i + 1) % 4]
            signed += x0 * y1 - x1 * y0
        assert signed / 2.0 == pytest.approx(r.area, rel=1e-9)

    def test_axis_aligned_corners(self):
        v = rect_vertices(OrientedRect(1, 2, 4, 2, 0))
        assert np.allclose(v, [(-1, 1), (3, 1), (3, 3), (-1, 3)])


class TestClipPolygon:
    def test_self_clip_keeps_area(self):
        square = [(0, 0), (2, 0), (2, 2), (0, 2)]
        assert polygon_area(clip_polygon(square, square)) == pytest.approx(4.0)

    def test_disjoint_is_empty(self):
        a = [(0, 0), (1, 0), (1, 1), (0, 1)]
        b = [(5, 5), (6, 5), (6, 6), (5, 6)]
        assert clip_polygon(a, b) == []

    def test_partial_overlap(self):
        a = [(0, 0), (2, 0), (2, 2), (0, 2)]
        b = [(1, 1), (3, 1), (3, 3), (1, 3)]
        assert polygon_area(clip_polygon(a, b)) == pytest.approx(1.0)


class TestPolygonArea:
    def test_triangle(self):
        assert polygon_area([(0, 0), (4, 0), (0, 3)]) == pytest.approx(6.0)

    def test_degenerate(self):
        assert polygon_area([(0, 0), (1, 1)]) == 0.0
        assert polygon_area([]) == 0.0


class TestRotatedJaccard:
    def test_identical_is_one(self):
        r = OrientedRect(3, 4, 6, 2, 0)
        assert rotated_jaccard(r, r) == 1.0

    def test_disjoint_is_zero(self):
        a = OrientedRect(0, 0, 2, 2, 15)
        b = OrientedRect(10, 0, 2, 2, 70)
        assert rotated_jaccard(a, b) == 0.0

    def test_translated_squares(self):
        # side-2 squares offset by dx overlap in a (2-dx) x 2 strip:
        # J = (2-dx)/(2+dx)
        for dx in (0.5, 1.0, 1.5):
            a = OrientedRect(0, 0, 2, 2, 0)
            b = OrientedRect(dx, 0, 2, 2, 0)
            assert rotated_jaccard(a, b) == pytest.approx((2 - dx) / (2 + dx), rel=1e-12)

    def test_square_against_its_45_rotation(self):
        # the intersection is a regular octagon; J = (sqrt(2)-1)/(2-sqrt(2))
        a = OrientedRect(0, 0, 2, 2, 0)
        b = OrientedRect(0, 0, 2, 2, 45)
        expected = (math.sqrt(2) - 1) / (2 - math.sqrt(2))
        assert rotated_jaccard(a, b) == pytest.approx(expected, rel=1e-12)

    def test_contained_rect(self):
        outer = OrientedRect(0, 0, 4, 4, 30)
        inner = OrientedRect(0, 0, 2, 2, 30)
        assert rotated_jaccard(outer, inner) == pytest.approx(4.0 / 16.0, rel=1e-9)

    def test_contained_rect_sharing_near_horizontal_edges(self):
        # the inner rect's top edge lies on the outer one's, both 0.5 deg
        # off horizontal; rounding must not turn it into a crossing
        outer = OrientedRect(0.0, 64.0, 1.0, 1.0, 0.5)
        inner = OrientedRect(0.0, 64.0, 0.5, 1.0, 0.5)
        assert rotated_jaccard(outer, inner) == pytest.approx(0.5, rel=1e-12)
        assert rotated_jaccard(inner, outer) == pytest.approx(0.5, rel=1e-12)

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(11)
        for trial in range(12):
            a = OrientedRect(
                rng.uniform(-2, 2), rng.uniform(-2, 2),
                rng.uniform(1, 6), rng.uniform(1, 6), rng.uniform(-90, 90),
            )
            b = OrientedRect(
                rng.uniform(-2, 2), rng.uniform(-2, 2),
                rng.uniform(1, 6), rng.uniform(1, 6), rng.uniform(-90, 90),
            )
            est = mc_jaccard(a, b, n_samples=200_000, seed=trial)
            assert rotated_jaccard(a, b) == pytest.approx(est, abs=0.02)

    @given(a=rect_strategy, b=rect_strategy)
    # concentric, at one angle, with their short edges on the same lines
    @example(
        a=OrientedRect(41.0625, 80.73819726809063, 3.0, 1.0, 1.0),
        b=OrientedRect(41.0625, 80.73819726809063, 3.0, 0.5, 1.0),
    )
    @settings(max_examples=100)
    def test_symmetric_and_bounded(self, a, b):
        j_ab = rotated_jaccard(a, b)
        j_ba = rotated_jaccard(b, a)
        assert 0.0 <= j_ab <= 1.0
        assert j_ab == pytest.approx(j_ba, abs=1e-6)


def _bits(value):
    """``value`` with every float as its hex text, so that equal means
    bit-identical (0.0 and -0.0 differ)."""
    if isinstance(value, float):
        return value.hex()
    return [_bits(v) for v in value]


@st.composite
def rect_pairs(draw):
    """Two rectangles: random ones, identical ones, ones sharing an edge or
    a center line, and ones a hair off parallel, at rotations that include
    0, 45 and 90 degrees."""
    theta = draw(st.one_of(st.sampled_from([0.0, 45.0, 90.0, -90.0, 0.5, 30.0]), angles))
    a = OrientedRect(draw(coords), draw(coords), draw(sides), draw(sides), theta)
    kind = draw(st.sampled_from(["random", "identical", "shared-edge", "near-parallel"]))
    if kind == "random":
        return a, draw(rect_strategy)
    if kind == "identical":
        return a, OrientedRect(a.x, a.y, a.w, a.h, a.theta)
    if kind == "shared-edge":
        # b's side at +w/2 (along the rect's own x axis) lies on a's
        w = draw(st.floats(min_value=0.5, max_value=a.w))
        t = math.radians(a.theta)
        shift = (a.w - w) / 2.0
        h = draw(st.sampled_from([a.h, a.h / 2.0, a.h * 2.0]))
        return a, OrientedRect(a.x + shift * math.cos(t), a.y + shift * math.sin(t), w, h, a.theta)
    tilt = draw(st.sampled_from([1e-15, 1e-12, 1e-9, -1e-9, 1e-6]))
    return a, OrientedRect(
        a.x + draw(st.floats(-1.0, 1.0)), a.y, draw(sides), draw(sides), a.theta + tilt
    )


@settings(max_examples=1500, deadline=None)
@given(pair=rect_pairs())
def test_jaccard_is_bit_identical_to_the_helper_call_clip(pair):
    """The inlined clip, the corner products and the inline areas give the
    bits of the helper-call clip, the per-corner rotation and the ``area``
    properties (tests/oracle_utils.reference_rotated_jaccard)."""
    a, b = pair
    va, vb = reference_vertex_list(a), reference_vertex_list(b)
    assert _bits(rect_vertices(a).tolist()) == _bits(va)
    assert _bits(clip_polygon(va, vb)) == _bits(reference_clip_polygon(va, vb))
    assert _bits(rotated_jaccard(a, b)) == _bits(reference_rotated_jaccard(a, b))
    assert _bits(rotated_jaccard(b, a)) == _bits(reference_rotated_jaccard(b, a))


class TestAABBIoU:
    def test_known_value(self):
        a = AABox(0, 0, 2, 2)
        b = AABox(1, 1, 3, 3)
        assert aabb_iou(a, b) == pytest.approx(1.0 / 7.0)

    def test_disjoint_and_identical(self):
        a = AABox(0, 0, 1, 1)
        assert aabb_iou(a, AABox(2, 2, 3, 3)) == 0.0
        assert aabb_iou(a, a) == 1.0

    def test_touching_edges_is_zero(self):
        assert aabb_iou(AABox(0, 0, 1, 1), AABox(1, 0, 2, 1)) == 0.0
