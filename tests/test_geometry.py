import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackgrasp.geometry import (
    AABox,
    OrientedRect,
    aabb_iou,
    angle_difference,
    clip_polygon,
    normalize_angle,
    point_in_rect,
    polygon_area,
    rect_vertices,
    rotated_jaccard,
    union_box,
)

from oracle_utils import mc_jaccard

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
        assert normalize_angle(n) == pytest.approx(n, abs=1e-9)


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


class TestPointInRect:
    def test_center_and_corners_inside(self):
        r = OrientedRect(0, 0, 4, 2, 30)
        assert point_in_rect(r, 0, 0)
        for x, y in rect_vertices(r):
            assert point_in_rect(r, x, y)

    def test_outside(self):
        r = OrientedRect(0, 0, 4, 2, 0)
        assert not point_in_rect(r, 2.1, 0)
        assert not point_in_rect(r, 0, 1.1)

    def test_rotation_moves_membership(self):
        # (1.9, 0.9) is a corner region only covered without rotation
        r0 = OrientedRect(0, 0, 4, 2, 0)
        r45 = OrientedRect(0, 0, 4, 2, 45)
        assert point_in_rect(r0, 1.9, 0.9)
        assert not point_in_rect(r45, 1.9, -0.9)


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
    @settings(max_examples=100)
    def test_symmetric_and_bounded(self, a, b):
        j_ab = rotated_jaccard(a, b)
        j_ba = rotated_jaccard(b, a)
        assert 0.0 <= j_ab <= 1.0
        assert j_ab == pytest.approx(j_ba, abs=1e-6)


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


def test_union_box():
    u = union_box(AABox(0, 0, 1, 1), AABox(2, -1, 3, 0.5))
    assert u.as_tuple() == (0, -1, 3, 1)
