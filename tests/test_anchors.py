import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackgrasp.anchors import (
    AnchorAssignment,
    AnchorConfig,
    GraspDelta,
    OrientedAnchor,
    anchor_orientations,
    decode_grasp,
    encode_grasp,
    generate_anchors,
    match_anchors,
)
from stackgrasp.geometry import AABox, OrientedRect, angle_difference


class TestAnchorOrientations:
    def test_k4_values(self):
        assert anchor_orientations(4) == [-67.5, -22.5, 22.5, 67.5]

    def test_k6_values(self):
        assert anchor_orientations(6) == [-75.0, -45.0, -15.0, 15.0, 45.0, 75.0]

    def test_k1_single_bin_midpoint(self):
        assert anchor_orientations(1) == [0.0]

    @given(k=st.integers(min_value=1, max_value=24))
    def test_evenly_spaced_in_range(self, k):
        thetas = anchor_orientations(k)
        assert len(thetas) == k
        assert all(-90.0 <= t < 90.0 for t in thetas)
        for a, b in zip(thetas, thetas[1:]):
            assert b - a == pytest.approx(180.0 / k)


class TestAnchorConfig:
    def test_defaults(self):
        cfg = AnchorConfig()
        assert (cfg.grid_w, cfg.grid_h, cfg.k, cfg.anchor_size) == (7, 7, 4, 24.0)
        assert cfg.anchors_per_roi == 7 * 7 * 4

    def test_validation(self):
        with pytest.raises(ValueError):
            AnchorConfig(grid_w=0)
        with pytest.raises(ValueError):
            AnchorConfig(k=0)
        with pytest.raises(ValueError):
            AnchorConfig(anchor_size=-1.0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("grid_w", 2.5, "grid_w must be an integer, got 2.5"),
            ("grid_h", 3.0, "grid_h must be an integer, got 3.0"),
            ("k", 1.5, "k must be an integer, got 1.5"),
            ("k", True, "k must be an integer, got True"),
            ("grid_h", 10**400, "grid_h is too large for a float"),
            ("anchor_size", "24", "anchor_size must be a number, got '24'"),
            ("anchor_size", False, "anchor_size must be a number, got False"),
        ],
    )
    def test_field_types(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AnchorConfig(**{field: value})

    def test_integer_anchor_size_is_read_as_a_float(self):
        cfg = AnchorConfig(grid_w=2, anchor_size=24)
        assert type(cfg.anchor_size) is float and cfg.anchor_size == 24.0
        assert len(generate_anchors(AABox(0, 0, 10, 10), cfg)) == 2 * 7 * 4


class TestGenerateAnchors:
    def test_count_and_index_layout(self):
        cfg = AnchorConfig()
        roi = AABox(10, 20, 150, 160)
        anchors = generate_anchors(roi, cfg)
        assert len(anchors) == cfg.anchors_per_roi
        thetas = anchor_orientations(cfg.k)
        for idx, a in enumerate(anchors):
            row, col = a.cell
            assert idx == (row * cfg.grid_w + col) * cfg.k + a.orient_index
            assert a.theta == thetas[a.orient_index]
            assert a.w == a.h == cfg.anchor_size

    def test_centers_at_cell_midpoints(self):
        cfg = AnchorConfig(grid_w=2, grid_h=2, k=1, anchor_size=8)
        roi = AABox(0, 0, 20, 40)
        anchors = generate_anchors(roi, cfg)
        centers = [(a.x, a.y) for a in anchors]
        assert centers == [(5, 10), (15, 10), (5, 30), (15, 30)]


class TestDecodeEncode:
    def test_zero_delta_is_identity(self):
        a = OrientedAnchor(x=5, y=7, w=24, h=24, theta=22.5, cell=(0, 0), orient_index=2)
        g = decode_grasp(a, GraspDelta(0, 0, 0, 0, 0), k=4)
        assert (g.x, g.y, g.w, g.h, g.theta) == (5, 7, 24, 24, 22.5)

    def test_known_offsets(self):
        a = OrientedAnchor(x=0, y=0, w=12, h=12, theta=-67.5, cell=(0, 0), orient_index=0)
        g = decode_grasp(a, GraspDelta(dx=0.5, dy=-1.0, dw=math.log(2), dh=0.0, dtheta=1.0), k=4)
        assert g.x == pytest.approx(6.0)
        assert g.y == pytest.approx(-12.0)
        assert g.w == pytest.approx(24.0)
        assert g.h == pytest.approx(12.0)
        assert g.theta == pytest.approx(-67.5 + 22.5)

    @pytest.mark.parametrize("name", ["dx", "dy", "dw", "dh", "dtheta"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_delta_rejected(self, name, bad):
        fields = dict.fromkeys(["dx", "dy", "dw", "dh", "dtheta"], 0.0)
        with pytest.raises(ValueError, match=f"^non-finite delta component {name}$"):
            GraspDelta(**{**fields, name: bad})

    def test_overflow_rejected(self):
        a = OrientedAnchor(x=0, y=0, w=24, h=24, theta=0, cell=(0, 0), orient_index=0)
        with pytest.raises(ValueError):
            decode_grasp(a, GraspDelta(0, 0, 1e4, 0, 0), k=4)

    def test_round_trip_fixed_cases(self):
        a = OrientedAnchor(x=40, y=60, w=24, h=24, theta=67.5, cell=(1, 2), orient_index=3)
        for grasp in (
            OrientedRect(42, 55, 30, 12, -80),
            OrientedRect(40, 60, 24, 24, 67.5),
            OrientedRect(10, 90, 5, 45, 0),
        ):
            delta = encode_grasp(a, grasp, k=4)
            back = decode_grasp(a, delta, k=4)
            assert back.x == pytest.approx(grasp.x, abs=1e-10)
            assert back.y == pytest.approx(grasp.y, abs=1e-10)
            assert back.w == pytest.approx(grasp.w, abs=1e-10)
            assert back.h == pytest.approx(grasp.h, abs=1e-10)
            assert angle_difference(back.theta, grasp.theta) < 1e-10

    def test_angle_residual_nearest_zero(self):
        # anchor at 67.5, grasp at -80: going down through -90 is 32.5 deg,
        # so dtheta must encode the short way, not +147.5
        a = OrientedAnchor(x=0, y=0, w=24, h=24, theta=67.5, cell=(0, 0), orient_index=3)
        delta = encode_grasp(a, OrientedRect(0, 0, 10, 10, -80), k=4)
        assert delta.dtheta * (90.0 / 4) == pytest.approx(32.5)

    @given(
        ax=st.floats(-50, 50), ay=st.floats(-50, 50),
        gx=st.floats(-80, 80), gy=st.floats(-80, 80),
        gw=st.floats(0.5, 60), gh=st.floats(0.5, 60),
        gtheta=st.floats(-90, 89.999),
        size=st.sampled_from([12.0, 24.0]),
        k=st.sampled_from([1, 4, 6]),
        orient=st.integers(0, 5),
    )
    @settings(max_examples=200)
    def test_round_trip_property(self, ax, ay, gx, gy, gw, gh, gtheta, size, k, orient):
        theta_a = anchor_orientations(k)[orient % k]
        a = OrientedAnchor(x=ax, y=ay, w=size, h=size, theta=theta_a,
                           cell=(0, 0), orient_index=orient % k)
        grasp = OrientedRect(gx, gy, gw, gh, gtheta)
        back = decode_grasp(a, encode_grasp(a, grasp, k), k)
        assert abs(back.x - grasp.x) < 1e-9
        assert abs(back.y - grasp.y) < 1e-9
        assert abs(back.w - grasp.w) < 1e-9
        assert abs(back.h - grasp.h) < 1e-9
        assert angle_difference(back.theta, grasp.theta) < 1e-9


class TestAnchorAssignment:
    def test_rejects_duplicate_anchor(self):
        with pytest.raises(ValueError):
            AnchorAssignment(positives=((0, 0), (0, 1)), negatives=(), skipped=())

    def test_rejects_duplicate_gt(self):
        with pytest.raises(ValueError):
            AnchorAssignment(positives=((0, 0), (1, 0)), negatives=(), skipped=())

    def test_rejects_overlap_with_negatives(self):
        with pytest.raises(ValueError):
            AnchorAssignment(positives=((0, 0),), negatives=(0, 1), skipped=())


class TestMatchAnchors:
    roi = AABox(0, 0, 70, 70)
    cfg = AnchorConfig(grid_w=7, grid_h=7, k=4, anchor_size=24)

    def anchors(self):
        return generate_anchors(self.roi, self.cfg)

    def test_center_cell_and_orientation(self):
        # grasp centered in cell (2, 3) at 20 deg -> orientation bin 22.5 (index 2)
        g = OrientedRect(35, 25, 10, 5, 20)
        res = match_anchors(self.anchors(), [g], self.cfg, self.roi)
        expected = (2 * 7 + 3) * 4 + 2
        assert res.positives == ((expected, 0),)
        assert res.skipped == ()
        assert len(res.negatives) == self.cfg.anchors_per_roi - 1

    def test_orientation_tie_prefers_lower_index(self):
        # 0 deg is equidistant from -22.5 and 22.5; the lower index wins
        g = OrientedRect(5, 5, 10, 5, 0)
        res = match_anchors(self.anchors(), [g], self.cfg, self.roi)
        assert res.positives[0][0] % 4 == 1

    def test_boundary_goes_to_lower_cell(self):
        # x = 10 sits exactly on the border between columns 0 and 1
        g = OrientedRect(10, 5, 10, 5, -67.5)
        res = match_anchors(self.anchors(), [g], self.cfg, self.roi)
        anchor_idx = res.positives[0][0]
        assert self.anchors()[anchor_idx].cell == (0, 0)

    def test_outside_roi_is_skipped(self):
        g = OrientedRect(200, 5, 10, 5, 0)
        res = match_anchors(self.anchors(), [g], self.cfg, self.roi)
        assert res.positives == ()
        assert res.skipped == (0,)

    def test_collision_skips_later_gt(self):
        g1 = OrientedRect(35, 25, 10, 5, 20)
        g2 = OrientedRect(36, 26, 8, 4, 21)  # same cell, same orientation bin
        res = match_anchors(self.anchors(), [g1, g2], self.cfg, self.roi)
        assert [gt for _, gt in res.positives] == [0]
        assert res.skipped == (1,)

    def test_wrong_anchor_count_rejected(self):
        with pytest.raises(ValueError):
            match_anchors(self.anchors()[:-1], [], self.cfg, self.roi)

    def test_negatives_complement_positives(self):
        gts = [OrientedRect(5, 5, 8, 4, -60), OrientedRect(65, 65, 8, 4, 80)]
        res = match_anchors(self.anchors(), gts, self.cfg, self.roi)
        pos = {a for a, _ in res.positives}
        assert pos.isdisjoint(res.negatives)
        assert pos | set(res.negatives) == set(range(self.cfg.anchors_per_roi))
