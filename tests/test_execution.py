import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackgrasp._json import DocumentError
from stackgrasp.execution import (
    AffineMap,
    CalibrationError,
    DepthImage,
    GraspExecutionError,
    GraspPointError,
    OpeningLimitError,
    RobotGraspPose,
    SurfaceNormalError,
    approach_vector,
    fit_affine,
    grasp_point,
    load_calibration_pairs,
    load_depth_pgm,
    to_robot_pose,
)
from stackgrasp.geometry import OrientedRect

from oracle_utils import (
    affine_fit_normal_equations,
    exhaustive_grasp_point,
    gather_depths_ok,
    loop_approach_vector,
    save_depth_pgm,
    whole_frame_load_depth_pgm,
    whole_window_approach_vector,
)


IDENTITY = AffineMap(linear=np.eye(3), offset=np.zeros(3))


def flat_depth(height=40, width=40, value=800.0):
    return DepthImage.from_millimeters(np.full((height, width), value))


class TestDepthImage:
    def test_from_millimeters_masks_zeros(self):
        img = DepthImage.from_millimeters([[0.0, 5.0], [3.0, 0.0]])
        assert img.valid.tolist() == [[False, True], [True, False]]
        assert img.height == 2 and img.width == 2

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DepthImage(values=np.zeros((2, 2)), valid=np.ones((2, 3), dtype=bool))

    def test_negative_valid_depth_rejected(self):
        with pytest.raises(ValueError):
            DepthImage(values=np.array([[-1.0]]), valid=np.array([[True]]))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_valid_depth_rejected(self, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            DepthImage(values=np.array([[5.0, bad]]), valid=np.array([[True, True]]))

    def test_from_millimeters_rejects_infinite_depth(self):
        with pytest.raises(ValueError, match="finite"):
            DepthImage.from_millimeters([[5.0, math.inf]])

    def test_masked_non_finite_allowed(self):
        img = DepthImage(values=np.array([[math.inf, math.nan]]), valid=np.array([[False, False]]))
        assert not img.valid.any()
        assert img.values.tolist() == [[0.0, 0.0]]

    def test_masked_negative_allowed(self):
        img = DepthImage(values=np.array([[-1.0, 7.0]]), valid=np.array([[False, True]]))
        assert img.valid.tolist() == [[False, True]]
        assert img.values.tolist() == [[0.0, 7.0]]

    def test_each_frame_holds_one_array(self, tmp_path):
        values = np.full((3, 4), 900.0)
        values[1, 2] = 0.0
        path = tmp_path / "d.pgm"
        save_depth_pgm(path, DepthImage.from_millimeters(values))
        for frame in (
            DepthImage(values=values, valid=values > 0),
            DepthImage.from_millimeters(values),
            load_depth_pgm(path),
        ):
            assert list(vars(frame)) == ["_depths"]
            assert frame.values.tolist() == values.tolist()

    def test_writes_to_the_callers_arrays_change_nothing(self):
        values = np.full((9, 9), 500.0)
        values[2, 2] = 400.0
        valid = np.ones((9, 9), dtype=bool)
        frame = DepthImage(values=values, valid=valid)
        rect = OrientedRect(4.0, 4.0, 8.0, 8.0, 0.0)
        before = grasp_point(frame, rect), approach_vector(frame, (4, 4), IDENTITY, 2).tolist()
        values[4, 4] = math.nan
        values[2, 2] = 600.0
        valid[:] = False
        assert frame.values[4, 4] == 500.0 and frame.values[2, 2] == 400.0
        assert frame.valid.all()
        assert (grasp_point(frame, rect), approach_vector(frame, (4, 4), IDENTITY, 2).tolist()) == before

    def test_values_and_valid_are_read_only(self, tmp_path):
        path = tmp_path / "d.pgm"
        save_depth_pgm(path, flat_depth(3, 5))
        for frame in (flat_depth(3, 5), load_depth_pgm(path)):
            with pytest.raises(ValueError, match="read-only"):
                frame.values[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                frame.valid[0, 0] = False
            assert grasp_point(frame, OrientedRect(2.0, 1.0, 2.0, 2.0, 0.0)) == (2, 1, 800.0)
        # a float frame's values view its depths, which stay read-only
        with pytest.raises(ValueError, match="WRITEABLE"):
            flat_depth(3, 5).values.flags.writeable = True

    def test_values_and_valid_cannot_be_replaced_or_made_writable(self, tmp_path):
        path = tmp_path / "d.pgm"
        save_depth_pgm(path, flat_depth(5, 5))
        for frame in (flat_depth(5, 5), load_depth_pgm(path)):
            for name in ("values", "valid"):
                with pytest.raises(AttributeError):
                    setattr(frame, name, np.zeros((5, 5)))
                with pytest.raises(ValueError, match="WRITEABLE"):
                    getattr(frame, name).flags.writeable = True
            assert frame.values.tolist() == [[800.0] * 5] * 5 and frame.valid.all()
            assert grasp_point(frame, OrientedRect(2.0, 2.0, 2.0, 2.0, 0.0)) == (2, 2, 800.0)

    def test_the_grasp_functions_read_only_the_depths(self):
        class DepthsOnly(DepthImage):
            values = valid = property(lambda self: pytest.fail("read values or valid"))

        values = np.full((9, 9), 500.0)
        values[2, 2] = 400.0
        frame, plain = DepthsOnly(values, values > 0), DepthImage(values, values > 0)
        rect = OrientedRect(4.0, 4.0, 8.0, 8.0, 0.0)
        assert grasp_point(frame, rect) == grasp_point(plain, rect)
        got = approach_vector(frame, (4, 4), IDENTITY, 2)
        assert got.tolist() == approach_vector(plain, (4, 4), IDENTITY, 2).tolist()
        pose = to_robot_pose(rect, frame, IDENTITY, 2).to_json_dict()
        assert pose == to_robot_pose(rect, plain, IDENTITY, 2).to_json_dict()

    def test_from_millimeters_retains_one_float_frame(self):
        raster = np.random.default_rng(5).integers(0, 2000, (480, 640)).astype(np.uint16)
        tracemalloc.start()
        try:
            frame = DepthImage.from_millimeters(raster)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert frame.height == 480
        assert retained <= 2_500_000, retained


class TestAffineMap:
    def test_identity_apply(self):
        assert IDENTITY.apply((3.0, 4.0, 5.0)).tolist() == [3.0, 4.0, 5.0]

    def test_keeps_its_own_read_only_arrays(self):
        linear, offset = np.eye(3), np.zeros(3)
        m = AffineMap(linear=linear, offset=offset)
        linear[:] = 0.0
        linear[0, 0] = math.nan
        offset[:] = 5.0
        assert m.linear.tolist() == np.eye(3).tolist() and m.offset.tolist() == [0.0] * 3
        assert m.opening_scale == 1.0
        with pytest.raises(ValueError, match="read-only"):
            m.linear[0, 0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            m.offset[0] = 2.0

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            AffineMap(linear=np.zeros((3, 3)), offset=np.zeros(3))

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            AffineMap(linear=np.eye(2), offset=np.zeros(3))
        with pytest.raises(ValueError):
            AffineMap(linear=np.eye(3), offset=np.zeros(2))

    def test_apply_general(self):
        m = AffineMap(linear=np.diag([2.0, 3.0, 4.0]), offset=np.array([1.0, 1.0, 1.0]))
        assert m.apply((1.0, 1.0, 1.0)).tolist() == [3.0, 4.0, 5.0]

    def test_json_round_trip(self):
        m = AffineMap(
            linear=np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 2.0]]),
            offset=np.array([1.5, -2.5, 0.25]),
            residual_rms=0.125,
        )
        back = AffineMap.from_json_dict(json.loads(json.dumps(m.to_json_dict())))
        assert np.array_equal(back.linear, m.linear)
        assert np.array_equal(back.offset, m.offset)
        assert back.residual_rms == m.residual_rms

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"residual_rms": "0.5"}, "residual_rms must be a number"),
            ({"linear": [[True, 0, 0], [0, 1, 0], [0, 0, 1]]}, r"linear\[0\]\[0\] must be a number"),
            ({"linear": [[1, 0, 0], [0, 1, 0]]}, "linear must be a list of 3 rows"),
            ({"linear": [[1, 0, 0], [0, 1], [0, 0, 1]]}, r"linear\[1\] needs 3 values"),
            ({"offset": [0, "1", 0]}, r"offset\[1\] must be a number"),
        ],
    )
    def test_from_json_dict_reads_numbers_only(self, edit, message):
        data = {**IDENTITY.to_json_dict(), **edit}
        with pytest.raises(ValueError, match=message):
            AffineMap.from_json_dict(data)

    def test_from_json_dict_reads_integers_as_floats(self):
        m = AffineMap.from_json_dict({"linear": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "offset": [0, 0, 1]})
        assert m.linear.dtype == float and m.offset.tolist() == [0.0, 0.0, 1.0]
        assert m.residual_rms == 0.0

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"linear": [[math.nan, 0, 0], [0, 1, 0], [0, 0, 1]]}, "linear"),
            ({"linear": [[1, 0, 0], [0, math.inf, 0], [0, 0, 1]]}, "linear"),
            ({"offset": [0, -math.inf, 0]}, "offset"),
            ({"residual_rms": math.nan}, "residual_rms"),
            ({"residual_rms": math.inf}, "residual_rms"),
        ],
    )
    def test_non_finite_values_rejected(self, fields, name):
        # a NaN determinant passes the singular check; the field is named first
        data = {**IDENTITY.to_json_dict(), **fields}
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            AffineMap(np.array(data["linear"]), np.array(data["offset"]), data["residual_rms"])
        # json.loads reads NaN and Infinity
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            AffineMap.from_json_dict(json.loads(json.dumps(data)))

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"offset": [0, 0, 0]}, "^linear: missing$"),
            ({"linear": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, "^offset: missing$"),
            ([], "^expected an object, got list$"),
            (None, "^expected an object, got NoneType$"),
        ],
    )
    def test_from_json_dict_names_a_missing_field(self, data, message):
        with pytest.raises(ValueError, match=message):
            AffineMap.from_json_dict(data)


class TestFitAffine:
    def exact_pairs(self, linear, offset, rng, n=12):
        pairs = []
        for _ in range(n):
            uvd = rng.uniform((0, 0, 300), (640, 480, 1200))
            xyz = linear @ uvd + offset
            pairs.append((tuple(uvd), tuple(xyz)))
        return pairs

    def test_exact_recovery(self):
        rng = np.random.default_rng(5)
        linear = np.array([[0.001, 0.0, -0.2], [0.0, -0.001, 0.1], [0.0002, 0.0001, 0.9]])
        offset = np.array([0.4, 0.8, -0.3])
        m = fit_affine(self.exact_pairs(linear, offset, rng))
        assert np.allclose(m.linear, linear, atol=1e-10)
        assert np.allclose(m.offset, offset, atol=1e-8)
        assert m.residual_rms < 1e-8

    def test_noisy_fit_matches_normal_equations(self):
        rng = np.random.default_rng(9)
        linear = np.diag([0.002, 0.002, 1.0])
        offset = np.array([-0.6, -0.5, 0.0])
        pairs = []
        for uvd, xyz in self.exact_pairs(linear, offset, rng, n=30):
            noisy = tuple(c + rng.normal(0, 0.01) for c in xyz)
            pairs.append((uvd, noisy))
        m = fit_affine(pairs)
        lin_ref, off_ref = affine_fit_normal_equations(pairs)
        assert np.allclose(m.linear, lin_ref, atol=1e-8)
        assert np.allclose(m.offset, off_ref, atol=1e-8)
        assert m.residual_rms > 0.0

    def test_too_few_pairs(self):
        pairs = [((0, 0, 1), (0, 0, 1))] * 3
        with pytest.raises(CalibrationError, match="at least 4"):
            fit_affine(pairs)

    def test_calibration_error_is_a_value_and_an_arithmetic_error(self):
        # callers that catch ValueError still catch it; the command line
        # maps an ArithmeticError to a numerical failure
        with pytest.raises(ValueError) as failed:
            fit_affine([])
        assert type(failed.value) is CalibrationError
        assert isinstance(failed.value, ArithmeticError)

    def test_rank_deficient_rejected(self):
        # all pixels share one depth: the d column is constant
        pairs = [
            ((0, 0, 500), (0, 0, 0)),
            ((10, 0, 500), (1, 0, 0)),
            ((0, 10, 500), (0, 1, 0)),
            ((10, 10, 500), (1, 1, 0)),
            ((5, 5, 500), (0.5, 0.5, 0)),
        ]
        with pytest.raises(CalibrationError):
            fit_affine(pairs)

    def test_overflowing_residual_is_a_calibration_error(self):
        pixels = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (0, 0, 2), (1, 1, 3)]
        pairs = [(p, (1e308 * (i % 2), 1e308 * (i // 2 % 2), 1e308)) for i, p in enumerate(pixels)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy overflow warning on the way
            with pytest.raises(CalibrationError, match="^residual_rms must be finite$"):
                fit_affine(pairs)

    def test_non_3d_points_rejected(self):
        pairs = [((0, 0), (0, 0))] * 4
        with pytest.raises(CalibrationError, match="3-d"):
            fit_affine(pairs)


class TestGraspPoint:
    def test_minimum_depth_wins(self):
        values = np.full((20, 20), 900.0)
        values[7, 11] = 850.0
        depth = DepthImage.from_millimeters(values)
        rect = OrientedRect(10, 8, 8, 6, 0.0)
        assert grasp_point(depth, rect) == (11, 7, 850.0)

    def test_depth_tie_prefers_center(self):
        depth = flat_depth(20, 20)
        rect = OrientedRect(10, 8, 8, 6, 0.0)
        assert grasp_point(depth, rect) == (10, 8, 800.0)

    def test_invalid_pixels_skipped(self):
        values = np.full((20, 20), 900.0)
        values[8, 10] = 0.0  # hole at the center
        depth = DepthImage.from_millimeters(values)
        u, v, d = grasp_point(depth, OrientedRect(10, 8, 8, 6, 0.0))
        assert (u, v) != (10, 8)
        assert d == 900.0

    def test_rotated_rect_respects_membership(self):
        # thin rect at 45 degrees: the bounding-box corner pixel is outside
        values = np.full((30, 30), 900.0)
        values[5, 20] = 100.0  # shallow but off the rect
        depth = DepthImage.from_millimeters(values)
        rect = OrientedRect(15, 12, 16, 2, 45.0)
        u, v, d = grasp_point(depth, rect)
        assert (u, v) != (20, 5)
        assert d == 900.0

    def test_no_overlap_raises(self):
        depth = flat_depth(10, 10)
        with pytest.raises(GraspPointError):
            grasp_point(depth, OrientedRect(100, 100, 4, 4, 0.0))

    def test_all_invalid_raises(self):
        depth = DepthImage.from_millimeters(np.zeros((10, 10)))
        with pytest.raises(GraspPointError):
            grasp_point(depth, OrientedRect(5, 5, 4, 4,   0.0))

    def test_matches_exhaustive_scan(self):
        # with two or three depth levels, many pixels tie at the minimum
        rng = np.random.default_rng(21)
        for levels in [None] * 40 + [2, 3] * 20:
            if levels is None:
                values = rng.integers(600, 1000, size=(25, 25)).astype(float)
            else:
                values = rng.choice(rng.uniform(600.0, 1000.0, levels), size=(25, 25))
            holes = rng.random((25, 25)) < 0.2
            values[holes] = 0.0
            depth = DepthImage.from_millimeters(values)
            rect = OrientedRect(
                float(rng.uniform(6, 19)),
                float(rng.uniform(6, 19)),
                float(rng.uniform(3, 10)),
                float(rng.uniform(2, 6)),
                float(rng.uniform(-90, 90)),
            )
            expected = exhaustive_grasp_point(depth, rect)
            if expected is None:
                with pytest.raises(GraspPointError):
                    grasp_point(depth, rect)
            else:
                assert grasp_point(depth, rect) == expected


class TestApproachVector:
    def test_flat_surface_points_straight_down(self):
        v = approach_vector(flat_depth(), (20, 20), IDENTITY)
        assert np.allclose(v, [0.0, 0.0, -1.0], atol=1e-12)

    def test_inclined_plane_normal(self):
        # depth grows with v at slope 1 -> surface tilted 45 degrees; with an
        # identity map the inward normal is (0, 1, -1)/sqrt(2)
        rows = np.arange(40, dtype=float)[:, None]
        depth = DepthImage.from_millimeters(500.0 + rows + np.zeros((40, 40)))
        v = approach_vector(depth, (20, 20), IDENTITY)
        assert np.allclose(v, [0.0, 1.0 / math.sqrt(2), -1.0 / math.sqrt(2)], atol=1e-9)

    def test_affine_rescaling_changes_normal(self):
        # same plane but pixels are 2 robot units apart: slope halves
        rows = np.arange(40, dtype=float)[:, None]
        depth = DepthImage.from_millimeters(500.0 + rows + np.zeros((40, 40)))
        affine = AffineMap(linear=np.diag([2.0, 2.0, 1.0]), offset=np.zeros(3))
        v = approach_vector(depth, (20, 20), affine)
        expected = np.array([0.0, 1.0, -2.0]) / math.sqrt(5.0)
        assert np.allclose(v, expected, atol=1e-9)

    def test_too_few_valid_pixels(self):
        values = np.zeros((20, 20))
        values[10, 10] = 700.0
        depth = DepthImage.from_millimeters(values)
        with pytest.raises(SurfaceNormalError):
            approach_vector(depth, (10, 10), IDENTITY)

    def test_no_formable_normal(self):
        # a single valid row: vertical neighbors are always missing
        values = np.zeros((20, 20))
        values[10, :] = 700.0
        depth = DepthImage.from_millimeters(values)
        with pytest.raises(SurfaceNormalError):
            approach_vector(depth, (10, 10), IDENTITY)

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            approach_vector(flat_depth(), (20, 20), IDENTITY, radius=0)

    @pytest.mark.parametrize("radius", [2.5, 3.0, True, "3", None])
    def test_radius_must_be_an_integer(self, radius):
        # 2.5 used to escape as a bare TypeError from slicing, True ran as 1
        with pytest.raises(ValueError, match=f"^radius must be an integer, got {re.escape(repr(radius))}$"):
            approach_vector(flat_depth(), (20, 20), IDENTITY, radius=radius)

    def test_numpy_integer_radius_accepted(self):
        got = approach_vector(flat_depth(), (20, 20), IDENTITY, radius=np.int64(3))
        assert got.tolist() == approach_vector(flat_depth(), (20, 20), IDENTITY, 3).tolist()


def approach_or_error(fn, depth, at, affine, radius):
    try:
        return fn(depth, at, affine, radius)
    except SurfaceNormalError as e:
        return type(e)


def assert_same_approach(depth, at, affine, radius):
    """The array form agrees with the per-pixel loop to 1e-12, or both
    raise the same error; and it gives the bits of the padded whole-window
    form, or raises its error with the same text."""
    expected = approach_or_error(loop_approach_vector, depth, at, affine, radius)
    got = approach_or_error(approach_vector, depth, at, affine, radius)
    if isinstance(expected, type) or isinstance(got, type):
        assert got is expected
    else:
        assert np.abs(got - expected).max() <= 1e-12, (got, expected)
    try:
        previous = whole_window_approach_vector(depth, at, affine, radius)
    except SurfaceNormalError as e:
        with pytest.raises(type(e), match=f"^{re.escape(str(e))}$"):
            approach_vector(depth, at, affine, radius)
    else:
        assert approach_vector(depth, at, affine, radius).tolist() == previous.tolist()
    return expected


# where the window sits: each corner, the middle of each edge, or inside
PLACES = [(fu, fv) for fu in (0.0, 0.5, 1.0) for fv in (0.0, 0.5, 1.0)]


@st.composite
def approach_windows(draw):
    """A depth surface (a plane, a bump and per-pixel noise) with 0-40%
    invalid pixels, a well-conditioned random affine map, and a window of
    radius 1-6 at a corner, an edge or inside the image."""
    height, width = draw(st.integers(3, 24)), draw(st.integers(3, 24))
    radius = draw(st.integers(1, 6))
    fu, fv = draw(st.sampled_from(PLACES))
    holes = draw(st.floats(0.0, 0.4))
    rounded = draw(st.booleans())  # 16-bit PGM depths are whole millimetres
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    us, vs = np.meshgrid(np.arange(width), np.arange(height))
    values = (
        rng.uniform(300.0, 1500.0)
        + rng.uniform(-3.0, 3.0) * us
        + rng.uniform(-3.0, 3.0) * vs
        + rng.uniform(0.0, 0.05) * (us - width / 2.0) ** 2
        + rng.uniform(0.0, 1.0) * rng.standard_normal((height, width))
    )
    if rounded:
        values = np.rint(values)
    values[rng.random((height, width)) < holes] = 0.0
    # rotation x scales x rotation: non-singular, condition number <= 16
    q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    linear = q1 @ np.diag(rng.uniform(0.25, 4.0, 3) * rng.choice([-1.0, 1.0], 3)) @ q2
    affine = AffineMap(linear=linear, offset=rng.uniform(-1000.0, 1000.0, 3))
    at = (round(fu * (width - 1)), round(fv * (height - 1)))
    return DepthImage.from_millimeters(values), at, affine, radius


@st.composite
def horizontal_normal_windows(draw):
    """Windows whose every normal is exactly horizontal: robot z follows v
    alone and the depth varies along u alone, so both tangents' cross
    product has z == 0 and the orientation falls to the y and x
    tie-breaks. Everything is small integers, so no rounding happens
    before the normalization."""
    height, width = draw(st.integers(3, 16)), draw(st.integers(3, 16))
    radius = draw(st.integers(1, 6))
    fu, fv = draw(st.sampled_from(PLACES))
    small = st.integers(-3, 3)
    non_singular = st.tuples(small, small, small, small).filter(lambda m: m[0] * m[3] != m[1] * m[2])
    p, q, r, t = draw(non_singular)
    c = draw(st.sampled_from([-2, -1, 1, 2]))
    linear = np.array([[p, 0, q], [r, 0, t], [0, c, 0]], dtype=float)
    offset = np.array([draw(small), draw(small), draw(small)], dtype=float)
    flat = draw(st.booleans())
    columns = [draw(st.integers(500, 520)) for _ in range(width)]
    values = np.tile(np.array(columns, dtype=float), (height, 1))
    if flat:
        values[:] = columns[0]
    pixels = st.tuples(st.integers(0, height - 1), st.integers(0, width - 1))
    holes = draw(st.lists(pixels, max_size=height * width // 3))
    for v, u in holes:
        values[v, u] = 0.0
    at = (round(fu * (width - 1)), round(fv * (height - 1)))
    affine = AffineMap(linear=linear, offset=offset)
    return DepthImage.from_millimeters(values), at, affine, radius


class TestApproachVectorOracle:
    """``approach_vector`` against the per-pixel loop it replaced."""

    @given(approach_windows())
    @settings(max_examples=300, deadline=None)
    def test_matches_loop(self, case):
        assert_same_approach(*case)

    @given(horizontal_normal_windows())
    @settings(max_examples=200, deadline=None)
    def test_horizontal_normals_take_the_tie_breaks(self, case):
        expected = assert_same_approach(*case)
        if not isinstance(expected, type):
            assert approach_vector(*case)[2] == 0.0

    @pytest.mark.parametrize(
        "linear, expected",
        [
            # x follows u, y the depth, z follows v: flat normals point along
            # -y, so the y tie-break keeps them
            ([[1, 0, 0], [0, 0, 1], [0, 1, 0]], [0.0, -1.0, 0.0]),
            # y follows u instead: the normal is +x, and the x tie-break flips it
            ([[0, 0, 1], [1, 0, 0], [0, 1, 0]], [-1.0, 0.0, 0.0]),
        ],
    )
    def test_exact_tie_breaks(self, linear, expected):
        affine = AffineMap(linear=np.array(linear, dtype=float), offset=np.zeros(3))
        got = assert_same_approach(flat_depth(), (20, 20), affine, 5)
        assert got.tolist() == expected
        assert approach_vector(flat_depth(), (20, 20), affine).tolist() == expected

    def test_tiny_normals_are_skipped(self):
        # the flat window's normals have norm 4e-14 < 1e-12: none is formed
        affine = AffineMap(linear=np.diag([1e-7, 1e-7, 1e6]), offset=np.zeros(3))
        assert_same_approach(flat_depth(), (20, 20), affine, 5)
        with pytest.raises(SurfaceNormalError, match="no surface normal"):
            approach_vector(flat_depth(), (20, 20), affine)

    def test_tiny_normals_skipped_beside_large_ones(self):
        # a depth step across the window: the pixels beside it form normals
        # of norm 20, the flat ones are skipped
        values = np.full((40, 40), 800.0)
        values[:, 20:] = 900.0
        affine = AffineMap(linear=np.diag([1e-7, 1e-7, 1e6]), offset=np.zeros(3))
        got = assert_same_approach(DepthImage.from_millimeters(values), (20, 20), affine, 5)
        assert not isinstance(got, type)

    @pytest.mark.parametrize(
        "at", [(0, 0), (39, 0), (0, 39), (39, 39), (20, 0), (0, 20), (39, 20), (20, 39)]
    )
    def test_window_at_image_border(self, at):
        rows = np.arange(40, dtype=float)[:, None]
        depth = DepthImage.from_millimeters(500.0 + 2.0 * rows + np.arange(40.0))
        affine = AffineMap(
            linear=np.array([[2.0, 0.1, 0.0], [0.0, 2.0, 0.3], [0.1, 0.0, 1.0]]),
            offset=np.array([-300.0, -200.0, 5.0]),
        )
        got = assert_same_approach(depth, at, affine, 5)
        assert not isinstance(got, type)


depth_entries = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1.0, 850.0, 1e308]
)


class TestDepthImageCheck:
    """The in-place frame check against gathering the valid depths."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_gather_rule(self, data):
        height, width = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        cells = height * width
        values = data.draw(st.lists(depth_entries, min_size=cells, max_size=cells))
        valid = data.draw(st.lists(st.booleans(), min_size=cells, max_size=cells))
        values = np.array(values).reshape(height, width)
        valid = np.array(valid).reshape(height, width)
        try:
            DepthImage(values=values, valid=valid)
            accepted = True
        except ValueError as e:
            assert "positive and finite" in str(e)
            accepted = False
        assert accepted == gather_depths_ok(values, valid)


class TestToRobotPose:
    def test_identity_map_keeps_angle_and_width(self):
        pose = to_robot_pose(
            OrientedRect(20, 20, 10, 4, 30.0), flat_depth(), IDENTITY
        )
        assert pose.roll == pytest.approx(30.0)
        assert pose.opening == pytest.approx(10.0)
        assert np.allclose(pose.approach, [0, 0, -1])
        assert pose.point.tolist() == [20.0, 20.0, 800.0]

    def test_scaling_map_scales_opening(self):
        affine = AffineMap(linear=np.diag([2.0, 2.0, 1.0]), offset=np.zeros(3))
        pose = to_robot_pose(OrientedRect(20, 20, 10, 4, 0.0), flat_depth(), affine)
        assert pose.opening == pytest.approx(20.0)

    def test_rotation_map_rotates_roll(self):
        # 90-degree in-plane rotation: a 10-degree grasp comes out at 100,
        # normalized into [-90, 90)
        linear = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        affine = AffineMap(linear=linear, offset=np.zeros(3))
        pose = to_robot_pose(OrientedRect(20, 20, 10, 4, 10.0), flat_depth(), affine)
        assert pose.roll == pytest.approx(-80.0)

    def test_opening_limit(self):
        with pytest.raises(OpeningLimitError):
            to_robot_pose(
                OrientedRect(20, 20, 10, 4, 0.0),
                flat_depth(),
                IDENTITY,
                max_opening=9.0,
            )

    def test_opening_at_the_limit_passes(self):
        pose = to_robot_pose(
            OrientedRect(20, 20, 10, 4, 0.0), flat_depth(), IDENTITY, max_opening=10
        )
        assert pose.opening == 10.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_max_opening_must_be_positive_and_finite(self, bad):
        # nan used to turn the limit off: a 10-unit opening passed
        with pytest.raises(ValueError, match="^max_opening must be positive and finite"):
            to_robot_pose(
                OrientedRect(20, 20, 10, 4, 0.0), flat_depth(), IDENTITY, max_opening=bad
            )

    @pytest.mark.parametrize("bad", [True, "9"])
    def test_max_opening_must_be_a_number(self, bad):
        with pytest.raises(ValueError, match="^max_opening must be a number"):
            to_robot_pose(
                OrientedRect(20, 20, 10, 4, 0.0), flat_depth(), IDENTITY, max_opening=bad
            )

    @pytest.mark.parametrize("radius, message", [(2.5, "an integer"), (True, "an integer"), (0, "at least 1")])
    def test_radius_checked_before_the_grasp_point(self, radius, message):
        # the rectangle misses the image, yet the argument is reported
        with pytest.raises(ValueError, match=f"^radius must be {message}"):
            to_robot_pose(OrientedRect(100, 100, 4, 4, 0.0), flat_depth(), IDENTITY, radius)

    def test_json_dict(self):
        pose = to_robot_pose(
            OrientedRect(20, 20, 10, 4, 0.0), flat_depth(), IDENTITY
        )
        d = pose.to_json_dict()
        assert set(d) == {"point", "approach", "roll", "opening"}
        assert all(isinstance(v, float) for v in d["point"])


class TestPgmIo:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 1500, size=(12, 17)).astype(float)
        depth = DepthImage.from_millimeters(values)
        path = tmp_path / "depth.pgm"
        save_depth_pgm(path, depth)
        back = load_depth_pgm(path)
        assert np.array_equal(back.values, values)
        assert np.array_equal(back.valid, depth.valid)

    def test_invalid_pixels_stored_as_zero(self, tmp_path):
        depth = DepthImage(
            values=np.array([[700.0, 50.0]]), valid=np.array([[True, False]])
        )
        path = tmp_path / "d.pgm"
        save_depth_pgm(path, depth)
        back = load_depth_pgm(path)
        assert back.values[0, 1] == 0.0
        assert not back.valid[0, 1]

    def test_out_of_range_rejected(self, tmp_path):
        depth = DepthImage.from_millimeters(np.array([[70000.0]]))
        with pytest.raises(ValueError, match="16-bit"):
            save_depth_pgm(tmp_path / "d.pgm", depth)

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "8bit.pgm"
        path.write_bytes(b"P5\n2 1\n255\n\x00\x01")
        with pytest.raises(ValueError, match="maxval 255"):
            load_depth_pgm(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "trunc.pgm"
        path.write_bytes(b"P5\n4 4\n65535\n\x00\x01")
        with pytest.raises(ValueError, match="truncated"):
            load_depth_pgm(path)

    def test_not_pgm_rejected(self, tmp_path):
        path = tmp_path / "nope.pgm"
        path.write_bytes(b"P6\n2 2\n255\n")
        with pytest.raises(ValueError, match="not a binary PGM"):
            load_depth_pgm(path)

    def test_bytes_after_the_raster_ignored(self, tmp_path):
        payload = np.array([[256, 0, 7]], dtype=">u2").tobytes()
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n3 1\n65535\n" + payload + b"\xff\xff\x01")
        back = load_depth_pgm(path)
        assert back.values.tolist() == [[256.0, 0.0, 7.0]]
        assert back.valid.tolist() == [[True, False, True]]

    def test_comment_header_accepted(self, tmp_path):
        payload = np.array([[256]], dtype=">u2").tobytes()
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# made by hand\n1 1\n65535\n" + payload)
        back = load_depth_pgm(path)
        assert back.values[0, 0] == 256.0

    def test_comments_past_the_first_chunk(self, tmp_path):
        payload = np.array([[256, 0], [9, 65535]], dtype=">u2").tobytes()
        comments = b"".join(b"# " + bytes([97 + i]) * 3000 + b"\n" for i in range(4))
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n" + comments + b"2 2\n65535\n" + payload)
        back = load_depth_pgm(path)
        assert back.values.tolist() == [[256.0, 0.0], [9.0, 65535.0]]
        assert back.valid.tolist() == [[True, False], [True, True]]

    def test_unterminated_comment_is_not_a_pgm(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# " + b"x" * 5000)
        with pytest.raises(ValueError, match="not a binary PGM"):
            load_depth_pgm(path)

    def test_huge_header_over_two_bytes_allocates_nothing(self, tmp_path):
        path = tmp_path / "huge.pgm"
        path.write_bytes(b"P5\n100000 100000\n65535\n\x00\x01")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="truncated pixel data"):
                load_depth_pgm(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_raster_one_byte_short(self, tmp_path):
        payload = np.arange(1, 7, dtype=">u2").tobytes()
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n3 2\n65535\n" + payload[:-1])
        with pytest.raises(ValueError, match="truncated pixel data"):
            load_depth_pgm(path)
        path.write_bytes(b"P5\n3 2\n65535\n" + payload)
        assert load_depth_pgm(path).values.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]

    @pytest.mark.parametrize(
        "header",
        [
            b"P5\n3 2\n65535\n",
            b"P5\n3  2\n65535\n",
            b"P5 3 2 65535 ",
            b"P5\n#\n3 2\n65535\t",
            b"P5\n3\n# between width and height\n2\n65535\n",
            b"P5\n3 2\n# between height and maxval\n65535\n",
            b"P5 # one\n# two\n3 #three\n\t2\n# four\n#\n65535 ",
        ],
    )
    def test_odd_and_even_header_offsets(self, tmp_path, header):
        raster = np.array([[513, 0, 65535], [1, 258, 7]], dtype=">u2")
        path = tmp_path / "o.pgm"
        path.write_bytes(header + raster.tobytes())
        back = load_depth_pgm(path)
        assert back.values.dtype == np.float64
        assert back.values.tolist() == raster.astype(float).tolist()
        assert back.valid.tolist() == (raster != 0).tolist()
        assert (back.height, back.width) == (2, 3)

    def test_values_built_once_on_first_read(self, tmp_path):
        path = tmp_path / "d.pgm"
        save_depth_pgm(path, flat_depth(3, 5))
        back = load_depth_pgm(path)
        assert back.values is back.values and back.valid is back.valid

    def test_peak_memory_under_twice_the_raster(self, tmp_path):
        # the frame holds its 16-bit raster; the float copy and the mask
        # of the whole frame are never made
        rng = np.random.default_rng(11)
        values = np.rint(rng.uniform(900.0, 1000.0, (480, 640)))
        values[rng.random(values.shape) < 0.02] = 0.0
        path = tmp_path / "vga.pgm"
        save_depth_pgm(path, DepthImage.from_millimeters(values))
        affine = IDENTITY
        rect = OrientedRect(320.0, 240.0, 40.0, 20.0, 30.0)
        tracemalloc.start()
        try:
            to_robot_pose(rect, load_depth_pgm(path), affine)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 480 * 640 * 2, peak


def outcome(fn, *args):
    """What ``fn(*args)`` gives, as exact bits: a grasp point's ``(u, v)``
    with its depth's bytes, a vector's or a pose's float64 bytes, or the
    type and text of the error it raises."""
    try:
        got = fn(*args)
    except (GraspExecutionError, ValueError) as e:
        return type(e), str(e)
    if isinstance(got, RobotGraspPose):
        got = np.hstack([got.point, got.approach, [got.roll, got.opening]])
    if isinstance(got, np.ndarray):
        assert got.dtype == np.float64
        return got.tobytes()
    u, v, d = got
    assert type(u) is int and type(v) is int and type(d) is float
    return u, v, np.float64(d).tobytes()


@st.composite
def pgm_cases(draw):
    """A 16-bit raster (a noisy plane, two or three depth levels, or the
    extremes 0, 1, 65534 and 65535) with 0-50% zeros, written under a
    header whose length is odd or even and which may hold comments
    before its fields; a rectangle that may lie partly or
    wholly off the image; a well-conditioned affine map; a window radius
    and a pixel for the approach vector."""
    height, width = draw(st.integers(1, 20)), draw(st.integers(1, 21))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["plane", "levels", "extremes"]))
    if kind == "plane":
        us, vs = np.meshgrid(np.arange(width), np.arange(height))
        values = np.clip(
            np.rint(
                rng.uniform(1.0, 65535.0)
                + rng.uniform(-300.0, 300.0) * us
                + rng.uniform(-300.0, 300.0) * vs
                + rng.uniform(0.0, 3.0) * rng.standard_normal((height, width))
            ),
            1,
            65535,
        )
    elif kind == "levels":
        values = rng.choice(rng.integers(1, 65536, draw(st.integers(2, 3))), size=(height, width))
    else:
        values = rng.choice([1, 65534, 65535], size=(height, width))
    values[rng.random((height, width)) < draw(st.floats(0.0, 0.5))] = 0
    raster = np.asarray(values, dtype=">u2")
    gaps = st.sampled_from([b" ", b"  ", b"\n# a comment\n", b" #\n\t"])
    header = b"P5%s%d%s%d%s65535\n" % (draw(gaps), width, draw(gaps), height, draw(gaps))
    rect = OrientedRect(
        draw(st.floats(-8.0, width + 8.0)),
        draw(st.floats(-8.0, height + 8.0)),
        draw(st.floats(1.0, 16.0)),
        draw(st.floats(1.0, 10.0)),
        draw(st.floats(-90.0, 90.0)),
    )
    q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    linear = q1 @ np.diag(rng.uniform(0.25, 4.0, 3) * rng.choice([-1.0, 1.0], 3)) @ q2
    affine = AffineMap(linear=linear, offset=rng.uniform(-1000.0, 1000.0, 3))
    at = (draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1)))
    return header + raster.tobytes(), rect, affine, draw(st.integers(1, 6)), at


class TestLoadedFrameOracle:
    """A loaded frame keeps its 16-bit raster; on the float frame of the
    whole-frame loader every output comes out with the same bits."""

    @given(pgm_cases())
    @settings(max_examples=300, deadline=None)
    def test_same_bits_as_the_whole_frame_loader(self, tmp_path_factory, case):
        data, rect, affine, radius, at = case
        path = tmp_path_factory.getbasetemp() / "oracle.pgm"
        path.write_bytes(data)
        loaded, oracle = load_depth_pgm(path), whole_frame_load_depth_pgm(path)
        for fn, args in [
            (grasp_point, (rect,)),
            (approach_vector, (at, affine, radius)),
            (to_robot_pose, (affine, radius)),
        ]:
            if fn is to_robot_pose:
                got, expected = outcome(fn, rect, loaded, *args), outcome(fn, rect, oracle, *args)
            else:
                got, expected = outcome(fn, loaded, *args), outcome(fn, oracle, *args)
            assert got == expected, fn.__name__
        assert loaded.values.dtype == oracle.values.dtype == np.float64
        assert np.array_equal(loaded.values, oracle.values)
        assert np.array_equal(loaded.valid, oracle.valid)
        assert (loaded.height, loaded.width) == (oracle.height, oracle.width)

    def test_same_errors_as_the_whole_frame_loader(self, tmp_path):
        path = tmp_path / "bad.pgm"
        for data in [
            b"P6\n2 2\n255\n",
            b"P5\n2 1\n255\n\x00\x01",
            b"P5\n4 4\n65535\n\x00\x01",
            b"P5\n1 1\n65535# a comment straight after maxval\n\x01\x00",
        ]:
            path.write_bytes(data)
            with pytest.raises(ValueError) as expected:
                whole_frame_load_depth_pgm(path)
            with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
                load_depth_pgm(path)


class TestLoadCalibrationPairs:
    def test_good_file(self, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text(
            json.dumps(
                [
                    {"pixel": [0, 0, 500], "robot": [0.0, 0.0, 0.5]},
                    {"pixel": [10, 0, 500], "robot": [0.01, 0.0, 0.5]},
                    {"pixel": [0, 10, 500], "robot": [0.0, 0.01, 0.5]},
                    {"pixel": [0, 0, 600], "robot": [0.0, 0.0, 0.6]},
                ]
            )
        )
        pairs = load_calibration_pairs(path)
        assert pairs == [
            ([0, 0, 500], [0.0, 0.0, 0.5]),
            ([10, 0, 500], [0.01, 0.0, 0.5]),
            ([0, 10, 500], [0.0, 0.01, 0.5]),
            ([0, 0, 600], [0.0, 0.0, 0.6]),
        ]

    def test_too_few_pairs(self, tmp_path):
        # the file's own rule, read before any fit
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps([{"pixel": [0, 0, 500], "robot": [0, 0, 0.5]}] * 3))
        with pytest.raises(DocumentError, match="need at least 4 calibration pairs, got 3"):
            load_calibration_pairs(path)

    def test_not_a_list(self, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text("{}")
        with pytest.raises(DocumentError, match="JSON list"):
            load_calibration_pairs(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps([{"pixel": [0, 0, 500]}]))
        with pytest.raises(DocumentError, match="pair 0"):
            load_calibration_pairs(path)

    def test_wrong_dimension(self, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps([{"pixel": [0, 0], "robot": [0, 0, 0]}]))
        with pytest.raises(DocumentError, match="3-d"):
            load_calibration_pairs(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DocumentError, match="gone.json: No such file or directory"):
            load_calibration_pairs(tmp_path / "gone.json")
