"""From an image-plane grasp to a robot-frame grasp pose.

The camera-to-robot mapping is a 12-parameter affine fit by least squares
from (u, v, depth) -> (x, y, z) reference pairs. The grasp point is the
valid depth pixel inside the grasp rectangle with minimum depth; the
approach direction averages surface normals over a window around it.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ._json import integer, json_object, load, number, number_list, read_file
from .geometry import OrientedRect, _vertex_list, normalize_angle


# a comment may come before each field; exactly one whitespace byte ends the header
_PGM_HEADER = re.compile(rb"^P5" + rb"\s+(?:#[^\n]*\n\s*)*(\d+)" * 3 + rb"\s")
_PGM_CHUNK = 256  # bytes read for the header before it is matched


class CalibrationError(ValueError, ArithmeticError):
    """The calibration fit failed: too few, degenerate or non-finite
    reference pairs, or a singular map; as an ArithmeticError, a numerical
    failure. An unreadable or invalid pairs file is a DocumentError."""


class GraspExecutionError(RuntimeError):
    """Base class for failures while turning a grasp into a robot pose."""


class GraspPointError(GraspExecutionError):
    """No valid depth pixel inside the grasp rectangle."""


class SurfaceNormalError(GraspExecutionError):
    """Too little valid depth around the grasp point to estimate a normal."""


class OpeningLimitError(GraspExecutionError):
    """Required gripper opening exceeds the configured maximum."""


def _read_only_view(owner: np.ndarray) -> np.ndarray:
    """A view of ``owner``, which is marked read-only first: a view of a
    read-only array cannot be made writable."""
    owner.flags.writeable = False
    return owner.view()


class DepthImage:
    """Depth raster in millimeters, 0 where a depth is missing.

    ``DepthImage(values, valid)`` takes a float raster and a mask of one
    2-d shape, and every valid depth must be positive and finite; masked
    pixels may hold anything. A frame read by ``load_depth_pgm`` keeps the
    file's 16-bit raster unchecked, as its depths are finite and
    non-negative. Either way a frame holds one array and shares none with
    its caller: ``values``, the float64 raster, and ``valid`` are read-only
    properties whose arrays, built from it on first read, cannot be made
    writable.
    """

    def __init__(self, values, valid) -> None:
        values = np.asarray(values, dtype=float)
        valid = np.asarray(valid, dtype=bool)
        if values.ndim != 2 or values.shape != valid.shape:
            raise ValueError("values and valid mask must be equal 2-d shapes")
        # NaN fails both comparisons
        good = (values > 0) & (values < math.inf)
        if not (good | ~valid).all():
            raise ValueError("valid depths must be positive and finite")
        # 0 wherever a depth is missing, as in a loaded frame's 16-bit
        # raster, whose every value converts to a float exactly
        self._depths = np.where(valid, values, 0.0)

    @classmethod
    def _from_raster(cls, raster: np.ndarray) -> "DepthImage":
        """The frame of a 16-bit raster, which is valid by construction."""
        frame = cls.__new__(cls)
        frame._depths = raster
        return frame

    @classmethod
    def from_millimeters(cls, values) -> "DepthImage":
        """Build from a raster where zero marks missing measurements."""
        arr = np.asarray(values, dtype=float)
        return cls(values=arr, valid=arr > 0)

    @property
    def values(self) -> np.ndarray:
        """The float64 depths, 0 where a depth is missing."""
        return self._values

    @property
    def valid(self) -> np.ndarray:
        """Where a depth was measured."""
        return self._valid

    @cached_property
    def _values(self) -> np.ndarray:
        return _read_only_view(np.asarray(self._depths, dtype=float))  # no copy of float depths

    @cached_property
    def _valid(self) -> np.ndarray:
        return _read_only_view(self._depths != 0)

    @property
    def height(self) -> int:
        return self._depths.shape[0]

    @property
    def width(self) -> int:
        return self._depths.shape[1]


@dataclass(frozen=True)
class AffineMap:
    """x_robot = linear @ (u, v, d) + offset, with a non-singular linear part."""

    linear: np.ndarray  # (3, 3)
    offset: np.ndarray  # (3,)
    residual_rms: float = 0.0

    def __post_init__(self) -> None:
        linear = np.array(self.linear, dtype=float)  # copies, as the caller's
        offset = np.array(self.offset, dtype=float)  # arrays may change later
        if linear.shape != (3, 3) or offset.shape != (3,):
            raise ValueError("linear must be 3x3 and offset length 3")
        # NaN passes the singular check, so every value is checked first
        for name, value in (("linear", linear), ("offset", offset), ("residual_rms", self.residual_rms)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
        with np.errstate(over="ignore"):  # an overflow to inf is not singular
            if abs(float(np.linalg.det(linear))) <= 1e-9:
                raise ValueError("linear part is singular")
        linear.flags.writeable = offset.flags.writeable = False
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "offset", offset)

    @cached_property
    def opening_scale(self) -> float:
        """The mean in-plane singular value of the linear part, by which
        ``to_robot_pose`` scales a grasp's width into a gripper opening."""
        return float(np.mean(np.linalg.svd(self.linear[:, :2], compute_uv=False)))

    def apply(self, uvd) -> np.ndarray:
        return self.linear @ np.asarray(uvd, dtype=float) + self.offset

    def to_json_dict(self) -> dict:
        return {
            "linear": [[float(v) for v in row] for row in self.linear],
            "offset": [float(v) for v in self.offset],
            "residual_rms": float(self.residual_rms),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "AffineMap":
        """The map of ``to_json_dict``: ``linear`` three rows of three JSON
        numbers, ``offset`` three and ``residual_rms`` one (default 0); any
        other document is a ValueError naming the field at fault."""
        for name in ("linear", "offset"):
            if name not in json_object(data):
                raise ValueError(f"{name}: missing")
        linear = data["linear"]
        if type(linear) is not list or len(linear) != 3:
            raise ValueError(f"linear must be a list of 3 rows, got {linear!r}")
        return cls(
            linear=np.array([number_list(f"linear[{i}]", row, 3) for i, row in enumerate(linear)]),
            offset=np.array(number_list("offset", data["offset"], 3)),
            residual_rms=number("residual_rms", data.get("residual_rms", 0.0)),
        )


def fit_affine(pairs: Sequence[tuple[Sequence[float], Sequence[float]]]) -> AffineMap:
    """Least-squares fit of the affine map from >= 4 reference pairs.

    Each pair is ((u, v, d), (x, y, z)). Raises CalibrationError for fewer
    than 4 pairs, a non-finite coordinate, a rank-deficient design (e.g.
    coplanar pixels), a least-squares solve that fails, or a fit whose
    linear part is singular. The per-point RMS residual of the fit is
    stored on the returned map.
    """
    if len(pairs) < 4:
        raise CalibrationError(f"need at least 4 reference pairs, got {len(pairs)}")
    pix = np.array([p[0] for p in pairs], dtype=float)
    rob = np.array([p[1] for p in pairs], dtype=float)
    if pix.shape[1] != 3 or rob.shape[1] != 3:
        raise CalibrationError("reference pairs must be 3-d points")
    # lstsq never returns on non-finite input
    bad = ~(np.isfinite(pix).all(axis=1) & np.isfinite(rob).all(axis=1))
    if bad.any():
        raise CalibrationError(f"pair {int(np.argmax(bad))}: non-finite coordinate")
    design = np.hstack([pix, np.ones((len(pairs), 1))])
    try:
        params, _, rank, _ = np.linalg.lstsq(design, rob, rcond=None)
    except np.linalg.LinAlgError as e:  # e.g. "SVD did not converge"
        raise CalibrationError(str(e)) from e
    if rank < 4:
        raise CalibrationError(
            "rank-deficient calibration (reference pixels are degenerate)"
        )
    linear = params[:3, :].T
    offset = params[3, :]
    residuals = design @ params - rob
    with np.errstate(over="ignore"):  # AffineMap rejects a non-finite RMS
        rms = float(np.sqrt(np.mean(np.sum(residuals**2, axis=1))))
    try:
        return AffineMap(linear=linear, offset=offset, residual_rms=rms)
    except ValueError as e:
        raise CalibrationError(str(e)) from e


def grasp_point(depth: DepthImage, rect: OrientedRect) -> tuple[int, int, float]:
    """The valid pixel inside ``rect`` with minimum depth.

    Ties break toward the pixel nearest the rectangle center, then row-major
    (v, then u). Raises GraspPointError when no valid pixel lies inside.
    """
    xs, ys = zip(*_vertex_list(rect))
    u0 = max(math.floor(min(xs)), 0)
    u1 = min(math.ceil(max(xs)), depth.width - 1)
    v0 = max(math.floor(min(ys)), 0)
    v1 = min(math.ceil(max(ys)), depth.height - 1)
    if u0 > u1 or v0 > v1:
        raise GraspPointError("grasp rectangle does not overlap the image")
    # a row of column offsets and a column of row offsets from the center
    du = np.arange(u0, u1 + 1) - rect.x
    dv = (np.arange(v0, v1 + 1) - rect.y)[:, None]
    t = math.radians(rect.theta)
    c, s = math.cos(t), math.sin(t)
    xr = c * du + s * dv
    yr = -s * du + c * dv
    inside = (np.abs(xr) <= rect.w / 2.0 + 1e-9) & (np.abs(yr) <= rect.h / 2.0 + 1e-9)
    window = depth._depths[v0 : v1 + 1, u0 : u1 + 1]
    usable = inside & (window != 0)
    if not usable.any():
        raise GraspPointError("no valid depth pixel inside the grasp rectangle")
    d = window[usable].min()
    rows, cols = np.nonzero(usable & (window == d))
    # the pixels come in row-major order, so the first one nearest the
    # center is also first by v, then u
    k = int(np.argmin(du[cols] ** 2 + dv[rows, 0] ** 2))
    return u0 + int(cols[k]), v0 + int(rows[k]), float(d)


def _radius(radius) -> int:
    """``radius`` when it is an integer of at least 1; anything else is a
    ValueError."""
    radius = integer("radius", radius)
    if radius < 1:
        raise ValueError("radius must be at least 1")
    return radius


def approach_vector(
    depth: DepthImage,
    at: tuple[int, int],
    affine: AffineMap,
    radius: int = 5,
) -> np.ndarray:
    """Unit approach direction at pixel ``at``, in the robot frame.

    Every valid pixel in the (2*radius+1)^2 window is mapped to the robot
    frame; per-pixel surface normals come from the cross product of
    central-difference tangents, are averaged, normalized, and oriented
    downward (negative z). Raises SurfaceNormalError when fewer than 3
    valid pixels fall in the window or no normal can be formed.
    """
    radius = _radius(radius)
    u0, v0 = at
    lo_u, hi_u = max(u0 - radius, 0), min(u0 + radius, depth.width - 1)
    lo_v, hi_v = max(v0 - radius, 0), min(v0 + radius, depth.height - 1)
    if np.count_nonzero(depth._depths[lo_v : hi_v + 1, lo_u : hi_u + 1]) < 3:
        raise SurfaceNormalError("fewer than 3 valid depth pixels in the window")

    # the window plus a one-pixel ring, zeroed, with the part inside the
    # image copied in: pixels outside the image, like missing ones, read as
    # zero depth and are invalid
    top, left = max(lo_v - 1, 0), max(lo_u - 1, 0)
    bottom, right = min(hi_v + 2, depth.height), min(hi_u + 2, depth.width)
    d = np.zeros((hi_v - lo_v + 3, hi_u - lo_u + 3))
    d[top - lo_v + 1 : bottom - lo_v + 1, left - lo_u + 1 : right - lo_u + 1] = depth._depths[
        top:bottom, left:right
    ]
    valid = d != 0
    u = np.arange(lo_u - 1, hi_u + 2, dtype=float)
    v = np.arange(lo_v - 1, hi_v + 2, dtype=float)[:, None]
    lin, off = affine.linear, affine.offset
    # central-difference tangents over the window, one robot axis at a time
    du, dv = [], []
    for i in range(3):
        mapped = lin[i, 0] * u + lin[i, 1] * v + lin[i, 2] * d + off[i]
        du.append(mapped[1:-1, 2:] - mapped[1:-1, :-2])
        dv.append(mapped[2:, 1:-1] - mapped[:-2, 1:-1])
    (a0, a1, a2), (b0, b1, b2) = du, dv
    normals = np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)
    # einsum over the stacked normals: a sum of the squared components
    # rounds differently, and the tests hold these bits fixed
    norms = np.sqrt(np.einsum("...i,...i->...", normals, normals))
    # a pixel counts only when it and its four neighbours are valid
    keep = valid[1:-1, 1:-1] & valid[1:-1, 2:] & valid[1:-1, :-2]
    keep &= valid[2:, 1:-1] & valid[:-2, 1:-1] & (norms >= 1e-12)
    if not keep.any():
        raise SurfaceNormalError("no surface normal could be formed in the window")
    total = (normals[keep] / norms[keep, None]).sum(axis=0)
    norm = float(np.linalg.norm(total))
    if norm < 1e-12:
        raise SurfaceNormalError("window normals cancel out")
    approach = total / norm
    # orient into the surface: negative z, with deterministic fallbacks for
    # perfectly vertical surfaces
    if approach[2] > 0 or (approach[2] == 0 and (approach[1] > 0 or (approach[1] == 0 and approach[0] > 0))):
        approach = -approach
    return approach


@dataclass(frozen=True)
class RobotGraspPose:
    """Executable grasp: contact point, approach direction, wrist roll in
    degrees ([-90, 90)), and required opening in robot units."""

    point: np.ndarray  # (3,)
    approach: np.ndarray  # (3,), unit norm
    roll: float
    opening: float

    def to_json_dict(self) -> dict:
        return {
            "point": [float(v) for v in self.point],
            "approach": [float(v) for v in self.approach],
            "roll": float(self.roll),
            "opening": float(self.opening),
        }


def to_robot_pose(
    grasp: OrientedRect,
    depth: DepthImage,
    affine: AffineMap,
    radius: int = 5,
    max_opening: float | None = None,
) -> RobotGraspPose:
    """Full image-to-robot conversion of one grasp rectangle.

    Roll maps the grasp axis direction through the linear part and reads the
    in-plane angle of the image; opening scales the rectangle width by the
    map's ``opening_scale``. An optional ``max_opening``, positive and
    finite, rejects grasps wider than the gripper. ``radius`` is an integer
    of at least 1, as for ``approach_vector``.
    """
    radius = _radius(radius)
    if max_opening is not None:
        max_opening = number("max_opening", max_opening)
        if not 0 < max_opening < math.inf:
            raise ValueError(f"max_opening must be positive and finite, got {max_opening!r}")
    u, v, d = grasp_point(depth, grasp)
    point = affine.apply((float(u), float(v), d))
    approach = approach_vector(depth, (u, v), affine, radius)
    t = math.radians(grasp.theta)
    axis = affine.linear @ np.array([math.cos(t), math.sin(t), 0.0])
    roll = normalize_angle(math.degrees(math.atan2(axis[1], axis[0])))
    opening = grasp.w * affine.opening_scale
    if max_opening is not None and opening > max_opening:
        raise OpeningLimitError(
            f"opening {opening:.1f} exceeds the maximum {max_opening:.1f}"
        )
    return RobotGraspPose(point=point, approach=approach, roll=roll, opening=opening)


def load_depth_pgm(path) -> DepthImage:
    """Read a binary 16-bit PGM (``P5``, maxval 65535, big-endian millimeters,
    0 meaning missing) from a regular file. The frame keeps the file's
    raster; bytes after it are ignored."""
    with open(path, "rb") as f:
        head = f.read(_PGM_CHUNK)
        while (m := _PGM_HEADER.match(head)) is None:
            more = f.read(len(head))  # comments may run past the first chunk
            if not more:
                raise ValueError(f"{path}: not a binary PGM")
            head += more
        width, height, maxval = (int(m.group(i)) for i in (1, 2, 3))
        if maxval != 65535:
            raise ValueError(f"{path}: expected 16-bit PGM, maxval {maxval}")
        # the size first: a header may claim a raster far larger than memory
        if os.fstat(f.fileno()).st_size < m.end() + width * height * 2:
            raise ValueError(f"{path}: truncated pixel data")
        # read straight into the array, which numpy allocates aligned
        raster = np.empty((height, width), dtype=">u2")
        f.seek(m.end())
        if f.readinto(raster) < raster.nbytes:
            raise ValueError(f"{path}: truncated pixel data")
    return DepthImage._from_raster(raster)


def _calibration_pairs(text: str) -> list[tuple[list[float], list[float]]]:
    data = load(text)
    if not isinstance(data, list):
        raise ValueError("expected a JSON list of pairs")
    pairs = []
    for i, entry in enumerate(data):
        try:
            pixel = number_list("pixel", entry["pixel"])
            robot = number_list("robot", entry["robot"])
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"pair {i}: {e}") from e
        if len(pixel) != 3 or len(robot) != 3:
            raise ValueError(f"pair {i}: points must be 3-d")
        pairs.append((pixel, robot))
    if len(pairs) < 4:
        raise ValueError(f"need at least 4 calibration pairs, got {len(pairs)}")
    return pairs


def load_calibration_pairs(path) -> list[tuple[list[float], list[float]]]:
    """Read [{"pixel": [u, v, d], "robot": [x, y, z]}, ...] with at least 4
    pairs; every coordinate must be a JSON number. An unreadable or invalid
    file is a DocumentError naming the file, then the pair."""
    return read_file(path, _calibration_pairs)
