"""From an image-plane grasp to a robot-frame grasp pose.

The camera-to-robot mapping is a 12-parameter affine fit by least squares
from (u, v, depth) -> (x, y, z) reference pairs. The grasp point is the
valid depth pixel inside the grasp rectangle with minimum depth; the
approach direction averages surface normals over a window around it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ._json import json_object, load, number, number_list, read_file
from .geometry import OrientedRect, normalize_angle, rect_vertices


class CalibrationError(ValueError):
    """The calibration fit failed: too few, degenerate or non-finite
    reference pairs, or a singular map. A pairs file that cannot be read or
    is invalid is a DocumentError, not this."""


class GraspExecutionError(RuntimeError):
    """Base class for failures while turning a grasp into a robot pose."""


class GraspPointError(GraspExecutionError):
    """No valid depth pixel inside the grasp rectangle."""


class SurfaceNormalError(GraspExecutionError):
    """Too little valid depth around the grasp point to estimate a normal."""


class OpeningLimitError(GraspExecutionError):
    """Required gripper opening exceeds the configured maximum."""


@dataclass
class DepthImage:
    """Depth raster in millimeters with a validity mask (0 = missing)."""

    values: np.ndarray  # (height, width) float
    valid: np.ndarray  # (height, width) bool

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.values.ndim != 2 or self.values.shape != self.valid.shape:
            raise ValueError("values and valid mask must be equal 2-d shapes")
        # NaN fails both comparisons
        good = (self.values > 0) & (self.values < math.inf)
        if not (good | ~self.valid).all():
            raise ValueError("valid depths must be positive and finite")

    @classmethod
    def from_millimeters(cls, values) -> "DepthImage":
        """Build from a raster where zero marks missing measurements."""
        arr = np.asarray(values, dtype=float)
        return cls(values=arr, valid=arr > 0)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class AffineMap:
    """x_robot = linear @ (u, v, d) + offset, with a non-singular linear part."""

    linear: np.ndarray  # (3, 3)
    offset: np.ndarray  # (3,)
    residual_rms: float = 0.0

    def __post_init__(self) -> None:
        linear = np.asarray(self.linear, dtype=float)
        offset = np.asarray(self.offset, dtype=float)
        if linear.shape != (3, 3) or offset.shape != (3,):
            raise ValueError("linear must be 3x3 and offset length 3")
        # NaN passes the singular check, so every value is checked first
        for name, value in (("linear", linear), ("offset", offset), ("residual_rms", self.residual_rms)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
        with np.errstate(over="ignore"):  # an overflow to inf is not singular
            if abs(float(np.linalg.det(linear))) <= 1e-9:
                raise ValueError("linear part is singular")
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "offset", offset)

    @classmethod
    def identity(cls) -> "AffineMap":
        return cls(linear=np.eye(3), offset=np.zeros(3))

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
    coplanar pixels), or a fit whose linear part is singular. The per-point
    RMS residual of the fit is stored on the returned map.
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
    params, _, rank, _ = np.linalg.lstsq(design, rob, rcond=None)
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
    verts = rect_vertices(rect)
    u0 = max(int(math.floor(verts[:, 0].min())), 0)
    u1 = min(int(math.ceil(verts[:, 0].max())), depth.width - 1)
    v0 = max(int(math.floor(verts[:, 1].min())), 0)
    v1 = min(int(math.ceil(verts[:, 1].max())), depth.height - 1)
    if u0 > u1 or v0 > v1:
        raise GraspPointError("grasp rectangle does not overlap the image")
    us, vs = np.meshgrid(np.arange(u0, u1 + 1), np.arange(v0, v1 + 1))
    du = us - rect.x
    dv = vs - rect.y
    t = math.radians(rect.theta)
    c, s = math.cos(t), math.sin(t)
    xr = c * du + s * dv
    yr = -s * du + c * dv
    inside = (np.abs(xr) <= rect.w / 2.0 + 1e-9) & (np.abs(yr) <= rect.h / 2.0 + 1e-9)
    usable = inside & depth.valid[v0 : v1 + 1, u0 : u1 + 1]
    if not usable.any():
        raise GraspPointError("no valid depth pixel inside the grasp rectangle")
    cand_u = us[usable]
    cand_v = vs[usable]
    cand_d = depth.values[v0 : v1 + 1, u0 : u1 + 1][usable]
    dist2 = (cand_u - rect.x) ** 2 + (cand_v - rect.y) ** 2
    pick = np.lexsort((cand_u, cand_v, dist2, cand_d))[0]
    return int(cand_u[pick]), int(cand_v[pick]), float(cand_d[pick])


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
    if radius < 1:
        raise ValueError("radius must be at least 1")
    u0, v0 = at
    lo_u, hi_u = max(u0 - radius, 0), min(u0 + radius, depth.width - 1)
    lo_v, hi_v = max(v0 - radius, 0), min(v0 + radius, depth.height - 1)
    window_valid = depth.valid[lo_v : hi_v + 1, lo_u : hi_u + 1]
    if int(window_valid.sum()) < 3:
        raise SurfaceNormalError("fewer than 3 valid depth pixels in the window")

    # the window plus a one-pixel ring; pixels outside the image are invalid
    rows = slice(max(lo_v - 1, 0), hi_v + 2)
    cols = slice(max(lo_u - 1, 0), hi_u + 2)
    pad = (
        (int(lo_v == 0), int(hi_v == depth.height - 1)),
        (int(lo_u == 0), int(hi_u == depth.width - 1)),
    )
    valid = np.pad(depth.valid[rows, cols], pad)
    # masked pixels may hold anything, NaN included; zero keeps them finite
    d = np.where(valid, np.pad(depth.values[rows, cols], pad), 0.0)
    v, u = np.mgrid[lo_v - 1 : hi_v + 2, lo_u - 1 : hi_u + 2].astype(float)
    lin, off = affine.linear, affine.offset
    mapped = np.stack(
        [lin[i, 0] * u + lin[i, 1] * v + lin[i, 2] * d + off[i] for i in range(3)],
        axis=-1,
    )
    # central-difference tangents over the window; a pixel counts only when
    # it and its four neighbours are valid
    du = mapped[1:-1, 2:] - mapped[1:-1, :-2]
    dv = mapped[2:, 1:-1] - mapped[:-2, 1:-1]
    normals = np.cross(du, dv)
    norms = np.sqrt(np.einsum("...i,...i->...", normals, normals))
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
    mean in-plane singular value of the linear part. An optional
    ``max_opening`` rejects grasps wider than the gripper.
    """
    u, v, d = grasp_point(depth, grasp)
    point = affine.apply((float(u), float(v), d))
    approach = approach_vector(depth, (u, v), affine, radius)
    t = math.radians(grasp.theta)
    axis = affine.linear @ np.array([math.cos(t), math.sin(t), 0.0])
    roll = normalize_angle(math.degrees(math.atan2(axis[1], axis[0])))
    in_plane = affine.linear[:, :2]
    opening = grasp.w * float(np.mean(np.linalg.svd(in_plane, compute_uv=False)))
    if max_opening is not None and opening > max_opening:
        raise OpeningLimitError(
            f"opening {opening:.1f} exceeds the maximum {max_opening:.1f}"
        )
    return RobotGraspPose(point=point, approach=approach, roll=roll, opening=opening)


def load_depth_pgm(path) -> DepthImage:
    """Read a binary 16-bit PGM (``P5``, maxval 65535, big-endian millimeters,
    0 meaning missing)."""
    raw = Path(path).read_bytes()
    m = re.match(rb"^P5\s+(?:#[^\n]*\n\s*)*(\d+)\s+(\d+)\s+(\d+)\s", raw)
    if m is None:
        raise ValueError(f"{path}: not a binary PGM")
    width, height, maxval = (int(m.group(i)) for i in (1, 2, 3))
    if maxval != 65535:
        raise ValueError(f"{path}: expected 16-bit PGM, maxval {maxval}")
    data = raw[m.end() :]
    expected = width * height * 2
    if len(data) < expected:
        raise ValueError(f"{path}: truncated pixel data")
    arr = np.frombuffer(data[:expected], dtype=">u2").reshape(height, width)
    return DepthImage.from_millimeters(arr.astype(float))


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
