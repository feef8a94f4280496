"""Scene annotation records: JSON parsing, canonical serialization, and
geometric augmentation.

A scene file holds the image size, the objects (id, category, box), the
grasps each object owns, and the directed above/below relations between
objects. Serialization is canonical (fixed field order and float
formatting), so parse and serialize round-trip byte-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from ._json import DocumentError, box_row, grasp_rect, integer, json_list, json_object, load, read_file, string
from .geometry import AABox, OrientedRect
from .perception import GraspCandidate, ObjectDetection, ScenePredictions


@dataclass(frozen=True)
class SceneObject:
    instance_id: int
    category: str
    box: AABox


@dataclass(frozen=True)
class SceneGrasp:
    owner: int
    rect: OrientedRect


@dataclass(frozen=True)
class SceneRecord:
    width: int
    height: int
    objects: tuple[SceneObject, ...]
    grasps: tuple[SceneGrasp, ...]
    relations: tuple[tuple[int, int], ...]  # (above_id, below_id)
    image_path: str | None = None
    depth_path: str | None = None

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"bad image size {self.width}x{self.height}")
        ids = [o.instance_id for o in self.objects]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate object ids")
        known = set(ids)
        for o in self.objects:
            b = o.box
            if b.xmin < 0 or b.ymin < 0 or b.xmax > self.width or b.ymax > self.height:
                raise ValueError(f"object {o.instance_id} box outside the image")
        for g in self.grasps:
            if g.owner not in known:
                raise ValueError(f"grasp owner {g.owner} does not exist")
        seen_pairs = set()
        for above, below in self.relations:
            if above not in known or below not in known:
                raise ValueError(f"relation ({above}, {below}) references unknown object")
            if above == below:
                raise ValueError(f"object {above} related to itself")
            if (above, below) in seen_pairs or (below, above) in seen_pairs:
                raise ValueError(f"conflicting or duplicate relation ({above}, {below})")
            seen_pairs.add((above, below))

    def grasps_of(self, instance_id: int) -> list[SceneGrasp]:
        return [g for g in self.grasps if g.owner == instance_id]


def relation_label(record: SceneRecord, a: int, b: int) -> int:
    """Class of the ordered pair (a, b): 0 none, 1 a above b, 2 a below b."""
    if (a, b) in record.relations:
        return 1
    if (b, a) in record.relations:
        return 2
    return 0


def _optional_string(name: str, value) -> str | None:
    return None if value is None else string(name, value)


def parse_scene(source: str | dict) -> SceneRecord:
    """Parse scene JSON, given as text or as the decoded document; errors
    carry the JSON path of the offending field."""
    data = load(source) if isinstance(source, str) else source
    if not isinstance(data, dict):
        raise DocumentError("$", "top level must be an object")
    image = data.get("image")
    if not isinstance(image, dict):
        raise DocumentError("image", "missing or not an object")
    try:
        width = integer("width", image["width"])
        height = integer("height", image["height"])
        image_path = _optional_string("path", image.get("path"))
    except (KeyError, ValueError) as e:
        raise DocumentError("image", str(e)) from e

    objects = []
    for i, o in enumerate(json_list(data, "objects")):
        try:
            objects.append(SceneObject(*box_row(o)))
        except (KeyError, TypeError, ValueError) as e:
            raise DocumentError(f"objects[{i}]", str(e)) from e

    grasps = []
    for i, g in enumerate(json_list(data, "grasps")):
        try:
            rect = grasp_rect(g)
            grasps.append(SceneGrasp(integer("owner", g["owner"]), rect))
        except (KeyError, TypeError, ValueError) as e:
            raise DocumentError(f"grasps[{i}]", str(e)) from e

    relations = []
    for i, r in enumerate(json_list(data, "relations")):
        try:
            above, below = r["above"], r["below"]
        except (KeyError, TypeError):
            above = below = None
        if type(above) is not int or type(below) is not int:
            try:
                r = json_object(r)
                above, below = integer("above", r["above"]), integer("below", r["below"])
            except (KeyError, TypeError, ValueError) as e:
                raise DocumentError(f"relations[{i}]", str(e)) from e
        relations.append((above, below))

    try:
        return SceneRecord(
            width=width,
            height=height,
            objects=tuple(objects),
            grasps=tuple(grasps),
            relations=tuple(relations),
            image_path=image_path,
            depth_path=_optional_string("depth_path", data.get("depth_path")),
        )
    except ValueError as e:
        raise DocumentError("$", str(e)) from e


def scene_to_json_dict(record: SceneRecord) -> dict:
    image: dict = {"width": record.width, "height": record.height}
    if record.image_path is not None:
        image["path"] = record.image_path
    out: dict = {"image": image}
    if record.depth_path is not None:
        out["depth_path"] = record.depth_path
    out["objects"] = [
        {
            "id": o.instance_id,
            "category": o.category,
            "bbox": [float(o.box.xmin), float(o.box.ymin), float(o.box.xmax), float(o.box.ymax)],
        }
        for o in record.objects
    ]
    out["grasps"] = [
        {
            "owner": g.owner,
            "rect": [float(g.rect.x), float(g.rect.y), float(g.rect.w), float(g.rect.h), float(g.rect.theta)],
        }
        for g in record.grasps
    ]
    out["relations"] = [{"above": a, "below": b} for a, b in record.relations]
    return out


def serialize_scene(record: SceneRecord) -> str:
    """Canonical JSON text for a record (stable field order and floats)."""
    return json.dumps(scene_to_json_dict(record), indent=2) + "\n"


def load_scene(path) -> SceneRecord:
    """The scene in the file at ``path``; an error names the file, then the
    JSON path of the problem."""
    return read_file(path, parse_scene)


def _remap(record: SceneRecord, width: int, height: int, box, rect) -> SceneRecord:
    """``record`` at image size ``width`` x ``height``, with every object's
    box mapped by ``box`` and every grasp rectangle by ``rect``; the
    rectangle normalizes the angle it is given."""
    return replace(
        record,
        width=width,
        height=height,
        objects=tuple(replace(o, box=box(o.box)) for o in record.objects),
        grasps=tuple(replace(g, rect=rect(g.rect)) for g in record.grasps),
    )


def hflip(record: SceneRecord) -> SceneRecord:
    """Mirror the scene across the vertical axis; an involution."""
    w = record.width
    return _remap(
        record, w, record.height,
        lambda b: AABox(w - b.xmax, b.ymin, w - b.xmin, b.ymax),
        lambda r: OrientedRect(w - r.x, r.y, r.w, r.h, -r.theta),
    )


def rot90(record: SceneRecord, quarter_turns: int = 1) -> SceneRecord:
    """Rotate the scene by counter-clockwise quarter turns (any integer).

    Odd turn counts swap the image dimensions; grasp angles advance by 90
    degrees per turn modulo 180. Relations are unaffected.
    """
    for _ in range(quarter_turns % 4):
        w = record.width
        record = _remap(
            record, record.height, w,
            lambda b: AABox(b.ymin, w - b.xmax, b.ymax, w - b.xmin),
            lambda r: OrientedRect(r.y, w - r.x, r.w, r.h, r.theta + 90.0),
        )
    return record


def record_to_predictions(record: SceneRecord) -> ScenePredictions:
    """Treat ground truth as a perfect predictor's output.

    Every object becomes a detection with score 1, its owned grasps become
    candidates with confidence 1, and every ordered pair gets a one-hot
    probability vector on its true relation class.
    """
    preds = ScenePredictions()
    for o in record.objects:
        preds.detections.append(
            ObjectDetection(
                box=o.box, category=o.category, score=1.0, instance_id=o.instance_id
            )
        )
        preds.grasp_candidates[o.instance_id] = [
            GraspCandidate(rect=g.rect, confidence=1.0) for g in record.grasps_of(o.instance_id)
        ]
    ids = [o.instance_id for o in record.objects]
    for a in ids:
        for b in ids:
            if a == b:
                continue
            onehot = [0.0, 0.0, 0.0]
            onehot[relation_label(record, a, b)] = 1.0
            preds.relations[(a, b)] = tuple(onehot)
    return preds
