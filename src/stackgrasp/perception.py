"""Post-processing of raw detector outputs into per-object grasps.

The currency between a predictor (a file of precomputed outputs, or the
simulator's oracle) and the planning/evaluation layers is
:class:`ScenePredictions`: detections, per-object grasp candidates, and
class probabilities for every ordered object pair.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .anchors import AnchorConfig, decode_grasp, generate_anchors
from .geometry import AABox, OrientedRect, aabb_iou
from .losses import GraspPrediction, check_relation, softmax2


class NoGraspError(ValueError):
    """Raised when a grasp must be selected from an empty candidate list."""


@dataclass(frozen=True)
class ObjectDetection:
    box: AABox
    category: str
    score: float
    instance_id: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.score) and 0.0 <= self.score <= 1.0):
            raise ValueError(f"detection score {self.score} outside [0, 1]")
        if not self.category:
            raise ValueError("empty category name")


@dataclass(frozen=True)
class GraspCandidate:
    rect: OrientedRect
    confidence: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.confidence) and 0.0 <= self.confidence <= 1.0):
            raise ValueError(f"grasp confidence {self.confidence} outside [0, 1]")


@dataclass(frozen=True)
class PerceivedObject:
    """A detection paired with its chosen grasp (None when the predictor
    offered no candidates for the object)."""

    detection: ObjectDetection
    best_grasp: OrientedRect | None
    grasp_confidence: float


def decode_roi_grasps(
    roi: AABox,
    preds: Sequence[GraspPrediction],
    cfg: AnchorConfig = AnchorConfig(),
) -> list[GraspCandidate]:
    """Decode one ROI's raw anchor outputs into grasp candidates.

    ``preds`` must hold exactly one prediction per anchor of the grid, in
    :func:`generate_anchors` order. Confidence is the graspable softmax
    component.
    """
    anchors = generate_anchors(roi, cfg)
    if len(preds) != len(anchors):
        raise ValueError(f"expected {len(anchors)} predictions, got {len(preds)}")
    out = []
    for anchor, pred in zip(anchors, preds):
        rect = decode_grasp(anchor, pred.delta, cfg.k)
        conf = softmax2(*pred.logits)[0]
        out.append(GraspCandidate(rect=rect, confidence=conf))
    return out


def select_best_grasp(
    candidates: Sequence[GraspCandidate],
    box: AABox,
    top_n: int = 3,
) -> GraspCandidate:
    """Among the top_n most confident candidates, pick the one whose center
    is nearest the box center; ties go to higher confidence, then lower
    index."""
    if not candidates:
        raise NoGraspError("no grasp candidates to select from")
    if top_n < 1:
        raise ValueError("top_n must be at least 1")
    ranked = sorted(range(len(candidates)), key=lambda i: (-candidates[i].confidence, i))
    pool = ranked[: min(top_n, len(ranked))]
    cx, cy = box.center

    def key(i: int):
        r = candidates[i].rect
        d2 = (r.x - cx) ** 2 + (r.y - cy) ** 2
        return (d2, -candidates[i].confidence, i)

    return candidates[min(pool, key=key)]


def perceive(
    detection: ObjectDetection,
    candidates: Sequence[GraspCandidate],
    top_n: int = 3,
) -> PerceivedObject:
    """Bind a detection to its selected grasp; empty candidate lists yield a
    grasp-less perceived object rather than an error."""
    if not candidates:
        return PerceivedObject(detection=detection, best_grasp=None, grasp_confidence=0.0)
    best = select_best_grasp(candidates, detection.box, top_n)
    return PerceivedObject(
        detection=detection, best_grasp=best.rect, grasp_confidence=best.confidence
    )


def nms(
    detections: Sequence[ObjectDetection],
    iou_threshold: float = 0.3,
    score_floor: float = 0.05,
) -> list[ObjectDetection]:
    """Greedy category-aware non-maximum suppression.

    Detections below ``score_floor`` are dropped first; the rest are taken
    score-descending and each survivor suppresses same-category boxes whose
    IoU with it exceeds ``iou_threshold``. Output preserves the score order.
    """
    alive = [d for d in detections if d.score >= score_floor]
    order = sorted(range(len(alive)), key=lambda i: (-alive[i].score, i))
    kept: list[ObjectDetection] = []
    suppressed = set()
    for i in order:
        if i in suppressed:
            continue
        kept.append(alive[i])
        for j in order:
            if j == i or j in suppressed:
                continue
            if alive[j].category == alive[i].category and aabb_iou(
                alive[i].box, alive[j].box
            ) > iou_threshold:
                suppressed.add(j)
    return kept


@dataclass
class ScenePredictions:
    """Everything a predictor reports about one scene."""

    detections: list[ObjectDetection] = field(default_factory=list)
    grasp_candidates: dict[int, list[GraspCandidate]] = field(default_factory=dict)
    relations: dict[tuple[int, int], tuple[float, float, float]] = field(default_factory=dict)

    def perceived(self, top_n: int = 3) -> list[PerceivedObject]:
        return [
            perceive(d, self.grasp_candidates.get(d.instance_id, []), top_n)
            for d in self.detections
        ]


def predictions_to_json_dict(preds: ScenePredictions) -> dict:
    dets = []
    for d in sorted(preds.detections, key=lambda d: d.instance_id):
        grasps = [
            {
                "rect": [float(g.rect.x), float(g.rect.y), float(g.rect.w), float(g.rect.h), float(g.rect.theta)],
                "confidence": float(g.confidence),
            }
            for g in preds.grasp_candidates.get(d.instance_id, [])
        ]
        dets.append(
            {
                "id": d.instance_id,
                "category": d.category,
                "bbox": [float(v) for v in d.box.as_tuple()],
                "score": float(d.score),
                "grasps": grasps,
            }
        )
    relations = [
        {"pair": [a, b], "probs": [float(p) for p in probs]}
        for (a, b), probs in sorted(preds.relations.items())
    ]
    return {"detections": dets, "relations": relations}


def serialize_predictions(preds: ScenePredictions) -> str:
    return json.dumps(predictions_to_json_dict(preds), indent=2) + "\n"


def _json_list(data: dict, key: str, where: str) -> list:
    value = data.get(key, [])
    if not isinstance(value, list):
        raise ValueError(f"{where}: expected a list, got {type(value).__name__}")
    return value


def _relations_as_given(
    rows: list, ids: set[int]
) -> dict[tuple[int, int], tuple[float, float, float]] | None:
    """The relation rows as ``parse_predictions`` stores them, when every
    row can be taken as it stands: a pair of two distinct known ints not
    seen before, and three floats that pass ``check_relation``. None
    otherwise."""
    out = {}
    try:
        for r in rows:
            if type(r) is not dict:
                return None
            pair = r["pair"]
            probs = r["probs"]
            if type(pair) is not list or type(probs) is not list:
                return None
            a, b = pair
            p0, p1, p2 = probs
            if not (
                type(a) is int and type(b) is int
                and type(p0) is float and type(p1) is float and type(p2) is float
            ):
                return None
            # non-negative terms whose sum is within 1e-6 of 1 are all finite
            if not (
                a != b and a in ids and b in ids
                and p0 >= 0 and p1 >= 0 and p2 >= 0 and abs(p0 + p1 + p2 - 1.0) <= 1e-6
            ):
                return None
            key = (a, b)
            if key in out:
                return None
            out[key] = (p0, p1, p2)
    except (KeyError, ValueError):  # a missing field, or a list of the wrong length
        return None
    return out


def parse_predictions(source: str | dict) -> ScenePredictions:
    """Parse the predictions JSON schema, given as text or as the decoded
    document; raises ValueError with the JSON path of the offending field."""
    if isinstance(source, str):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as e:
            raise ValueError(f"not valid JSON: {e}") from e
    else:
        data = source
    out = ScenePredictions()
    if not isinstance(data, dict) or "detections" not in data:
        raise ValueError("detections: missing")
    seen_ids = set()
    for i, d in enumerate(_json_list(data, "detections", "detections")):
        where = f"detections[{i}]"
        if not isinstance(d, dict):
            raise ValueError(f"{where}: expected an object, got {type(d).__name__}")
        try:
            instance_id = int(d["id"])
            box = AABox(*[float(v) for v in d["bbox"]])
            det = ObjectDetection(
                box=box,
                category=str(d["category"]),
                score=float(d.get("score", 1.0)),
                instance_id=instance_id,
            )
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"{where}: {e}") from e
        if instance_id in seen_ids:
            raise ValueError(f"{where}: duplicate id {instance_id}")
        seen_ids.add(instance_id)
        out.detections.append(det)
        grasps = []
        for j, g in enumerate(_json_list(d, "grasps", f"{where}.grasps")):
            try:
                rect = OrientedRect(*[float(v) for v in g["rect"]])
                grasps.append(
                    GraspCandidate(rect=rect, confidence=float(g.get("confidence", 1.0)))
                )
            except (KeyError, TypeError, ValueError) as e:
                raise ValueError(f"{where}.grasps[{j}]: {e}") from e
        out.grasp_candidates[instance_id] = grasps
    rows = _json_list(data, "relations", "relations")
    relations = _relations_as_given(rows, seen_ids)
    if relations is not None:
        out.relations = relations
        return out
    # some row needs converting or is invalid: the per-row loop converts
    # what it can and names the first bad row
    relations = out.relations
    for i, r in enumerate(rows):
        try:
            a, b = map(int, r["pair"])
            probs = tuple(map(float, r["probs"]))
            check_relation((a, b), probs)
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"relations[{i}]: {e}") from e
        if a not in seen_ids or b not in seen_ids:
            raise ValueError(f"relations[{i}]: pair ({a}, {b}) references unknown detection")
        if (a, b) in relations:
            raise ValueError(f"relations[{i}]: duplicate pair ({a}, {b})")
        relations[(a, b)] = probs
    return out
