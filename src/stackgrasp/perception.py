"""Post-processing of raw detector outputs into per-object grasps.

The currency between a predictor (a file of precomputed outputs, or the
simulator's oracle) and the planning/evaluation layers is
:class:`ScenePredictions`: detections, per-object grasp candidates, and
class probabilities for every ordered object pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from ._json import box_row, grasp_rect, integer, json_list, json_object, load, number, number_list
from .anchors import AnchorConfig, decode_grasp, generate_anchors
from .geometry import AABox, OrientedRect, _slot_setters, aabb_iou
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


@dataclass(frozen=True, slots=True, init=False)
class GraspCandidate:
    rect: OrientedRect
    confidence: float

    def __init__(self, rect: OrientedRect, confidence: float) -> None:
        if not (math.isfinite(confidence) and 0.0 <= confidence <= 1.0):
            raise ValueError(f"grasp confidence {confidence} outside [0, 1]")
        set_rect, set_confidence = _CANDIDATE_SLOTS
        set_rect(self, rect)
        set_confidence(self, confidence)


_CANDIDATE_SLOTS = _slot_setters(GraspCandidate)


@dataclass(frozen=True)
class PerceivedObject:
    """A detection paired with its chosen grasp (None when the predictor
    offered no candidates for the object)."""

    detection: ObjectDetection
    best_grasp: OrientedRect | None


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
    k = cfg.k
    return [
        GraspCandidate(decode_grasp(anchor, pred.delta, k), softmax2(*pred.logits)[0])
        for anchor, pred in zip(anchors, preds)
    ]


def select_best_grasp(
    candidates: Sequence[GraspCandidate],
    box: AABox,
    top_n: int = 3,
) -> GraspCandidate:
    """Among the top_n most confident candidates, pick the one whose center
    is nearest the box center; ties go to higher confidence, then lower
    index. ``top_n`` is an integer of at least 1."""
    if not candidates:
        raise NoGraspError("no grasp candidates to select from")
    top_n = integer("top_n", top_n)
    if top_n < 1:
        raise ValueError("top_n must be at least 1")
    pool = range(len(candidates))
    if len(candidates) > top_n:
        # a stable sort keeps equal confidences in index order
        confidences = [c.confidence for c in candidates]
        pool = sorted(pool, key=confidences.__getitem__, reverse=True)[:top_n]
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
        return PerceivedObject(detection=detection, best_grasp=None)
    best = select_best_grasp(candidates, detection.box, top_n)
    return PerceivedObject(detection=detection, best_grasp=best.rect)


def nms(
    detections: Sequence[ObjectDetection],
    iou_threshold: float = 0.3,
    score_floor: float = 0.05,
) -> list[ObjectDetection]:
    """Greedy category-aware non-maximum suppression.

    Detections below ``score_floor`` are dropped first; the rest are taken
    score-descending (ties in input order), and each is kept unless a kept
    box of its category has an IoU above ``iou_threshold`` with it. Output
    preserves the score order.
    """
    kept: list[ObjectDetection] = []
    for d in sorted((d for d in detections if d.score >= score_floor), key=lambda d: -d.score):
        if not any(
            k.category == d.category and aabb_iou(k.box, d.box) > iou_threshold for k in kept
        ):
            kept.append(d)
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


def _relation(i: int, r) -> tuple[int, int, float, float, float]:
    """Relation row ``i`` as (a, b, p0, p1, p2) when ``pair`` is two JSON
    integers and ``probs`` JSON numbers passing ``check_relation``; a
    ValueError naming the row otherwise."""
    try:
        pair = json_object(r)["pair"]
        if type(pair) is not list or len(pair) != 2:
            raise ValueError(f"pair must be a list of 2 ids, got {pair!r}")
        a, b = integer("pair[0]", pair[0]), integer("pair[1]", pair[1])
        probs = number_list("probs", r["probs"])
        check_relation((a, b), probs)
    except (KeyError, ValueError) as e:
        raise ValueError(f"relations[{i}]: {e}") from e
    return (a, b, *probs)


def parse_predictions(source: str | dict) -> ScenePredictions:
    """Parse the predictions JSON schema, given as text or as the decoded
    document; raises ValueError with the JSON path of the offending field."""
    data = load(source) if isinstance(source, str) else source
    out = ScenePredictions()
    if not isinstance(data, dict) or "detections" not in data:
        raise ValueError("detections: missing")
    seen_ids = set()
    for i, d in enumerate(json_list(data, "detections")):
        try:
            instance_id, category, box = box_row(d)
            det = ObjectDetection(box, category, number("score", d.get("score", 1.0)), instance_id)
            if instance_id in seen_ids:
                raise ValueError(f"duplicate id {instance_id}")
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"detections[{i}]: {e}") from e
        seen_ids.add(instance_id)
        out.detections.append(det)
        grasps = []
        for j, g in enumerate(json_list(d, "grasps", f"detections[{i}].grasps")):
            try:
                rect = grasp_rect(g)
                grasps.append(GraspCandidate(rect, number("confidence", g.get("confidence", 1.0))))
            except (KeyError, TypeError, ValueError) as e:
                raise ValueError(f"detections[{i}].grasps[{j}]: {e}") from e
        out.grasp_candidates[instance_id] = grasps
    # a row other than two ints and three floats passing the checks goes to
    # _relation, which reads integer probabilities as floats or raises
    relations = out.relations
    for i, r in enumerate(json_list(data, "relations")):
        try:
            a, b = r["pair"]
            p0, p1, p2 = r["probs"]
        except (KeyError, TypeError, ValueError):
            a = None
        # non-negative terms whose sum is within 1e-6 of 1 are all finite
        if not (
            type(a) is int and type(b) is int
            and type(p0) is float and type(p1) is float and type(p2) is float
            and a != b and p0 >= 0 and p1 >= 0 and p2 >= 0 and abs(p0 + p1 + p2 - 1.0) <= 1e-6
        ):
            a, b, p0, p1, p2 = _relation(i, r)
        if a not in seen_ids or b not in seen_ids:
            raise ValueError(f"relations[{i}]: pair ({a}, {b}) references unknown detection")
        if (a, b) in relations:
            raise ValueError(f"relations[{i}]: duplicate pair ({a}, {b})")
        relations[(a, b)] = (p0, p1, p2)
    return out
