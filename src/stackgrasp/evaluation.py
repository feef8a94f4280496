"""Metrics: grasp-aware detection mAP, pairwise relation scores, and
trial-sequence success.

A detection only counts as a true positive when its box matches an unused
ground-truth object of the same category (IoU at or above the box
threshold) and its best grasp fits one of that object's annotated grasps
(rotated Jaccard strictly above the grasp threshold, angle gap strictly
below the angle threshold). Average precision is accumulated in exact
rational arithmetic so a perfect prediction set scores exactly 1.0 instead
of 0.9999999999999998.

Scoring is map then reduce: ``score_scene`` matches one scene and returns
its ``SceneScore``; ``average_precision``, ``relation_metrics`` and
``metrics_report`` reduce the scores of a scene list, in scene order.
``evaluate`` does both for parallel ground-truth and prediction lists.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from ._json import integer, number
from .dataset import SceneGrasp, SceneObject, SceneRecord, relation_label
from .geometry import aabb_iou, angle_difference, rotated_jaccard
from .perception import PerceivedObject, ScenePredictions
from .reasoning import argmax_label


@dataclass(frozen=True)
class MatchThresholds:
    iou: float = 0.5
    jaccard: float = 0.25
    angle_deg: float = 30.0
    top_n: int = 3

    def __post_init__(self) -> None:
        for name in ("iou", "jaccard", "angle_deg"):
            object.__setattr__(self, name, number(name, getattr(self, name)))
        object.__setattr__(self, "top_n", integer("top_n", self.top_n))
        if not (0.0 < self.iou <= 1.0):
            raise ValueError("iou threshold must be in (0, 1]")
        if not (0.0 <= self.jaccard < 1.0):
            raise ValueError("jaccard threshold must be in [0, 1)")
        if not (0.0 < self.angle_deg <= 90.0):
            raise ValueError("angle threshold must be in (0, 90] degrees")
        if self.top_n < 1:
            raise ValueError("top_n must be at least 1")

    def to_json_dict(self) -> dict:
        return asdict(self)


def grasp_correct(pred: PerceivedObject, gt_grasps: Sequence[SceneGrasp],
                  thresholds: MatchThresholds) -> bool:
    """Does the predicted best grasp fit any of ``gt_grasps``, the grasps
    of the ground-truth object its box matched?"""
    if pred.best_grasp is None:
        return False
    theta = pred.best_grasp.theta
    for g in gt_grasps:
        # both tests are exact, so the cheap angle test goes first: a grasp
        # it rejects needs no polygon clip
        if (
            angle_difference(theta, g.rect.theta) < thresholds.angle_deg
            and rotated_jaccard(pred.best_grasp, g.rect) > thresholds.jaccard
        ):
            return True
    return False


def _objects_by_category(record: SceneRecord) -> dict[str, list[SceneObject]]:
    """The record's objects grouped by category, each group in record order."""
    groups: dict[str, list[SceneObject]] = {}
    for o in record.objects:
        groups.setdefault(o.category, []).append(o)
    return groups


def _best_unused_gt(candidates: Sequence[SceneObject], box, used: set[int],
                    iou_threshold: float) -> int | None:
    """The id of the unused object among ``candidates`` (the ground truth of
    the detection's category) whose box overlaps ``box`` most, at or above
    the threshold; ties go to the lower id."""
    best_id = None
    best_iou = -1.0
    for gt in candidates:
        if gt.instance_id in used:
            continue
        iou = aabb_iou(box, gt.box)
        if iou < iou_threshold:
            continue
        if iou > best_iou or (iou == best_iou and gt.instance_id < best_id):
            best_id = gt.instance_id
            best_iou = iou
    return best_id


def _scene_tp_flags(record: SceneRecord, perceived: Sequence[PerceivedObject],
                    thresholds: MatchThresholds) -> list[bool]:
    """Greedy matching in score order; a ground-truth object is consumed
    only by the detection that actually earns it (box and grasp)."""
    order = sorted(range(len(perceived)), key=lambda i: (-perceived[i].detection.score, i))
    by_category = _objects_by_category(record)
    grasps_by_owner: dict[int, list[SceneGrasp]] = {}
    for g in record.grasps:
        grasps_by_owner.setdefault(g.owner, []).append(g)
    used: set[int] = set()
    flags = [False] * len(perceived)
    for i in order:
        det = perceived[i].detection
        gt_id = _best_unused_gt(by_category.get(det.category, ()), det.box, used, thresholds.iou)
        if gt_id is None:
            continue
        if grasp_correct(perceived[i], grasps_by_owner.get(gt_id, ()), thresholds):
            flags[i] = True
            used.add(gt_id)
    return flags


def _class_ap(flags: list[bool], gt_count: int) -> Fraction:
    """Exact all-point interpolated AP of one class from its detections'
    true-positive flags in rank order.

    Recall rises by 1/gt_count at each true positive and nowhere else, so
    AP is the sum, over the true-positive ranks, of the highest precision
    at that rank or any later one, divided by gt_count. The running maximum is
    kept as an integer pair (true positives, rank) and compared by
    cross-multiplication, and the sum as an integer pair over the least
    common multiple of its ranks; one Fraction is made at the end.
    """
    tp = sum(flags)  # true positives at the last rank
    best_tp, best_rank = 0, 1
    num, den = 0, 1  # the sum so far is num / den
    for rank in range(len(flags), 0, -1):
        if tp * best_rank > best_tp * rank:
            best_tp, best_rank = tp, rank
        if flags[rank - 1]:
            common = lcm(den, best_rank)
            num = num * (common // den) + best_tp * (common // best_rank)
            den = common
            tp -= 1
    return Fraction(num, den * gt_count)


@dataclass(frozen=True)
class SceneScore:
    """What one scene adds to the metrics, as ``score_scene`` finds it.
    It is small and picklable, so scenes can be scored in any process and
    their scores reduced in another."""

    categories: tuple[str, ...]  # each ground-truth object's, in record order
    # (category, score, true positive) of each detection, in detection order
    detections: tuple[tuple[str, float, bool], ...]
    predicted_pairs: int
    correct_pairs: int
    all_correct: bool  # every object detected and every ordered pair right


def score_scene(record: SceneRecord, preds: ScenePredictions,
                thresholds: MatchThresholds = MatchThresholds()) -> SceneScore:
    """Match one scene's predictions against its ground truth: the
    grasp-aware true positives for AP and the relation tallies."""
    perceived = preds.perceived(thresholds.top_n)
    flags = _scene_tp_flags(record, perceived, thresholds)
    correct, all_correct = _scene_relations(record, preds, thresholds.iou)
    return SceneScore(
        categories=tuple(o.category for o in record.objects),
        detections=tuple((p.detection.category, p.detection.score, flag)
                         for p, flag in zip(perceived, flags)),
        predicted_pairs=len(preds.relations),
        correct_pairs=correct,
        all_correct=all_correct,
    )


def average_precision(scores: Sequence[SceneScore]) -> tuple[Fraction, dict[str, Fraction]]:
    """Exact (mAP, per-class AP) over the scenes' scores, in scene order.
    Classes are those present in the ground truth; a class with no
    predictions scores zero."""
    gt_counts: dict[str, int] = {}
    for score in scores:
        for c in score.categories:
            gt_counts[c] = gt_counts.get(c, 0) + 1

    # (-score, scene index, detection index, true positive): the first three
    # are unique, so a plain sort ranks by score, then scene, then detection
    pooled: dict[str, list[tuple[float, int, int, bool]]] = {c: [] for c in gt_counts}
    for scene_index, score in enumerate(scores):
        for i, (category, confidence, flag) in enumerate(score.detections):
            entries = pooled.get(category)
            if entries is not None:
                entries.append((-confidence, scene_index, i, flag))

    per_class: dict[str, Fraction] = {}
    for cat, entries in pooled.items():
        entries.sort()
        per_class[cat] = _class_ap([e[3] for e in entries], gt_counts[cat])

    if not per_class:
        return Fraction(0), {}
    mean = sum(per_class.values(), Fraction(0)) / len(per_class)
    return mean, per_class


def match_detections(record: SceneRecord, preds: ScenePredictions,
                     iou_threshold: float = 0.5) -> dict[int, int]:
    """Greedy box matching (score order, class must agree): detection id to
    ground-truth id. Grasps play no part here."""
    order = sorted(preds.detections, key=lambda d: (-d.score, d.instance_id))
    by_category = _objects_by_category(record)
    used: set[int] = set()
    mapping: dict[int, int] = {}
    for det in order:
        gt_id = _best_unused_gt(by_category.get(det.category, ()), det.box, used, iou_threshold)
        if gt_id is not None:
            mapping[det.instance_id] = gt_id
            used.add(gt_id)
    return mapping


@dataclass(frozen=True)
class RelationMetrics:
    correct_pairs: int
    gt_pairs: int
    predicted_pairs: int
    images_correct: int
    images_total: int
    by_object_count: dict[int, tuple[int, int]]  # n -> (correct, total)

    @property
    def recall(self) -> float:
        return self.correct_pairs / self.gt_pairs if self.gt_pairs else 0.0

    @property
    def precision(self) -> float:
        return self.correct_pairs / self.predicted_pairs if self.predicted_pairs else 0.0

    @property
    def image_accuracy(self) -> float:
        return self.images_correct / self.images_total if self.images_total else 0.0


def _scene_relations(record: SceneRecord, preds: ScenePredictions,
                     iou_threshold: float) -> tuple[int, bool]:
    """(correct ordered pairs, whether the scene is fully correct). A
    ground-truth ordered pair counts as correct when both objects are
    detected and the predicted label for the matching detection pair is
    the true one. A scene is fully correct when every object is detected
    and every ordered pair is labeled right."""
    mapping = match_detections(record, preds, iou_threshold)
    det_of = {g: d for d, g in mapping.items()}
    # an undetected object leaves its pairs unscored and the scene wrong
    scene_correct = len(mapping) == len(record.objects)
    matched = [(o.instance_id, det_of[o.instance_id])
               for o in record.objects if o.instance_id in det_of]
    correct = 0
    for a, da in matched:
        for b, db in matched:
            if a == b:
                continue
            probs = preds.relations.get((da, db))
            if probs is not None and argmax_label(probs) == relation_label(record.above, a, b):
                correct += 1
            else:
                scene_correct = False
    return correct, scene_correct


def relation_metrics(scores: Sequence[SceneScore]) -> RelationMetrics:
    """Pairwise relation scores summed over the scenes' scores."""
    by_count: dict[int, list[int]] = {}
    for score in scores:
        bucket = by_count.setdefault(len(score.categories), [0, 0])
        bucket[0] += score.all_correct
        bucket[1] += 1
    return RelationMetrics(
        correct_pairs=sum(s.correct_pairs for s in scores),
        gt_pairs=sum(len(s.categories) * (len(s.categories) - 1) for s in scores),
        predicted_pairs=sum(s.predicted_pairs for s in scores),
        images_correct=sum(c for c, _ in by_count.values()),
        images_total=len(scores),
        by_object_count={n: (c, t) for n, (c, t) in sorted(by_count.items())},
    )


def sequential_success(log) -> bool:
    """A trial succeeds when every removal respected the stacking order and
    the last removal was the designated target."""
    steps = log.steps
    if not steps:
        return False
    if any(not s.order_valid for s in steps):
        return False
    return steps[-1].removed == log.target


@dataclass(frozen=True)
class MetricsReport:
    map_with_grasp: float
    per_class_ap: dict[str, float]
    relations: RelationMetrics
    scenes: int
    gt_objects: int
    detections: int
    thresholds: MatchThresholds

    def to_json_dict(self) -> dict:
        by_count = {
            str(n): {"correct": c, "total": t, "rate": (c / t if t else 0.0)}
            for n, (c, t) in self.relations.by_object_count.items()
        }
        return {
            "perception": {
                "map_with_grasp": self.map_with_grasp,
                "per_class_ap": {c: self.per_class_ap[c] for c in sorted(self.per_class_ap)},
            },
            "reasoning": {
                "object_pair_recall": self.relations.recall,
                "object_pair_precision": self.relations.precision,
                "image_accuracy": {
                    "correct": self.relations.images_correct,
                    "total": self.relations.images_total,
                    "rate": self.relations.image_accuracy,
                    "by_object_count": by_count,
                },
            },
            "counts": {
                "scenes": self.scenes,
                "gt_objects": self.gt_objects,
                "detections": self.detections,
                "gt_pairs": self.relations.gt_pairs,
                "predicted_pairs": self.relations.predicted_pairs,
            },
            "thresholds": self.thresholds.to_json_dict(),
        }


def metrics_report(scores: Sequence[SceneScore],
                   thresholds: MatchThresholds = MatchThresholds()) -> MetricsReport:
    """The report of the scenes whose scores, in scene order, are
    ``scores``; ``thresholds`` are the ones they were scored with."""
    mean_ap, per_class = average_precision(scores)
    return MetricsReport(
        map_with_grasp=float(mean_ap),
        per_class_ap={c: float(v) for c, v in per_class.items()},
        relations=relation_metrics(scores),
        scenes=len(scores),
        gt_objects=sum(len(s.categories) for s in scores),
        detections=sum(len(s.detections) for s in scores),
        thresholds=thresholds,
    )


def evaluate(
    records: Sequence[SceneRecord],
    predictions: Sequence[ScenePredictions],
    thresholds: MatchThresholds = MatchThresholds(),
) -> MetricsReport:
    """The report of parallel ground-truth and prediction lists: each
    scene scored by ``score_scene``, then reduced by ``metrics_report``."""
    if len(records) != len(predictions):
        raise ValueError("ground truth and prediction counts differ")
    return metrics_report(
        [score_scene(r, p, thresholds) for r, p in zip(records, predictions)], thresholds
    )
