"""Metrics: grasp-aware detection mAP, pairwise relation scores, and
trial-sequence success.

A detection only counts as a true positive when its box matches an unused
ground-truth object of the same category (IoU at or above the box
threshold) and its best grasp fits one of that object's annotated grasps
(rotated Jaccard strictly above the grasp threshold, angle gap strictly
below the angle threshold). Average precision is accumulated in exact
rational arithmetic so a perfect prediction set scores exactly 1.0 instead
of 0.9999999999999998.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Sequence

from ._json import integer, number
from .dataset import SceneGrasp, SceneObject, SceneRecord
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
    cross-multiplication; a Fraction is made only at a true-positive rank.
    """
    tp = sum(flags)  # true positives at the last rank
    best_tp, best_rank = 0, 1
    total = Fraction(0)
    for rank in range(len(flags), 0, -1):
        if tp * best_rank > best_tp * rank:
            best_tp, best_rank = tp, rank
        if flags[rank - 1]:
            total += Fraction(best_tp, best_rank)
            tp -= 1
    return total / gt_count


def average_precision(
    records: Sequence[SceneRecord],
    predictions: Sequence[ScenePredictions],
    thresholds: MatchThresholds = MatchThresholds(),
) -> tuple[Fraction, dict[str, Fraction]]:
    """Exact (mAP, per-class AP) over parallel ground-truth/prediction
    lists. Classes are those present in the ground truth; a class with no
    predictions scores zero."""
    if len(records) != len(predictions):
        raise ValueError("ground truth and prediction counts differ")
    gt_counts: dict[str, int] = {}
    for rec in records:
        for o in rec.objects:
            gt_counts[o.category] = gt_counts.get(o.category, 0) + 1

    # (-score, scene index, detection index, true positive): the first three
    # are unique, so a plain sort ranks by score, then scene, then detection
    pooled: dict[str, list[tuple[float, int, int, bool]]] = {c: [] for c in gt_counts}
    for scene_index, (rec, preds) in enumerate(zip(records, predictions)):
        perceived = preds.perceived(thresholds.top_n)
        flags = _scene_tp_flags(rec, perceived, thresholds)
        for i, p in enumerate(perceived):
            entries = pooled.get(p.detection.category)
            if entries is not None:
                entries.append((-p.detection.score, scene_index, i, flags[i]))

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


def relation_metrics(
    records: Sequence[SceneRecord],
    predictions: Sequence[ScenePredictions],
    iou_threshold: float = 0.5,
) -> RelationMetrics:
    """Pairwise relation scoring. A ground-truth ordered pair counts as
    correct when both objects are detected and the predicted label for the
    matching detection pair is the true one. A scene is fully correct when
    every object is detected and every ordered pair is labeled right."""
    if len(records) != len(predictions):
        raise ValueError("ground truth and prediction counts differ")
    correct = gt_pairs = predicted_pairs = 0
    images_correct = 0
    by_count: dict[int, list[int]] = {}
    for rec, preds in zip(records, predictions):
        mapping = match_detections(rec, preds, iou_threshold)
        det_of = {g: d for d, g in mapping.items()}
        n = len(rec.objects)
        gt_pairs += n * (n - 1)
        predicted_pairs += len(preds.relations)
        # an undetected object leaves its pairs unscored and the scene wrong
        scene_correct = len(mapping) == n
        matched = [(o.instance_id, det_of[o.instance_id])
                   for o in rec.objects if o.instance_id in det_of]
        # the label of dataset.relation_label: 1 for a pair in the relation
        # set, 2 for its reverse, 0 otherwise
        above = set(rec.relations)
        for a, da in matched:
            for b, db in matched:
                if a == b:
                    continue
                probs = preds.relations.get((da, db))
                if probs is None:
                    scene_correct = False
                    continue
                label = 1 if (a, b) in above else 2 if (b, a) in above else 0
                if argmax_label(probs) == label:
                    correct += 1
                else:
                    scene_correct = False
        bucket = by_count.setdefault(n, [0, 0])
        bucket[1] += 1
        if scene_correct:
            bucket[0] += 1
            images_correct += 1
    return RelationMetrics(
        correct_pairs=correct,
        gt_pairs=gt_pairs,
        predicted_pairs=predicted_pairs,
        images_correct=images_correct,
        images_total=len(records),
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


def evaluate(
    records: Sequence[SceneRecord],
    predictions: Sequence[ScenePredictions],
    thresholds: MatchThresholds = MatchThresholds(),
) -> MetricsReport:
    mean_ap, per_class = average_precision(records, predictions, thresholds)
    rel = relation_metrics(records, predictions, thresholds.iou)
    return MetricsReport(
        map_with_grasp=float(mean_ap),
        per_class_ap={c: float(v) for c, v in per_class.items()},
        relations=rel,
        scenes=len(records),
        gt_objects=sum(len(r.objects) for r in records),
        detections=sum(len(p.detections) for p in predictions),
        thresholds=thresholds,
    )
