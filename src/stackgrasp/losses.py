"""Training losses with analytic gradients.

The grasp branch combines a smooth-L1 regression term over positive anchors
with a two-way confidence term mined over hard negatives; the relation
branch is a plain negative log-likelihood. Everything returns both the value
and its gradient with respect to the raw prediction inputs so the formulas
can be checked against finite differences.

Only ``grasp_loss`` and ``relation_loss`` build arrays, and they import
numpy when called: ``perception`` imports this module, and ``plan`` and
``eval`` never load numpy. The ``np.ndarray`` field annotations are never
evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from ._json import integer
from .anchors import AnchorAssignment, GraspDelta

PROB_FLOOR = 1e-12
HARD_NEGATIVE_RATIO = 3


def smooth_l1(x: float) -> tuple[float, float]:
    """Value and derivative of the smooth-L1 penalty.

    0.5 * x**2 for |x| < 1, |x| - 0.5 otherwise; the derivative is x inside
    the quadratic zone and sign(x) outside.
    """
    ax = abs(x)
    if ax < 1.0:
        return 0.5 * x * x, x
    return ax - 0.5, math.copysign(1.0, x)


def softmax2(a: float, b: float) -> tuple[float, float]:
    """Two-way softmax, numerically stable; components sum to 1."""
    m = b if b > a else a  # max(a, b), without the builtin's call
    ea, eb = math.exp(a - m), math.exp(b - m)
    z = ea + eb
    return ea / z, eb / z


@dataclass(frozen=True)
class LossWeights:
    """Multipliers for the loss terms; all default to 1."""

    classification_weight: float = 1.0  # scales the confidence term inside the grasp loss
    grasp_weight: float = 1.0  # scales the grasp loss in the total
    relation_weight: float = 1.0  # scales the relation loss in the total

    def __post_init__(self) -> None:
        for name in ("classification_weight", "grasp_weight", "relation_weight"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and non-negative")


@dataclass(frozen=True)
class GraspPrediction:
    """Raw per-anchor output: regression delta plus a (graspable,
    ungraspable) logit pair."""

    delta: GraspDelta
    logits: tuple[float, float]

    def __post_init__(self) -> None:
        if len(self.logits) != 2 or not all(math.isfinite(v) for v in self.logits):
            raise ValueError("logits must be two finite values")

    @property
    def confidence(self) -> float:
        """Graspable probability under the two-way softmax."""
        return softmax2(self.logits[0], self.logits[1])[0]


@dataclass(frozen=True)
class GraspLossResult:
    regression: float
    classification: float
    total: float  # regression + classification_weight * classification
    delta_grads: np.ndarray  # (n_anchors, 5), rows of non-positives are zero
    logit_grads: np.ndarray  # (n_anchors, 2), zero for unmined anchors
    mined_negatives: tuple[int, ...]


def grasp_loss(
    preds: Sequence[GraspPrediction],
    assignment: AnchorAssignment,
    gt_deltas: Sequence[GraspDelta],
    weights: LossWeights = LossWeights(),
) -> GraspLossResult:
    """Grasp branch loss over one ROI.

    Regression: smooth-L1 summed over the 5 delta components of every
    positive anchor against its encoded ground truth. Classification:
    -log c_graspable over positives plus -log c_ungraspable over the top
    3P negatives ranked by graspable confidence (the hardest ones); with
    zero positives, min(3, #negatives) negatives are still mined.
    """
    if len(gt_deltas) != len(assignment.positives):
        raise ValueError(
            f"{len(assignment.positives)} positives but {len(gt_deltas)} target deltas"
        )
    import numpy as np

    n = len(preds)
    delta_grads = np.zeros((n, 5))
    logit_grads = np.zeros((n, 2))

    regression = 0.0
    for (anchor_idx, _), target in zip(assignment.positives, gt_deltas):
        if anchor_idx >= n:
            raise ValueError(f"positive anchor {anchor_idx} out of range")
        pred = preds[anchor_idx].delta.as_tuple()
        tgt = target.as_tuple()
        for m in range(5):
            v, dv = smooth_l1(pred[m] - tgt[m])
            regression += v
            delta_grads[anchor_idx, m] = dv

    classification = 0.0
    for anchor_idx, _ in assignment.positives:
        c_g, c_ug = softmax2(*preds[anchor_idx].logits)
        classification += -math.log(max(c_g, PROB_FLOOR))
        logit_grads[anchor_idx, 0] += c_g - 1.0
        logit_grads[anchor_idx, 1] += c_ug

    n_mined = HARD_NEGATIVE_RATIO * max(len(assignment.positives), 1)
    ranked = sorted(
        assignment.negatives, key=lambda i: (-preds[i].confidence, i)
    )
    mined = tuple(ranked[: min(n_mined, len(ranked))])
    for anchor_idx in mined:
        c_g, c_ug = softmax2(*preds[anchor_idx].logits)
        classification += -math.log(max(c_ug, PROB_FLOOR))
        logit_grads[anchor_idx, 0] += c_g
        logit_grads[anchor_idx, 1] += c_ug - 1.0

    total = regression + weights.classification_weight * classification
    return GraspLossResult(
        regression=regression,
        classification=classification,
        total=total,
        delta_grads=delta_grads,
        logit_grads=logit_grads,
        mined_negatives=mined,
    )


@dataclass(frozen=True)
class RelationPrediction:
    """Class probabilities for one ordered object pair.

    Classes: 0 = no relation, 1 = first above second, 2 = first below
    second. Components must be non-negative and sum to 1 within 1e-6.
    """

    pair: tuple[int, int]
    probs: tuple[float, float, float]

    def __post_init__(self) -> None:
        check_relation(self.pair, self.probs)


def check_relation(pair: Sequence[int], probs: Sequence[float]) -> None:
    """Raise ValueError unless ``pair`` joins two distinct objects and
    ``probs`` holds three non-negative finite class probabilities summing
    to 1 within 1e-6."""
    if pair[0] == pair[1]:
        raise ValueError("relation pair must join two distinct objects")
    if len(probs) != 3:
        raise ValueError(f"need 3 probabilities, got {len(probs)}")
    p0, p1, p2 = probs
    total = p0 + p1 + p2
    # NaN fails every comparison, and a finite sum of non-negative terms
    # has no infinite term
    if not (p0 >= 0 and p1 >= 0 and p2 >= 0 and math.isfinite(total)):
        raise ValueError(f"negative or non-finite probability in {tuple(probs)}")
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"probabilities sum to {total}, not 1")


@dataclass(frozen=True)
class RelationLossResult:
    value: float
    prob_grads: np.ndarray  # (n_pairs, 3), aligned with the input order
    clamped: tuple[int, ...]  # input indices where the labeled prob hit the floor


def relation_loss(
    preds: Sequence[RelationPrediction],
    labels: Mapping[tuple[int, int], int],
) -> RelationLossResult:
    """Negative log-likelihood of the labeled class, summed over pairs.

    Probabilities are clamped to 1e-12 before the log; clamped pairs are
    reported. A missing label, or any label but the integer 0, 1 or 2, is an error.
    """
    import numpy as np

    grads = np.zeros((len(preds), 3))
    value = 0.0
    clamped = []
    for i, pred in enumerate(preds):
        if pred.pair not in labels:
            raise ValueError(f"no ground-truth label for pair {pred.pair}")
        label = integer(f"relation label for pair {pred.pair}", labels[pred.pair])
        if label not in (0, 1, 2):
            raise ValueError(f"bad relation label {label} for pair {pred.pair}")
        p = pred.probs[label]
        if p < PROB_FLOOR:
            clamped.append(i)
            p = PROB_FLOOR
        value += -math.log(p)
        grads[i, label] = -1.0 / p
    return RelationLossResult(value=value, prob_grads=grads, clamped=tuple(clamped))


@dataclass(frozen=True)
class TrainingLossReport:
    """All loss terms of one training step.

    total = detection + grasp_weight * grasp + relation_weight * relation,
    grasp = grasp_regression + classification_weight * grasp_classification.
    """

    detection: float
    grasp_regression: float
    grasp_classification: float
    grasp: float
    relation: float
    total: float


def total_loss(
    detection_loss: float,
    grasp: GraspLossResult,
    relation: RelationLossResult,
    weights: LossWeights = LossWeights(),
) -> TrainingLossReport:
    """Combine the externally supplied detection loss with the grasp and
    relation terms. The detection loss must be a finite non-negative scalar."""
    if not (math.isfinite(detection_loss) and detection_loss >= 0):
        raise ValueError(f"detection loss must be finite and non-negative, got {detection_loss}")
    grasp_total = grasp.regression + weights.classification_weight * grasp.classification
    total = (
        detection_loss
        + weights.grasp_weight * grasp_total
        + weights.relation_weight * relation.value
    )
    return TrainingLossReport(
        detection=detection_loss,
        grasp_regression=grasp.regression,
        grasp_classification=grasp.classification,
        grasp=grasp_total,
        relation=relation.value,
        total=total,
    )
