import itertools
import math
import struct

import numpy as np
import pytest

from stackgrasp.anchors import AnchorAssignment, GraspDelta
from stackgrasp.losses import (
    PROB_FLOOR,
    GraspPrediction,
    LossWeights,
    RelationPrediction,
    grasp_loss,
    relation_loss,
    smooth_l1,
    softmax2,
    total_loss,
)

from oracle_utils import central_diff


class TestSmoothL1:
    def test_inner_zone(self):
        assert smooth_l1(0.0) == (0.0, 0.0)
        v, d = smooth_l1(0.5)
        assert v == 0.125 and d == 0.5
        v, d = smooth_l1(-0.5)
        assert v == 0.125 and d == -0.5

    def test_outer_zone(self):
        assert smooth_l1(2.0) == (1.5, 1.0)
        assert smooth_l1(-3.0) == (2.5, -1.0)

    def test_continuous_at_one(self):
        inner = 0.5 * 1.0 * 1.0
        outer = 1.0 - 0.5
        assert inner == outer == smooth_l1(1.0)[0]

    def test_derivative_matches_finite_difference(self):
        for x in (-2.5, -0.7, -0.1, 0.3, 0.9, 4.0):
            fd = central_diff(lambda t: smooth_l1(t)[0], x)
            assert smooth_l1(x)[1] == pytest.approx(fd, rel=1e-6)


# signed zeros, infinities, nan, equal and unequal finite logits
SPECIAL_LOGITS = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.5, -1.5, 700.0, -745.0]


def max_softmax2(a: float, b: float) -> tuple[float, float]:
    """The two-way softmax shifted by the builtin ``max``."""
    m = max(a, b)
    ea, eb = math.exp(a - m), math.exp(b - m)
    z = ea + eb
    return ea / z, eb / z


def _bits(values) -> list[bytes]:
    return [struct.pack("<d", v) for v in values]


class TestSoftmax2:
    def test_sums_to_one(self):
        p, q = softmax2(3.2, -1.7)
        assert p + q == pytest.approx(1.0)
        assert p > q

    def test_symmetry(self):
        p, q = softmax2(0.0, 0.0)
        assert p == q == 0.5

    def test_log_prob_logits_recover_probability(self):
        # logits (log p, log(1-p)) make the softmax output p itself
        for target in (0.8, 0.25, 0.999):
            p, _ = softmax2(math.log(target), math.log(1.0 - target))
            assert p == pytest.approx(target, rel=1e-12)

    def test_extreme_logits_stable(self):
        p, q = softmax2(1000.0, -1000.0)
        assert p == pytest.approx(1.0)
        assert q >= 0.0

    def test_same_bits_as_the_builtin_max_form(self):
        for a, b in itertools.product(SPECIAL_LOGITS, repeat=2):
            assert _bits(softmax2(a, b)) == _bits(max_softmax2(a, b)), (a, b)


def logits_for(p: float) -> tuple[float, float]:
    return (math.log(p), math.log(1.0 - p))


class TestGraspLoss:
    def test_frozen_value(self):
        # two positives with known regression gaps and confidences 0.8/0.9;
        # negatives at 0.6/0.3/0.2/0.1, mining takes the top 3x2=6 -> all 4
        preds = [
            GraspPrediction(GraspDelta(0.5, 0, 0, 0, 0), logits_for(0.8)),
            GraspPrediction(GraspDelta(0, 0, 0, 0, 0), logits_for(0.6)),
            GraspPrediction(GraspDelta(0, -2.0, 0, 0, 0), logits_for(0.9)),
            GraspPrediction(GraspDelta(0, 0, 0, 0, 0), logits_for(0.3)),
            GraspPrediction(GraspDelta(0, 0, 0, 0, 0), logits_for(0.2)),
            GraspPrediction(GraspDelta(0, 0, 0, 0, 0), logits_for(0.1)),
        ]
        assignment = AnchorAssignment(
            positives=((0, 0), (2, 1)), negatives=(1, 3, 4, 5), skipped=()
        )
        targets = [GraspDelta(0, 0, 0, 0, 0), GraspDelta(0, 0, 0, 0, 0)]
        res = grasp_loss(preds, assignment, targets)

        assert res.regression == pytest.approx(0.5 * 0.5**2 + (2.0 - 0.5))
        expected_cls = (
            -math.log(0.8) - math.log(0.9)
            - math.log(1 - 0.6) - math.log(1 - 0.3)
            - math.log(1 - 0.2) - math.log(1 - 0.1)
        )
        assert res.classification == pytest.approx(expected_cls, rel=1e-9)
        assert res.mined_negatives == (1, 3, 4, 5)
        assert res.total == pytest.approx(res.regression + res.classification)

    def test_mining_limits_to_three_per_positive(self):
        preds = [GraspPrediction(GraspDelta(0, 0, 0, 0, 0), logits_for(p))
                 for p in (0.9, 0.8, 0.7, 0.6, 0.5, 0.4)]
        assignment = AnchorAssignment(
            positives=((0, 0),), negatives=(1, 2, 3, 4, 5), skipped=()
        )
        res = grasp_loss(preds, assignment, [GraspDelta(0, 0, 0, 0, 0)])
        # hardest = highest graspable confidence
        assert res.mined_negatives == (1, 2, 3)

    def test_mining_with_no_positives(self):
        preds = [GraspPrediction(GraspDelta(0, 0, 0, 0, 0), logits_for(p))
                 for p in (0.2, 0.9, 0.5, 0.6)]
        assignment = AnchorAssignment(positives=(), negatives=(0, 1, 2, 3), skipped=())
        res = grasp_loss(preds, assignment, [])
        assert res.mined_negatives == (1, 3, 2)
        assert res.regression == 0.0

    def test_single_negative_scene(self):
        preds = [GraspPrediction(GraspDelta(0, 0, 0, 0, 0), logits_for(0.5))]
        assignment = AnchorAssignment(positives=(), negatives=(0,), skipped=())
        res = grasp_loss(preds, assignment, [])
        assert res.mined_negatives == (0,)
        assert res.classification == pytest.approx(-math.log(0.5))

    @pytest.mark.parametrize("logits", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0), (1.0,)])
    def test_non_finite_or_missing_logits_rejected(self, logits):
        with pytest.raises(ValueError, match="^logits must be two finite values$"):
            GraspPrediction(GraspDelta(0, 0, 0, 0, 0), logits)

    def test_positive_anchor_out_of_range(self):
        preds = [GraspPrediction(GraspDelta(0, 0, 0, 0, 0), logits_for(0.5))]
        assignment = AnchorAssignment(positives=((1, 0),), negatives=(0,), skipped=())
        with pytest.raises(ValueError, match="^positive anchor 1 out of range$"):
            grasp_loss(preds, assignment, [GraspDelta(0, 0, 0, 0, 0)])

    def test_target_count_mismatch(self):
        preds = [GraspPrediction(GraspDelta(0, 0, 0, 0, 0), logits_for(0.5))]
        assignment = AnchorAssignment(positives=((0, 0),), negatives=(), skipped=())
        with pytest.raises(ValueError):
            grasp_loss(preds, assignment, [])

    def test_classification_weight_scales_total(self):
        preds = [
            GraspPrediction(GraspDelta(0.3, 0, 0, 0, 0), logits_for(0.7)),
            GraspPrediction(GraspDelta(0, 0, 0, 0, 0), logits_for(0.4)),
        ]
        assignment = AnchorAssignment(positives=((0, 0),), negatives=(1,), skipped=())
        targets = [GraspDelta(0, 0, 0, 0, 0)]
        half = grasp_loss(preds, assignment, targets, LossWeights(classification_weight=0.5))
        assert half.total == pytest.approx(half.regression + 0.5 * half.classification)

    def _fixed_scenario(self, rng):
        # confidences spread far apart so a 1e-6 logit nudge cannot change
        # the mined set
        base = [0.95, 0.75, 0.55, 0.35, 0.15]
        n_pos = 2
        preds = []
        for i in range(7):
            delta = GraspDelta(*rng.uniform(-0.6, 0.6, size=5))
            if i < n_pos:
                logit = logits_for(rng.uniform(0.3, 0.7))
            else:
                logit = logits_for(base[i - n_pos] + rng.uniform(-0.02, 0.02))
            preds.append(GraspPrediction(delta, logit))
        assignment = AnchorAssignment(
            positives=((0, 0), (1, 1)), negatives=tuple(range(2, 7)), skipped=()
        )
        targets = [GraspDelta(*rng.uniform(-0.2, 0.2, size=5)) for _ in range(2)]
        return preds, assignment, targets

    def test_delta_gradients_match_finite_differences(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            preds, assignment, targets = self._fixed_scenario(rng)
            res = grasp_loss(preds, assignment, targets)
            for anchor_idx in (0, 1):
                for comp in range(5):
                    def f(t, ai=anchor_idx, ci=comp):
                        fields = list(preds[ai].delta.as_tuple())
                        fields[ci] = t
                        bumped = list(preds)
                        bumped[ai] = GraspPrediction(GraspDelta(*fields), preds[ai].logits)
                        return grasp_loss(bumped, assignment, targets).total
                    x0 = preds[anchor_idx].delta.as_tuple()[comp]
                    fd = central_diff(f, x0)
                    assert res.delta_grads[anchor_idx, comp] == pytest.approx(
                        fd, rel=1e-4, abs=1e-7
                    )

    def test_outer_zone_delta_gradients(self):
        # force |pred - target| into the linear branch of smooth L1
        preds = [GraspPrediction(GraspDelta(2.0, -1.8, 1.5, -2.2, 3.0), logits_for(0.6))]
        assignment = AnchorAssignment(positives=((0, 0),), negatives=(), skipped=())
        targets = [GraspDelta(0, 0, 0, 0, 0)]
        res = grasp_loss(preds, assignment, targets)
        for comp, sign in enumerate((1, -1, 1, -1, 1)):
            assert res.delta_grads[0, comp] == sign

    def test_logit_gradients_match_finite_differences(self):
        rng = np.random.default_rng(707)
        for _ in range(20):
            preds, assignment, targets = self._fixed_scenario(rng)
            res = grasp_loss(preds, assignment, targets)
            involved = [a for a, _ in assignment.positives] + list(res.mined_negatives)
            for anchor_idx in involved:
                for li in range(2):
                    def f(t, ai=anchor_idx, j=li):
                        logits = list(preds[ai].logits)
                        logits[j] = t
                        bumped = list(preds)
                        bumped[ai] = GraspPrediction(preds[ai].delta, tuple(logits))
                        return grasp_loss(bumped, assignment, targets).classification
                    fd = central_diff(f, preds[anchor_idx].logits[li])
                    assert res.logit_grads[anchor_idx, li] == pytest.approx(
                        fd, rel=1e-4, abs=1e-7
                    )


class TestRelationPrediction:
    def test_validation(self):
        with pytest.raises(ValueError):
            RelationPrediction(pair=(1, 1), probs=(1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            RelationPrediction(pair=(1, 2), probs=(0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            RelationPrediction(pair=(1, 2), probs=(-0.1, 0.6, 0.5))

    def test_same_check_as_the_predictions_parser(self):
        with pytest.raises(ValueError, match="need 3 probabilities, got 2"):
            RelationPrediction(pair=(1, 2), probs=(0.5, 0.5))
        with pytest.raises(ValueError, match="non-finite"):
            RelationPrediction(pair=(1, 2), probs=(math.nan, 0.5, 0.5))


class TestRelationLoss:
    def test_hand_computed_value(self):
        # labeled probability of exp(-1) gives a loss of exactly 1
        p = math.exp(-1)
        pred = RelationPrediction(pair=(1, 2), probs=(p, 1.0 - p, 0.0))
        res = relation_loss([pred], {(1, 2): 0})
        assert res.value == pytest.approx(1.0, rel=1e-12)
        assert res.prob_grads[0, 0] == pytest.approx(-math.e, rel=1e-12)

    def test_sum_over_pairs(self):
        preds = [
            RelationPrediction(pair=(1, 2), probs=(0.5, 0.25, 0.25)),
            RelationPrediction(pair=(2, 3), probs=(0.1, 0.7, 0.2)),
        ]
        res = relation_loss(preds, {(1, 2): 0, (2, 3): 1})
        assert res.value == pytest.approx(-math.log(0.5) - math.log(0.7))
        assert res.clamped == ()

    def test_zero_probability_clamped(self):
        pred = RelationPrediction(pair=(1, 2), probs=(1.0, 0.0, 0.0))
        res = relation_loss([pred], {(1, 2): 2})
        assert res.clamped == (0,)
        assert res.value == pytest.approx(-math.log(PROB_FLOOR))

    def test_missing_label_rejected(self):
        pred = RelationPrediction(pair=(1, 2), probs=(1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            relation_loss([pred], {(2, 1): 0})

    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_outside_the_classes_rejected(self, label):
        pred = RelationPrediction(pair=(1, 2), probs=(1.0, 0.0, 0.0))
        with pytest.raises(ValueError, match=rf"^bad relation label {label} for pair \(1, 2\)$"):
            relation_loss([pred], {(1, 2): label})

    def test_gradients_match_finite_differences_on_simplex(self):
        # nudge two components in opposite directions so probabilities keep
        # summing to one; the directional derivative is g[a] - g[b]
        rng = np.random.default_rng(33)
        for _ in range(20):
            raw = rng.uniform(0.1, 1.0, size=3)
            probs = tuple(raw / raw.sum())
            label = int(rng.integers(0, 3))
            pred = RelationPrediction(pair=(1, 2), probs=probs)
            res = relation_loss([pred], {(1, 2): label})
            for a, b in ((0, 1), (1, 2), (0, 2)):
                def f(h, a=a, b=b):
                    bumped = list(probs)
                    bumped[a] += h
                    bumped[b] -= h
                    return relation_loss(
                        [RelationPrediction(pair=(1, 2), probs=tuple(bumped))],
                        {(1, 2): label},
                    ).value
                fd = central_diff(f, 0.0)
                analytic = res.prob_grads[0, a] - res.prob_grads[0, b]
                assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-7)


class TestTotalLoss:
    def _parts(self):
        preds = [
            GraspPrediction(GraspDelta(0.4, 0, 0, 0, 0), logits_for(0.7)),
            GraspPrediction(GraspDelta(0, 0, 0, 0, 0), logits_for(0.2)),
        ]
        assignment = AnchorAssignment(positives=((0, 0),), negatives=(1,), skipped=())
        g = grasp_loss(preds, assignment, [GraspDelta(0, 0, 0, 0, 0)])
        r = relation_loss(
            [RelationPrediction(pair=(1, 2), probs=(0.25, 0.5, 0.25))], {(1, 2): 1}
        )
        return g, r

    def test_composition(self):
        g, r = self._parts()
        w = LossWeights(classification_weight=0.5, grasp_weight=2.0, relation_weight=3.0)
        report = total_loss(1.25, g, r, w)
        grasp_total = g.regression + 0.5 * g.classification
        assert report.grasp == pytest.approx(grasp_total)
        assert report.total == pytest.approx(1.25 + 2.0 * grasp_total + 3.0 * r.value)
        assert report.detection == 1.25

    def test_rejects_bad_detection_loss(self):
        g, r = self._parts()
        with pytest.raises(ValueError):
            total_loss(-0.1, g, r)
        with pytest.raises(ValueError):
            total_loss(float("nan"), g, r)

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            LossWeights(grasp_weight=-1.0)
