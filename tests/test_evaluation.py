import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackgrasp.dataset import (
    SceneGrasp,
    SceneObject,
    SceneRecord,
    record_to_predictions,
)
from stackgrasp.evaluation import (
    MatchThresholds,
    MetricsReport,
    average_precision,
    evaluate,
    grasp_correct,
    match_detections,
    relation_metrics,
    sequential_success,
)
from stackgrasp.geometry import AABox, OrientedRect
from stackgrasp.perception import (
    GraspCandidate,
    ObjectDetection,
    PerceivedObject,
    ScenePredictions,
)

from oracle_utils import reference_evaluate


def record_one(category="cup", box=(100.0, 100.0, 200.0, 200.0), theta=0.0):
    return SceneRecord(
        width=640,
        height=480,
        objects=(SceneObject(1, category, AABox(*box)),),
        grasps=(SceneGrasp(1, OrientedRect(150.0, 150.0, 60.0, 20.0, theta)),),
        relations=(),
    )


def preds_one(score=1.0, box=(100.0, 100.0, 200.0, 200.0), grasp=None, category="cup"):
    p = ScenePredictions()
    p.detections = [
        ObjectDetection(box=AABox(*box), category=category, score=score, instance_id=1)
    ]
    rect = OrientedRect(*grasp) if grasp else OrientedRect(150.0, 150.0, 60.0, 20.0, 0.0)
    p.grasp_candidates = {1: [GraspCandidate(rect=rect, confidence=1.0)]}
    return p


def chain_record():
    """Objects 1 above 2 above 3 (transitively closed)."""
    return SceneRecord(
        width=640,
        height=480,
        objects=(
            SceneObject(1, "cup", AABox(120.0, 120.0, 180.0, 180.0)),
            SceneObject(2, "box", AABox(100.0, 100.0, 200.0, 200.0)),
            SceneObject(3, "notebook", AABox(80.0, 80.0, 220.0, 220.0)),
        ),
        grasps=(
            SceneGrasp(1, OrientedRect(150.0, 150.0, 40.0, 16.0, 0.0)),
            SceneGrasp(2, OrientedRect(150.0, 150.0, 70.0, 24.0, 45.0)),
            SceneGrasp(3, OrientedRect(150.0, 150.0, 100.0, 30.0, -45.0)),
        ),
        relations=((1, 2), (2, 3), (1, 3)),
    )


class TestMatchThresholds:
    def test_defaults(self):
        t = MatchThresholds()
        assert (t.iou, t.jaccard, t.angle_deg, t.top_n) == (0.5, 0.25, 30.0, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            MatchThresholds(iou=0.0)
        with pytest.raises(ValueError):
            MatchThresholds(jaccard=1.0)
        with pytest.raises(ValueError):
            MatchThresholds(angle_deg=120.0)
        with pytest.raises(ValueError):
            MatchThresholds(top_n=0)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"top_n": 2.5}, "top_n must be an integer"),
            ({"top_n": True}, "top_n must be an integer"),
            ({"top_n": "3"}, "top_n must be an integer"),
            ({"iou": "0.5"}, "iou must be a number"),
            ({"jaccard": None}, "jaccard must be a number"),
            ({"angle_deg": True}, "angle_deg must be a number"),
        ],
    )
    def test_field_types(self, fields, message):
        with pytest.raises(ValueError, match=message):
            MatchThresholds(**fields)

    def test_fields_are_stored_as_their_json_types(self):
        t = MatchThresholds(iou=1, angle_deg=np.float32(45.0), top_n=np.int64(2))
        assert json.dumps(t.to_json_dict()) == (
            '{"iou": 1.0, "jaccard": 0.25, "angle_deg": 45.0, "top_n": 2}'
        )

    def test_json_dict(self):
        assert MatchThresholds().to_json_dict() == {
            "iou": 0.5,
            "jaccard": 0.25,
            "angle_deg": 30.0,
            "top_n": 3,
        }


class TestGraspCorrect:
    def perceived_with(self, rect):
        det = ObjectDetection(
            box=AABox(100.0, 100.0, 200.0, 200.0), category="cup", score=1.0, instance_id=1
        )
        return PerceivedObject(detection=det, best_grasp=rect)

    def test_exact_grasp_matches(self):
        rec = record_one()
        p = self.perceived_with(OrientedRect(150.0, 150.0, 60.0, 20.0, 0.0))
        assert grasp_correct(p, rec.grasps_of(1), MatchThresholds())

    def test_missing_grasp_fails(self):
        p = self.perceived_with(None)
        assert not grasp_correct(p, record_one().grasps_of(1), MatchThresholds())

    def test_angle_gate(self):
        rec = record_one()
        ok = self.perceived_with(OrientedRect(150.0, 150.0, 60.0, 20.0, 29.0))
        bad = self.perceived_with(OrientedRect(150.0, 150.0, 60.0, 20.0, 31.0))
        assert grasp_correct(ok, rec.grasps_of(1), MatchThresholds())
        assert not grasp_correct(bad, rec.grasps_of(1), MatchThresholds())

    def test_angle_gate_is_strict(self):
        rec = record_one()
        edge = self.perceived_with(OrientedRect(150.0, 150.0, 60.0, 20.0, 30.0))
        assert not grasp_correct(edge, rec.grasps_of(1), MatchThresholds())

    def test_jaccard_gate(self):
        # square grasps of side 20 shifted by dx: jaccard (20-dx)/(20+dx);
        # 12 -> 0.25 exactly (rejected, strict), 11.9 -> just above
        rec = SceneRecord(
            width=640,
            height=480,
            objects=(SceneObject(1, "cup", AABox(100.0, 100.0, 200.0, 200.0)),),
            grasps=(SceneGrasp(1, OrientedRect(150.0, 150.0, 20.0, 20.0, 0.0)),),
            relations=(),
        )
        at_threshold = self.perceived_with(OrientedRect(162.0, 150.0, 20.0, 20.0, 0.0))
        above = self.perceived_with(OrientedRect(161.9, 150.0, 20.0, 20.0, 0.0))
        assert not grasp_correct(at_threshold, rec.grasps_of(1), MatchThresholds())
        assert grasp_correct(above, rec.grasps_of(1), MatchThresholds())

    def test_any_owned_grasp_suffices(self):
        rec = SceneRecord(
            width=640,
            height=480,
            objects=(SceneObject(1, "cup", AABox(100.0, 100.0, 200.0, 200.0)),),
            grasps=(
                SceneGrasp(1, OrientedRect(120.0, 120.0, 20.0, 8.0, 80.0)),
                SceneGrasp(1, OrientedRect(150.0, 150.0, 60.0, 20.0, 0.0)),
            ),
            relations=(),
        )
        p = self.perceived_with(OrientedRect(150.0, 150.0, 60.0, 20.0, 5.0))
        assert grasp_correct(p, rec.grasps_of(1), MatchThresholds())


class TestAveragePrecision:
    def test_perfect_prediction_is_exactly_one(self):
        records = [chain_record(), record_one()]
        preds = [record_to_predictions(r) for r in records]
        mean_ap, per_class = average_precision(records, preds)
        assert mean_ap == Fraction(1)
        assert all(v == Fraction(1) for v in per_class.values())
        assert set(per_class) == {"cup", "box", "notebook"}

    def test_tp_fp_tp_hand_value(self):
        # one class, 2 ground truths, ranked TP(0.9), FP(0.8), TP(0.7):
        # precision at the recall points is 1 and 2/3 -> AP = 5/6
        rec = SceneRecord(
            width=640,
            height=480,
            objects=(
                SceneObject(1, "cup", AABox(100.0, 100.0, 200.0, 200.0)),
                SceneObject(2, "cup", AABox(300.0, 100.0, 400.0, 200.0)),
            ),
            grasps=(
                SceneGrasp(1, OrientedRect(150.0, 150.0, 60.0, 20.0, 0.0)),
                SceneGrasp(2, OrientedRect(350.0, 150.0, 60.0, 20.0, 0.0)),
            ),
            relations=(),
        )
        p = ScenePredictions()
        p.detections = [
            ObjectDetection(AABox(100.0, 100.0, 200.0, 200.0), "cup", 0.9, 11),
            ObjectDetection(AABox(500.0, 300.0, 600.0, 400.0), "cup", 0.8, 12),
            ObjectDetection(AABox(300.0, 100.0, 400.0, 200.0), "cup", 0.7, 13),
        ]
        p.grasp_candidates = {
            11: [GraspCandidate(OrientedRect(150.0, 150.0, 60.0, 20.0, 0.0), 1.0)],
            12: [GraspCandidate(OrientedRect(550.0, 350.0, 60.0, 20.0, 0.0), 1.0)],
            13: [GraspCandidate(OrientedRect(350.0, 150.0, 60.0, 20.0, 0.0), 1.0)],
        }
        mean_ap, per_class = average_precision([rec], [p])
        assert per_class["cup"] == Fraction(5, 6)
        assert mean_ap == Fraction(5, 6)

    def test_failed_grasp_does_not_consume_ground_truth(self):
        # the higher-scoring detection matches the box but misses the grasp;
        # the lower one earns the object, giving recall 1 at precision 1/2
        rec = record_one()
        p = ScenePredictions()
        p.detections = [
            ObjectDetection(AABox(100.0, 100.0, 200.0, 200.0), "cup", 0.9, 11),
            ObjectDetection(AABox(100.0, 100.0, 200.0, 200.0), "cup", 0.8, 12),
        ]
        p.grasp_candidates = {
            11: [GraspCandidate(OrientedRect(150.0, 150.0, 60.0, 20.0, 80.0), 1.0)],
            12: [GraspCandidate(OrientedRect(150.0, 150.0, 60.0, 20.0, 0.0), 1.0)],
        }
        mean_ap, per_class = average_precision([rec], [p])
        assert per_class["cup"] == Fraction(1, 2)

    def test_unpredicted_class_scores_zero(self):
        records = [record_one(category="cup"), record_one(category="pen")]
        preds = [record_to_predictions(records[0]), ScenePredictions()]
        mean_ap, per_class = average_precision(records, preds)
        assert per_class == {"cup": Fraction(1), "pen": Fraction(0)}
        assert mean_ap == Fraction(1, 2)

    def test_graspless_detection_is_a_false_positive(self):
        rec = record_one()
        p = ScenePredictions()
        p.detections = [
            ObjectDetection(AABox(100.0, 100.0, 200.0, 200.0), "cup", 0.9, 11)
        ]
        p.grasp_candidates = {11: []}
        mean_ap, _ = average_precision([rec], [p])
        assert mean_ap == Fraction(0)

    def test_wrong_category_is_a_false_positive(self):
        rec = record_one(category="cup")
        p = preds_one(category="pen")
        mean_ap, per_class = average_precision([rec], [p])
        assert per_class == {"cup": Fraction(0)}
        assert mean_ap == Fraction(0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="counts differ"):
            average_precision([record_one()], [])

    def test_empty_inputs(self):
        assert average_precision([], []) == (Fraction(0), {})


class TestMatchDetections:
    def test_greedy_by_score(self):
        rec = chain_record()
        preds = record_to_predictions(rec)
        mapping = match_detections(rec, preds)
        assert mapping == {1: 1, 2: 2, 3: 3}

    def test_low_iou_unmatched(self):
        rec = record_one()
        p = preds_one(box=(400.0, 300.0, 500.0, 400.0))
        assert match_detections(rec, p) == {}

    def test_each_gt_used_once(self):
        rec = record_one()
        p = ScenePredictions()
        p.detections = [
            ObjectDetection(AABox(100.0, 100.0, 200.0, 200.0), "cup", 0.9, 11),
            ObjectDetection(AABox(101.0, 100.0, 201.0, 200.0), "cup", 0.8, 12),
        ]
        assert match_detections(rec, p) == {11: 1}


class TestRelationMetrics:
    def test_perfect(self):
        rec = chain_record()
        m = relation_metrics([rec], [record_to_predictions(rec)])
        assert m.correct_pairs == 6 and m.gt_pairs == 6
        assert m.predicted_pairs == 6
        assert m.recall == 1.0 and m.precision == 1.0
        assert m.images_correct == 1 and m.image_accuracy == 1.0
        assert m.by_object_count == {3: (1, 1)}

    def test_missed_detection_costs_pairs_and_image(self):
        rec = chain_record()
        preds = record_to_predictions(rec)
        preds.detections = [d for d in preds.detections if d.instance_id != 3]
        preds.relations = {
            pair: probs for pair, probs in preds.relations.items() if 3 not in pair
        }
        m = relation_metrics([rec], [preds])
        assert m.gt_pairs == 6
        assert m.correct_pairs == 2  # only the (1, 2) pair in both directions
        assert m.predicted_pairs == 2
        assert m.images_correct == 0
        assert m.recall == pytest.approx(1 / 3)
        assert m.precision == 1.0

    def test_flipped_label_counts_against(self):
        rec = chain_record()
        preds = record_to_predictions(rec)
        preds.relations[(1, 2)] = (1.0, 0.0, 0.0)  # truth is above
        m = relation_metrics([rec], [preds])
        assert m.correct_pairs == 5
        assert m.images_correct == 0
        assert m.by_object_count == {3: (0, 1)}

    def test_detection_ids_can_differ_from_gt_ids(self):
        rec = record_one()
        p = ScenePredictions()
        p.detections = [
            ObjectDetection(AABox(100.0, 100.0, 200.0, 200.0), "cup", 1.0, 99)
        ]
        p.grasp_candidates = {99: []}
        m = relation_metrics([rec], [p])
        assert m.images_correct == 1  # single object, no pairs to get wrong
        assert m.gt_pairs == 0

    def test_zero_denominators(self):
        m = relation_metrics([], [])
        assert m.recall == 0.0 and m.precision == 0.0 and m.image_accuracy == 0.0


class FakeStep:
    def __init__(self, removed, order_valid=True):
        self.removed = removed
        self.order_valid = order_valid


class FakeLog:
    def __init__(self, target, steps):
        self.target = target
        self.steps = steps


class TestSequentialSuccess:
    def test_success(self):
        log = FakeLog(3, [FakeStep(1), FakeStep(3)])
        assert sequential_success(log)

    def test_no_steps(self):
        assert not sequential_success(FakeLog(3, []))

    def test_invalid_order_fails(self):
        log = FakeLog(3, [FakeStep(1, order_valid=False), FakeStep(3)])
        assert not sequential_success(log)

    def test_wrong_final_object_fails(self):
        log = FakeLog(3, [FakeStep(1), FakeStep(2)])
        assert not sequential_success(log)


class TestEvaluateReport:
    def test_perfect_report(self):
        records = [chain_record(), record_one()]
        preds = [record_to_predictions(r) for r in records]
        report = evaluate(records, preds)
        assert report.map_with_grasp == 1.0
        assert report.scenes == 2
        assert report.gt_objects == 4
        assert report.detections == 4

    def test_json_shape(self):
        records = [chain_record()]
        preds = [record_to_predictions(r) for r in records]
        data = evaluate(records, preds).to_json_dict()
        assert set(data) == {"perception", "reasoning", "counts", "thresholds"}
        assert data["perception"]["map_with_grasp"] == 1.0
        assert list(data["perception"]["per_class_ap"]) == ["box", "cup", "notebook"]
        acc = data["reasoning"]["image_accuracy"]
        assert acc == {
            "correct": 1,
            "total": 1,
            "rate": 1.0,
            "by_object_count": {"3": {"correct": 1, "total": 1, "rate": 1.0}},
        }
        assert data["counts"] == {
            "scenes": 1,
            "gt_objects": 3,
            "detections": 3,
            "gt_pairs": 6,
            "predicted_pairs": 6,
        }
        assert data["thresholds"]["iou"] == 0.5


# Few values, so that boxes coincide, scores tie and angle gaps land on
# the thresholds.
_CATEGORIES = ["cup", "box", "pen"]
_CORNERS = [20.0, 22.0, 60.0, 140.0]
_SCORES = [0.0, 0.3, 0.5, 0.5, 0.9, 1.0]
_ANGLES = [0.0, 10.0, 29.0, 30.0, 31.0, 45.0, 90.0, -60.0]
_PROBS = [
    (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
    (1 / 3, 1 / 3, 1 / 3), (0.5, 0.5, 0.0), (0.0, 0.5, 0.5), (0.2, 0.4, 0.4),
]


@st.composite
def noisy_scene(draw):
    """A scene of 0 to 5 objects with 0 to 2 grasps each and a random
    stacking, and a noisy detector's predictions for it: jittered or
    missing boxes, wrong categories, false detections, tied scores,
    graspless detections, grasps off by a threshold's worth of angle, and
    relation probabilities with ties."""
    objects, grasps = [], []
    # ids out of record order, so that an IoU tie is broken by id
    for k in draw(st.permutations(range(1, draw(st.integers(0, 5)) + 1))):
        x, y = draw(st.sampled_from(_CORNERS)), draw(st.sampled_from(_CORNERS))
        objects.append(SceneObject(k, draw(st.sampled_from(_CATEGORIES)), AABox(x, y, x + 50.0, y + 40.0)))
        for _ in range(draw(st.integers(0, 2))):
            grasps.append(SceneGrasp(k, OrientedRect(
                x + 25.0, y + 20.0, draw(st.sampled_from([20.0, 30.0])), 10.0,
                draw(st.sampled_from(_ANGLES)),
            )))
    ids = [o.instance_id for o in objects]
    relations = []
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            kind = draw(st.sampled_from(["none", "above", "below"]))
            if kind != "none":
                relations.append((a, b) if kind == "above" else (b, a))
    record = SceneRecord(200, 200, tuple(objects), tuple(grasps), tuple(relations))

    preds = ScenePredictions()
    sources = [o for o in objects if draw(st.integers(0, 4))] + [None] * draw(st.integers(0, 2))
    det_ids = draw(st.permutations(range(100, 100 + len(sources))))
    for det_id, o in zip(det_ids, sources):
        if o is None:
            x, y = draw(st.sampled_from(_CORNERS)), draw(st.sampled_from(_CORNERS))
            box, category = AABox(x, y, x + 50.0, y + 40.0), draw(st.sampled_from(_CATEGORIES))
        else:
            d = draw(st.sampled_from([0.0, 2.0, 10.0, 30.0]))
            box = AABox(o.box.xmin + d, o.box.ymin, o.box.xmax + d, o.box.ymax)
            category = o.category if draw(st.integers(0, 5)) else draw(st.sampled_from(_CATEGORIES))
        preds.detections.append(ObjectDetection(box, category, draw(st.sampled_from(_SCORES)), det_id))
        cx, cy = (box.xmin + box.xmax) / 2.0, (box.ymin + box.ymax) / 2.0
        preds.grasp_candidates[det_id] = [
            GraspCandidate(
                OrientedRect(
                    cx + draw(st.sampled_from([0.0, 3.0, 12.0])), cy, 20.0, 10.0,
                    draw(st.sampled_from(_ANGLES)),
                ),
                draw(st.sampled_from([0.5, 0.9, 1.0])),
            )
            for _ in range(draw(st.integers(0, 3)))
        ]
    for a in det_ids:
        for b in det_ids:
            if a != b and draw(st.integers(0, 4)):
                preds.relations[(a, b)] = draw(st.sampled_from(_PROBS))
    return record, preds


@st.composite
def noisy_sets(draw):
    scenes = draw(st.lists(noisy_scene(), max_size=4))
    thresholds = MatchThresholds(
        iou=draw(st.sampled_from([0.1, 0.5, 1.0])),
        jaccard=draw(st.sampled_from([0.0, 0.25, 0.5])),
        angle_deg=draw(st.sampled_from([15.0, 30.0, 90.0])),
        top_n=draw(st.sampled_from([1, 3])),
    )
    return [r for r, _ in scenes], [p for _, p in scenes], thresholds


@settings(max_examples=400, deadline=None)
@given(case=noisy_sets())
def test_evaluate_equals_the_scanning_oracle(case):
    """The per-scene indexes, the angle test first and the integer running
    maximum give the exact Fractions and the report of the evaluator that
    scans the record per query, clips before the angle test and makes a
    Fraction at every rank (tests/oracle_utils.reference_evaluate)."""
    records, preds, thresholds = case
    mean, per_class, relations = reference_evaluate(records, preds, thresholds)
    got_mean, got_per_class = average_precision(records, preds, thresholds)
    assert (got_mean, got_per_class) == (mean, per_class)
    assert all(type(v) is Fraction for v in [got_mean, *got_per_class.values()])
    assert relation_metrics(records, preds, thresholds.iou) == relations
    expected = MetricsReport(
        map_with_grasp=float(mean),
        per_class_ap={c: float(v) for c, v in per_class.items()},
        relations=relations,
        scenes=len(records),
        gt_objects=sum(len(r.objects) for r in records),
        detections=sum(len(p.detections) for p in preds),
        thresholds=thresholds,
    )
    assert evaluate(records, preds, thresholds).to_json_dict() == expected.to_json_dict()
