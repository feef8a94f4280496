import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackgrasp.anchors import AnchorConfig, GraspDelta, generate_anchors
from stackgrasp.geometry import AABox, OrientedRect
from stackgrasp.losses import GraspPrediction
from stackgrasp.perception import (
    GraspCandidate,
    NoGraspError,
    ObjectDetection,
    ScenePredictions,
    decode_roi_grasps,
    nms,
    parse_predictions,
    perceive,
    select_best_grasp,
)

from oracle_utils import (
    predictions_to_json_dict,
    reference_decode_roi_grasps,
    reference_nms,
    reference_select_best_grasp,
    serialize_predictions,
)

SMALL = AnchorConfig(grid_w=2, grid_h=2, k=1)

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def outcome(f, *args):
    """``f(*args)``, or the type and text of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as e:
        return (type(e), str(e))


def det(instance_id, x0, y0, x1, y1, score=0.9, category="cup"):
    return ObjectDetection(
        box=AABox(x0, y0, x1, y1), category=category, score=score, instance_id=instance_id
    )


class TestObjectDetection:
    def test_score_bounds(self):
        with pytest.raises(ValueError):
            det(1, 0, 0, 10, 10, score=1.5)
        with pytest.raises(ValueError):
            det(1, 0, 0, 10, 10, score=-0.1)

    def test_empty_category(self):
        with pytest.raises(ValueError):
            det(1, 0, 0, 10, 10, category="")


class TestGraspCandidate:
    def test_confidence_bounds(self):
        rect = OrientedRect(5, 5, 4, 2, 0)
        with pytest.raises(ValueError):
            GraspCandidate(rect=rect, confidence=2.0)
        with pytest.raises(ValueError):
            GraspCandidate(rect=rect, confidence=float("nan"))


class TestDecodeRoiGrasps:
    def test_count_mismatch(self):
        roi = AABox(0, 0, 20, 20)
        preds = [GraspPrediction(GraspDelta(0, 0, 0, 0, 0), (0.0, 0.0))]
        with pytest.raises(ValueError, match="expected 4"):
            decode_roi_grasps(roi, preds, SMALL)

    def test_zero_deltas_reproduce_anchors(self):
        roi = AABox(10, 20, 30, 60)
        anchors = generate_anchors(roi, SMALL)
        preds = [
            GraspPrediction(GraspDelta(0, 0, 0, 0, 0), (2.0, 0.0)) for _ in anchors
        ]
        cands = decode_roi_grasps(roi, preds, SMALL)
        assert len(cands) == 4
        for cand, anchor in zip(cands, anchors):
            assert cand.rect.x == pytest.approx(anchor.x)
            assert cand.rect.y == pytest.approx(anchor.y)
            assert cand.rect.w == pytest.approx(anchor.w)
            assert cand.rect.h == pytest.approx(anchor.h)
            assert cand.rect.theta == pytest.approx(anchor.theta)

    def test_confidence_is_graspable_softmax(self):
        roi = AABox(0, 0, 20, 20)
        preds = [
            GraspPrediction(GraspDelta(0, 0, 0, 0, 0), (math.log(0.75), math.log(0.25)))
        ] * 4
        cands = decode_roi_grasps(roi, preds, SMALL)
        assert all(c.confidence == pytest.approx(0.75) for c in cands)

    @settings(max_examples=150, deadline=None)
    @given(
        corner=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        size=st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
        cfg=st.builds(
            AnchorConfig, grid_w=st.integers(1, 7), grid_h=st.integers(1, 7),
            k=st.integers(1, 6), anchor_size=st.floats(0.5, 64.0),
        ),
        pool=st.lists(
            st.builds(
                GraspPrediction,
                # sizes from exp(-10) to exp(5) times the anchor's; an
                # overflowing one has its own test
                delta=st.builds(
                    GraspDelta, *[st.floats(-20, 20) | FINITE] * 2,
                    *[st.floats(-10.0, 5.0)] * 2, st.floats(-20, 20) | FINITE,
                ),
                logits=st.tuples(FINITE, FINITE),
            ),
            min_size=1, max_size=8,
        ),
    )
    def test_matches_the_keyword_loop(self, corner, size, cfg, pool):
        # the floats are compared bit for bit: == on the fields, and repr,
        # which tells -0.0 from 0.0
        roi = AABox(corner[0], corner[1], corner[0] + size[0], corner[1] + size[1])
        preds = [pool[i % len(pool)] for i in range(cfg.anchors_per_roi)]
        got = outcome(decode_roi_grasps, roi, preds, cfg)
        want = outcome(reference_decode_roi_grasps, roi, preds, cfg)
        assert got == want
        assert repr(got) == repr(want)

    def test_size_overflow_raises_as_the_keyword_loop(self):
        roi = AABox(0, 0, 20, 20)
        preds = [GraspPrediction(GraspDelta(0, 0, 0, 0, 0), (0.0, 0.0))] * 3
        preds.append(GraspPrediction(GraspDelta(0.0, 0.0, 0.0, 800.0, 0.0), (0.0, 0.0)))
        with pytest.raises(ValueError) as got:
            decode_roi_grasps(roi, preds, SMALL)
        with pytest.raises(ValueError) as want:
            reference_decode_roi_grasps(roi, preds, SMALL)
        assert str(got.value) == str(want.value) == "size delta overflow: dw=0.0, dh=800.0"


def cand(x, y, confidence, w=4.0, h=2.0, theta=0.0):
    return GraspCandidate(rect=OrientedRect(x, y, w, h, theta), confidence=confidence)


class TestSelectBestGrasp:
    BOX = AABox(0, 0, 20, 20)  # center (10, 10)

    def test_nearest_center_among_top_n(self):
        # the most central candidate sits outside the top-3 confidence pool
        cands = [
            cand(0, 0, 0.9),
            cand(2, 2, 0.8),
            cand(4, 4, 0.7),
            cand(10, 10, 0.6),
        ]
        best = select_best_grasp(cands, self.BOX, top_n=3)
        assert (best.rect.x, best.rect.y) == (4, 4)
        # widening the pool lets the central one win
        best = select_best_grasp(cands, self.BOX, top_n=4)
        assert (best.rect.x, best.rect.y) == (10, 10)

    def test_distance_tie_prefers_confidence(self):
        cands = [cand(8, 10, 0.5), cand(12, 10, 0.9)]
        best = select_best_grasp(cands, self.BOX, top_n=3)
        assert best.confidence == 0.9

    def test_full_tie_prefers_lower_index(self):
        cands = [cand(8, 10, 0.7, theta=10.0), cand(12, 10, 0.7)]
        best = select_best_grasp(cands, self.BOX, top_n=3)
        assert best.rect.theta == 10.0

    def test_top_n_one_ignores_distance(self):
        cands = [cand(0, 0, 0.9), cand(10, 10, 0.1)]
        best = select_best_grasp(cands, self.BOX, top_n=1)
        assert (best.rect.x, best.rect.y) == (0, 0)

    def test_empty_raises(self):
        with pytest.raises(NoGraspError):
            select_best_grasp([], self.BOX)

    def test_bad_top_n(self):
        with pytest.raises(ValueError):
            select_best_grasp([cand(0, 0, 0.5)], self.BOX, top_n=0)

    # a pool shorter than top_n (no ranking) and one longer (ranked and cut)
    @pytest.mark.parametrize("count", [1, 4])
    @pytest.mark.parametrize("top_n", [1.5, 2.0, True, "2"])
    def test_top_n_must_be_an_integer(self, count, top_n):
        cands = [cand(i, i, 0.5) for i in range(count)]
        with pytest.raises(ValueError, match=re.escape(f"top_n must be an integer, got {top_n!r}")):
            select_best_grasp(cands, self.BOX, top_n)

    # no more candidates than top_n: the whole list is the pool
    @pytest.mark.parametrize(
        "cands, top_n, index",
        [
            ([cand(3, 3, 0.2)], 1, 0),
            ([cand(3, 3, 0.2)], 3, 0),
            # confidence tie: the nearer wins, then the lower index
            ([cand(0, 0, 0.5), cand(9, 9, 0.5)], 2, 1),
            ([cand(8, 10, 0.5, theta=5.0), cand(12, 10, 0.5)], 2, 0),
            # distance tie: the more confident wins, then the lower index
            ([cand(8, 10, 0.4), cand(10, 12, 0.6), cand(12, 10, 0.6)], 3, 1),
            ([cand(10, 8, 0.7), cand(10, 12, 0.7), cand(8, 10, 0.7)], 3, 0),
            # the least confident is nearest and still in the pool
            ([cand(0, 0, 0.9), cand(20, 20, 0.8), cand(10, 10, 0.1)], 3, 2),
            ([cand(0, 0, 0.9), cand(10, 10, 0.1)], 3, 1),
        ],
    )
    def test_pool_of_every_candidate(self, cands, top_n, index):
        assert select_best_grasp(cands, self.BOX, top_n) is cands[index]

    @given(
        points=st.lists(
            st.tuples(st.sampled_from([8.0, 10.0, 12.0]), st.sampled_from([8.0, 10.0, 12.0]),
                      st.sampled_from([0.25, 0.5, 0.75])),
            min_size=1, max_size=6,
        ),
        top_n=st.integers(1, 5),
    )
    def test_matches_ranking_every_candidate(self, points, top_n):
        cands = [cand(x, y, c) for x, y, c in points]
        best = select_best_grasp(cands, self.BOX, top_n)
        assert best is reference_select_best_grasp(cands, self.BOX, top_n)


class TestPerceive:
    def test_no_candidates_gives_graspless_object(self):
        d = det(7, 0, 0, 10, 10)
        p = perceive(d, [])
        assert p.best_grasp is None
        assert p.detection is d

    def test_binds_selected_grasp(self):
        d = det(7, 0, 0, 20, 20)
        cands = [cand(9, 9, 0.8), cand(1, 1, 0.9)]
        p = perceive(d, cands)
        assert p.best_grasp is cands[0].rect
        assert (p.best_grasp.x, p.best_grasp.y) == (9, 9)


class TestNms:
    def test_suppresses_same_category_overlap(self):
        a = det(1, 0, 0, 10, 10, score=0.9)
        b = det(2, 1, 0, 11, 10, score=0.8)  # iou 9/11 with a
        kept = nms([a, b])
        assert kept == [a]

    def test_other_category_survives(self):
        a = det(1, 0, 0, 10, 10, score=0.9, category="cup")
        b = det(2, 1, 0, 11, 10, score=0.8, category="box")
        kept = nms([a, b])
        assert kept == [a, b]

    def test_score_floor_drops_weak_detections(self):
        a = det(1, 0, 0, 10, 10, score=0.04)
        b = det(2, 50, 50, 60, 60, score=0.9)
        assert nms([a, b]) == [b]

    def test_iou_at_threshold_not_suppressed(self):
        # iou exactly 1/3: boxes 0..10 and 5..15 overlap 5 over union 15
        a = det(1, 0, 0, 10, 1, score=0.9)
        b = det(2, 5, 0, 15, 1, score=0.8)
        kept = nms([a, b], iou_threshold=1 / 3)
        assert kept == [a, b]

    def test_output_in_score_order(self):
        dets = [
            det(1, 0, 0, 10, 10, score=0.5),
            det(2, 50, 0, 60, 10, score=0.9),
            det(3, 0, 50, 10, 60, score=0.7),
        ]
        kept = nms(dets)
        assert [d.instance_id for d in kept] == [2, 3, 1]

    def test_chain_not_transitively_suppressed(self):
        # b overlaps a and c; a suppresses b, but c only overlaps b, so c stays
        a = det(1, 0, 0, 10, 10, score=0.9)
        b = det(2, 4, 0, 14, 10, score=0.8)
        c = det(3, 9, 0, 19, 10, score=0.7)
        kept = nms([a, b, c], iou_threshold=0.3)
        assert [d.instance_id for d in kept] == [1, 3]

    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(1, 6), st.integers(1, 6),
                      st.sampled_from([0.0, 0.04, 0.05, 0.5, 0.9]), st.sampled_from("ab")),
            max_size=10,
        ),
        iou_threshold=st.sampled_from([0.0, 0.1, 0.3, 1 / 3, 0.5, 1.0]),
    )
    def test_matches_suppressing_every_overlap(self, rows, iou_threshold):
        # small integer boxes and few scores, so IoU and score ties are common
        dets = [
            det(i, x, y, x + w, y + h, score=s, category=c)
            for i, (x, y, w, h, s, c) in enumerate(rows)
        ]
        kept = nms(dets, iou_threshold)
        assert [id(d) for d in kept] == [id(d) for d in reference_nms(dets, iou_threshold)]


def sample_predictions() -> ScenePredictions:
    p = ScenePredictions()
    p.detections = [
        det(1, 10.0, 20.0, 110.0, 120.0, score=0.875, category="cup"),
        det(4, 200.0, 50.0, 320.0, 170.0, score=0.5, category="stapler"),
    ]
    p.grasp_candidates = {
        1: [
            GraspCandidate(OrientedRect(60.0, 70.0, 40.0, 18.0, -30.0), 0.9),
            GraspCandidate(OrientedRect(55.0, 65.0, 35.0, 20.0, 15.0), 0.6),
        ],
        4: [],
    }
    p.relations = {(1, 4): (0.1, 0.7, 0.2), (4, 1): (0.1, 0.2, 0.7)}
    return p


class TestSerialization:
    def test_round_trip_preserves_content(self):
        p = sample_predictions()
        q = parse_predictions(serialize_predictions(p))
        assert q.detections == p.detections
        assert q.grasp_candidates == p.grasp_candidates
        assert q.relations == p.relations

    def test_serialize_parse_serialize_is_byte_identical(self):
        text = serialize_predictions(sample_predictions())
        assert serialize_predictions(parse_predictions(text)) == text

    def test_detections_sorted_by_id(self):
        p = sample_predictions()
        p.detections.reverse()
        data = predictions_to_json_dict(p)
        assert [d["id"] for d in data["detections"]] == [1, 4]

    def test_defaults_for_missing_score_and_confidence(self):
        text = json.dumps(
            {
                "detections": [
                    {
                        "id": 3,
                        "category": "pen",
                        "bbox": [0, 0, 5, 5],
                        "grasps": [{"rect": [2, 2, 3, 1, 0]}],
                    }
                ]
            }
        )
        p = parse_predictions(text)
        assert p.detections[0].score == 1.0
        assert p.grasp_candidates[3][0].confidence == 1.0
        assert p.relations == {}


class TestParseErrors:
    def test_invalid_json(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            parse_predictions("{nope")

    def test_missing_detections_key(self):
        with pytest.raises(ValueError, match="detections: missing"):
            parse_predictions("{}")

    def test_duplicate_id(self):
        data = {
            "detections": [
                {"id": 1, "category": "cup", "bbox": [0, 0, 5, 5]},
                {"id": 1, "category": "box", "bbox": [10, 10, 15, 15]},
            ]
        }
        with pytest.raises(ValueError, match=r"detections\[1\]: duplicate id 1"):
            parse_predictions(json.dumps(data))

    def test_bad_bbox_ordering_points_at_detection(self):
        data = {"detections": [{"id": 1, "category": "cup", "bbox": [5, 0, 0, 5]}]}
        with pytest.raises(ValueError, match=r"detections\[0\]"):
            parse_predictions(json.dumps(data))

    def test_bad_grasp_points_at_grasp(self):
        data = {
            "detections": [
                {
                    "id": 1,
                    "category": "cup",
                    "bbox": [0, 0, 5, 5],
                    "grasps": [{"rect": [1, 1, 0, 1, 0]}],
                }
            ]
        }
        with pytest.raises(ValueError, match=r"detections\[0\].grasps\[0\]"):
            parse_predictions(json.dumps(data))

    def test_relation_unknown_id(self):
        data = {
            "detections": [{"id": 1, "category": "cup", "bbox": [0, 0, 5, 5]}],
            "relations": [{"pair": [1, 9], "probs": [1, 0, 0]}],
        }
        with pytest.raises(ValueError, match=r"relations\[0\].*unknown detection"):
            parse_predictions(json.dumps(data))

    def test_duplicate_pair(self):
        data = {
            "detections": [
                {"id": 1, "category": "cup", "bbox": [0, 0, 5, 5]},
                {"id": 2, "category": "box", "bbox": [10, 10, 15, 15]},
            ],
            "relations": [
                {"pair": [1, 2], "probs": [1, 0, 0]},
                {"pair": [1, 2], "probs": [0, 1, 0]},
            ],
        }
        with pytest.raises(ValueError, match=r"relations\[1\]: duplicate pair"):
            parse_predictions(json.dumps(data))

    def test_wrong_prob_count(self):
        data = {
            "detections": [
                {"id": 1, "category": "cup", "bbox": [0, 0, 5, 5]},
                {"id": 2, "category": "box", "bbox": [10, 10, 15, 15]},
            ],
            "relations": [{"pair": [1, 2], "probs": [0.5, 0.5]}],
        }
        with pytest.raises(ValueError, match=r"relations\[0\]: need 3"):
            parse_predictions(json.dumps(data))

    @pytest.mark.parametrize(
        "pair, probs, message",
        [
            ([1, 2], [float("nan"), 0.5, 0.5], "non-finite"),
            ([1, 2], [float("inf"), 0.0, 0.0], "non-finite"),
            ([1, 2], [-0.25, 0.75, 0.5], "negative"),
            ([1, 2], [0.5, 0.5, 0.5], "sum to 1.5"),
            ([1, 2], [0.5, 0.25, 0.25 - 2e-6], "not 1"),
            ([1, 1], [1.0, 0.0, 0.0], "two distinct objects"),
        ],
    )
    def test_invalid_probabilities(self, pair, probs, message):
        data = {
            "detections": [
                {"id": 1, "category": "cup", "bbox": [0, 0, 5, 5]},
                {"id": 2, "category": "box", "bbox": [10, 10, 15, 15]},
            ],
            "relations": [
                {"pair": [2, 1], "probs": [1.0, 0.0, 0.0]},
                {"pair": pair, "probs": probs},
            ],
        }
        with pytest.raises(ValueError, match=rf"relations\[1\]: .*{message}"):
            parse_predictions(json.dumps(data))

    def test_sum_within_tolerance_accepted(self):
        data = {
            "detections": [
                {"id": 1, "category": "cup", "bbox": [0, 0, 5, 5]},
                {"id": 2, "category": "box", "bbox": [10, 10, 15, 15]},
            ],
            "relations": [{"pair": [1, 2], "probs": [0.5, 0.25, 0.25 + 5e-7]}],
        }
        assert parse_predictions(json.dumps(data)).relations[(1, 2)][2] == 0.25 + 5e-7

    @pytest.mark.parametrize(
        "data, where",
        [
            ({"detections": 5}, r"detections: expected a list"),
            ({"detections": ["cup"]}, r"detections\[0\]: expected an object"),
            (
                {"detections": [{"id": 1, "category": "cup", "bbox": [0, 0, 5, 5], "grasps": 5}]},
                r"detections\[0\].grasps: expected a list",
            ),
            ({"detections": [], "relations": {"pair": [1, 2]}}, r"relations: expected a list"),
        ],
    )
    def test_wrong_json_types(self, data, where):
        with pytest.raises(ValueError, match=where):
            parse_predictions(json.dumps(data))

    def test_decoded_document_parses_like_text(self):
        text = serialize_predictions(sample_predictions())
        assert parse_predictions(json.loads(text)) == parse_predictions(text)


class TestScenePredictions:
    def test_perceived_covers_every_detection(self):
        p = sample_predictions()
        objs = p.perceived()
        assert [o.detection.instance_id for o in objs] == [1, 4]
        assert objs[0].best_grasp is not None
        assert objs[1].best_grasp is None
