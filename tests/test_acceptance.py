"""Acceptance suite: one test per release criterion.

Each test prints a single ``[acceptance] criterion N (...): PASS`` or
``FAIL`` line (run with ``-s`` to see them live). Every random input is
drawn from a fixed seed, so the suite is deterministic end to end.
"""

import functools
import itertools
import math
import time

import numpy as np
import pytest

from stackgrasp.anchors import (
    AnchorAssignment,
    GraspDelta,
    OrientedAnchor,
    anchor_orientations,
    decode_grasp,
    encode_grasp,
)
from stackgrasp.dataset import SceneGrasp, SceneObject, SceneRecord, record_to_predictions
from stackgrasp.evaluation import MatchThresholds, evaluate, sequential_success
from stackgrasp.execution import (
    AffineMap,
    DepthImage,
    GraspPointError,
    approach_vector,
    fit_affine,
    grasp_point,
)
from stackgrasp.geometry import AABox, OrientedRect, rotated_jaccard
from stackgrasp.losses import (
    GraspPrediction,
    RelationPrediction,
    grasp_loss,
    relation_loss,
)
from stackgrasp.perception import GraspCandidate, ObjectDetection, PerceivedObject, ScenePredictions
from stackgrasp.reasoning import build_graph, next_action, symmetrize
from stackgrasp.simulation import NoiseModel, TrialConfig, generate_scene, run_trial

from oracle_utils import exhaustive_grasp_point, mc_jaccard, order_is_valid, valid_orders


def criterion(number, label):
    """Print one pass/fail line per criterion, then let pytest see the outcome."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number} ({label}): FAIL")
                raise
            print(f"[acceptance] criterion {number} ({label}): PASS")
            return result

        return run

    return wrap


def assert_grad_close(fd, analytic):
    # relative error < 1e-4, with an absolute floor for exact-zero entries
    assert abs(fd - analytic) <= max(1e-4 * abs(analytic), 1e-7), (fd, analytic)


@criterion(1, "oracle-equivalence metrics")
def test_criterion_1_oracle_equivalence_metrics():
    """Feeding ground truth back as predictions scores perfectly on 200 scenes."""
    start = time.monotonic()
    records = []
    for count_range, base in (((2, 5), 0), ((6, 9), 10_000)):
        for s in range(100):
            records.append(generate_scene(base + s, TrialConfig(count_range=count_range)))
    preds = [record_to_predictions(r) for r in records]
    report = evaluate(records, preds)
    elapsed = time.monotonic() - start

    assert report.scenes == 200
    assert report.map_with_grasp == 1.0
    assert all(v == 1.0 for v in report.per_class_ap.values())
    assert report.relations.recall == 1.0
    assert report.relations.precision == 1.0
    assert report.relations.image_accuracy == 1.0
    assert report.detections == report.gt_objects
    assert elapsed < 10.0, f"took {elapsed:.2f} s"


@criterion(2, "anchor offset round trip")
def test_criterion_2_offset_round_trip():
    """decode(encode(g)) reproduces g to 1e-9 for every anchor size and k."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for size in (12.0, 24.0):
        for k in (1, 4, 6):
            thetas = anchor_orientations(k)
            for _ in range(10_000):
                oi = int(rng.integers(len(thetas)))
                anchor = OrientedAnchor(
                    x=float(rng.uniform(0, 640)),
                    y=float(rng.uniform(0, 480)),
                    w=size,
                    h=size,
                    theta=thetas[oi],
                    cell=(0, 0),
                    orient_index=oi,
                )
                grasp = OrientedRect(
                    anchor.x + float(rng.uniform(-2, 2)) * size,
                    anchor.y + float(rng.uniform(-2, 2)) * size,
                    float(rng.uniform(4, 80)),
                    float(rng.uniform(4, 80)),
                    float(rng.uniform(-90, 90)),
                )
                back = decode_grasp(anchor, encode_grasp(anchor, grasp, k), k)
                worst = max(
                    worst,
                    abs(back.x - grasp.x),
                    abs(back.y - grasp.y),
                    abs(back.w - grasp.w),
                    abs(back.h - grasp.h),
                    abs(back.theta - grasp.theta),
                )
    assert worst < 1e-9, worst


@pytest.mark.slow
@criterion(3, "rotated Jaccard vs Monte Carlo")
def test_criterion_3_jaccard_vs_monte_carlo():
    """Exact polygon-clipping IoU agrees with a point-sampling estimate."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for i in range(1000):
        a = OrientedRect(
            float(rng.uniform(0, 40)),
            float(rng.uniform(0, 40)),
            float(rng.uniform(4, 60)),
            float(rng.uniform(4, 60)),
            float(rng.uniform(-90, 90)),
        )
        b = OrientedRect(
            float(rng.uniform(0, 40)),
            float(rng.uniform(0, 40)),
            float(rng.uniform(4, 60)),
            float(rng.uniform(4, 60)),
            float(rng.uniform(-90, 90)),
        )
        exact = rotated_jaccard(a, b)
        estimate = mc_jaccard(a, b, n_samples=1_000_000, seed=i)
        worst = max(worst, abs(exact - estimate))
        assert abs(exact - estimate) <= 0.01, (a, b, exact, estimate)
    assert worst <= 0.01, worst


def _fd_pair(f, lo, hi, h=1e-6):
    return (f(hi) - f(lo)) / (2.0 * h)


def _replace(preds, i, pred):
    out = list(preds)
    out[i] = pred
    return out


@criterion(4, "loss gradient checks")
def test_criterion_4_loss_gradient_checks():
    """Analytic gradients match central differences on 100 random instances
    per loss family, and the hand value: one pair at p = 1/e costs exactly 1."""
    rng = np.random.default_rng(41)
    h = 1e-6

    for case in range(100):
        p_count = int(rng.integers(1, 4))
        if case % 2 == 0:
            # few enough negatives that mining takes all of them: the mined
            # set cannot change under an h-sized logit nudge
            n = p_count + int(rng.integers(1, 3 * p_count + 1))
        else:
            n = int(rng.integers(6, 13))
        pos_anchors = sorted(int(a) for a in rng.choice(n, size=p_count, replace=False))
        positives = tuple((a, gi) for gi, a in enumerate(pos_anchors))
        negatives = tuple(i for i in range(n) if i not in set(pos_anchors))

        gt_deltas = [
            GraspDelta(*(float(x) for x in rng.uniform(-0.2, 0.2, size=5)))
            for _ in range(p_count)
        ]
        # step at least 0.3 in confidence-ordering logit space keeps the
        # mined set stable under finite-difference perturbations
        neg_rank = {idx: r for r, idx in enumerate(rng.permutation(len(negatives)))}
        preds = [None] * n
        for gi, a in enumerate(pos_anchors):
            offsets = rng.uniform(-0.6, 0.6, size=5)
            if case % 4 < 2:
                # push one component into the linear zone of the penalty
                j = int(rng.integers(5))
                offsets[j] = float(rng.uniform(1.5, 2.5)) * (1.0 if rng.random() < 0.5 else -1.0)
            delta = GraspDelta(*(g + float(o) for g, o in zip(gt_deltas[gi].as_tuple(), offsets)))
            logits = (float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
            preds[a] = GraspPrediction(delta=delta, logits=logits)
        for r, a in enumerate(negatives):
            delta = GraspDelta(*(float(x) for x in rng.uniform(-0.5, 0.5, size=5)))
            preds[a] = GraspPrediction(delta=delta, logits=(-2.0 + 0.3 * neg_rank[r], 0.0))

        assignment = AnchorAssignment(positives=positives, negatives=negatives, skipped=())
        res = grasp_loss(preds, assignment, gt_deltas)

        def reg(ps):
            return grasp_loss(ps, assignment, gt_deltas).regression

        def cls(ps):
            return grasp_loss(ps, assignment, gt_deltas).classification

        for i, p in enumerate(preds):
            fields = p.delta.as_tuple()
            for c in range(5):
                def bump(sign):
                    vals = list(fields)
                    vals[c] += sign * h
                    return _replace(preds, i, GraspPrediction(delta=GraspDelta(*vals), logits=p.logits))

                fd = _fd_pair(reg, bump(-1), bump(+1), h)
                assert_grad_close(fd, res.delta_grads[i, c])
            for j in range(2):
                def nudge(sign):
                    logits = list(p.logits)
                    logits[j] += sign * h
                    return _replace(preds, i, GraspPrediction(delta=p.delta, logits=tuple(logits)))

                fd = _fd_pair(cls, nudge(-1), nudge(+1), h)
                assert_grad_close(fd, res.logit_grads[i, j])

    all_pairs = list(itertools.permutations(range(1, 9), 2))
    for _ in range(100):
        n_pairs = int(rng.integers(1, 7))
        chosen = [all_pairs[int(i)] for i in rng.choice(len(all_pairs), size=n_pairs, replace=False)]
        preds = []
        labels = {}
        for pair in chosen:
            raw = rng.dirichlet((2.0, 2.0, 2.0))
            probs = tuple(float(v) for v in (raw + 0.02) / (1.0 + 0.06))
            preds.append(RelationPrediction(pair=pair, probs=probs))
            labels[pair] = int(rng.integers(0, 3))
        res = relation_loss(preds, labels)

        def value(ps):
            return relation_loss(ps, labels).value

        for i, p in enumerate(preds):
            for a, b in ((0, 1), (1, 2), (0, 2)):
                def shift(sign):
                    probs = list(p.probs)
                    probs[a] += sign * h
                    probs[b] -= sign * h
                    return _replace(preds, i, RelationPrediction(pair=p.pair, probs=tuple(probs)))

                fd = _fd_pair(value, shift(-1), shift(+1), h)
                assert_grad_close(fd, res.prob_grads[i, a] - res.prob_grads[i, b])

    # hand check: a single pair with probability 1/e on its label costs 1
    p = math.exp(-1.0)
    rest = (1.0 - p) / 2.0
    res = relation_loss([RelationPrediction(pair=(1, 2), probs=(p, rest, rest))], {(1, 2): 0})
    assert abs(res.value - 1.0) < 1e-12
    assert abs(res.prob_grads[0, 0] + math.e) < 1e-12


def _stub(instance_id, score):
    det = ObjectDetection(
        box=AABox(instance_id * 10.0, 0.0, instance_id * 10.0 + 5.0, 5.0),
        category="box",
        score=score,
        instance_id=instance_id,
    )
    return PerceivedObject(detection=det, best_grasp=None)


def _relations_for(nodes, above):
    # a perfect predictor's one-hot relation for every ordered pair
    relations = {}
    for a, b in itertools.permutations(sorted(nodes), 2):
        label = 1 if (a, b) in above else 2 if (b, a) in above else 0
        relations[(a, b)] = tuple(float(k == label) for k in range(3))
    return relations


def _clear_scene(nodes, above, scores, target=None):
    """Greedy removal loop over perfect labels; returns the removal order."""
    alive = set(nodes)
    order = []
    reached_target = False
    for _ in range(len(nodes)):
        live_above = {(a, b) for a, b in above if a in alive and b in alive}
        graph = build_graph(sorted(alive), symmetrize(_relations_for(alive, live_above)))
        detections = [_stub(i, scores[i]) for i in sorted(alive)]
        action = next_action(graph, detections, target)
        # a removal is legal only when nothing is stacked on the object
        assert not any(b == action.object_id for _, b in live_above), (above, order, action)
        order.append(action.object_id)
        alive.discard(action.object_id)
        if target is not None and action.is_final_target:
            assert action.object_id == target
            reached_target = True
            break
    if target is not None:
        assert reached_target, (above, target, order)
    return order


@criterion(5, "ordering oracle")
def test_criterion_5_ordering_oracle():
    """Greedy removal follows a valid topological order on every DAG with
    up to 5 objects, checked against brute-force enumeration."""
    # every DAG is isomorphic to one whose edges point forward in some node
    # ordering, so upper-triangular subsets cover all shapes exhaustively
    for n in (2, 3, 4, 5):
        nodes = list(range(1, n + 1))
        pairs = list(itertools.combinations(nodes, 2))
        scores = {i: 0.5 for i in nodes}
        for bits in range(2 ** len(pairs)):
            above = {p for k, p in enumerate(pairs) if bits >> k & 1}
            order = _clear_scene(nodes, above, scores)
            assert tuple(order) in valid_orders(nodes, above), (above, order)

    rng = np.random.default_rng(53)
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        ids = sorted(int(i) for i in rng.choice(np.arange(1, 60), size=n, replace=False))
        # relabel through a random permutation so edge direction does not
        # correlate with id order
        perm = [ids[int(i)] for i in rng.permutation(n)]
        above = set()
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < 0.5:
                above.add((perm[i], perm[j]))
        scores = {i: float(rng.uniform(0.1, 1.0)) for i in ids}

        order = _clear_scene(ids, above, scores)
        assert tuple(order) in valid_orders(ids, above), (above, order)
        assert order_is_valid(order, above)

        target = int(rng.choice(ids))
        partial = _clear_scene(ids, above, scores, target=target)
        assert partial[-1] == target
        assert len(partial) <= n
        assert order_is_valid(partial, {(a, b) for a, b in above if a in partial and b in partial})


@criterion(6, "zero-noise end-to-end")
def test_criterion_6_zero_noise_end_to_end():
    """With a perfect predictor every seeded trial retrieves its target."""
    start = time.monotonic()
    for count_range in ((2, 5), (6, 9)):
        invisible_starts = 0
        for s in range(500):
            log = run_trial(s, TrialConfig(count_range=count_range))
            assert sequential_success(log), (count_range, s)
            assert log.reason == "target_removed"
            assert log.steps[-1].removed == log.target
            assert len(log.steps) <= len(log.scene.objects)
            if not log.steps[0].target_visible:
                invisible_starts += 1
        # the regimes must exercise retrieval of buried targets, not just
        # directly visible ones
        assert invisible_starts >= 10, (count_range, invisible_starts)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.2f} s"


@criterion(7, "noise monotonicity")
def test_criterion_7_noise_monotonicity():
    """Success rate never rises as relation noise grows, on matched seeds."""
    rates = []
    for p in (0.0, 0.1, 0.2, 0.4):
        ok = 0
        cfg = TrialConfig(count_range=(6, 9), noise=NoiseModel(relation_flip_prob=p))
        for s in range(500):
            ok += sequential_success(run_trial(s, cfg))
        rates.append(ok / 500)
    assert rates[0] == 1.0, rates
    for lo, hi in zip(rates[1:], rates):
        assert lo <= hi + 0.02, rates
    # heavy noise must actually hurt, otherwise the flips are not wired in
    assert rates[-1] <= rates[0] - 0.1, rates


@criterion(8, "grasp execution geometry")
def test_criterion_8_grasp_execution_geometry():
    """Calibration fits, approach normals, and grasp points match analytic
    or exhaustive references."""
    rng = np.random.default_rng(11)

    fitted = 0
    while fitted < 50:
        linear = rng.uniform(-1.0, 1.0, size=(3, 3))
        if abs(np.linalg.det(linear)) < 0.05:
            continue
        offset = rng.uniform(-100.0, 100.0, size=3)
        pts = np.column_stack(
            [rng.uniform(0, 640, 8), rng.uniform(0, 480, 8), rng.uniform(400, 1200, 8)]
        )
        fit = fit_affine([(tuple(p), tuple(linear @ p + offset)) for p in pts])
        assert fit.residual_rms < 1e-8
        assert np.abs(fit.linear - linear).max() < 1e-9
        assert np.abs(fit.offset - offset).max() < 1e-9
        fitted += 1

    # a 45 degree incline under the identity map has a known surface normal
    v = np.arange(21, dtype=float)[:, None]
    depth = DepthImage(values=np.broadcast_to(500.0 + v, (21, 21)).copy(),
                       valid=np.ones((21, 21), dtype=bool))
    identity = AffineMap(linear=np.eye(3), offset=np.zeros(3))
    approach = approach_vector(depth, (10, 10), identity)
    expected = np.array([0.0, 1.0, -1.0]) / math.sqrt(2.0)
    angle = math.acos(float(np.clip(np.dot(approach, expected), -1.0, 1.0)))
    assert angle < 1e-3, angle

    hits = 0
    for case in range(200):
        values = rng.uniform(300.0, 1200.0, size=(25, 25))
        valid = rng.random((25, 25)) >= 0.2
        img = DepthImage(values=values, valid=valid)
        rect = OrientedRect(
            float(rng.uniform(3, 22)),
            float(rng.uniform(3, 22)),
            float(rng.uniform(2, 18)),
            float(rng.uniform(2, 18)),
            float(rng.uniform(-90, 90)),
        )
        expected = exhaustive_grasp_point(img, rect)
        if expected is None:
            try:
                grasp_point(img, rect)
                raise AssertionError(f"case {case}: expected no valid pixel")
            except GraspPointError:
                continue
        assert grasp_point(img, rect) == expected, case
        hits += 1
    assert hits >= 100  # the sweep must mostly exercise the non-empty path


@criterion(9, "default matching thresholds")
def test_criterion_9_default_matching_thresholds():
    """Defaults are pinned, and the grasp gates reject just past each edge."""
    t = MatchThresholds()
    assert (t.iou, t.jaccard, t.angle_deg, t.top_n) == (0.5, 0.25, 30.0, 3)

    def scene_pair(gt_rect, pred_rect):
        record = SceneRecord(
            width=640,
            height=480,
            objects=(SceneObject(instance_id=1, category="cup", box=AABox(20.0, 20.0, 180.0, 180.0)),),
            grasps=(SceneGrasp(owner=1, rect=gt_rect),),
            relations=(),
        )
        preds = ScenePredictions()
        preds.detections.append(
            ObjectDetection(box=AABox(20.0, 20.0, 180.0, 180.0), category="cup",
                            score=1.0, instance_id=1)
        )
        preds.grasp_candidates[1] = [GraspCandidate(rect=pred_rect, confidence=1.0)]
        return record, preds

    gt31 = OrientedRect(100.0, 100.0, 31.0, 31.0, 0.0)

    def map_for(pred_rect, gt_rect=gt31):
        record, preds = scene_pair(gt_rect, pred_rect)
        return evaluate([record], [preds]).map_with_grasp

    # sliding a 31-pixel square by 19 gives overlap 12/50 = 0.24 exactly;
    # 63 by 37 gives 26/100 = 0.26
    j24 = OrientedRect(119.0, 100.0, 31.0, 31.0, 0.0)
    assert rotated_jaccard(gt31, j24) == 0.24
    assert map_for(j24) == 0.0

    gt63 = OrientedRect(100.0, 100.0, 63.0, 63.0, 0.0)
    j26 = OrientedRect(137.0, 100.0, 63.0, 63.0, 0.0)
    assert rotated_jaccard(gt63, j26) == 0.26
    assert map_for(j26, gt_rect=gt63) == 1.0

    # same square rotated in place keeps overlap high, so only the angle
    # gate decides these two
    assert map_for(OrientedRect(100.0, 100.0, 31.0, 31.0, 31.0)) == 0.0
    assert map_for(OrientedRect(100.0, 100.0, 31.0, 31.0, 29.0)) == 1.0
