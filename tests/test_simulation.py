import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracle_utils import grid_coverage_fraction
from stackgrasp.dataset import SceneGrasp, SceneObject, SceneRecord, serialize_scene
from stackgrasp.geometry import AABox, OrientedRect, aabb_iou
from stackgrasp.simulation import (
    CATEGORIES,
    LEVEL_STEP_MM,
    SCENE_HEIGHT,
    SCENE_WIDTH,
    TABLE_DEPTH_MM,
    NoiseModel,
    TrialConfig,
    _coverage_fraction,
    depth_image,
    generate_scene,
    number,
    oracle_predict,
    remove_object,
    run_trial,
    select_target,
    visible,
)

ZERO = NoiseModel()


def cfg_with(seed, **kw):
    return TrialConfig(seed=seed, **kw)


def obj(instance_id, x0, y0, x1, y1, category="cup"):
    return SceneObject(
        instance_id=instance_id,
        category=category,
        box=AABox(float(x0), float(y0), float(x1), float(y1)),
    )


def scene_of(*objects, relations=()):
    """640x480 scene with one centred grasp per object."""
    grasps = tuple(
        SceneGrasp(
            owner=o.instance_id,
            rect=OrientedRect(
                (o.box.xmin + o.box.xmax) / 2.0,
                (o.box.ymin + o.box.ymax) / 2.0,
                (o.box.xmax - o.box.xmin) / 2.0,
                4.0,
                0.0,
            ),
        )
        for o in objects
    )
    return SceneRecord(
        width=640,
        height=480,
        objects=objects,
        grasps=grasps,
        relations=tuple(sorted(relations)),
    )


def stack_scene():
    """3 nested in 2 nested in 1, plus a free object 4."""
    return scene_of(
        obj(1, 100, 100, 300, 300),
        obj(2, 120, 120, 280, 280),
        obj(3, 150, 150, 250, 250),
        obj(4, 400, 100, 500, 200),
        relations={(2, 1), (3, 2), (3, 1)},
    )


def levels(scene):
    """Stack level of each object: the number of objects it rests on."""
    return {
        o.instance_id: sum(1 for (a, _) in scene.relations if a == o.instance_id)
        for o in scene.objects
    }


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(ValueError, match="drop_prob"):
            NoiseModel(drop_prob=1.5)
        with pytest.raises(ValueError, match="relation_flip_prob"):
            NoiseModel(relation_flip_prob=-0.1)
        with pytest.raises(ValueError, match="box_sigma"):
            NoiseModel(box_sigma=-1.0)

    def test_json_round_trip(self):
        m = NoiseModel(drop_prob=0.1, box_sigma=2.0, relation_flip_prob=0.3)
        assert NoiseModel.from_json_dict(m.to_json_dict()) == m

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown noise fields"):
            NoiseModel.from_json_dict({"drop_prob": 0.1, "blur": 1.0})

    @pytest.mark.parametrize(
        "field, value",
        [("drop_prob", "1e-1"), ("box_sigma", True), ("angle_sigma", None), ("score_sigma", [1.0])],
    )
    def test_fields_must_be_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            NoiseModel.from_json_dict({field: value})
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            NoiseModel(**{field: value})

    def test_fields_become_floats(self):
        m = NoiseModel.from_json_dict({"box_sigma": 2, "drop_prob": np.float32(0.5)})
        assert type(m.box_sigma) is float and m.box_sigma == 2.0
        assert type(m.drop_prob) is float and m.drop_prob == 0.5
        assert m.to_json_dict()["box_sigma"] == 2.0


class TestTrialConfig:
    def test_defaults_valid(self):
        cfg = TrialConfig(seed=0)
        assert cfg.count_range == (6, 9)

    def test_bad_ranges(self):
        with pytest.raises(ValueError, match="count range"):
            TrialConfig(seed=0, count_range=(0, 5))
        with pytest.raises(ValueError, match="count range"):
            TrialConfig(seed=0, count_range=(5, 3))

    def test_max_steps_must_cover_objects(self):
        with pytest.raises(ValueError, match="max_steps"):
            TrialConfig(seed=0, count_range=(2, 5), max_steps=4)

    def test_capacity_limit(self):
        with pytest.raises(ValueError, match="at most 6 objects"):
            TrialConfig(seed=0, count_range=(1, 7), max_stack_depth=0)
        TrialConfig(seed=0, count_range=(1, 6), max_stack_depth=0)

    def test_from_json_dict(self):
        data = {
            "count_range": [2, 4],
            "target_rule": "deepest",
            "max_steps": 6,
            "noise": {"relation_flip_prob": 0.1, "box_sigma": 2.0},
            "coverage_threshold": 0.7,
            "max_stack_depth": 2,
            "top_n": 1,
        }
        assert TrialConfig.from_json_dict(data) == TrialConfig(
            seed=0,
            count_range=(2, 4),
            target_rule="deepest",
            max_steps=6,
            noise=NoiseModel(relation_flip_prob=0.1, box_sigma=2.0),
            coverage_threshold=0.7,
            max_stack_depth=2,
            top_n=1,
        )
        assert TrialConfig.from_json_dict({}) == TrialConfig(seed=0)

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"count_range": (2.9, 4)}, "count_range[0]"),
            ({"count_range": (2, True)}, "count_range[1]"),
            ({"max_steps": 9.0}, "max_steps"),
            ({"max_steps": False}, "max_steps"),
            ({"max_stack_depth": 2.5}, "max_stack_depth"),
            ({"top_n": 1.5}, "top_n"),
            ({"top_n": True}, "top_n"),
        ],
    )
    def test_integer_fields_are_not_truncated(self, fields, name):
        with pytest.raises(ValueError, match=rf"{re.escape(name)} must be an integer"):
            TrialConfig(seed=0, **fields)
        with pytest.raises(ValueError, match=rf"{re.escape(name)} must be an integer"):
            data = {k: list(v) if isinstance(v, tuple) else v for k, v in fields.items()}
            TrialConfig.from_json_dict(data)

    def test_integer_fields_accept_numpy_integers(self):
        cfg = TrialConfig(seed=0, count_range=(np.int64(2), np.int64(4)), top_n=np.int32(2))
        assert cfg.count_range == (2, 4)

    @pytest.mark.parametrize("count_range", [5, (2,), (2, 3, 4)])
    def test_count_range_must_be_a_pair(self, count_range):
        with pytest.raises(ValueError, match="count_range must be a pair"):
            TrialConfig(seed=0, count_range=count_range)

    @pytest.mark.parametrize("value", ["0.5", True, None, [0.5]])
    def test_coverage_threshold_must_be_a_number(self, value):
        with pytest.raises(ValueError, match="coverage_threshold must be a number"):
            TrialConfig.from_json_dict({"coverage_threshold": value})

    @pytest.mark.parametrize("value", [5, None, ["random"]])
    def test_target_rule_must_be_a_string(self, value):
        with pytest.raises(ValueError, match="target_rule must be a string"):
            TrialConfig.from_json_dict({"target_rule": value})

    def test_number(self):
        assert number("x", 3) == 3.0 and type(number("x", 3)) is float
        assert number("x", np.float64(0.25)) == 0.25
        for value in (True, "1", None, 1j):
            with pytest.raises(ValueError, match="x must be a number"):
                number("x", value)

    def test_from_json_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match=r"unknown regime fields: \['noize', 'targt_rule'\]"):
            TrialConfig.from_json_dict({"targt_rule": "deepest", "noize": {}})
        # trial seeds come from the config's base seed, never from a regime
        with pytest.raises(ValueError, match="unknown regime fields"):
            TrialConfig.from_json_dict({"seed": 3})
        with pytest.raises(ValueError, match="must be an object"):
            TrialConfig.from_json_dict([])

    def test_bad_rule_and_threshold(self):
        with pytest.raises(ValueError, match="target rule"):
            TrialConfig(seed=0, target_rule="nearest")
        with pytest.raises(ValueError, match="coverage threshold"):
            TrialConfig(seed=0, coverage_threshold=0.0)


class TestGenerateScene:
    def test_deterministic(self):
        cfg = cfg_with(0)
        a = generate_scene(123, cfg)
        b = generate_scene(123, cfg)
        assert serialize_scene(a) == serialize_scene(b)

    def test_different_seeds_differ(self):
        cfg = cfg_with(0)
        a = generate_scene(1, cfg)
        b = generate_scene(2, cfg)
        assert serialize_scene(a) != serialize_scene(b)

    @pytest.mark.parametrize("count_range", [(2, 5), (6, 9)])
    def test_invariants(self, count_range):
        cfg = cfg_with(0, count_range=count_range)
        for seed in range(30):
            scene = generate_scene(seed, cfg)
            objs = {o.instance_id: o for o in scene.objects}
            level = levels(scene)
            lo, hi = count_range
            assert lo <= len(objs) <= hi
            assert scene.width == SCENE_WIDTH and scene.height == SCENE_HEIGHT
            # grasps come in object order, relations sorted
            assert [g.owner for g in scene.grasps] == sorted(g.owner for g in scene.grasps)
            assert scene.relations == tuple(sorted(scene.relations))
            for o in objs.values():
                b = o.box
                assert 0 <= b.xmin < b.xmax <= SCENE_WIDTH
                assert 0 <= b.ymin < b.ymax <= SCENE_HEIGHT
                assert o.category in CATEGORIES
                assert 1 <= len(scene.grasps_of(o.instance_id)) <= 3
                for g in scene.grasps_of(o.instance_id):
                    assert b.xmin <= g.rect.x <= b.xmax
                    assert b.ymin <= g.rect.y <= b.ymax
                    assert -90.0 <= g.rect.theta < 90.0
            for (a, below) in scene.relations:
                upper, lower = objs[a].box, objs[below].box
                assert upper.xmin >= lower.xmin and upper.xmax <= lower.xmax
                assert upper.ymin >= lower.ymin and upper.ymax <= lower.ymax
                assert level[a] > level[below]
            ids = sorted(objs)
            for i in ids:
                for j in ids:
                    if i >= j:
                        continue
                    related = (i, j) in scene.relations or (j, i) in scene.relations
                    if not related:
                        assert aabb_iou(objs[i].box, objs[j].box) == 0.0
            # transitive closure
            for (a, b) in scene.relations:
                for (c, d) in scene.relations:
                    if b == c:
                        assert (a, d) in scene.relations
            # the objects underneath form one chain, so their count is the
            # stack height: one more than the highest support's
            for i in ids:
                supports = [b for (a, b) in scene.relations if a == i]
                assert level[i] == 1 + max((level[s] for s in supports), default=-1)

    def test_depth_respects_stacking(self):
        scene = generate_scene(7, cfg_with(0))
        depth = depth_image(scene)
        level = levels(scene)
        top = max(scene.objects, key=lambda o: level[o.instance_id])
        b = top.box
        cu = int((b.xmin + b.xmax) / 2)
        cv = int((b.ymin + b.ymax) / 2)
        assert level[top.instance_id] > 0
        assert depth.values[cv, cu] == TABLE_DEPTH_MM - LEVEL_STEP_MM * (level[top.instance_id] + 1)
        assert depth.values[0, 0] == TABLE_DEPTH_MM


class TestVisible:
    def test_uncovered_and_covered(self):
        scene = stack_scene()
        assert visible(scene, 3)  # top of the stack
        assert visible(scene, 4)
        # 2 is covered by 3 over (100/160)^2 = 39%: still visible
        assert visible(scene, 2)
        # 1 is covered by 2 over (160/200)^2 = 64% and by 3 (subset): visible
        assert visible(scene, 1)
        # tighten the threshold below 64%
        assert not visible(scene, 1, coverage_threshold=0.6)

    def test_union_not_double_counted(self):
        # two half-covers overlap on a quarter: union is 3/4, sum would be 1
        base = obj(1, 0, 0, 100, 100)
        left = obj(2, 0, 0, 50, 100)
        lower = obj(3, 0, 0, 100, 50)
        scene = scene_of(base, left, lower, relations={(2, 1), (3, 1)})
        assert visible(scene, 1, coverage_threshold=0.8)
        assert not visible(scene, 1, coverage_threshold=0.75)

    def test_full_cover(self):
        base = obj(1, 10, 10, 90, 90)
        lid = obj(2, 10, 10, 90, 90)
        scene = scene_of(base, lid, relations={(2, 1)})
        assert not visible(scene, 1)
        assert visible(scene, 2)

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="no object 9"):
            visible(stack_scene(), 9)


# One float and its neighbours: a cell one ulp wide has its centre on an
# edge, where the inclusive centre test decides.
_ULP = [v for x in (0.5, 3.0) for v in (math.nextafter(x, -1.0), x, math.nextafter(x, 20.0))]
# Coordinates from a small shared pool make shared and touching edges
# common; free floats and thirds make cells whose sums round.
_COORDS = st.one_of(
    st.integers(-4, 16).map(float),
    st.sampled_from([0.1, 0.2, 0.30000000000000004, 1 / 3, 2 / 3, 2.5, 7.1, *_ULP]),
    st.floats(-4.0, 16.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def _boxes(draw, coords=_COORDS):
    x0, x1 = sorted(draw(st.lists(coords, min_size=2, max_size=2, unique=True)))
    y0, y1 = sorted(draw(st.lists(coords, min_size=2, max_size=2, unique=True)))
    assume((x1 - x0) * (y1 - y0) > 0.0)  # AABox rejects an area that underflows
    return AABox(x0, y0, x1, y1)


@st.composite
def _covers(draw):
    """0 to 9 covers, some of them repeated, that may reach outside the
    target (which lies in [0, 12] on both axes) or miss it."""
    covers = draw(st.lists(_boxes(), max_size=9))
    if covers:
        repeats = draw(st.lists(st.integers(0, len(covers) - 1), max_size=9 - len(covers)))
        covers += [covers[i] for i in repeats]
    return draw(st.permutations(covers))


class TestCoverageOracle:
    """The coverage fraction equals the all-cells grid sum exactly: the same
    cells, products and summation order."""

    @settings(max_examples=500, deadline=None)
    @given(target=_boxes(st.integers(0, 12).map(float) | st.floats(0.0, 12.0)), covers=_covers())
    def test_matches_grid(self, target, covers):
        assert _coverage_fraction(target, covers) == grid_coverage_fraction(target, covers)

    @settings(max_examples=300, deadline=None)
    @given(
        target=_boxes(st.integers(0, 40)),
        covers=st.lists(_boxes(st.integers(-5, 45)), max_size=9),
    )
    def test_matches_grid_on_integer_boxes(self, target, covers):
        assert _coverage_fraction(target, covers) == grid_coverage_fraction(target, covers)

    def test_shared_and_touching_edges(self):
        target = AABox(0.0, 0.0, 1.0, 1.0)
        covers = [
            AABox(0.0, 0.0, 0.1, 1.0),
            AABox(0.1, 0.0, 0.30000000000000004, 0.5),
            AABox(0.1, 0.5, 0.7, 1.0),
            AABox(1.0, 0.0, 2.0, 1.0),  # touches the target only along an edge
            AABox(0.1, 0.0, 0.30000000000000004, 0.5),
        ]
        assert _coverage_fraction(target, covers) == grid_coverage_fraction(target, covers)
        assert _coverage_fraction(target, covers[3:4]) == 0.0

    def test_one_ulp_cells(self):
        # each cell centre rounds onto a box edge, which counts as inside
        lo, hi = math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)
        target = AABox(0.0, 0.0, 1.0, 1.0)
        for covers in (
            [AABox(0.5, 0.0, hi, 1.0)],
            [AABox(lo, 0.0, 0.5, 1.0)],
            [AABox(0.0, 0.5, 1.0, hi)],
            [AABox(0.0, lo, 1.0, 0.5)],
            [AABox(0.0, 0.0, 0.5, 0.5), AABox(0.5, 0.5, hi, hi)],
        ):
            fraction = _coverage_fraction(target, covers)
            assert fraction == grid_coverage_fraction(target, covers)
            assert fraction > 0.0

    @pytest.mark.parametrize("threshold", [0.8, 0.5, 0.95])
    @pytest.mark.parametrize("count_range", [(2, 4), (6, 9), (1, 24)])
    def test_visible_agrees_on_generated_scenes(self, count_range, threshold):
        for seed in range(25):
            scene = generate_scene(seed, cfg_with(0, count_range=count_range))
            while scene.objects:
                shown = oracle_predict(scene, ZERO, np.random.default_rng(seed), threshold)
                expected = []
                for o in scene.objects:
                    covers = [
                        scene.object_by_id(a).box for a, b in scene.relations if b == o.instance_id
                    ]
                    seen = grid_coverage_fraction(o.box, covers) < threshold
                    assert visible(scene, o.instance_id, threshold) == seen
                    if seen:
                        expected.append(o.instance_id)
                assert [d.instance_id for d in shown.detections] == expected
                scene = remove_object(scene, scene.objects[seed % len(scene.objects)].instance_id)


class TestOraclePredict:
    def test_zero_noise_reports_exact_visible_truth(self):
        scene = stack_scene()
        preds = oracle_predict(scene, ZERO, np.random.default_rng(0))
        assert [d.instance_id for d in preds.detections] == [1, 2, 3, 4]
        for d in preds.detections:
            assert d.box == scene.object_by_id(d.instance_id).box
            assert d.score == 1.0
            cands = preds.grasp_candidates[d.instance_id]
            assert [c.rect for c in cands] == [g.rect for g in scene.grasps_of(d.instance_id)]
            assert all(c.confidence == 1.0 for c in cands)
        assert preds.relations[(3, 1)] == (0.0, 1.0, 0.0)
        assert preds.relations[(1, 3)] == (0.0, 0.0, 1.0)
        assert preds.relations[(1, 4)] == (1.0, 0.0, 0.0)
        assert len(preds.relations) == 12

    def test_invisible_object_never_reported(self):
        base = obj(1, 10, 10, 90, 90)
        lid = obj(2, 10, 10, 90, 90)
        scene = scene_of(base, lid, relations={(2, 1)})
        preds = oracle_predict(scene, ZERO, np.random.default_rng(0))
        assert [d.instance_id for d in preds.detections] == [2]
        assert preds.relations == {}

    def test_drop_prob_one_detects_nothing(self):
        preds = oracle_predict(
            stack_scene(), NoiseModel(drop_prob=1.0), np.random.default_rng(0)
        )
        assert preds.detections == []

    def test_flip_sets_nest_across_probabilities(self):
        scene = stack_scene()
        flipped_by_p = {}
        truth = {
            pair: probs
            for pair, probs in oracle_predict(
                scene, ZERO, np.random.default_rng(42)
            ).relations.items()
        }
        for p in (0.1, 0.2, 0.4):
            preds = oracle_predict(
                scene, NoiseModel(relation_flip_prob=p), np.random.default_rng(42)
            )
            flipped_by_p[p] = {
                pair for pair, probs in preds.relations.items() if probs != truth[pair]
            }
        assert flipped_by_p[0.1] <= flipped_by_p[0.2] <= flipped_by_p[0.4]

    def test_box_jitter_always_well_formed(self):
        scene = stack_scene()
        rng = np.random.default_rng(11)
        for _ in range(50):
            preds = oracle_predict(scene, NoiseModel(box_sigma=80.0), rng)
            for d in preds.detections:
                assert d.box.xmax > d.box.xmin
                assert d.box.ymax > d.box.ymin
                assert 0.0 <= d.score <= 1.0


class TestRemoveObject:
    def test_levels_recomputed(self):
        scene = stack_scene()
        # 3 sits two levels up until the middle object leaves
        assert depth_image(scene).values[200, 200] == TABLE_DEPTH_MM - 3 * LEVEL_STEP_MM
        after = remove_object(scene, 2)
        assert [o.instance_id for o in after.objects] == [1, 3, 4]
        assert [g.owner for g in after.grasps] == [1, 3, 4]
        assert after.relations == ((3, 1),)
        depth = depth_image(after)
        assert depth.values[200, 200] == TABLE_DEPTH_MM - 2 * LEVEL_STEP_MM  # 3, level 1
        assert depth.values[110, 110] == TABLE_DEPTH_MM - LEVEL_STEP_MM  # 1, level 0

    def test_remove_top(self):
        after = remove_object(stack_scene(), 3)
        assert after.relations == ((2, 1),)
        assert depth_image(after).values[200, 200] == TABLE_DEPTH_MM - 2 * LEVEL_STEP_MM

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="no object 9"):
            remove_object(stack_scene(), 9)


class TestSelectTarget:
    def test_random_is_deterministic_per_seed(self):
        scene = stack_scene()
        a = select_target(scene, "random", np.random.default_rng(5))
        b = select_target(scene, "random", np.random.default_rng(5))
        assert a == b
        assert a in {o.instance_id for o in scene.objects}

    def test_deepest_picks_most_buried(self):
        scene = stack_scene()
        assert select_target(scene, "deepest", np.random.default_rng(0)) == 1

    def test_deepest_tie_prefers_lower_id(self):
        scene = scene_of(obj(4, 0, 0, 50, 50), obj(2, 60, 0, 110, 50))
        assert select_target(scene, "deepest", np.random.default_rng(0)) == 2

    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown target rule"):
            select_target(stack_scene(), "nearest", np.random.default_rng(0))


class TestRunTrial:
    def test_reproducible(self):
        cfg = cfg_with(77, count_range=(4, 6))
        a = run_trial(cfg)
        b = run_trial(cfg)
        assert a.to_json_dict() == b.to_json_dict()

    def test_zero_noise_always_succeeds(self):
        for seed in range(25):
            log = run_trial(cfg_with(seed, count_range=(4, 7)))
            assert log.reason == "target_removed"
            assert all(s.order_valid for s in log.steps)
            assert log.steps[-1].removed == log.target
            assert len(log.steps) <= len(log.scene.objects)
            assert log.to_json_dict()["outcome"]["success"]

    def test_final_step_claims_target(self):
        log = run_trial(cfg_with(3, count_range=(4, 7)))
        assert log.steps[-1].claimed_final
        assert all(not s.claimed_final for s in log.steps[:-1])

    def test_drop_everything_stops_early(self):
        log = run_trial(cfg_with(5, count_range=(2, 4), noise=NoiseModel(drop_prob=1.0)))
        assert log.reason == "no_detections"
        assert log.steps == ()
        assert not log.to_json_dict()["outcome"]["success"]

    def test_log_json_shape(self):
        log = run_trial(cfg_with(9, count_range=(2, 4)))
        data = log.to_json_dict()
        assert set(data) == {"seed", "target", "noise", "scene", "steps", "outcome"}
        assert data["seed"] == 9
        assert data["outcome"]["reason"] == "target_removed"
        assert data["outcome"]["steps_used"] == len(log.steps)
        step = data["steps"][0]
        assert set(step) == {
            "detections",
            "action",
            "removed",
            "order_valid",
            "target_visible",
        }
