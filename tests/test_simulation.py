import json
import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracle_utils import (
    grid_coverage_fraction,
    numpy_calls_generate_scene,
    predictions_to_json_dict,
    rebuilt_predict,
    rebuilt_run_trial,
)
from stackgrasp import simulation
from stackgrasp._json import DocumentError
from stackgrasp.dataset import SceneGrasp, SceneObject, SceneRecord, scene_to_json_dict, serialize_scene
from stackgrasp.geometry import AABox, OrientedRect, aabb_iou
from stackgrasp.simulation import (
    CATEGORIES,
    SCENE_HEIGHT,
    SCENE_WIDTH,
    LiveScene,
    NoiseModel,
    TrialConfig,
    _coverage_fraction,
    _flip_draws,
    generate_scene,
    number,
    oracle_predict,
    parse_sim_config,
    remove_object,
    run_trial,
    select_target,
    visible,
)

ZERO = NoiseModel()


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


def without(scene, gone):
    """The record with the objects in ``gone``, their grasps and their
    relations filtered out, in their original order: the filter that
    ``rebuilt_run_trial`` applies at each removal."""
    return replace(
        scene,
        objects=tuple(o for o in scene.objects if o.instance_id not in gone),
        grasps=tuple(g for g in scene.grasps if g.owner not in gone),
        relations=tuple(r for r in scene.relations if not gone.intersection(r)),
    )


def regime_config(fields) -> TrialConfig:
    """The config that ``parse_sim_config`` reads from a regime of one
    trial with ``fields`` and the default ``count_range`` unless given."""
    regime = {"count_range": [6, 9], "trials": 1, **fields}
    return parse_sim_config({"regimes": [regime]})[1][0][2]


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
        assert regime_config({"noise": m.to_json_dict()}).noise == m

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown noise fields"):
            regime_config({"noise": {"drop_prob": 0.1, "blur": 1.0}})
        with pytest.raises(ValueError, match="noise must be an object"):
            regime_config({"noise": []})

    @pytest.mark.parametrize(
        "field, value",
        [("drop_prob", "1e-1"), ("box_sigma", True), ("angle_sigma", None), ("score_sigma", [1.0])],
    )
    def test_fields_must_be_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            regime_config({"noise": {field: value}})
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            NoiseModel(**{field: value})

    def test_fields_become_floats(self):
        m = regime_config({"noise": {"box_sigma": 2, "drop_prob": np.float32(0.5)}}).noise
        assert type(m.box_sigma) is float and m.box_sigma == 2.0
        assert type(m.drop_prob) is float and m.drop_prob == 0.5
        assert m.to_json_dict()["box_sigma"] == 2.0


class TestTrialConfig:
    def test_defaults_valid(self):
        cfg = TrialConfig()
        assert cfg.count_range == (6, 9)

    def test_holds_no_seed(self):
        # run_trial(seed, cfg) takes it, so every trial of a regime shares cfg
        assert list(TrialConfig.__dataclass_fields__) == [
            "count_range", "target_rule", "noise", "coverage_threshold", "max_stack_depth"
        ]

    def test_bad_ranges(self):
        with pytest.raises(ValueError, match="count range"):
            TrialConfig(count_range=(0, 5))
        with pytest.raises(ValueError, match="count range"):
            TrialConfig(count_range=(5, 3))
        with pytest.raises(ValueError, match="^max_stack_depth must be non-negative$"):
            TrialConfig(max_stack_depth=-1)

    def test_capacity_limit(self):
        with pytest.raises(ValueError, match="at most 6 objects"):
            TrialConfig(count_range=(1, 7), max_stack_depth=0)
        TrialConfig(count_range=(1, 6), max_stack_depth=0)

    def test_read_from_a_regime(self):
        data = {
            "count_range": [2, 4],
            "target_rule": "deepest",
            "noise": {"relation_flip_prob": 0.1, "box_sigma": 2.0},
            "coverage_threshold": 0.7,
            "max_stack_depth": 2,
        }
        assert regime_config(data) == TrialConfig(
            count_range=(2, 4),
            target_rule="deepest",
            noise=NoiseModel(relation_flip_prob=0.1, box_sigma=2.0),
            coverage_threshold=0.7,
            max_stack_depth=2,
        )
        assert regime_config({}) == TrialConfig()

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"count_range": (2.9, 4)}, "count_range[0]"),
            ({"count_range": (2, True)}, "count_range[1]"),
            ({"count_range": (True, 4)}, "count_range[0]"),
            ({"count_range": (2, 4.0)}, "count_range[1]"),
            ({"max_stack_depth": 2.5}, "max_stack_depth"),
            ({"max_stack_depth": False}, "max_stack_depth"),
        ],
    )
    def test_integer_fields_are_not_truncated(self, fields, name):
        with pytest.raises(ValueError, match=rf"{re.escape(name)} must be an integer"):
            TrialConfig(**fields)
        with pytest.raises(ValueError, match=rf"{re.escape(name)} must be an integer"):
            data = {k: list(v) if isinstance(v, tuple) else v for k, v in fields.items()}
            regime_config(data)

    def test_integer_fields_accept_numpy_integers(self):
        cfg = TrialConfig(count_range=(np.int64(2), np.int64(4)), max_stack_depth=np.int32(2))
        assert cfg.count_range == (2, 4)

    @pytest.mark.parametrize(
        "count_range", [(2, 4), [2, 4], (np.int64(2), np.int32(4)), [np.int64(2), 4]]
    )
    def test_count_range_is_stored_as_an_int_pair(self, count_range):
        cfg = TrialConfig(count_range=count_range)
        assert cfg == TrialConfig(count_range=(2, 4))
        assert hash(cfg) == hash(TrialConfig(count_range=(2, 4)))
        assert type(cfg.count_range) is tuple
        assert [type(v) for v in cfg.count_range] == [int, int]

    @pytest.mark.parametrize("count_range", [5, (2,), (2, 3, 4)])
    def test_count_range_must_be_a_pair(self, count_range):
        with pytest.raises(ValueError, match="count_range must be a pair"):
            TrialConfig(count_range=count_range)

    @pytest.mark.parametrize("value", ["0.5", True, None, [0.5]])
    def test_coverage_threshold_must_be_a_number(self, value):
        with pytest.raises(ValueError, match="coverage_threshold must be a number"):
            regime_config({"coverage_threshold": value})

    @pytest.mark.parametrize("value", [5, None, ["random"]])
    def test_target_rule_must_be_a_string(self, value):
        with pytest.raises(ValueError, match="target_rule must be a string"):
            regime_config({"target_rule": value})

    def test_number(self):
        assert number("x", 3) == 3.0 and type(number("x", 3)) is float
        assert number("x", np.float64(0.25)) == 0.25
        for value in (True, "1", None, 1j):
            with pytest.raises(ValueError, match="x must be a number"):
                number("x", value)

    def test_unknown_regime_fields_rejected(self):
        with pytest.raises(ValueError, match=r"unknown regime fields: \['noize', 'targt_rule'\]"):
            regime_config({"targt_rule": "deepest", "noize": {}})
        # trial seeds come from the config's base seed, never from a regime
        with pytest.raises(ValueError, match="unknown regime fields"):
            regime_config({"seed": 3})

    def test_bad_rule_and_threshold(self):
        with pytest.raises(ValueError, match="target rule"):
            TrialConfig(target_rule="nearest")
        with pytest.raises(ValueError, match="coverage threshold"):
            TrialConfig(coverage_threshold=0.0)


class TestParseSimConfig:
    CONFIG = {
        "seed": 5,
        "regimes": [
            {"name": "shallow", "count_range": [2, 4], "trials": 500},
            {"count_range": [6, 9], "trials": 3, "target_rule": "deepest",
             "noise": {"relation_flip_prob": 0.1, "box_sigma": 2}},
        ],
    }

    def test_reads_text_or_document(self):
        expected = (
            5,
            [
                ("shallow", 500, TrialConfig(count_range=(2, 4))),
                (
                    "regime1",
                    3,
                    TrialConfig(
                        count_range=(6, 9), target_rule="deepest",
                        noise=NoiseModel(relation_flip_prob=0.1, box_sigma=2.0),
                    ),
                ),
            ],
        )
        assert parse_sim_config(self.CONFIG) == expected
        assert parse_sim_config(json.dumps(self.CONFIG)) == expected
        assert parse_sim_config({"regimes": self.CONFIG["regimes"]})[0] == 0

    @pytest.mark.parametrize(
        "edit, where, message",
        [
            ({"sed": 7}, "$", r"unknown config fields: \['sed'\]"),
            ({"seed": -1}, "$", "seed must be non-negative"),
            ({"seed": 1.5}, "$", "seed must be an integer"),
            ({"regimes": []}, "regimes", "missing or not a non-empty list"),
            ({"regimes": {}}, "regimes", "missing or not a non-empty list"),
            ({"regimes": [5]}, "regimes[0]", "needs at least 'count_range' and 'trials'"),
            ({"regimes": [{"count_range": [2, 4], "trials": 1, "top_n": 3}]}, "regimes[0]",
             "unknown regime fields"),
            ({"regimes": [{"count_range": [2, 4], "trials": 1, "name": "a/b"}]}, "regimes[0]",
             "path separator"),
        ],
    )
    def test_errors_carry_the_json_path(self, edit, where, message):
        with pytest.raises(DocumentError, match=message) as exc:
            parse_sim_config({**self.CONFIG, **edit})
        assert exc.value.where == where

    def test_duplicate_name_is_the_later_regime(self):
        regime = {"name": "a", "count_range": [2, 4], "trials": 1}
        with pytest.raises(DocumentError, match="duplicate regime name 'a'") as exc:
            parse_sim_config({"regimes": [regime, regime]})
        assert exc.value.where == "regimes[1]"

    @pytest.mark.parametrize("source", ["[1, 2]", "null", [], "{"])
    def test_top_level_must_be_an_object(self, source):
        with pytest.raises(DocumentError) as exc:
            parse_sim_config(source)
        assert exc.value.where == "$"


class TestGenerateScene:
    def test_deterministic(self):
        cfg = TrialConfig()
        a = generate_scene(123, cfg)
        b = generate_scene(123, cfg)
        assert serialize_scene(a) == serialize_scene(b)

    def test_different_seeds_differ(self):
        cfg = TrialConfig()
        a = generate_scene(1, cfg)
        b = generate_scene(2, cfg)
        assert serialize_scene(a) != serialize_scene(b)

    @pytest.mark.parametrize("count_range", [(2, 5), (6, 9)])
    def test_invariants(self, count_range):
        cfg = TrialConfig(count_range=count_range)
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


class TestVisible:
    def test_uncovered_and_covered(self):
        live = LiveScene(stack_scene())
        assert visible(live, 3, 0.8)  # top of the stack
        assert visible(live, 4, 0.8)
        # 2 is covered by 3 over (100/160)^2 = 39%: still visible
        assert visible(live, 2, 0.8)
        # 1 is covered by 2 over (160/200)^2 = 64% and by 3 (subset): visible
        assert visible(live, 1, 0.8)
        # tighten the threshold below 64%
        assert not visible(live, 1, coverage_threshold=0.6)

    def test_union_not_double_counted(self):
        # two half-covers overlap on a quarter: union is 3/4, sum would be 1
        base = obj(1, 0, 0, 100, 100)
        left = obj(2, 0, 0, 50, 100)
        lower = obj(3, 0, 0, 100, 50)
        live = LiveScene(scene_of(base, left, lower, relations={(2, 1), (3, 1)}))
        assert visible(live, 1, coverage_threshold=0.8)
        assert not visible(live, 1, coverage_threshold=0.75)

    def test_full_cover(self):
        base = obj(1, 10, 10, 90, 90)
        lid = obj(2, 10, 10, 90, 90)
        live = LiveScene(scene_of(base, lid, relations={(2, 1)}))
        assert not visible(live, 1, 0.8)
        assert visible(live, 2, 0.8)

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="no object 9"):
            visible(LiveScene(stack_scene()), 9, 0.8)


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
            scene = generate_scene(seed, TrialConfig(count_range=count_range))
            live = LiveScene(scene)
            while scene.objects:
                shown = oracle_predict(live, ZERO, np.random.default_rng(seed), threshold)
                expected = []
                boxes = {o.instance_id: o.box for o in scene.objects}
                for o in scene.objects:
                    covers = [boxes[a] for a, b in scene.relations if b == o.instance_id]
                    seen = grid_coverage_fraction(o.box, covers) < threshold
                    assert visible(live, o.instance_id, threshold) == seen
                    if seen:
                        expected.append(o.instance_id)
                assert [d.instance_id for d in shown.detections] == expected
                removed = scene.objects[seed % len(scene.objects)].instance_id
                remove_object(live, removed)
                scene = without(scene, {removed})


class TestOraclePredict:
    def test_zero_noise_reports_exact_visible_truth(self):
        scene = stack_scene()
        preds = oracle_predict(LiveScene(scene), ZERO, np.random.default_rng(0), 0.8)
        assert [d.instance_id for d in preds.detections] == [1, 2, 3, 4]
        boxes = {o.instance_id: o.box for o in scene.objects}
        for d in preds.detections:
            assert d.box == boxes[d.instance_id]
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
        live = LiveScene(scene_of(base, lid, relations={(2, 1)}))
        preds = oracle_predict(live, ZERO, np.random.default_rng(0), 0.8)
        assert [d.instance_id for d in preds.detections] == [2]
        assert preds.relations == {}

    def test_drop_prob_one_detects_nothing(self):
        preds = oracle_predict(
            LiveScene(stack_scene()), NoiseModel(drop_prob=1.0), np.random.default_rng(0), 0.8
        )
        assert preds.detections == []

    def test_flip_sets_nest_across_probabilities(self):
        live = LiveScene(stack_scene())
        flipped_by_p = {}
        truth = {
            pair: probs
            for pair, probs in oracle_predict(
                live, ZERO, np.random.default_rng(42), 0.8
            ).relations.items()
        }
        for p in (0.1, 0.2, 0.4):
            preds = oracle_predict(
                live, NoiseModel(relation_flip_prob=p), np.random.default_rng(42), 0.8
            )
            flipped_by_p[p] = {
                pair for pair, probs in preds.relations.items() if probs != truth[pair]
            }
        assert flipped_by_p[0.1] <= flipped_by_p[0.2] <= flipped_by_p[0.4]

    def test_box_jitter_always_well_formed(self):
        live = LiveScene(stack_scene())
        rng = np.random.default_rng(11)
        for _ in range(50):
            preds = oracle_predict(live, NoiseModel(box_sigma=80.0), rng, 0.8)
            for d in preds.detections:
                assert d.box.xmax > d.box.xmin
                assert d.box.ymax > d.box.ymin
                assert 0.0 <= d.score <= 1.0


def live_levels(live):
    """``levels`` of a live scene, from the ids above each object."""
    return {i: sum(1 for over in live.above.values() if i in over) for i in live.objects}


class TestRemoveObject:
    def test_levels_recomputed(self):
        scene = stack_scene()
        # 3 sits two levels up until the middle object leaves
        assert levels(scene) == {1: 0, 2: 1, 3: 2, 4: 0}
        live = LiveScene(scene)
        assert remove_object(live, 2) is None
        assert list(live.objects) == [1, 3, 4]
        assert live.rects == {i: [g.rect for g in scene.grasps_of(i)] for i in (1, 3, 4)}
        assert live.above == {1: {3}, 3: set(), 4: set()}
        assert live_levels(live) == {1: 0, 3: 1, 4: 0}

    def test_remove_top(self):
        live = LiveScene(stack_scene())
        remove_object(live, 3)
        assert live.above == {1: {2}, 2: set(), 4: set()}
        assert live_levels(live) == {1: 0, 2: 1, 4: 0}

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="no object 9"):
            remove_object(LiveScene(stack_scene()), 9)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32), depth=st.integers(0, 4), data=st.data())
    def test_matches_fresh_index(self, seed, depth, data):
        """After each removal, in any order, the index equals one built on
        the record with the removed objects filtered out, in its order and
        in its coverages, which are all asked for so that a stale cached
        one would show at the next removal."""
        hi = data.draw(st.integers(1, min(24, 6 * (1 + depth))))
        cfg = TrialConfig(count_range=(data.draw(st.integers(1, hi)), hi), max_stack_depth=depth)
        scene = generate_scene(seed, cfg)
        order = data.draw(st.permutations([o.instance_id for o in scene.objects]))
        live = LiveScene(scene)
        gone = set()
        for removed in order:
            remove_object(live, removed)
            gone.add(removed)
            fresh = LiveScene(without(scene, gone))
            assert list(live.objects.items()) == list(fresh.objects.items())
            assert list(live.rects.items()) == list(fresh.rects.items())
            assert live.above == fresh.above
            assert [live.coverage(i) for i in live.objects] == [fresh.coverage(i) for i in fresh.objects]


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
        cfg = TrialConfig(count_range=(4, 6))
        a = run_trial(77, cfg)
        b = run_trial(77, cfg)
        assert a.to_json_dict() == b.to_json_dict()

    def test_zero_noise_always_succeeds(self):
        for seed in range(25):
            log = run_trial(seed, TrialConfig(count_range=(4, 7)))
            assert log.reason == "target_removed"
            assert all(s.order_valid for s in log.steps)
            assert log.steps[-1].removed == log.target
            assert len(log.steps) <= len(log.scene.objects)
            assert log.to_json_dict()["outcome"]["success"]

    def test_final_step_claims_target(self):
        log = run_trial(3, TrialConfig(count_range=(4, 7)))
        assert log.steps[-1].claimed_final
        assert all(not s.claimed_final for s in log.steps[:-1])

    def test_drop_everything_stops_early(self):
        log = run_trial(5, TrialConfig(count_range=(2, 4), noise=NoiseModel(drop_prob=1.0)))
        assert log.reason == "no_detections"
        assert log.steps == ()
        assert not log.to_json_dict()["outcome"]["success"]

    def test_log_json_shape(self):
        log = run_trial(9, TrialConfig(count_range=(2, 4)))
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


_PROBS = st.floats(0.0, 1.0)
_SIGMAS = st.floats(0.0, 10.0)


@st.composite
def _trial_configs(draw):
    """Any valid TrialConfig with up to 24 objects: every noise field,
    stack depths 0 to 4, both target rules and thresholds in (0, 1]."""
    depth = draw(st.integers(0, 4))
    hi = draw(st.integers(1, min(24, 6 * (1 + depth))))
    noise = NoiseModel(
        drop_prob=draw(_PROBS),
        box_sigma=draw(_SIGMAS),
        angle_sigma=draw(_SIGMAS),
        relation_flip_prob=draw(_PROBS),
        score_sigma=draw(_SIGMAS),
    )
    return TrialConfig(
        count_range=(draw(st.integers(1, hi)), hi),
        target_rule=draw(st.sampled_from(["random", "deepest"])),
        noise=noise,
        coverage_threshold=draw(st.floats(0.0, 1.0, exclude_min=True)),
        max_stack_depth=depth,
    )


_NOISY = NoiseModel(
    drop_prob=0.7, box_sigma=2.0, angle_sigma=5.0, relation_flip_prob=0.3, score_sigma=0.2
)


class TestStepCalls:
    """run_trial calls the per-step functions through the module globals,
    which is how perfbench's tracer finds them: once a step each, and one
    more prediction when nothing is detected."""

    @pytest.mark.parametrize(
        "seed, cfg",
        [
            (2, TrialConfig(noise=_NOISY)),  # no detections after 4 steps
            (4, TrialConfig(noise=_NOISY)),  # no detections at the first step
            (6, TrialConfig(noise=_NOISY)),  # target removed at step 7
            (6, TrialConfig(noise=NoiseModel(relation_flip_prob=0.5, drop_prob=0.5), count_range=(1, 24))),
            (
                2,
                TrialConfig(
                    noise=NoiseModel(box_sigma=3.0, angle_sigma=4.0),
                    count_range=(6, 12),
                    max_stack_depth=2,
                    coverage_threshold=0.7,
                ),
            ),
        ],
        ids=[f"cfg{i}" for i in range(5)],
    )
    def test_each_step_calls_through_the_module(self, seed, cfg):
        calls = {}

        def counted(name):
            f = getattr(simulation, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return f(*args, **kwargs)

            return wrapper

        names = ("oracle_predict", "visible", "remove_object")
        with mock.patch.multiple(simulation, **{n: counted(n) for n in names}):
            log = run_trial(seed, cfg)
        steps = len(log.steps)
        assert calls.get("visible", 0) == calls.get("remove_object", 0) == steps
        assert calls["oracle_predict"] == steps + (log.reason == "no_detections")


class TestTrialEnds:
    """Each step removes one live, detected object, so the target is gone by
    the last step at the latest: a trial ends on the target or on a step
    that detects nothing."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32), cfg=_trial_configs())
    def test_target_removed_or_nothing_detected(self, seed, cfg):
        log = run_trial(seed, cfg)
        assert log.reason in ("target_removed", "no_detections")
        assert len(log.steps) <= len(log.scene.objects)
        # a step that detects nothing still has the target in the scene
        if log.reason == "no_detections":
            assert len(log.steps) < len(log.scene.objects)
        removed_target = bool(log.steps) and log.steps[-1].removed == log.target
        assert removed_target == (log.reason == "target_removed")


class TestTrialOracle:
    """run_trial keeps one index of the live scene; the oracle rebuilds the
    scene record at every removal and every coverage at every step."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32), cfg=_trial_configs())
    def test_matches_rebuilt_loop(self, seed, cfg):
        coverages = []
        remove = simulation.remove_object

        def remove_and_record(live, instance_id):
            remove(live, instance_id)
            coverages.append([(i, live.coverage(i)) for i in live.objects])

        with mock.patch.object(simulation, "remove_object", remove_and_record):
            log = run_trial(seed, cfg)
        expected_log, expected_coverages = rebuilt_run_trial(seed, cfg)
        assert log.to_json_dict() == expected_log.to_json_dict()
        assert coverages == expected_coverages

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        count_range=st.sampled_from([(2, 4), (6, 9), (12, 24)]),
        pending=st.booleans(),
        flip=_PROBS,
        threshold=st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_predictions_match_scalar_draws(self, seed, count_range, pending, flip, threshold):
        scene = generate_scene(seed, TrialConfig(count_range=count_range))
        noise = NoiseModel(relation_flip_prob=flip, box_sigma=1.0)
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        if pending:
            rng.integers(0, 2)
            twin.integers(0, 2)
        got = oracle_predict(LiveScene(scene), noise, rng, threshold)
        want = rebuilt_predict(scene, noise, twin, threshold)
        assert predictions_to_json_dict(got) == predictions_to_json_dict(want)
        assert rng.bit_generator.state == twin.bit_generator.state


class TestRawDraws:
    """Each primitive of the scene generator's raw-word decoder gives what
    the same call on ``np.random.default_rng(seed)`` gives, in any order,
    rejected draws included."""

    @staticmethod
    def numpy_call(rng, op, arg):
        if op == "random":
            return rng.random()
        if op == "uniform":
            return rng.uniform(*arg)
        if op == "sample_all":
            return rng.choice(arg, size=arg, replace=False).tolist()
        return int(rng.integers(*arg))

    @staticmethod
    def decoded(draws, op, arg):
        if op == "random":
            return draws.random()
        if op == "uniform":
            return draws.uniform(*arg)
        if op == "sample_all":
            return draws.sample_all(arg)
        return draws.integers(*arg)

    _WIDTHS = st.one_of(
        st.integers(1, 200),
        st.integers(1, 2**32),
        st.sampled_from([1, 2, 2**31 - 1, 2**31 + 1, 3 * 2**30 + 1, 2**32 - 1, 2**32]),
    )
    _CALLS = st.one_of(
        st.tuples(st.just("random"), st.none()),
        st.tuples(
            st.just("uniform"),
            st.sampled_from([(0.92, 0.97), (0.34, 0.46), (-0.05, 0.05), (0.45, 0.6), (0.25, 0.4), (-90.0, 90.0)])
            | st.tuples(st.floats(-1e9, 1e9), st.floats(-1e9, 1e9)).map(sorted).map(tuple),
        ),
        st.tuples(st.just("sample_all"), st.integers(1, 12)),
        st.tuples(
            st.just("integers"),
            st.builds(lambda lo, width: (lo, lo + width), st.integers(-(2**40), 2**40), _WIDTHS),
        ),
    )

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), calls=st.lists(_CALLS, max_size=60))
    def test_matches_numpy_calls(self, seed, calls):
        rng, draws = np.random.default_rng(seed), simulation._RawDraws(seed)
        for op, arg in calls:
            assert self.decoded(draws, op, arg) == self.numpy_call(rng, op, arg), (op, arg)

    @pytest.mark.parametrize("hi", [2**31 + 1, 3 * 2**30 + 1, 2**32 - 3])
    def test_ranges_that_reject_often(self, hi):
        # integers(0, 2**31 + 1) rejects about half its 32-bit draws, so
        # one draw that rejects wrongly shifts every value after it
        rng, draws = np.random.default_rng(7), simulation._RawDraws(7)
        want = rng.integers(0, hi, size=2000).tolist()
        assert [draws.integers(0, hi) for _ in range(2000)] == want
        assert draws.random() == rng.random()

    def test_a_zero_width_range_draws_nothing(self):
        rng, draws = np.random.default_rng(3), simulation._RawDraws(3)
        got = [draws.integers(0, 3), draws.integers(5, 6), draws.integers(0, 3), draws.random()]
        want = [int(rng.integers(0, 3)), int(rng.integers(5, 6)), int(rng.integers(0, 3)), rng.random()]
        assert got == want and got[1] == 5
        assert [draws.sample_all(1), draws.integers(0, 9)] == [[0], int(rng.integers(0, 9))]


class TestSceneOracle:
    """generate_scene decodes its draws from raw words; the oracle makes
    numpy's scalar calls, and both must build the same scene."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), cfg=_trial_configs())
    def test_equals_the_numpy_call_oracle(self, seed, cfg):
        got = scene_to_json_dict(generate_scene(seed, cfg))
        assert got == scene_to_json_dict(numpy_calls_generate_scene(seed, cfg))


class TestFlipDraws:
    """The raw-word decoder gives what the scalar calls give and leaves the
    generator where they leave it."""

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(0, 600), pending=st.booleans(), seed=st.integers(0, 2**64 - 1))
    def test_matches_scalar_calls(self, m, pending, seed):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        if pending:
            rng.integers(0, 2)
            twin.integers(0, 2)
        got = _flip_draws(rng, m)
        assert got == [(twin.random(), int(twin.integers(0, 2))) for _ in range(m)]
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("bits", [np.random.MT19937, np.random.Philox])
    def test_other_bit_generators_make_scalar_calls(self, bits):
        rng, twin = np.random.Generator(bits(3)), np.random.Generator(bits(3))
        got = _flip_draws(rng, 9)
        assert got == [(twin.random(), int(twin.integers(0, 2))) for _ in range(9)]
        assert rng.integers(0, 2**32, size=4).tolist() == twin.integers(0, 2**32, size=4).tolist()
