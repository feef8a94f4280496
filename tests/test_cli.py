import copy
import faulthandler
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stackgrasp
from stackgrasp.cli import CALIBRATION_WARN_RMS_MM, main
from stackgrasp.dataset import (
    SceneGrasp,
    SceneObject,
    SceneRecord,
    parse_scene,
    record_to_predictions,
    serialize_scene,
)
from stackgrasp.execution import AffineMap, fit_affine
from stackgrasp.geometry import AABox, OrientedRect
from stackgrasp.perception import (
    GraspCandidate,
    ObjectDetection,
    ScenePredictions,
    parse_predictions,
    serialize_predictions,
)

from oracle_utils import per_row_relations, plan_document


def chain_scene() -> SceneRecord:
    """1 on top of 2 on top of 3, and a free object 4."""
    return SceneRecord(
        width=640,
        height=480,
        objects=(
            SceneObject(1, "cup", AABox(120.0, 120.0, 180.0, 180.0)),
            SceneObject(2, "box", AABox(100.0, 100.0, 200.0, 200.0)),
            SceneObject(3, "notebook", AABox(80.0, 80.0, 220.0, 220.0)),
            SceneObject(4, "pen", AABox(400.0, 300.0, 500.0, 340.0)),
        ),
        grasps=(
            SceneGrasp(1, OrientedRect(150.0, 150.0, 40.0, 16.0, 0.0)),
            SceneGrasp(2, OrientedRect(150.0, 150.0, 70.0, 24.0, 45.0)),
            SceneGrasp(3, OrientedRect(150.0, 150.0, 100.0, 30.0, -45.0)),
            SceneGrasp(4, OrientedRect(450.0, 320.0, 80.0, 20.0, 30.5)),
        ),
        relations=((1, 2), (2, 3), (1, 3)),
    )


@pytest.fixture
def scene_file(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(serialize_scene(chain_scene()))
    return path


@pytest.fixture
def pred_file(tmp_path):
    path = tmp_path / "preds.json"
    path.write_text(serialize_predictions(record_to_predictions(chain_scene())))
    return path


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["plot"]) == 1
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert main(["eval", "--gt", "x", "--pred", "y", "--speed", "9"]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "eval" in capsys.readouterr().out


class TestEval:
    def test_ground_truth_scores_itself_perfectly(self, scene_file, capsys):
        code = main(["eval", "--gt", str(scene_file), "--pred", str(scene_file)])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["perception"]["map_with_grasp"] == 1.0
        assert data["reasoning"]["object_pair_recall"] == 1.0
        assert data["reasoning"]["image_accuracy"]["rate"] == 1.0

    def test_prediction_file_input(self, scene_file, pred_file, capsys):
        code = main(["eval", "--gt", str(scene_file), "--pred", str(pred_file)])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["perception"]["map_with_grasp"] == 1.0

    def test_directory_mode_with_out(self, tmp_path, capsys):
        gt_dir = tmp_path / "gt"
        pred_dir = tmp_path / "pred"
        gt_dir.mkdir()
        pred_dir.mkdir()
        for name in ("a.json", "b.json"):
            (gt_dir / name).write_text(serialize_scene(chain_scene()))
            (pred_dir / name).write_text(
                serialize_predictions(record_to_predictions(chain_scene()))
            )
        out = tmp_path / "report.json"
        code = main(
            ["eval", "--gt", str(gt_dir), "--pred", str(pred_dir), "--out", str(out),
             "--pretty"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "mAP (grasp-aware)      1.0000" in printed
        data = json.loads(out.read_text())
        assert data["counts"]["scenes"] == 2

    def test_rerun_is_byte_identical(self, tmp_path, scene_file):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            assert main(
                ["eval", "--gt", str(scene_file), "--pred", str(scene_file),
                 "--out", str(out)]
            ) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_prediction_listed(self, tmp_path, capsys):
        gt_dir = tmp_path / "gt"
        pred_dir = tmp_path / "pred"
        gt_dir.mkdir()
        pred_dir.mkdir()
        (gt_dir / "a.json").write_text(serialize_scene(chain_scene()))
        code = main(["eval", "--gt", str(gt_dir), "--pred", str(pred_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert "missing predictions" in err and "a.json" in err

    def test_corrupt_prediction_file(self, tmp_path, scene_file, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code = main(["eval", "--gt", str(scene_file), "--pred", str(bad)])
        assert code == 2
        assert "bad.json" in capsys.readouterr().err

    def test_mixed_dir_and_file(self, tmp_path, scene_file, capsys):
        code = main(["eval", "--gt", str(tmp_path), "--pred", str(scene_file)])
        assert code == 2
        assert "both" in capsys.readouterr().err

    def test_bad_threshold_is_a_data_error(self, scene_file, capsys):
        code = main(
            ["eval", "--gt", str(scene_file), "--pred", str(scene_file), "--iou", "0"]
        )
        assert code == 2
        capsys.readouterr()

    def test_empty_gt_directory(self, tmp_path, capsys):
        gt_dir = tmp_path / "gt"
        pred_dir = tmp_path / "pred"
        gt_dir.mkdir()
        pred_dir.mkdir()
        assert main(["eval", "--gt", str(gt_dir), "--pred", str(pred_dir)]) == 2
        assert "no .json" in capsys.readouterr().err


class TestPlan:
    def test_buried_target_plan(self, pred_file, capsys):
        code = main(["plan", "--pred", str(pred_file), "--target", "3"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["target"] == {"requested": "3", "resolved": True}
        objects = [a["object"] for a in data["actions"]]
        assert objects == [1, 2, 3]
        assert [a["is_final_target"] for a in data["actions"]] == [False, False, True]
        node_counts = [len(a["graph"]["nodes"]) for a in data["actions"]]
        assert node_counts == [4, 3, 2]
        assert data["actions"][0]["graph"]["edges"] != []

    def test_scene_file_works_as_predictions(self, scene_file, capsys):
        code = main(["plan", "--pred", str(scene_file), "--target", "4"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["actions"][-1]["object"] == 4
        assert data["actions"][-1]["is_final_target"]

    def test_category_target(self, pred_file, capsys):
        code = main(["plan", "--pred", str(pred_file), "--target", "notebook"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert [a["object"] for a in data["actions"]] == [1, 2, 3]

    def test_unresolved_target_rejected(self, pred_file, capsys):
        code = main(["plan", "--pred", str(pred_file), "--target", "99"])
        assert code == 2
        assert "--assume-hidden" in capsys.readouterr().err

    def test_assume_hidden_plans_uncovering(self, pred_file, capsys):
        code = main(
            ["plan", "--pred", str(pred_file), "--target", "99", "--assume-hidden"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["target"]["resolved"] is False
        # with no detected target the plan uncovers everything, leaves first
        objects = [a["object"] for a in data["actions"]]
        assert len(objects) == 4
        assert objects[0] in (1, 4)

    def test_pretty_step_list(self, pred_file, capsys):
        code = main(
            ["plan", "--pred", str(pred_file), "--target", "3", "--pretty"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "step 1: grasp object 1" in out
        assert "step 3: grasp object 3 (target)" in out

    def test_empty_detections_rejected(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"detections": [], "relations": []}')
        assert main(["plan", "--pred", str(path), "--target", "1"]) == 2
        assert "no detections" in capsys.readouterr().err


def dense_predictions(seed: int, n: int = 30) -> ScenePredictions:
    """n objects with random soft relations for every ordered pair, which
    leaves many cycles to repair."""
    rng = np.random.default_rng(seed)
    preds = ScenePredictions()
    for i in range(1, n + 1):
        x, y = (float(v) for v in rng.uniform(0.0, 500.0, 2))
        preds.detections.append(
            ObjectDetection(
                box=AABox(x, y, x + 40.0, y + 30.0),
                category=("cup", "box", "pen")[i % 3],
                score=float(rng.uniform(0.1, 1.0)),
                instance_id=i,
            )
        )
        preds.grasp_candidates[i] = [
            GraspCandidate(OrientedRect(x + 20.0, y + 15.0, 30.0, 10.0, 0.0), 0.9)
        ]
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a != b:
                preds.relations[(a, b)] = tuple(float(p) for p in rng.dirichlet([1.0] * 3))
    return preds


class TestPlanWriter:
    """The plan writer's bytes equal json.dumps of the whole plan document
    (tests/oracle_utils.plan_document)."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize(
        "target, flags", [("7", []), ("cup", []), ("99", ["--assume-hidden"])]
    )
    def test_bytes_match_whole_document_dump(self, tmp_path, capsys, seed, target, flags):
        path = tmp_path / "preds.json"
        path.write_text(serialize_predictions(dense_predictions(seed)))
        doc = plan_document(parse_predictions(path.read_text()), target)
        assert doc["actions"][0]["graph"]["deleted_edges"]
        assert len(doc["actions"]) > 1
        expected = json.dumps(doc, indent=2) + "\n"
        argv = ["plan", "--pred", str(path), "--target", target, *flags]

        assert main(argv) == 0
        assert capsys.readouterr().out == expected

        out = tmp_path / "plan.json"
        assert main([*argv, "--out", str(out), "--pretty"]) == 0
        assert out.read_text() == expected
        table = [
            f"step {i + 1}: grasp object {a['object']}"
            + (" (target)" if a["is_final_target"] else "")
            for i, a in enumerate(doc["actions"])
        ]
        assert capsys.readouterr().out == "\n".join(table) + "\n"

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 16),
        target=st.integers(0, 18).map(str) | st.sampled_from(["cup", "box", "pen", "mug"]),
        assume_hidden=st.booleans(),
    )
    def test_random_dense_predictions(self, seed, n, target, assume_hidden):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "preds.json"
            path.write_text(serialize_predictions(dense_predictions(seed, n)))
            doc = plan_document(parse_predictions(path.read_text()), target)
            out = Path(tmp) / "plan.json"
            flags = ["--assume-hidden"] if assume_hidden else []
            code = main(["plan", "--pred", str(path), "--target", target, "--out", str(out), *flags])
            if doc["target"]["resolved"] or assume_hidden:
                assert code == 0
                assert out.read_text() == json.dumps(doc, indent=2) + "\n"
            else:
                assert code == 2
                assert not out.exists()


def sim_config(tmp_path, **extra):
    cfg = {
        "seed": 5,
        "regimes": [
            {"name": "shallow", "count_range": [2, 4], "trials": 3},
            {"name": "deep", "count_range": [5, 7], "trials": 2},
        ],
    }
    cfg.update(extra)
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSimulate:
    def test_zero_noise_always_succeeds(self, tmp_path, capsys):
        path = sim_config(tmp_path)
        assert main(["simulate", "--config", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["seed"] == 5
        assert [r["name"] for r in data["regimes"]] == ["shallow", "deep"]
        assert all(r["rate"] == 1.0 for r in data["regimes"])
        assert data["regimes"][0]["summary"] == "100.0% (3/3)"

    def test_deterministic_rerun(self, tmp_path, capsys):
        path = sim_config(tmp_path)
        assert main(["simulate", "--config", str(path)]) == 0
        first = capsys.readouterr().out
        assert main(["simulate", "--config", str(path)]) == 0
        assert capsys.readouterr().out == first

    def test_seed_override(self, tmp_path, capsys):
        path = sim_config(tmp_path)
        assert main(["simulate", "--config", str(path), "--seed", "99"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["seed"] == 99

    def test_trial_logs_written(self, tmp_path, capsys):
        path = sim_config(tmp_path)
        log_dir = tmp_path / "logs"
        code = main(
            ["simulate", "--config", str(path), "--trial-log", str(log_dir)]
        )
        assert code == 0
        capsys.readouterr()
        names = sorted(p.name for p in log_dir.glob("*.json"))
        assert names == [
            "deep_0000.json",
            "deep_0001.json",
            "shallow_0000.json",
            "shallow_0001.json",
            "shallow_0002.json",
        ]
        log = json.loads((log_dir / "shallow_0000.json").read_text())
        assert log["outcome"]["success"] is True
        assert log["outcome"]["reason"] == "target_removed"

    def test_noisy_regime_parses(self, tmp_path, capsys):
        cfg = {
            "regimes": [
                {
                    "name": "noisy",
                    "count_range": [2, 4],
                    "trials": 4,
                    "noise": {"relation_flip_prob": 0.5},
                    "target_rule": "deepest",
                }
            ]
        }
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["regimes"][0]["trials"] == 4

    def test_missing_regimes(self, tmp_path, capsys):
        path = tmp_path / "sim.json"
        path.write_text("{}")
        assert main(["simulate", "--config", str(path)]) == 2
        capsys.readouterr()

    def test_incomplete_regime(self, tmp_path, capsys):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({"regimes": [{"trials": 3}]}))
        assert main(["simulate", "--config", str(path)]) == 2
        assert "regimes[0]" in capsys.readouterr().err

    def test_bad_noise_field(self, tmp_path, capsys):
        cfg = {
            "regimes": [
                {"count_range": [2, 4], "trials": 1, "noise": {"fog": 1.0}}
            ]
        }
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path)]) == 2
        assert "unknown noise fields" in capsys.readouterr().err

    def test_impossible_count_range(self, tmp_path, capsys):
        cfg = {"regimes": [{"count_range": [1, 99], "trials": 1}]}
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path)]) == 2
        capsys.readouterr()

    def test_duplicate_regime_names_rejected_before_any_trial(self, tmp_path, capsys):
        # same-named regimes would overwrite each other's trial logs
        cfg = {
            "regimes": [
                {"name": "a", "count_range": [2, 4], "trials": 2},
                {"name": "a", "count_range": [6, 9], "trials": 2},
            ]
        }
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        log_dir = tmp_path / "logs"
        argv = ["simulate", "--config", str(path), "--trial-log", str(log_dir)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "regimes[1]:" in err and "duplicate regime name" in err
        assert not log_dir.exists()

    @pytest.mark.parametrize("name", ["../escaped", "sub/name", "back\\slash"])
    def test_path_separator_in_name_rejected(self, tmp_path, capsys, name):
        cfg = {"regimes": [{"name": name, "count_range": [2, 4], "trials": 1}]}
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        log_dir = tmp_path / "logs"
        argv = ["simulate", "--config", str(path), "--trial-log", str(log_dir)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "regimes[0]:" in err and "path separator" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sim.json"]

    @pytest.mark.parametrize("trial_log", [False, True])
    def test_nul_in_name_rejected_before_any_trial(self, tmp_path, capsys, trial_log):
        cfg = {
            "regimes": [
                {"name": "first", "count_range": [2, 4], "trials": 2},
                {"name": "a\u0000b", "count_range": [2, 4], "trials": 1},
            ]
        }
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        argv = ["simulate", "--config", str(path)]
        if trial_log:
            argv += ["--trial-log", str(tmp_path / "logs")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "regimes[1]:" in captured.err and "NUL" in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sim.json"]

    def test_negative_seed_flag_rejected(self, tmp_path, capsys):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({"regimes": [{"count_range": [2, 4], "trials": 1}]}))
        assert main(["simulate", "--config", str(path), "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "non-negative" in err


def _bad_inputs():
    """(command, input document, JSON path in the message) for inputs that
    must exit 2: wrong JSON types, invalid relation probabilities and boxes
    whose area underflows in predictions and scenes, and wrong types in a
    simulation config."""

    def preds(mutate):
        data = json.loads(serialize_predictions(record_to_predictions(chain_scene())))
        mutate(data)
        return data

    def relation(**fields):
        return lambda d: d["relations"][0].update(fields)

    bad_preds = {
        "detections-not-a-list": (lambda d: d.update(detections=5), "detections:"),
        "grasps-not-a-list": (
            lambda d: d["detections"][0].update(grasps=5), "detections[0].grasps:"
        ),
        "detection-not-an-object": (
            lambda d: d["detections"].append([1, 2]), "detections[4]:"
        ),
        "relations-not-a-list": (lambda d: d.update(relations={}), "relations:"),
        "nan-probability": (relation(probs=[float("nan"), 0.5, 0.5]), "relations[0]:"),
        "negative-probability": (relation(probs=[-0.5, 1.0, 0.5]), "relations[0]:"),
        "probabilities-sum-past-1": (relation(probs=[0.5, 0.5, 0.5]), "relations[0]:"),
        "self-pair": (relation(pair=[1, 1]), "relations[0]:"),
        "bbox-area-underflow": (
            lambda d: d["detections"][0].update(bbox=[0, 0, 1e-200, 1e-200]), "detections[0]:"
        ),
    }
    for name, (mutate, where) in bad_preds.items():
        for command in ("plan", "eval"):
            yield pytest.param(command, preds(mutate), where, id=f"{command}-{name}")
    scene = json.loads(serialize_scene(chain_scene()))
    scene["objects"][0]["bbox"] = [0, 0, 1e-200, 1e-200]
    yield pytest.param("eval-gt", scene, "objects[0]:", id="eval-gt-bbox-area-underflow")
    bad_regimes = {
        "noise-null": {"noise": {"drop_prob": None}},
        "noise-not-an-object": {"noise": []},
        "max-steps-string": {"max_steps": "x"},
        "max-steps-fraction": {"max_steps": 4.5},
        "count-range-scalar": {"count_range": 5},
        "trials-null": {"trials": None},
        "unknown-field": {"targt_rule": "deepest", "noize": {"drop_prob": 0.5}},
        # integer fields: a fraction or a bool is not truncated
        "trials-fraction": {"trials": 2.7},
        "trials-bool": {"trials": True},
        "count-range-fraction": {"count_range": [2.9, 4]},
        "count-range-bool": {"count_range": [True, 4]},
        "count-range-triple": {"count_range": [2, 3, 4]},
        "top-n-fraction": {"top_n": 1.5},
        "max-stack-depth-fraction": {"max_stack_depth": 2.5},
        "max-steps-bool": {"max_steps": True},
        # float fields: a bool or a numeric string is not converted
        "coverage-threshold-string": {"coverage_threshold": "0.5"},
        "coverage-threshold-bool": {"coverage_threshold": True},
        "noise-string": {"noise": {"drop_prob": "1e-1"}},
        "noise-bool": {"noise": {"box_sigma": True}},
        "noise-infinite": {"noise": {"box_sigma": float("inf")}},
        # string fields
        "name-number": {"name": 5},
        "target-rule-number": {"target_rule": 5},
        "target-rule-list": {"target_rule": ["deepest"]},
    }
    for name, fields in bad_regimes.items():
        regime = {"count_range": [2, 4], "trials": 1, **fields}
        yield pytest.param(
            "simulate", {"regimes": [regime]}, "regimes[0]:", id=f"simulate-{name}"
        )
    regime = {"count_range": [2, 4], "trials": 1}
    for name, seed in {"fraction": 1.5, "bool": True, "negative": -1, "string": "5"}.items():
        yield pytest.param(
            "simulate", {"seed": seed, "regimes": [regime]}, "seed must be",
            id=f"simulate-seed-{name}",
        )


@pytest.mark.parametrize("command, doc, where", list(_bad_inputs()))
def test_bad_input_is_a_data_error(tmp_path, scene_file, capsys, command, doc, where):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    argv = {
        "plan": ["plan", "--pred", str(path), "--target", "1"],
        "eval": ["eval", "--gt", str(scene_file), "--pred", str(path)],
        "eval-gt": ["eval", "--gt", str(path), "--pred", str(scene_file)],
        "simulate": ["simulate", "--config", str(path)],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert where in err
    assert "Traceback" not in err


# The README simulation config cut to one trial per regime.
README_SIM = {
    "seed": 5,
    "regimes": [
        {"name": "shallow", "count_range": [2, 4], "trials": 1},
        {
            "name": "deep",
            "count_range": [6, 9],
            "trials": 1,
            "target_rule": "deepest",
            "noise": {"relation_flip_prob": 0.1, "box_sigma": 2.0},
        },
    ],
}
# written into the file as the JSON numbers 1e400 and -1e400 (inf and -inf)
_BIG = {"__1e400__": "1e400", "__-1e400__": "-1e400"}
_VALUES = [0, 1, 2, -1, 0.0, 0.5, 1.5, True, False, "x", "0.5", "random", None, [], {}, *_BIG]
_KEYS = [
    "seed", "regimes", "name", "trials", "count_range", "target_rule", "max_steps",
    "coverage_threshold", "max_stack_depth", "top_n", "noise", "drop_prob", "box_sigma",
    "angle_sigma", "relation_flip_prob", "score_sigma", "extra",
]


def _slots(doc):
    """Every (container, key) slot of a JSON document, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in list(items):
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


@st.composite
def mutated_sim_configs(draw):
    """The README config with 1 to 4 mutations: a type swap (bool, string,
    null, list, object, float for int, +-1e400), a missing key, an extra
    key (known or not) or a list of the wrong length."""
    doc = copy.deepcopy(README_SIM)
    for _ in range(draw(st.integers(1, 4))):
        slots = list(_slots(doc))
        kind = draw(st.sampled_from(["swap", "drop", "add", "arity"]))
        if kind == "add":
            targets = [doc] + [c[k] for c, k in slots if isinstance(c[k], dict)]
            target = draw(st.sampled_from(targets))
            # a copy: a later "add" may write into a [] or {} of _VALUES
            target[draw(st.sampled_from(_KEYS))] = copy.deepcopy(draw(st.sampled_from(_VALUES)))
            continue
        if not slots:
            break
        _mutate_slot(draw, slots, kind)
    return doc


def _mutate_slot(draw, slots, kind):
    """One "swap", "drop" or "arity" mutation of a slot drawn from ``slots``."""
    container, key = draw(st.sampled_from(slots))
    value = container[key]
    if kind == "swap":
        swaps = [True, "x", str(value), None, [value], {"v": value}, *_BIG]
        if isinstance(value, int) and not isinstance(value, bool):
            swaps.append(float(value))
        container[key] = draw(st.sampled_from(swaps))
    elif kind == "drop":
        del container[key]
    elif isinstance(value, list):
        container[key] = value[:-1] if draw(st.booleans()) else value + value[-1:]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated_sim_configs())
def test_mutated_sim_config_exits_cleanly(doc):
    """Any mutation of a valid config runs (0), is a data error (2) or a
    numeric failure (3): never an exception, never a hang."""
    text = json.dumps(doc)
    for marker, number in _BIG.items():
        text = text.replace(json.dumps(marker), number)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sim.json"
        path.write_text(text)
        faulthandler.dump_traceback_later(60, exit=True)
        try:
            code = main(["simulate", "--config", str(path), "--out", str(Path(tmp) / "out.json")])
        finally:
            faulthandler.cancel_dump_traceback_later()
    assert code in (0, 2, 3)


# Rows that only the per-row loop takes, by converting, or rejects.
_ROW_EDITS = {
    "self-pair": lambda a, b: {"pair": [a, a]},
    "unknown-id": lambda a, b: {"pair": [a, 99]},
    "string-id": lambda a, b: {"pair": [str(a), b]},
    "float-id": lambda a, b: {"pair": [a, float(b)]},
    "int-probs": lambda a, b: {"probs": [1, 0, 0]},
    "true-prob": lambda a, b: {"probs": [True, 0.0, 0.0]},
    "string-probs": lambda a, b: {"probs": ["0.5", "0.25", "0.25"]},
    "nan": lambda a, b: {"probs": [float("nan"), 0.5, 0.5]},
    "negative": lambda a, b: {"probs": [-0.25, 0.75, 0.5]},
    "sum-high": lambda a, b: {"probs": [0.5, 0.25, 0.25 + 2e-6]},
    "sum-low": lambda a, b: {"probs": [0.5, 0.25, 0.25 - 2e-6]},
    "sum-within": lambda a, b: {"probs": [0.5, 0.25, 0.25 + 5e-7]},
}


@st.composite
def mutated_relation_docs(draw):
    """A valid predictions document whose relations take 1 to 4 edits: a
    mutation of ``mutated_sim_configs`` (type swap, missing key, extra key,
    wrong list length), a row from ``_ROW_EDITS`` or a duplicated row."""
    doc = json.loads(serialize_predictions(dense_predictions(draw(st.integers(0, 99)), n=4)))
    good = copy.deepcopy(doc["relations"])
    for _ in range(draw(st.integers(1, 4))):
        rows = doc.get("relations")
        slots = [(doc, "relations")] if "relations" in doc else []
        if isinstance(rows, (dict, list)):
            slots += list(_slots(rows))
        kind = draw(st.sampled_from(["swap", "drop", "add", "arity", "row", "duplicate"]))
        if kind in ("row", "duplicate") and isinstance(rows, list) and rows:
            i = draw(st.integers(0, len(rows) - 1))
            if kind == "duplicate":
                rows.insert(draw(st.integers(0, len(rows))), copy.deepcopy(rows[i]))
            else:
                row = copy.deepcopy(good[i % len(good)])
                row.update(draw(st.sampled_from(list(_ROW_EDITS.values())))(*row["pair"]))
                rows[i] = row
        elif kind == "add":
            targets = [r for r in rows if isinstance(r, dict)] if isinstance(rows, list) else []
            if targets:
                target = draw(st.sampled_from(targets))
                value = copy.deepcopy(draw(st.sampled_from(_VALUES)))
                target[draw(st.sampled_from(["pair", "probs", "extra"]))] = value
        elif slots and kind in ("swap", "drop", "arity"):
            _mutate_slot(draw, slots, kind)
    text = json.dumps(doc)
    for marker, number in _BIG.items():
        text = text.replace(json.dumps(marker), number)
    return json.loads(text)


def _relations_or_error(parse):
    try:
        return repr(list(parse().items()))  # repr tells 1 from 1.0 and True
    except (ValueError, OverflowError) as e:  # int() of an infinite id overflows
        return f"{type(e).__name__}: {e}"


@settings(max_examples=500, deadline=None)
@given(data=mutated_relation_docs())
def test_mutated_relation_rows_parse_like_the_row_loop(data):
    """The relation fast path stores what the per-row loop stores, or
    leaves the document to it (tests/oracle_utils.per_row_relations)."""
    ids = {d["id"] for d in data["detections"]}
    expected = _relations_or_error(lambda: per_row_relations(data, ids))
    assert _relations_or_error(lambda: parse_predictions(data).relations) == expected


def calibration_pairs():
    linear = [[0.002, 0.0, 0.0], [0.0, 0.002, 0.0], [0.0, 0.0, 1.0]]
    offset = [-0.64, -0.48, 0.0]
    pairs = []
    for u, v, d in [
        (0, 0, 500),
        (600, 0, 700),
        (0, 400, 900),
        (600, 400, 500),
        (300, 200, 800),
        (150, 350, 600),
    ]:
        x = linear[0][0] * u + offset[0]
        y = linear[1][1] * v + offset[1]
        z = d * 1.0 + offset[2]
        pairs.append({"pixel": [u, v, d], "robot": [x, y, z]})
    return pairs


class TestCalibrate:
    def test_good_fit(self, tmp_path, capsys):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(calibration_pairs()))
        assert main(["calibrate", "--pairs", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        affine = AffineMap.from_json_dict(data)
        assert affine.residual_rms < 1e-9
        assert affine.apply((0.0, 0.0, 500.0)) == pytest.approx([-0.64, -0.48, 500.0])

    def test_too_few_pairs(self, tmp_path, capsys):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(calibration_pairs()[:3]))
        assert main(["calibrate", "--pairs", str(path)]) == 2
        assert "at least 4" in capsys.readouterr().err

    def test_degenerate_pairs_are_numeric_failure(self, tmp_path, capsys):
        pairs = [
            {"pixel": [u, v, 500], "robot": [u, v, 0]}
            for u, v in [(0, 0), (10, 0), (0, 10), (10, 10), (5, 5)]
        ]
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(pairs))
        assert main(["calibrate", "--pairs", str(path)]) == 3
        assert "rank-deficient" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["calibrate", "--pairs", str(tmp_path / "nope.json")]) == 2
        capsys.readouterr()

    def test_high_residual_warning(self, tmp_path, capsys):
        pairs = calibration_pairs()
        for i, p in enumerate(pairs):
            p["robot"][2] += 200.0 if i % 2 == 0 else -200.0
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(pairs))
        assert main(["calibrate", "--pairs", str(path)]) == 0
        assert "residual RMS" in capsys.readouterr().err

    @pytest.mark.parametrize("factor, warns", [(0.99, False), (1.01, True)])
    def test_warning_threshold_boundary(self, tmp_path, capsys, factor, warns):
        # the residual of a least-squares fit scales linearly with a
        # perturbation of exact pairs
        def perturbed(scale):
            pairs = calibration_pairs()
            for p, sign in zip(pairs, [1.0, -1.0, -1.0, 1.0, 0.5, -0.5]):
                p["robot"][2] += scale * sign
            return pairs

        unit = fit_affine([(p["pixel"], p["robot"]) for p in perturbed(1.0)]).residual_rms
        assert unit > 0.1
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(perturbed(factor * CALIBRATION_WARN_RMS_MM / unit)))
        assert main(["calibrate", "--pairs", str(path)]) == 0
        captured = capsys.readouterr()
        rms = json.loads(captured.out)["residual_rms"]
        assert (rms > CALIBRATION_WARN_RMS_MM) == warns
        assert ("warning" in captured.err) == warns

    @pytest.mark.parametrize(
        "where, value", [("robot", "1e400"), ("robot", "NaN"), ("pixel", "-1e400")]
    )
    def test_non_finite_pair_is_numeric_failure(self, tmp_path, where, value):
        # lstsq never returns on non-finite input, so run under a timeout
        pairs = calibration_pairs()
        pairs[3][where][2] = "VALUE"
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(pairs).replace('"VALUE"', value))
        src = str(Path(stackgrasp.__file__).resolve().parents[1])
        pythonpath = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from stackgrasp.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "calibrate", "--pairs", str(path)],
            capture_output=True, text=True, timeout=5, env=env,
        )
        assert proc.returncode == 3
        assert "pair 3: non-finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_pretty_summary(self, tmp_path, capsys):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(calibration_pairs()))
        assert main(["calibrate", "--pairs", str(path), "--pretty"]) == 0
        out = capsys.readouterr().out
        assert "pairs         6" in out


class TestAugment:
    def test_four_rotations_identity(self, tmp_path, scene_file):
        out = tmp_path / "turned.json"
        assert main(
            ["augment", "--scene", str(scene_file), "--rot90", "4", "--out", str(out)]
        ) == 0
        assert out.read_text() == scene_file.read_text()

    def test_double_hflip_identity(self, tmp_path, scene_file, capsys):
        once = tmp_path / "once.json"
        assert main(
            ["augment", "--scene", str(scene_file), "--hflip", "--out", str(once)]
        ) == 0
        assert main(["augment", "--scene", str(once), "--hflip"]) == 0
        assert capsys.readouterr().out == scene_file.read_text()

    def test_hflip_mirrors_boxes(self, scene_file, capsys):
        assert main(["augment", "--scene", str(scene_file), "--hflip"]) == 0
        rec = parse_scene(capsys.readouterr().out)
        assert rec.object_by_id(4).box == AABox(140.0, 300.0, 240.0, 340.0)
        assert rec.grasps_of(4)[0].rect.theta == -30.5

    def test_rot90_swaps_dimensions(self, scene_file, capsys):
        assert main(["augment", "--scene", str(scene_file), "--rot90", "1"]) == 0
        rec = parse_scene(capsys.readouterr().out)
        assert (rec.width, rec.height) == (480, 640)

    def test_corrupt_scene(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[]")
        assert main(["augment", "--scene", str(path), "--hflip"]) == 2
        capsys.readouterr()
