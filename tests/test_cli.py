import contextlib
import copy
import faulthandler
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stackgrasp
from stackgrasp import cli
from stackgrasp.cli import (
    _MIN_SCENE_BLOCK,
    _MIN_TRIAL_BLOCK,
    _ROUND_PER_CPU,
    CALIBRATION_WARN_RMS_MM,
    _blocks,
    main,
)
from stackgrasp.dataset import (
    SceneGrasp,
    SceneObject,
    SceneRecord,
    parse_scene,
    record_to_predictions,
    serialize_scene,
)
from stackgrasp.execution import AffineMap, CalibrationError, fit_affine
from stackgrasp.geometry import AABox, OrientedRect
from stackgrasp.perception import (
    GraspCandidate,
    ObjectDetection,
    ScenePredictions,
    parse_predictions,
)
from stackgrasp.simulation import TrialConfig, generate_scene, run_trial, trial_seed

from oracle_utils import (
    per_field_detections,
    per_field_scene,
    per_row_relations,
    plan_document,
    serialize_predictions,
)


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

    @pytest.mark.parametrize("gap, code", [(30.0, 0), (45.0, 0), (29.0, 3)])
    def test_grasp_too_far_to_compare(self, tmp_path, capsys, gap, code):
        # the ground-truth grasp of object 1 sits at x = 1e200, past where
        # rotated_jaccard's squared center distance overflows; an angle gap
        # of 30 degrees or more rejects it without an overlap number
        scene = chain_scene()
        far = SceneGrasp(1, OrientedRect(1e200, 150.0, 40.0, 16.0, gap))
        gt = tmp_path / "gt.json"
        gt.write_text(serialize_scene(replace(scene, grasps=(far, *scene.grasps[1:]))))
        pred = tmp_path / "pred.json"
        pred.write_text(serialize_predictions(record_to_predictions(scene)))
        assert main(["eval", "--gt", str(gt), "--pred", str(pred)]) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if code == 0:
            assert json.loads(captured.out)["perception"]["per_class_ap"]["cup"] == 0.0
        else:
            assert captured.err == f"error: {gt}: grasp coordinates too large to compare\n"

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

    def test_pair_without_its_reverse_is_a_data_error(self, tmp_path, scene_file, capsys):
        data = json.loads(serialize_predictions(record_to_predictions(chain_scene())))
        data["relations"] = [r for r in data["relations"] if r["pair"] != [2, 1]]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        assert main(["plan", "--pred", str(path), "--target", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: pair (1, 2) present without its reverse\n"
        # eval scores each ordered pair on its own
        assert main(["eval", "--gt", str(scene_file), "--pred", str(path)]) == 0
        capsys.readouterr()

    def test_pretty_step_list(self, pred_file, capsys):
        code = main(
            ["plan", "--pred", str(pred_file), "--target", "3", "--pretty"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "step 1: grasp object 1" in out
        assert "step 3: grasp object 3 (target)" in out

    @pytest.fixture
    def id_pred_file(self, tmp_path):
        """Detections with the ids -3, 2 and 10."""
        preds = ScenePredictions(
            detections=[
                ObjectDetection(AABox(10.0 + 100 * k, 10.0, 60.0 + 100 * k, 60.0), "cup", 0.9, i)
                for k, i in enumerate((-3, 2, 10))
            ]
        )
        path = tmp_path / "ids.json"
        path.write_text(serialize_predictions(preds))
        return path

    @pytest.mark.parametrize("target", [" 2", "٢", "1_0", "+2"])
    def test_id_is_ascii_digits_only(self, id_pred_file, capsys, target):
        # int() would read these as 2, 2 (Arabic-Indic), 10 and 2; as
        # category names they match no detection
        assert main(["plan", "--pred", str(id_pred_file), "--target", target]) == 2
        assert "--assume-hidden" in capsys.readouterr().err

    @pytest.mark.parametrize("target, object_id", [("-3", -3), ("2", 2), ("10", 10)])
    def test_signed_ascii_id_resolves(self, id_pred_file, capsys, target, object_id):
        assert main(["plan", "--pred", str(id_pred_file), "--target", target]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["target"] == {"requested": target, "resolved": True}
        assert data["actions"][-1] == {**data["actions"][-1], "object": object_id, "is_final_target": True}

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
    )
    @pytest.mark.parametrize("sign", ["", "-"])
    def test_id_past_the_digit_limit_names_the_flag(self, id_pred_file, capsys, sign):
        digits = sys.get_int_max_str_digits() + 700
        target = sign + "1" * digits
        assert main(["plan", "--pred", str(id_pred_file), "--target", target]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --target: an instance id of {digits} digits")
        assert "set_int_max_str_digits" not in err

    def test_topn_flag_is_gone(self, pred_file, capsys):
        assert main(["plan", "--pred", str(pred_file), "--target", "3", "--topn", "3"]) == 1
        assert "--topn" in capsys.readouterr().err

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

    def test_unknown_top_level_field_rejected(self, tmp_path, capsys):
        # a misspelled "seed" must not run silently at seed 0
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({"sed": 7, "regimes": [{"count_range": [2, 4], "trials": 1}]}))
        assert main(["simulate", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: $: unknown config fields: ['sed']\n"
        assert captured.out == ""

    def test_regime_errors_name_the_file(self, tmp_path, capsys):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({"regimes": [{"count_range": [2, 4], "trials": 0}]}))
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: regimes[0]: 'trials' must be from 1 to 2**32\n"

    def test_visibility_flag_is_gone(self, tmp_path, capsys):
        path = sim_config(tmp_path)
        assert main(["simulate", "--config", str(path), "--visibility", "0.5"]) == 1
        assert "unrecognized arguments: --visibility" in capsys.readouterr().err

    def test_overflowing_box_noise_is_a_data_error(self, tmp_path, capsys):
        cfg = {"regimes": [{"count_range": [2, 4], "trials": 1, "noise": {"box_sigma": 1e200}}]}
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        with np.errstate(over="ignore"):
            assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "box area overflows to inf" in err and "Traceback" not in err

    def test_trial_data_error_names_the_regime_and_trial(self, tmp_path, capsys):
        cfg = {"regimes": [{"count_range": [2, 4], "trials": 1, "noise": {"box_sigma": 1e200}}]}
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", str(path)]) == 2
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: regimes[0]: trial 0: box area overflows to inf")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_trial_log_on_a_file_is_a_data_error(self, tmp_path, capsys):
        path = sim_config(tmp_path)
        log = tmp_path / "afile"
        log.write_text("")
        assert main(["simulate", "--config", str(path), "--trial-log", str(log)]) == 2
        assert capsys.readouterr().err == f"error: {log}: File exists\n"



README_SIM = {
    "seed": 5,
    "regimes": [
        {"name": "shallow", "count_range": [2, 4], "trials": 500},
        {"name": "deep", "count_range": [6, 9], "trials": 500,
         "target_rule": "deepest",
         "noise": {"relation_flip_prob": 0.1, "box_sigma": 2.0}},
    ],
}
_ALL_NOISE = {"drop_prob": 0.1, "box_sigma": 3.0, "angle_sigma": 20.0,
              "relation_flip_prob": 0.2, "score_sigma": 0.1}
# a regime split in two blocks on 2 and 3 CPUs, and two too small to split
NOISY_SIM = {
    "seed": 23,
    "regimes": [
        {"name": "flat", "count_range": [1, 6], "trials": 150, "max_stack_depth": 0,
         "noise": _ALL_NOISE},
        {"name": "familiar", "count_range": [4, 24], "trials": 70, "coverage_threshold": 0.7,
         "noise": _ALL_NOISE},
        {"name": "complex", "count_range": [6, 9], "trials": 40, "target_rule": "deepest",
         "max_stack_depth": 3, "noise": _ALL_NOISE},
    ],
}
# the first trial whose noisy box overflows is trial 82 (past the first
# block) at this box_sigma, and trial 6 (inside it) at the second, in a
# regime of OVERFLOW_TRIALS trials
OVERFLOW_PAST_FIRST_BLOCK = 4e153
OVERFLOW_IN_FIRST_BLOCK = 6e153
OVERFLOW_TRIALS = 150


def on_cpus(monkeypatch, cpus: int) -> list[int]:
    """Make the process see ``cpus`` CPUs; the returned list collects the
    pid of every child ``os.fork`` makes in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def run_simulate(tmp_path, capsys, config: dict, tag: str, *flags: str):
    """Exit code, stdout, stderr, --out bytes (or None) and every trial
    log by name of one ``simulate --out --trial-log`` run in ``tmp_path/tag``."""
    work = tmp_path / tag
    work.mkdir(exist_ok=True)
    path = work / "sim.json"
    path.write_text(json.dumps(config))
    out, logs = work / "out.json", work / "logs"
    code = _run_guarded(["simulate", "--config", str(path), "--out", str(out),
                         "--trial-log", str(logs), *flags])
    captured = capsys.readouterr()
    # the path of the config differs between runs; nothing else may
    err = captured.err.replace(str(path), "sim.json")
    files = {p.name: p.read_bytes() for p in sorted(logs.glob("*")) if p.is_file()}
    return code, captured.out, err, out.read_bytes() if out.exists() else None, files


def regime_rounds(trials: int, cpus: int) -> list[list[range]]:
    """The blocks of each round a regime of ``trials`` runs in on ``cpus``
    CPUs: a round holds at most ``_ROUND_PER_CPU`` trials per CPU, and the
    calling process runs its first block while a forked child runs each
    other block."""
    size = _ROUND_PER_CPU * cpus
    return [_blocks(range(start, min(start + size, trials)), cpus, _MIN_TRIAL_BLOCK)
            for start in range(0, trials, size)]


def regime_forks(trials: int, cpus: int) -> int:
    """Children a regime of ``trials`` forks on ``cpus`` CPUs."""
    return sum(len(blocks) - 1 for blocks in regime_rounds(trials, cpus))


@settings(max_examples=500, deadline=None)
@given(start=st.integers(0, 2**32), length=st.integers(1, 10_000), cpus=st.integers(1, 8),
       min_block=st.sampled_from([_MIN_TRIAL_BLOCK, _MIN_SCENE_BLOCK]))
def test_blocks_split_a_round_evenly(start, length, cpus, min_block):
    trials = range(start, start + length)
    blocks = _blocks(trials, cpus, min_block)
    assert len(blocks) == max(1, min(cpus, length // min_block))
    # contiguous, in order, and covering the round
    assert [b.step for b in blocks] == [1] * len(blocks)
    assert blocks[0].start == start and blocks[-1].stop == trials.stop
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    sizes = [len(b) for b in blocks]
    assert max(sizes) - min(sizes) <= 1
    assert len(blocks) == 1 or min(sizes) >= min_block


class TestSimulateCpuCount:
    """Trials run in rounds of even blocks, one per CPU the process may use;
    every output is the same bytes for any CPU count."""

    @pytest.mark.parametrize("config", [README_SIM, NOISY_SIM], ids=["readme", "noisy"])
    def test_outputs_do_not_depend_on_the_cpu_count(self, tmp_path, monkeypatch, capsys, config):
        runs = {}
        for cpus in (1, 2, 3):
            forks = on_cpus(monkeypatch, cpus)
            runs[cpus] = run_simulate(tmp_path, capsys, config, f"cpus{cpus}", "--pretty")
            expected = sum(regime_forks(r["trials"], cpus) for r in config["regimes"])
            assert len(forks) == expected
            if config is README_SIM and cpus == 2:
                assert len(forks) == 2  # one round of 250 + 250 trials a regime
            assert no_child_left()
        code, out, err, result, logs = runs[1]
        assert code == 0 and err == "" and result is not None
        assert len(logs) == sum(r["trials"] for r in config["regimes"])
        assert runs[2] == runs[1]
        assert runs[3] == runs[1]
        if config is README_SIM:
            successes = [r["successes"] for r in json.loads(result)["regimes"]]
            assert successes == [500, 289]

    def test_a_regime_of_one_block_forks_nothing(self, tmp_path, monkeypatch, capsys):
        small = {"seed": 3, "regimes": [NOISY_SIM["regimes"][2],
                                        dict(NOISY_SIM["regimes"][1], trials=2 * _MIN_TRIAL_BLOCK - 1)]}
        forks = on_cpus(monkeypatch, 3)
        assert run_simulate(tmp_path, capsys, small, "small")[0] == 0
        assert forks == []

    def test_without_fork_runs_in_one_process(self, tmp_path, monkeypatch, capsys):
        on_cpus(monkeypatch, 1)
        one = run_simulate(tmp_path, capsys, README_SIM, "cpus1", "--pretty")
        # a platform such as Windows, where os has no fork
        on_cpus(monkeypatch, 3)
        monkeypatch.delattr(os, "fork")
        assert run_simulate(tmp_path, capsys, README_SIM, "nofork", "--pretty") == one
        assert one[0] == 0 and len(one[4]) == 1000

    @pytest.mark.parametrize("sigma, first_bad", [
        (OVERFLOW_PAST_FIRST_BLOCK, 82),
        (OVERFLOW_IN_FIRST_BLOCK, 6),
    ])
    def test_failing_trial_reports_like_one_cpu(self, tmp_path, monkeypatch, capsys, sigma, first_bad):
        config = {"seed": 5, "regimes": [
            {"count_range": [2, 4], "trials": OVERFLOW_TRIALS, "noise": {"box_sigma": sigma}}]}
        runs = {}
        for cpus in (1, 2, 3):
            forks = on_cpus(monkeypatch, cpus)
            runs[cpus] = run_simulate(tmp_path, capsys, config, f"cpus{cpus}")
            assert len(forks) == regime_forks(OVERFLOW_TRIALS, cpus)
            assert no_child_left()
            if cpus > 1:
                # trial 82 fails in a child's block (75 + 75 trials), trial 6 in the caller's
                caller = regime_rounds(OVERFLOW_TRIALS, cpus)[0][0]
                assert (first_bad in caller) == (first_bad == 6)
        code, out, err, result, logs = runs[1]
        assert code == 2 and out == "" and result is None
        assert err.startswith(f"error: sim.json: regimes[0]: trial {first_bad}: box area overflows")
        assert sorted(logs) == [f"regime0_{i:04d}.json" for i in range(first_bad)]
        assert runs[2] == runs[1]
        assert runs[3] == runs[1]

    def test_a_log_write_error_reports_like_one_cpu(self, tmp_path, monkeypatch, capsys):
        config = {"regimes": [{"count_range": [2, 4], "trials": 140}]}
        assert regime_rounds(140, 2)[0][1].start == 70
        runs = {}
        for cpus in (1, 2):
            on_cpus(monkeypatch, cpus)
            # a directory where the log of trial 70, the second block's first, goes
            (tmp_path / f"cpus{cpus}" / "logs" / "regime0_0070.json").mkdir(parents=True)
            runs[cpus] = run_simulate(tmp_path, capsys, config, f"cpus{cpus}")
            assert no_child_left()
        code, out, err, result, logs = runs[1]
        assert code == 2 and out == "" and result is None
        assert err.startswith("error: ") and err.endswith("regime0_0070.json: Is a directory\n")
        assert sorted(logs) == [f"regime0_{i:04d}.json" for i in range(70)]
        assert runs[2][:2] == runs[1][:2] and runs[2][4] == logs
        assert runs[2][2].replace("cpus2", "cpus1") == err

    @pytest.mark.parametrize("die, how", [
        (lambda: os._exit(7), "exit status 7"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
    ], ids=["exit", "sigkill"])
    def test_a_dead_worker_is_a_clean_error(self, tmp_path, monkeypatch, capsys, die, how):
        parent = os.getpid()

        def dying_run_trial(seed, cfg):
            if os.getpid() != parent:
                die()
            return run_trial(seed, cfg)

        monkeypatch.setattr(stackgrasp.simulation, "run_trial", dying_run_trial)
        on_cpus(monkeypatch, 2)
        config = {"regimes": [{"count_range": [2, 4], "trials": 200}]}
        [[caller, child]] = regime_rounds(200, 2)
        assert (caller, child) == (range(100), range(100, 200))
        code, out, err, result, logs = run_simulate(tmp_path, capsys, config, "dead")
        assert code == 2 and out == "" and result is None
        assert err == (f"error: sim.json: regimes[0]: trials {child.start} to {child.stop - 1}: "
                       f"a worker process ended without a result ({how})\n")
        assert sorted(logs) == [f"regime0_{i:04d}.json" for i in caller]
        assert no_child_left()

    @pytest.mark.parametrize("where", ["caller", "child"])
    def test_a_huge_regime_runs_one_round_at_a_time(self, tmp_path, monkeypatch, capsys, where):
        # a stand-in trial: one real log, returned for every seed
        log = run_trial(1, TrialConfig(count_range=(2, 4)))
        round_size = 2 * _ROUND_PER_CPU
        # the fourth round's first block is the caller's, its second a child's
        bad = 3 * round_size + 5 + (_ROUND_PER_CPU if where == "child" else 0)
        bad_seed = trial_seed(0, 0, bad)
        started = tmp_path / "started"

        def counting_run_trial(seed, cfg):
            fd = os.open(started, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, b".")
            finally:
                os.close(fd)
            if seed == bad_seed:
                raise ValueError("stand-in failure")
            return log

        monkeypatch.setattr(stackgrasp.simulation, "run_trial", counting_run_trial)
        on_cpus(monkeypatch, 2)
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({"regimes": [{"count_range": [2, 4], "trials": 2**32}]}))
        begin = time.monotonic()
        assert _run_guarded(["simulate", "--config", str(path)]) == 2
        assert time.monotonic() - begin < 30
        assert capsys.readouterr().err == f"error: {path}: regimes[0]: trial {bad}: stand-in failure\n"
        # every trial of the first three rounds ran; none past the fourth began
        assert 3 * round_size < started.stat().st_size <= 4 * round_size
        assert no_child_left()


def noisy_eval_scene(seed: int) -> tuple[SceneRecord, ScenePredictions]:
    """A seeded scene of 2 to 6 objects and a noisy detector's predictions
    for it: about 10% of the detections dropped, jittered boxes and scores,
    grasps turned by up to 40 degrees and flipped relation labels."""
    record = generate_scene(seed, TrialConfig(count_range=(2, 6)))
    preds = record_to_predictions(record)
    rng = np.random.default_rng(seed)
    detections = []
    for d in preds.detections:
        if rng.random() < 0.1:
            continue
        b, dx = d.box, float(rng.normal(0.0, 4.0))
        detections.append(replace(d, box=AABox(b.xmin + dx, b.ymin, b.xmax + dx, b.ymax),
                                  score=float(rng.uniform(0.3, 1.0))))
    kept = {d.instance_id for d in detections}
    preds.detections = detections
    preds.grasp_candidates = {
        i: [GraspCandidate(OrientedRect(c.rect.x, c.rect.y, c.rect.w, c.rect.h,
                                        c.rect.theta + float(rng.choice([0.0, 10.0, 40.0]))),
                           c.confidence)
            for c in cands]
        for i, cands in preds.grasp_candidates.items() if i in kept
    }
    preds.relations = {
        pair: probs[::-1] if rng.random() < 0.1 else probs
        for pair, probs in preds.relations.items() if kept.issuperset(pair)
    }
    return record, preds


def eval_dirs(root: Path, scenes: int = 50, unreadable=(), far=()) -> tuple[Path, Path]:
    """``root/gt`` and ``root/pred`` holding ``scenes`` noisy scenes, named
    in scene order. The prediction file of each scene in ``unreadable`` is
    not JSON. Each scene in ``far`` is predicted exactly, and its
    ground truth gains, first, a grasp at x = 1e200 at the angle of its
    first detection's best grasp, which makes that scene's scoring overflow."""
    gt, pred = root / "gt", root / "pred"
    gt.mkdir(parents=True)
    pred.mkdir()
    for i in range(scenes):
        record, preds = noisy_eval_scene(i)
        if i in far:
            preds = record_to_predictions(record)
            best = preds.perceived()[0]
            rect = OrientedRect(1e200, 150.0, 40.0, 16.0, best.best_grasp.theta)
            record = replace(record, grasps=(SceneGrasp(best.detection.instance_id, rect),
                                             *record.grasps))
        (gt / f"s{i:02d}.json").write_text(serialize_scene(record))
        text = "{broken" if i in unreadable else serialize_predictions(preds)
        (pred / f"s{i:02d}.json").write_text(text)
    return gt, pred


def run_eval(monkeypatch, capsys, gt: Path, pred: Path, cpus: int):
    """(exit code, stdout, stderr, --out bytes or None) of one ``eval
    --out --pretty`` run seeing ``cpus`` CPUs, and the pids it forked."""
    forks = on_cpus(monkeypatch, cpus)
    out = gt.parent / "report.json"
    out.unlink(missing_ok=True)
    code = _run_guarded(["eval", "--gt", str(gt), "--pred", str(pred), "--out", str(out),
                         "--pretty"])
    captured = capsys.readouterr()
    assert no_child_left()
    return (code, captured.out, captured.err, out.read_bytes() if out.exists() else None), forks


class TestEvalCpuCount:
    """Scenes are scored in even blocks of at least ``_MIN_SCENE_BLOCK``,
    one per CPU; every output is the same bytes for any CPU count."""

    def runs(self, monkeypatch, capsys, gt, pred):
        """The outcome on 1 CPU, once 2 and 3 CPUs gave the same bytes,
        each forking one child for every block past the first."""
        scenes = range(len(list(gt.glob("*.json"))))
        outcomes = {}
        for cpus in (1, 2, 3):
            outcomes[cpus], forks = run_eval(monkeypatch, capsys, gt, pred, cpus)
            assert len(forks) == len(_blocks(scenes, cpus, _MIN_SCENE_BLOCK)) - 1
        assert outcomes[2] == outcomes[1]
        assert outcomes[3] == outcomes[1]
        return outcomes[1]

    def test_outputs_do_not_depend_on_the_cpu_count(self, tmp_path, monkeypatch, capsys):
        gt, pred = eval_dirs(tmp_path)
        assert _blocks(range(50), 2, _MIN_SCENE_BLOCK) == [range(25), range(25, 50)]
        code, out, err, report = self.runs(monkeypatch, capsys, gt, pred)
        assert code == 0 and err == "" and out.startswith("scenes                 50\n")
        data = json.loads(report)
        assert 0.0 < data["perception"]["map_with_grasp"] < 1.0
        assert 0.0 < data["reasoning"]["image_accuracy"]["rate"] < 1.0

    def test_unreadable_files_in_two_blocks(self, tmp_path, monkeypatch, capsys):
        # scene 3 is in the caller's block, scene 40 in the last child's
        gt, pred = eval_dirs(tmp_path, unreadable={3, 40})
        code, out, err, report = self.runs(monkeypatch, capsys, gt, pred)
        assert code == 2 and out == "" and report is None
        lines = err.splitlines()
        assert [line.split(":")[0] for line in lines[:2]] == [
            str(pred / "s03.json"), str(pred / "s40.json")]
        assert lines[2:] == ["error: 2 unreadable input file(s)"]

    @pytest.mark.parametrize("far, first", [({30}, 30), ({6, 30}, 6)], ids=["child", "caller"])
    def test_a_numeric_failure_reports_like_one_cpu(self, tmp_path, monkeypatch, capsys,
                                                     far, first):
        # scene 30 is scored in a child on 2 and 3 CPUs, scene 6 by the caller
        gt, pred = eval_dirs(tmp_path, far=far)
        code, out, err, report = self.runs(monkeypatch, capsys, gt, pred)
        assert code == 3 and out == "" and report is None
        assert err == f"error: {gt / f's{first:02d}.json'}: grasp coordinates too large to compare\n"

    def test_an_unreadable_file_wins_over_a_numeric_failure(self, tmp_path, monkeypatch, capsys):
        gt, pred = eval_dirs(tmp_path, unreadable={40}, far={6})
        code, out, err, report = self.runs(monkeypatch, capsys, gt, pred)
        assert code == 2 and out == "" and report is None
        assert err.startswith(f"{pred / 's40.json'}: ")
        assert err.endswith("\nerror: 1 unreadable input file(s)\n")

    @pytest.mark.parametrize("die, how", [
        (lambda: os._exit(7), "exit status 7"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
    ], ids=["exit", "sigkill"])
    def test_a_dead_worker_is_a_clean_error(self, tmp_path, monkeypatch, capsys, die, how):
        parent = os.getpid()
        real_score_scene = cli.score_scene

        def dying_score_scene(*args):
            if os.getpid() != parent:
                die()
            return real_score_scene(*args)

        monkeypatch.setattr(cli, "score_scene", dying_score_scene)
        gt, pred = eval_dirs(tmp_path)
        (code, out, err, report), forks = run_eval(monkeypatch, capsys, gt, pred, 2)
        assert code == 2 and out == "" and report is None and len(forks) == 1
        assert err == (f"error: {gt}: scenes 25 to 49: "
                       f"a worker process ended without a result ({how})\n")

    def test_under_two_blocks_forks_nothing(self, tmp_path, monkeypatch, capsys):
        gt, pred = eval_dirs(tmp_path, scenes=2 * _MIN_SCENE_BLOCK - 1)
        (code, *_), forks = run_eval(monkeypatch, capsys, gt, pred, 3)
        assert code == 0 and forks == []
        (gt / "s31.json").write_text(serialize_scene(noisy_eval_scene(31)[0]))
        (pred / "s31.json").write_text(serialize_predictions(noisy_eval_scene(31)[1]))
        (code, *_), forks = run_eval(monkeypatch, capsys, gt, pred, 3)
        assert code == 0 and len(forks) == 1

    def test_without_fork_runs_in_one_process(self, tmp_path, monkeypatch, capsys):
        gt, pred = eval_dirs(tmp_path)
        one, _ = run_eval(monkeypatch, capsys, gt, pred, 1)
        # a platform such as Windows, where os has no fork
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        out = gt.parent / "report.json"
        out.unlink()
        code = _run_guarded(["eval", "--gt", str(gt), "--pred", str(pred), "--out", str(out),
                             "--pretty"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err, out.read_bytes()) == one
        assert one[0] == 0

    @pytest.mark.parametrize("refused", ["sched_setaffinity", "proc"])
    def test_a_refused_placement_changes_nothing(self, tmp_path, monkeypatch, capsys, refused):
        gt, pred = eval_dirs(tmp_path)
        one, _ = run_eval(monkeypatch, capsys, gt, pred, 1)

        def refuse(*args):
            raise OSError(1, "Operation not permitted")

        if refused == "proc":
            monkeypatch.setattr(cli, "_current_cpu", refuse)
        else:
            monkeypatch.setattr(os, "sched_setaffinity", refuse)
        two, forks = run_eval(monkeypatch, capsys, gt, pred, 2)
        assert two == one and len(forks) == 1


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@pytest.mark.skipif(_usable_cpus() < 2, reason="needs 2 or more usable CPUs")
def test_a_worker_runs_off_the_callers_cpu(monkeypatch):
    usable = os.sched_getaffinity(0)
    assert cli._current_cpu() in usable
    placed = []  # the CPU the caller was on as it started the round
    real_current_cpu = cli._current_cpu

    def recording_current_cpu():
        placed.append(real_current_cpu())
        return placed[-1]

    monkeypatch.setattr(cli, "_current_cpu", recording_current_cpu)
    parent = os.getpid()

    def affinity(block):
        # a worker waits, up to 10 s, for the caller to place it
        deadline = time.monotonic() + 10
        while os.getpid() != parent and os.sched_getaffinity(0) == usable:
            if time.monotonic() > deadline:
                break
            time.sleep(0.001)
        return os.sched_getaffinity(0)

    blocks = [range(0, 1), range(1, 2), range(2, 3)]
    got = list(cli._run_blocks(affinity, blocks, "here", "items"))
    assert no_child_left()
    assert len(placed) == 1
    assert got == [usable, usable - set(placed), usable - set(placed)]


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


# written into the file as the JSON numbers 1e400 and -1e400 (inf and -inf),
# and as a JSON integer too large for a float
_BIG = {"__1e400__": "1e400", "__-1e400__": "-1e400", "__10**400__": "1" + "0" * 400}


def _document_text(doc) -> str:
    """``doc`` as JSON text with the markers of ``_BIG`` written as numbers;
    a ``str`` is taken as the text itself."""
    text = doc if isinstance(doc, str) else json.dumps(doc)
    for marker, number in _BIG.items():
        text = text.replace(json.dumps(marker), number)
    return text


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
    # an area that overflows to inf: no detection could ever match it
    huge_box = [0, 0, 1e200, 1e200]
    scene = json.loads(serialize_scene(chain_scene()))
    scene["image"].update(width=10**201, height=10**201)
    scene["objects"][0]["bbox"] = huge_box
    for command in ("eval-gt", "augment", "plan"):
        yield pytest.param(
            command, scene, "objects[0]: box area overflows to inf",
            id=f"{command}-scene-bbox-area-overflow",
        )
    for command in ("plan", "eval"):
        yield pytest.param(
            command, preds(lambda d: d["detections"][0].update(bbox=huge_box)),
            "detections[0]: box area overflows to inf", id=f"{command}-bbox-area-overflow",
        )
    # a class named "" could never be matched by a detection
    scene = json.loads(serialize_scene(chain_scene()))
    scene["objects"][0]["category"] = ""
    for command in ("eval-gt", "augment", "plan"):
        yield pytest.param(
            command, scene, "objects[0]: empty category name", id=f"{command}-empty-category"
        )
    # a row that is not an object, in every table of a scene
    for table in ("objects", "grasps", "relations"):
        scene = json.loads(serialize_scene(chain_scene()))
        scene[table][0] = True
        yield pytest.param(
            "augment", scene, f"{table}[0]: expected an object, got bool",
            id=f"augment-{table}-row-not-an-object",
        )
    yield pytest.param(
        "plan", [preds(lambda d: None)], "expected a JSON object at the top level",
        id="plan-top-level-list",
    )
    yield pytest.param(
        "plan", preds(lambda d: d["detections"][0]["grasps"].insert(0, 5)),
        "detections[0].grasps[0]: expected an object, got int", id="plan-grasp-row-not-an-object",
    )
    # several bad fields: the first in id, category, bbox order is named
    yield pytest.param(
        "plan", preds(lambda d: d["detections"][0].update(category=5, bbox=[0, 0])),
        "detections[0]: category must be a string", id="plan-category-before-bbox",
    )
    # wrong JSON types in predictions, ids written as 1e400 (inf) included
    bad_types = {
        "id-true": (lambda d: d["detections"][0].update(id=True), "detections[0]: id"),
        "id-1e400": (lambda d: d["detections"][0].update(id="__1e400__"), "detections[0]: id"),
        "score-string": (lambda d: d["detections"][0].update(score="0.9"), "detections[0]: score"),
        "pair-1e400": (relation(pair=["__1e400__", 2]), "relations[0]: pair[0]"),
    }
    for name, (mutate, where) in bad_types.items():
        for command in ("plan", "eval"):
            yield pytest.param(command, preds(mutate), where, id=f"{command}-{name}")

    def scene(mutate):
        data = json.loads(serialize_scene(chain_scene()))
        mutate(data)
        return data

    bad_scenes = {
        "width-string": (lambda d: d["image"].update(width="640"), "image: width"),
        "height-fraction": (lambda d: d["image"].update(height=480.9), "image: height"),
        "path-number": (lambda d: d["image"].update(path=5), "image: path"),
        "id-fraction": (lambda d: d["objects"][0].update(id=1.7), "objects[0]: id"),
        "id-1e400": (lambda d: d["objects"][0].update(id="__1e400__"), "objects[0]: id"),
        "category-number": (lambda d: d["objects"][0].update(category=5), "objects[0]: category"),
        "bbox-string-and-bool": (
            lambda d: d["objects"][0].update(bbox=[0, 0, "1e-200", True]), "objects[0]: bbox[2]"
        ),
    }
    for name, (mutate, where) in bad_scenes.items():
        for command in ("augment", "eval-gt"):
            yield pytest.param(command, scene(mutate), where, id=f"{command}-scene-{name}")
    pairs = calibration_pairs()
    pairs[0]["pixel"] = [True, "0", 500]
    yield pytest.param("calibrate", pairs, "pair 0: pixel[0]", id="calibrate-pixel-bool-and-string")
    # an integer too large for a float in a number field
    huge = "__10**400__"
    yield pytest.param(
        "augment", scene(lambda d: d["objects"][0].update(bbox=[0, 0, huge, 10])),
        "objects[0]: bbox[2] is too large", id="augment-bbox-huge-integer",
    )
    yield pytest.param(
        "plan", preds(relation(probs=[huge, 0, 0])), "relations[0]: probs[0] is too large",
        id="plan-probs-huge-integer",
    )
    pairs = calibration_pairs()
    pairs[0]["pixel"] = [huge, 0, 500]
    yield pytest.param(
        "calibrate", pairs, "pair 0: pixel[0] is too large", id="calibrate-pixel-huge-integer"
    )
    yield pytest.param(
        "simulate", {"regimes": [{"count_range": [2, 4], "trials": 1, "coverage_threshold": huge}]},
        "regimes[0]: coverage_threshold is too large", id="simulate-coverage-threshold-huge-integer",
    )
    # nested past the decoder's recursion limit
    deep = "[" * 200_000 + "]" * 200_000
    for command in ("eval", "plan", "simulate", "calibrate", "augment"):
        yield pytest.param(command, deep, "$: not valid JSON", id=f"{command}-nested-200k-deep")
    bad_regimes = {
        "noise-null": {"noise": {"drop_prob": None}},
        "noise-not-an-object": {"noise": []},
        "count-range-scalar": {"count_range": 5},
        "trials-null": {"trials": None},
        "unknown-field": {"targt_rule": "deepest", "noize": {"drop_prob": 0.5}},
        # integer fields: a fraction or a bool is not truncated
        "trials-fraction": {"trials": 2.7},
        "trials-bool": {"trials": True},
        # more trials than trial seeds: a run that could never end
        "trials-past-seeds": {"trials": 2**32 + 1},
        "trials-huge-integer": {"trials": huge},
        "count-range-fraction": {"count_range": [2.9, 4]},
        "count-range-bool": {"count_range": [True, 4]},
        "count-range-triple": {"count_range": [2, 3, 4]},
        "max-stack-depth-fraction": {"max_stack_depth": 2.5},
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
    # fields that never changed a trial are gone, and unknown like any other
    for field in ("max_steps", "top_n"):
        regime = {"count_range": [2, 4], "trials": 1, field: 3}
        yield pytest.param(
            "simulate", {"regimes": [regime]},
            f"regimes[0]: unknown regime fields: ['{field}']",
            id=f"simulate-{field.replace('_', '-')}-unknown-field",
        )
    regime = {"count_range": [2, 4], "trials": 1}
    for key in ("sed", "regime"):
        yield pytest.param(
            "simulate", {key: 7, "regimes": [regime]}, f"$: unknown config fields: ['{key}']",
            id=f"simulate-unknown-top-level-field-{key}",
        )
    for name, seed in {"fraction": 1.5, "bool": True, "negative": -1, "string": "5"}.items():
        yield pytest.param(
            "simulate", {"seed": seed, "regimes": [regime]}, "seed must be",
            id=f"simulate-seed-{name}",
        )


@pytest.mark.parametrize("command, doc, where", list(_bad_inputs()))
def test_bad_input_is_a_data_error(tmp_path, scene_file, capsys, command, doc, where):
    path = tmp_path / "input.json"
    path.write_text(_document_text(doc))
    argv = {
        "plan": ["plan", "--pred", str(path), "--target", "1"],
        "eval": ["eval", "--gt", str(scene_file), "--pred", str(path)],
        "eval-gt": ["eval", "--gt", str(path), "--pred", str(scene_file)],
        "simulate": ["simulate", "--config", str(path)],
        "calibrate": ["calibrate", "--pairs", str(path)],
        "augment": ["augment", "--scene", str(path)],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert where in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["eval", "plan", "simulate", "calibrate", "augment"])
@pytest.mark.parametrize(
    "kind, reason", [("directory", "Is a directory"), ("under-a-file", "Not a directory")]
)
def test_unwritable_output_is_a_data_error(tmp_path, scene_file, capsys, command, kind, reason):
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps(calibration_pairs()))
    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps({"regimes": [{"count_range": [2, 4], "trials": 1}]}))
    argv = {
        "eval": ["eval", "--gt", str(scene_file), "--pred", str(scene_file)],
        "plan": ["plan", "--pred", str(scene_file), "--target", "1"],
        "simulate": ["simulate", "--config", str(sim)],
        "calibrate": ["calibrate", "--pairs", str(pairs)],
        "augment": ["augment", "--scene", str(scene_file)],
    }[command]
    blocker = tmp_path / "blocker"
    if kind == "directory":
        blocker.mkdir()
        out = blocker
    else:
        blocker.write_text("")
        out = blocker / "out.json"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {out}: {reason}\n"


# The README simulation config cut to one trial per regime.
README_SIM_ONE_TRIAL = {
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


def _mutated(draw, doc, keys):
    """``doc`` with 1 to 4 mutations: a type swap (bool, string, null,
    list, object, float for int, +-1e400), a missing key, an extra key
    from ``keys`` (known or not) or a list of the wrong length."""
    for _ in range(draw(st.integers(1, 4))):
        slots = list(_slots(doc))
        kind = draw(st.sampled_from(["swap", "drop", "add", "arity"]))
        if kind == "add":
            targets = [c for c in [doc] + [c[k] for c, k in slots] if isinstance(c, dict)]
            if not targets:
                continue
            target = draw(st.sampled_from(targets))
            # a copy: a later "add" may write into a [] or {} of _VALUES
            target[draw(st.sampled_from(keys))] = copy.deepcopy(draw(st.sampled_from(_VALUES)))
            continue
        if not slots:
            break
        _mutate_slot(draw, slots, kind)
    return doc


@st.composite
def mutated_sim_configs(draw):
    """The README config with the mutations of ``_mutated``."""
    return _mutated(draw, copy.deepcopy(README_SIM_ONE_TRIAL), _KEYS)


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


def _run_guarded(argv: list[str]) -> int:
    """``main(argv)`` in this process; a call still running after 60 s dumps
    every thread's stack and exits, so a hang fails the run. The dump goes
    to the process's own stderr, which ``capsys`` leaves in place."""
    faulthandler.dump_traceback_later(60, exit=True, file=sys.__stderr__)
    try:
        return main(argv)
    finally:
        faulthandler.cancel_dump_traceback_later()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated_sim_configs())
def test_mutated_sim_config_exits_cleanly(doc):
    """Any mutation of a valid config runs (0), is a data error (2) or a
    numeric failure (3): never an exception, never a hang."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sim.json"
        path.write_text(_document_text(doc))
        code = _run_guarded(
            ["simulate", "--config", str(path), "--out", str(Path(tmp) / "out.json")]
        )
    assert code in (0, 2, 3)


# For each input document: a valid one, the keys an "add" mutation may
# write, and the commands that read it ({doc} is its file, {scene} a valid
# scene file).
_DOCUMENTS = {
    "scene": (
        lambda: json.loads(serialize_scene(chain_scene())),
        ["image", "width", "height", "path", "depth_path", "objects", "id", "category",
         "bbox", "grasps", "owner", "rect", "relations", "above", "below", "extra"],
        [["augment", "--scene", "{doc}", "--rot90", "1", "--hflip"],
         ["eval", "--gt", "{doc}", "--pred", "{scene}"],
         ["plan", "--pred", "{doc}", "--target", "1"]],
    ),
    "predictions": (
        lambda: json.loads(serialize_predictions(record_to_predictions(chain_scene()))),
        ["detections", "id", "category", "bbox", "score", "grasps", "rect", "confidence",
         "relations", "pair", "probs", "extra"],
        [["eval", "--gt", "{scene}", "--pred", "{doc}"],
         ["plan", "--pred", "{doc}", "--target", "3", "--assume-hidden"]],
    ),
    "calibration": (
        calibration_pairs,
        ["pixel", "robot", "extra"],
        [["calibrate", "--pairs", "{doc}"]],
    ),
}


@st.composite
def mutated_documents(draw):
    """A command and the mutated document it reads: a scene, predictions
    or calibration pairs with the mutations of ``_mutated``."""
    make, keys, commands = _DOCUMENTS[draw(st.sampled_from(sorted(_DOCUMENTS)))]
    return draw(st.sampled_from(commands)), _mutated(draw, make(), keys)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=mutated_documents())
def test_mutated_document_exits_cleanly(case):
    """Any mutation of a valid scene, predictions or calibration document
    gives exit 0, 2 or 3 in eval, plan, augment and calibrate: never an
    exception, never a hang."""
    command, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        files = {"doc": Path(tmp) / "doc.json", "scene": Path(tmp) / "scene.json"}
        files["doc"].write_text(_document_text(doc))
        files["scene"].write_text(serialize_scene(chain_scene()))
        argv = [arg.format(**files) for arg in command]
        code = _run_guarded(argv + ["--out", str(Path(tmp) / "out.json")])
    assert code in (0, 2, 3)


# Flags and paths for the flag and path fuzz test. A value flag takes a
# value from _FLAG_VALUES: float and int edges, the empty and blank
# strings, non-ASCII digits (which int() and float() read) and a few that
# pass. An input path is one of _INPUT_KINDS and an output path one of
# _OUTPUT_KINDS; FIFOs stay out, since one with no writer blocks by design.
_FLAG_VALUES = [
    "nan", "inf", "-0", "1e308", str(2**70), "9" * 5000, "", "  ",
    "\u0663", "\uff11\uff12", "1", "0.5", "-1",
]
_INPUT_KINDS = ["valid", "missing", "directory", "empty", "non-utf8"]
_OUTPUT_KINDS = ["new", "existing-directory", "file", "missing-parent"]
# each subcommand's flags: the content of a valid input file, "out" for an
# output path, "value" for a value flag and None for a switch; the
# required flags come first
_SUBCOMMANDS = {
    "eval": (2, {"--gt": "scene", "--pred": "predictions", "--out": "out", "--iou": "value",
                 "--jaccard": "value", "--angle": "value", "--topn": "value", "--pretty": None}),
    "plan": (2, {"--pred": "predictions", "--target": "value", "--assume-hidden": None,
                 "--out": "out", "--pretty": None}),
    "simulate": (1, {"--config": "config", "--seed": "value", "--out": "out",
                     "--trial-log": "out", "--pretty": None}),
    "calibrate": (1, {"--pairs": "pairs", "--out": "out", "--pretty": None}),
    "augment": (1, {"--scene": "scene", "--rot90": "value", "--hflip": None, "--out": "out"}),
}
# what an error about a value flag names: the flag, or the field it sets
_NAMED_AS = {"--iou": "iou", "--jaccard": "jaccard", "--angle": "angle", "--topn": "top_n",
             "--target": "target", "--seed": "--seed", "--rot90": "--rot90"}


def _valid_inputs() -> dict[str, str]:
    return {
        "scene": serialize_scene(chain_scene()),
        "predictions": serialize_predictions(record_to_predictions(chain_scene())),
        "config": json.dumps({"seed": 1, "regimes": [{"count_range": [2, 4], "trials": 2}]}),
        "pairs": json.dumps(calibration_pairs()),
    }


@st.composite
def flag_and_path_cases(draw):
    """A subcommand, its required flags and a subset of the others, each
    with a drawn value or path kind: (subcommand, [(flag, value or kind or
    None)])."""
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    required, flags = _SUBCOMMANDS[command]
    names = list(flags)
    chosen = names[:required] + [f for f in names[required:] if draw(st.booleans())]
    drawn = []
    for flag in chosen:
        kind = flags[flag]
        if kind == "value":
            drawn.append((flag, draw(st.sampled_from(_FLAG_VALUES))))
        elif kind is not None:
            # half the paths are the first kind, valid, so that runs get
            # past their inputs to the other flags' handlers
            kinds = _OUTPUT_KINDS if kind == "out" else _INPUT_KINDS
            drawn.append((flag, kinds[0] if draw(st.booleans()) else draw(st.sampled_from(kinds))))
        else:
            drawn.append((flag, None))
    return command, drawn


def _path_of(tmp: Path, flag: str, kind: str, content: str | None) -> Path:
    """A path of ``kind`` under ``tmp`` for ``flag``; a valid input holds
    ``content``, and the input directory holds one valid scene file."""
    directory = tmp / "dir"
    if not directory.exists():
        directory.mkdir()
        (directory / "scene.json").write_text(serialize_scene(chain_scene()))
    stem = flag.strip("-")
    if kind == "missing":
        return tmp / f"{stem}-missing.json"
    if kind == "directory":
        return directory
    if kind == "existing-directory":
        (tmp / stem).mkdir()
        return tmp / stem
    path = tmp / f"{stem}.json"
    if kind == "new":
        return path
    if kind == "missing-parent":
        return tmp / "nowhere" / path.name
    if kind == "non-utf8":
        path.write_bytes(b'{"a": "\xff\xfe"}')
    else:  # "empty", "file" (a file where a directory or a new file is expected), "valid"
        path.write_text(content if kind == "valid" else "")
    return path


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=flag_and_path_cases())
def test_flags_and_paths_keep_the_exit_code_contract(case):
    """Any subcommand with any subset of its flags, given edge values and
    every kind of path, exits 0, 1, 2 or 3 without a traceback; a data
    error (2) names a flag or path it was given that is at fault."""
    command, drawn = case
    _, flags = _SUBCOMMANDS[command]
    valid = _valid_inputs()
    with tempfile.TemporaryDirectory() as tmp:
        argv, named = [command], set()
        for flag, drawn_value in drawn:
            argv.append(flag)
            kind = flags[flag]
            if kind == "value":
                argv.append(drawn_value)
                named.add(_NAMED_AS[flag])
            elif kind is not None:
                path = _path_of(Path(tmp), flag, drawn_value, valid.get(kind))
                argv.append(str(path))
                # a path of any other kind is at fault; eval reads a
                # directory of scenes, and names --gt and --pred when only
                # one of them is a directory
                named.add(flag)
                if drawn_value not in ("valid", "new") and (drawn_value, command) != ("directory", "eval"):
                    named.add(str(path))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = _run_guarded(argv)
    err = err.getvalue()
    assert code in (0, 1, 2, 3), (argv, err)
    assert "Traceback" not in err
    if code == 2:
        assert any(name in err for name in named), (argv, err)


# Rows that take the parser's slower branch: converted or rejected.
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
    return json.loads(_document_text(doc))


def _parsed_or_error(parse):
    try:
        return repr(parse())  # repr tells 1 from 1.0 and True
    except (ValueError, OverflowError) as e:  # int() of an infinite id overflows
        return f"{type(e).__name__}: {e}"


@settings(max_examples=500, deadline=None)
@given(data=mutated_relation_docs())
def test_mutated_relation_rows_parse_like_the_row_loop(data):
    """The relation-row loop of ``parse_predictions`` stores what the strict
    per-row reference stores, or raises its error for the same row
    (tests/oracle_utils.per_row_relations)."""
    ids = {d["id"] for d in data["detections"]}
    expected = _parsed_or_error(lambda: per_row_relations(data, ids))
    assert _parsed_or_error(lambda: parse_predictions(data).relations) == expected


@st.composite
def mutated_row_docs(draw):
    """A valid scene document, or the detections of a valid predictions
    document, whose object, grasp, relation or detection rows take 1 to 4
    edits: a mutation of ``_mutate_slot`` (type swap, bools, whole floats
    and +-1e400 among them; a missing key or row; a list of the wrong
    length), a NaN or an integer in place of a float, or a duplicated
    row."""
    name = draw(st.sampled_from(["scene", "predictions"]))
    doc = _DOCUMENTS[name][0]()
    if name == "scene":
        tables = [doc["objects"], doc["grasps"], doc["relations"]]
    else:
        del doc["relations"]
        tables = [doc["detections"], *(d["grasps"] for d in doc["detections"])]
    for _ in range(draw(st.integers(1, 4))):
        rows = draw(st.sampled_from(tables))
        slots = list(_slots(rows))
        if not slots:
            continue
        kind = draw(st.sampled_from(["swap", "drop", "arity", "nan", "int", "duplicate"]))
        if kind == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), copy.deepcopy(draw(st.sampled_from(rows))))
        elif kind in ("nan", "int"):
            container, key = draw(st.sampled_from(slots))
            value = container[key]
            if type(value) is float and math.isfinite(value):
                container[key] = float("nan") if kind == "nan" else int(value)
        else:
            _mutate_slot(draw, slots, kind)
    return name, json.loads(_document_text(doc))


@settings(max_examples=500, deadline=None)
@given(case=mutated_row_docs())
def test_mutated_rows_parse_like_the_field_readers(case):
    """The typed fast paths of ``parse_scene`` and of the detection and
    grasp rows of ``parse_predictions`` build what the strict per-field
    readers build, or raise their error for the same field
    (tests/oracle_utils.per_field_scene and per_field_detections)."""
    name, doc = case
    if name == "scene":
        assert _parsed_or_error(lambda: parse_scene(doc)) == _parsed_or_error(
            lambda: per_field_scene(doc)
        )
    else:
        def fast():
            preds = parse_predictions(doc)
            return preds.detections, preds.grasp_candidates

        assert _parsed_or_error(fast) == _parsed_or_error(lambda: per_field_detections(doc))


def fresh_interpreter(script: str, *args: str, timeout: float) -> subprocess.CompletedProcess:
    """``python -c SCRIPT ARGS...`` in a new interpreter that imports this
    package, with its stdout and stderr as text."""
    src = str(Path(stackgrasp.__file__).resolve().parents[1])
    pythonpath = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


def calibrate_process(pairs: Path, timeout: float) -> subprocess.CompletedProcess:
    """``stackgrasp calibrate --pairs PAIRS`` in a new interpreter, whose
    stderr shows every warning as a user would see it."""
    return fresh_interpreter(
        "import sys; from stackgrasp.cli import main; sys.exit(main(sys.argv[1:]))",
        "calibrate", "--pairs", str(pairs), timeout=timeout,
    )


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

    @pytest.mark.parametrize(
        "text",
        ["[", "{}", json.dumps([{"pixel": [True, 0, 500], "robot": [0, 0, 0]}]), None],
        ids=["not-json", "not-a-list", "bad-pair", "missing"],
    )
    def test_error_names_the_file_once(self, tmp_path, capsys, text):
        path = tmp_path / "pairs.json"
        if text is not None:
            path.write_text(text)
        assert main(["calibrate", "--pairs", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("pairs.json") == 1, err

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
        proc = calibrate_process(path, timeout=5)
        assert proc.returncode == 3
        assert "pair 3: non-finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_overflowing_fit_is_one_error_line(self, tmp_path):
        # the residuals of robot coordinates near 1e308 overflow; the map
        # was written with "residual_rms": Infinity, which is not JSON
        pixels = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (0, 0, 2), (1, 1, 3)]
        pairs = [{"pixel": p, "robot": [1e308 * (i % 2), 1e308 * (i // 2 % 2), 1e308]}
                 for i, p in enumerate(pixels)]
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(pairs))
        proc = calibrate_process(path, timeout=30)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == "error: residual_rms must be finite\n"

    def test_overflowing_determinant_is_only_the_residual_warning(self, tmp_path):
        # the linear part's determinant overflows to inf, which is not
        # singular; lstsq loses the exact fit at this scale
        pixels = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (0, 0, 2), (1, 1, 3)]
        pairs = [{"pixel": p, "robot": [1e120 * v for v in p]} for p in pixels]
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(pairs))
        proc = calibrate_process(path, timeout=30)
        assert proc.returncode == 0
        rms = json.loads(proc.stdout)["residual_rms"]
        assert proc.stderr == (
            f"warning: calibration residual RMS {rms:.2f} mm per point is above "
            f"{CALIBRATION_WARN_RMS_MM} mm\n"
        )

    def test_pretty_summary(self, tmp_path, capsys):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(calibration_pairs()))
        assert main(["calibrate", "--pairs", str(path), "--pretty"]) == 0
        out = capsys.readouterr().out
        assert "pairs         6" in out

    def test_a_failed_solve_is_a_numeric_failure(self, tmp_path, monkeypatch, capsys):
        # numpy's LinAlgError leaves fit_affine as a CalibrationError with
        # its text, and calibrate prints that text alone and exits 3
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "lstsq", no_convergence)
        pairs = calibration_pairs()
        with pytest.raises(CalibrationError, match="^SVD did not converge$") as failed:
            fit_affine([(p["pixel"], p["robot"]) for p in pairs])
        assert isinstance(failed.value.__cause__, np.linalg.LinAlgError)
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(pairs))
        assert main(["calibrate", "--pairs", str(path), "--pretty"]) == 3
        assert capsys.readouterr() == ("", "error: SVD did not converge\n")


# Runs in a new interpreter: plan, eval and augment on the files named by
# its arguments, then simulate on the config named last; prints whether
# numpy was loaded before simulate, the exit codes, and simulate's table.
STARTUP_SCRIPT = """
import json, sys
import stackgrasp, stackgrasp.cli
scene, preds, config = sys.argv[1:]
codes = [
    stackgrasp.cli.main(["plan", "--pred", preds, "--target", "3", "--pretty"]),
    stackgrasp.cli.main(["eval", "--gt", scene, "--pred", preds, "--pretty"]),
    stackgrasp.cli.main(["augment", "--scene", scene, "--rot90", "1", "--hflip"]),
]
loaded = "numpy" in sys.modules
resolved = [f.__module__ for f in (stackgrasp.simulation.run_trial,
                                    stackgrasp.execution.fit_affine)]
codes.append(stackgrasp.cli.main(["simulate", "--config", config, "--pretty"]))
print(json.dumps({"numpy_before_simulate": loaded, "codes": codes, "resolved": resolved}))
"""


class TestStartup:
    def test_plan_eval_and_augment_never_load_numpy(self, tmp_path, scene_file, pred_file):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps(README_SIM))
        proc = fresh_interpreter(
            STARTUP_SCRIPT, str(scene_file), str(pred_file), str(config), timeout=120
        )
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        *output, report = proc.stdout.splitlines()
        assert json.loads(report) == {
            "numpy_before_simulate": False,
            "codes": [0, 0, 0, 0],
            "resolved": ["stackgrasp.simulation", "stackgrasp.execution"],
        }
        assert output[-2:] == ["shallow  100.0% (500/500)", "deep     57.8% (289/500)"]


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
        assert rec.objects[3].instance_id == 4
        assert rec.objects[3].box == AABox(140.0, 300.0, 240.0, 340.0)
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
