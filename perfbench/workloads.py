"""The four benchmark workloads, each a closed loop with one client.

A workload reads the files ``inputs.py`` generated and exposes its calls:
``prepare`` builds a call's arguments outside the timed region, ``run`` is
the timed call through the package's public entry points, and ``digest``
reduces the call's output to a string the output gates compare.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from stackgrasp import cli, execution, perception, reasoning
from stackgrasp.anchors import GraspDelta
from stackgrasp.geometry import AABox
from stackgrasp.losses import GraspPrediction

# Regime successes of the README config at seed 5, as the README prints them.
README_SUCCESSES = [500, 289]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    unit: str  # what one operation is: trial, scene, plan or pick

    def __init__(self, work: Path, manifest: dict):
        self.work = work
        self.calls = manifest["calls"]

    def units(self, i: int) -> int:
        """Operations in call ``i``."""
        return 1

    def gate(self, i: int, result) -> str | None:
        """A problem with call ``i``'s output beyond its digest, if any."""
        return None


class CliWorkload(Workload):
    """Calls of the ``stackgrasp`` command through ``stackgrasp.cli.main``;
    each writes its JSON to one output file that the digest hashes."""

    def __init__(self, work: Path, manifest: dict):
        super().__init__(work, manifest)
        self.out = work / "out.json"

    def argv(self, call: dict) -> list[str]:
        raise NotImplementedError

    def prepare(self, i: int) -> list[str]:
        return self.argv(self.calls[i]) + ["--out", str(self.out)]

    def run(self, argv: list[str]) -> int:
        return cli.main(argv)

    def failed(self, result: int) -> bool:
        return result != 0

    def digest(self, i: int, result: int) -> str:
        return sha(self.out.read_bytes()) if result == 0 else f"exit {result}"


class Simulate(CliWorkload):
    """``stackgrasp simulate`` on the README config, at the README seed and
    at seed-derived base seeds. One operation is one trial."""

    unit = "trial"

    def argv(self, call):
        argv = ["simulate", "--config", str(self.work / call["config"])]
        return argv if call["seed"] is None else argv + ["--seed", str(call["seed"])]

    def units(self, i):
        return self.calls[i]["trials"]

    def gate(self, i, result):
        if result != 0 or self.calls[i]["seed"] is not None:
            return None
        successes = [r["successes"] for r in json.loads(self.out.read_text())["regimes"]]
        if successes != README_SUCCESSES:
            return f"README config gave {successes} successes, expected {README_SUCCESSES}"
        return None


class Eval(CliWorkload):
    """``stackgrasp eval`` over one directory of scenes and predictions per
    call. One operation is one scene."""

    unit = "scene"

    def argv(self, call):
        return ["eval", "--gt", str(self.work / call["gt"]), "--pred", str(self.work / call["pred"])]

    def units(self, i):
        return self.calls[i]["scenes"]


class PlanDense(CliWorkload):
    """``stackgrasp plan --assume-hidden`` on one dense scene per call,
    targeting its deepest object. One operation is one plan."""

    unit = "plan"

    def argv(self, call):
        return ["plan", "--pred", str(self.work / call["pred"]),
                "--target", str(call["target"]), "--assume-hidden"]


class Pick(Workload):
    """One robot decision per call, from raw detector output to a robot
    pose, through the library calls the README quick start documents.
    The calibration is fitted once, when the workload is loaded."""

    unit = "pick"

    def __init__(self, work: Path, manifest: dict):
        super().__init__(work, manifest)
        pairs = execution.load_calibration_pairs(work / manifest["calibration"])
        self.affine = execution.fit_affine(pairs)

    def prepare(self, i: int) -> dict:
        call = self.calls[i]
        with np.load(self.work / call["raw"]) as raw:
            roi_deltas, roi_logits = raw["deltas"], raw["logits"]
        detections, grasp_outputs = [], {}
        for d, deltas, logits in zip(call["detections"], roi_deltas, roi_logits):
            detections.append(perception.ObjectDetection(
                box=AABox(*d["bbox"]), category=d["category"],
                score=d["score"], instance_id=d["id"]))
            grasp_outputs[d["id"]] = [
                GraspPrediction(delta=GraspDelta(*map(float, delta)), logits=tuple(map(float, logit)))
                for delta, logit in zip(deltas, logits)
            ]
        return {
            "detections": detections,
            "grasp_outputs": grasp_outputs,
            "relations": {(r[0], r[1]): tuple(r[2:]) for r in call["relations"]},
            "depth": self.work / call["depth"],
            "target": call["target"],
        }

    def run(self, req: dict):
        kept = perception.nms(req["detections"])
        ids = {d.instance_id for d in kept}
        perceived = [
            perception.perceive(d, perception.decode_roi_grasps(d.box, req["grasp_outputs"][d.instance_id]))
            for d in kept
        ]
        relations = {p: v for p, v in req["relations"].items() if p[0] in ids and p[1] in ids}
        graph = reasoning.build_graph([d.instance_id for d in kept], reasoning.symmetrize(relations))
        action = reasoning.next_action(graph, perceived, req["target"])
        grasp = next(p.best_grasp for p in perceived if p.detection.instance_id == action.object_id)
        depth = execution.load_depth_pgm(req["depth"])
        try:
            return action.object_id, execution.to_robot_pose(grasp, depth, self.affine)
        except execution.GraspExecutionError as e:
            return action.object_id, e

    def failed(self, result) -> bool:
        return isinstance(result[1], execution.GraspExecutionError)

    def digest(self, i: int, result) -> str:
        object_id, pose = result
        if self.failed(result):
            return sha(f"{object_id} {type(pose).__name__}".encode())
        values = [*pose.point, *pose.approach, pose.roll, pose.opening]
        return sha(json.dumps([object_id, [round(float(v), 9) + 0.0 for v in values]]).encode())


WORKLOADS = {
    "simulate": Simulate,
    "eval": Eval,
    "plan_dense": PlanDense,
    "pick": Pick,
}
