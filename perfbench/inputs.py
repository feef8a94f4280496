"""Seeded input generation for the benchmark workloads.

Uses numpy and json only, never the package under test, so one seed gives
the same input files at every commit. Everything is written in the file
formats the package README documents, plus one manifest per workload that
lists the calls a run makes.

    python3 perfbench/inputs.py --workload NAME --seed N --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import numpy as np

WIDTH, HEIGHT = 640, 480
CATEGORIES = (
    "apple", "banana", "bottle", "box", "can", "cup", "marker", "mouse",
    "notebook", "pen", "pliers", "remote", "scissors", "spoon", "stapler", "wallet",
)
TABLE_MM, LEVEL_MM = 1000.0, 40.0
HIDDEN_COVERAGE = 0.8  # the package's default coverage threshold

# The README's simulation config: its rates (500/500, 289/500) are a gate.
README_SIM_CONFIG = {
    "seed": 5,
    "regimes": [
        {"name": "shallow", "count_range": [2, 4], "trials": 500},
        {
            "name": "deep", "count_range": [6, 9], "trials": 500,
            "target_rule": "deepest",
            "noise": {"relation_flip_prob": 0.1, "box_sigma": 2.0},
        },
    ],
}
SIM_VARIANTS = 2  # seed-derived base seeds run beside the README seed
# An odd number of directories puts the median call inside one directory's
# latencies instead of in the gap between two.
EVAL_DIRS, EVAL_SCENES_PER_DIR = 9, 50
PLAN_SCENES = 256
PICK_SCENES = 50
# Visible objects per pick scene, near the generator's own mix. They set how
# many ROIs a request decodes, so fixing them keeps the median steady.
PICK_VISIBLE = (4, 5, 5, 6, 6, 6, 7, 7, 8, 8)
GRID, ORIENTS, ANCHOR_SIDE = 7, 4, 24.0  # the package's default AnchorConfig


class _Node:
    __slots__ = ("x0", "y0", "w", "h", "level", "parent", "mode", "quads", "children")

    def __init__(self, x0, y0, w, h, level, parent):
        self.x0, self.y0, self.w, self.h = x0, y0, w, h
        self.level, self.parent = level, parent
        self.mode = None  # "cover" (one child hiding it) or "quad" (up to four)
        self.quads = [0, 1, 2, 3]
        self.children = []

    def eligible(self, max_depth: int) -> bool:
        if self.level >= max_depth or min(self.w, self.h) < 24:
            return False
        return self.mode is None or (self.mode == "quad" and bool(self.quads))


def _try_scene(rng, n: int, max_depth: int):
    slot_w, slot_h = WIDTH // 3, HEIGHT // 2
    slots = [int(s) for s in rng.permutation(6)]
    roots = int(rng.integers(1, min(n, 4) + 1))
    nodes: list[_Node] = []
    for i in range(n):
        eligible = [nd for nd in nodes if nd.eligible(max_depth)]
        if i < roots or not eligible:
            used = sum(1 for nd in nodes if nd.parent is None)
            if used == len(slots):
                return None
            sx, sy = (slots[used] % 3) * slot_w, (slots[used] // 3) * slot_h
            w, h = int(rng.integers(110, 171)), int(rng.integers(110, 171))
            x0 = sx + int(rng.integers(8, slot_w - w - 7))
            y0 = sy + int(rng.integers(8, slot_h - h - 7))
            nodes.append(_Node(x0, y0, w, h, 0, None))
            continue
        parent = eligible[int(rng.integers(len(eligible)))]
        if parent.mode is None:
            parent.mode = "cover" if rng.random() < 0.4 else "quad"
        if parent.mode == "cover":
            cw = min(int(round(parent.w * rng.uniform(0.92, 0.97))), parent.w - 2)
            ch = min(int(round(parent.h * rng.uniform(0.92, 0.97))), parent.h - 2)
            x0 = parent.x0 + int(rng.integers(0, parent.w - cw + 1))
            y0 = parent.y0 + int(rng.integers(0, parent.h - ch + 1))
            parent.mode = "full"
        else:
            q = parent.quads.pop(int(rng.integers(len(parent.quads))))
            qw, qh = parent.w // 2, parent.h // 2
            cw = max(min(int(round(parent.w * rng.uniform(0.34, 0.46))), qw - 2), 8)
            ch = max(min(int(round(parent.h * rng.uniform(0.34, 0.46))), qh - 2), 8)
            x0 = parent.x0 + (q % 2) * qw + int(rng.integers(1, qw - cw))
            y0 = parent.y0 + (q // 2) * qh + int(rng.integers(1, qh - ch))
        child = _Node(x0, y0, cw, ch, parent.level + 1, parent)
        parent.children.append(child)
        nodes.append(child)
    return nodes


def make_scene(rng, n: int, max_depth: int) -> list[dict]:
    """``n`` boxes in nested stacks: a stacked box lies inside the box under
    it and siblings never overlap, as in the package's simulator. Each
    object lists the ids of everything it rests on, directly or not."""
    nodes = None
    while nodes is None:
        nodes = _try_scene(rng, n, max_depth)
    ids = {id(nd): i + 1 for i, nd in enumerate(nodes)}
    objects = []
    for nd in nodes:
        below, anc = [], nd.parent
        while anc is not None:
            below.append(ids[id(anc)])
            anc = anc.parent
        side = float(min(nd.w, nd.h))
        cx, cy = nd.x0 + nd.w / 2.0, nd.y0 + nd.h / 2.0
        grasps = [
            [
                cx + rng.uniform(-0.05, 0.05) * side,
                cy + rng.uniform(-0.05, 0.05) * side,
                side * rng.uniform(0.45, 0.6),
                side * rng.uniform(0.25, 0.4),
                rng.uniform(-90.0, 90.0),
            ]
            for _ in range(int(rng.integers(1, 4)))
        ]
        covered = sum(c.w * c.h for c in nd.children) / (nd.w * nd.h)
        objects.append({
            "id": ids[id(nd)],
            "category": CATEGORIES[int(rng.integers(len(CATEGORIES)))],
            "bbox": [float(nd.x0), float(nd.y0), float(nd.x0 + nd.w), float(nd.y0 + nd.h)],
            "level": nd.level,
            "below": below,
            "grasps": [[float(v) for v in g] for g in grasps],
            "visible": covered < HIDDEN_COVERAGE,
        })
    return objects


def relation_class(objects_by_id: dict, a: int, b: int) -> int:
    """0 none, 1 ``a`` above ``b``, 2 ``a`` below ``b``."""
    if b in objects_by_id[a]["below"]:
        return 1
    if a in objects_by_id[b]["below"]:
        return 2
    return 0


def deepest(objects: list[dict]) -> int:
    """The object with the most objects stacked on it; ties go to the lower id."""
    buried = {o["id"]: 0 for o in objects}
    for o in objects:
        for b in o["below"]:
            buried[b] += 1
    return min(buried, key=lambda i: (-buried[i], i))


def soft_relations(rng, objects: list[dict], ids: list[int], error: float) -> list[list]:
    """[a, b, p_none, p_above, p_below] for every ordered pair of ``ids``.

    Each pair's label is the truth, replaced by one of the other two
    classes with probability ``error``. The probabilities put 600 per
    mille on that label and spread 400 per mille at random, so each
    triple sums to one."""
    by_id = {o["id"]: o for o in objects}
    pairs = [(a, b) for a in ids for b in ids if a != b]
    if not pairs:
        return []
    labels = np.array([relation_class(by_id, a, b) for a, b in pairs])
    wrong = rng.random(len(pairs)) < error
    labels = np.where(wrong, (labels + rng.integers(1, 3, len(pairs))) % 3, labels)
    per_mille = rng.multinomial(400, rng.dirichlet([1.0, 1.0, 1.0], len(pairs)))
    per_mille[np.arange(len(pairs)), labels] += 600
    return [[a, b, *(int(k) / 1000 for k in row)] for (a, b), row in zip(pairs, per_mille)]


def _jittered_box(rng, bbox, sigma: float) -> list[float]:
    x0, y0, x1, y1 = (v + sigma * d for v, d in zip(bbox, rng.normal(size=4)))
    x0, x1 = sorted((min(max(x0, 0.0), WIDTH - 1.0), min(max(x1, 0.0), WIDTH - 1.0)))
    y0, y1 = sorted((min(max(y0, 0.0), HEIGHT - 1.0), min(max(y1, 0.0), HEIGHT - 1.0)))
    return [x0, y0, max(x1, x0 + 1.0), max(y1, y0 + 1.0)]


def _score(rng, sigma: float) -> float:
    return min(max(1.0 - abs(sigma * float(rng.normal())), 0.01), 1.0)


def _write_json(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data) + "\n")


def _scene_file(objects: list[dict]) -> dict:
    return {
        "image": {"width": WIDTH, "height": HEIGHT},
        "objects": [{"id": o["id"], "category": o["category"], "bbox": o["bbox"]} for o in objects],
        "grasps": [{"owner": o["id"], "rect": g} for o in objects for g in o["grasps"]],
        "relations": [{"above": o["id"], "below": b} for o in objects for b in o["below"]],
    }


def _noisy_predictions(rng, objects: list[dict]) -> dict:
    """A detector's view of a scene: visible objects only, 10% dropped, box
    and angle jitter, score noise and 10% flipped relation labels."""
    dets = []
    for o in objects:
        if not o["visible"] or rng.random() < 0.1:
            continue
        grasps = [
            {"rect": [x, y, w, h, t + 10.0 * float(rng.normal())], "confidence": _score(rng, 0.2)}
            for x, y, w, h, t in o["grasps"]
        ]
        dets.append({
            "id": o["id"], "category": o["category"],
            "bbox": _jittered_box(rng, o["bbox"], 2.0),
            "score": _score(rng, 0.2), "grasps": grasps,
        })
    by_id = {o["id"]: o for o in objects}
    relations = []
    for a in (d["id"] for d in dets):
        for b in (d["id"] for d in dets):
            if a == b:
                continue
            label = relation_class(by_id, a, b)
            if rng.random() < 0.1:
                label = (label + int(rng.integers(1, 3))) % 3
            relations.append({"pair": [a, b], "probs": [float(k == label) for k in range(3)]})
    return {"detections": dets, "relations": relations}


def _predictions_file(objects: list[dict], rng, relations: list[list]) -> dict:
    dets = [
        {
            "id": o["id"], "category": o["category"], "bbox": o["bbox"],
            "score": round(float(rng.uniform(0.5, 1.0)), 3),
            "grasps": [{"rect": g, "confidence": round(float(rng.uniform(0.3, 1.0)), 3)}
                       for g in o["grasps"]],
        }
        for o in objects if o["visible"]
    ]
    return {"detections": dets, "relations": [{"pair": r[:2], "probs": r[2:]} for r in relations]}


def gen_simulate(rng, out: Path) -> dict:
    _write_json(out / "sim.json", README_SIM_CONFIG)
    seeds = [None] + [int(s) for s in rng.integers(0, 2**31, SIM_VARIANTS)]
    trials = sum(r["trials"] for r in README_SIM_CONFIG["regimes"])
    return {"calls": [{"config": "sim.json", "seed": s, "trials": trials} for s in seeds]}


def gen_eval(rng, out: Path) -> dict:
    calls = []
    for d in range(EVAL_DIRS):
        for i in range(EVAL_SCENES_PER_DIR):
            objects = make_scene(rng, 6 + i % 4, 4)
            _write_json(out / f"gt/{d}/scene_{i:03d}.json", _scene_file(objects))
            _write_json(out / f"pred/{d}/scene_{i:03d}.json", _noisy_predictions(rng, objects))
        calls.append({"gt": f"gt/{d}", "pred": f"pred/{d}", "scenes": EVAL_SCENES_PER_DIR})
    return {"calls": calls}


def gen_plan_dense(rng, out: Path) -> dict:
    calls = []
    for i in range(PLAN_SCENES):
        # A hidden target makes the plan clear every visible object, so
        # plans come in two lengths. A fixed 3 in 8 scenes, about the share
        # the generator gives on its own, have it hidden.
        hidden = i % 8 < 3
        objects = make_scene(rng, 30 + (i * 31) // PLAN_SCENES, 9)
        while objects[deepest(objects) - 1]["visible"] == hidden:
            objects = make_scene(rng, 30 + (i * 31) // PLAN_SCENES, 9)
        visible = [o["id"] for o in objects if o["visible"]]
        relations = soft_relations(rng, objects, visible, error=0.2)
        _write_json(out / f"pred/plan_{i:03d}.json", _predictions_file(objects, rng, relations))
        calls.append({"pred": f"pred/plan_{i:03d}.json", "target": deepest(objects)})
    return {"calls": calls}


def _depth_pgm(path: Path, rng, objects: list[dict], missing: float) -> None:
    """16-bit PGM: table at 1000 mm, each stack level 40 mm nearer the
    camera, each top face slightly tilted, 1 mm of sensor noise, and a
    share ``missing`` of pixels dropped to 0."""
    mm = np.full((HEIGHT, WIDTH), TABLE_MM)
    for o in sorted(objects, key=lambda o: (o["level"], o["id"])):
        x0, y0, x1, y1 = (int(v) for v in o["bbox"])
        ys, xs = np.mgrid[y0:y1, x0:x1]
        tilt_x, tilt_y = rng.uniform(-0.05, 0.05, 2)
        mm[y0:y1, x0:x1] = (TABLE_MM - LEVEL_MM * (o["level"] + 1)
                            + tilt_x * (xs - (x0 + x1) / 2) + tilt_y * (ys - (y0 + y1) / 2))
    mm = np.rint(mm + rng.normal(0.0, 1.0, mm.shape))
    mm[rng.random(mm.shape) < missing] = 0.0
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        f.write(f"P5\n{WIDTH} {HEIGHT}\n65535\n".encode("ascii"))
        f.write(mm.astype(">u2").tobytes())


def _anchor_outputs(rng, roi: list[float], grasps: list[list[float]]):
    """Raw grasp-head output for one ROI over the default 7x7x4 anchor grid:
    (196, 5) deltas and (196, 2) logits. Each true grasp is encoded on the
    anchor of its cell with the nearest orientation and scores high; every
    other anchor is low-scoring noise."""
    deltas = rng.normal(0.0, 0.25, (GRID * GRID * ORIENTS, 5))
    logits = np.stack([rng.normal(-2.0, 0.5, len(deltas)), rng.normal(2.0, 0.5, len(deltas))], 1)
    cell_w, cell_h = (roi[2] - roi[0]) / GRID, (roi[3] - roi[1]) / GRID
    thetas = [-90.0 + (k + 0.5) * 180.0 / ORIENTS for k in range(ORIENTS)]
    for x, y, w, h, t in grasps:
        col = min(max(int((x - roi[0]) // cell_w), 0), GRID - 1)
        row = min(max(int((y - roi[1]) // cell_h), 0), GRID - 1)
        resid = [(t - a + 90.0) % 180.0 - 90.0 for a in thetas]
        k = min(range(ORIENTS), key=lambda i: abs(resid[i]))
        idx = (row * GRID + col) * ORIENTS + k
        ax, ay = roi[0] + (col + 0.5) * cell_w, roi[1] + (row + 0.5) * cell_h
        deltas[idx] = [
            (x - ax) / ANCHOR_SIDE, (y - ay) / ANCHOR_SIDE,
            math.log(w / ANCHOR_SIDE), math.log(h / ANCHOR_SIDE),
            resid[k] / (90.0 / ORIENTS),
        ]
        logits[idx] = [3.0 + 0.3 * float(rng.normal()), -3.0]
    return deltas, logits


def gen_pick(rng, out: Path) -> dict:
    # Calibration: a fixed camera 1 m above the table, pixels of 0.8 mm,
    # measured with 0.05 mm noise.
    linear = np.array([[0.8, 0.0, 0.0], [0.0, -0.8, 0.0], [0.0, 0.0, -1.0]])
    offset = np.array([-256.0, 192.0, 1000.0])
    pix = np.column_stack([rng.uniform(0, WIDTH, 24), rng.uniform(0, HEIGHT, 24), rng.uniform(700, 1000, 24)])
    rob = pix @ linear.T + offset + rng.normal(0.0, 0.05, pix.shape)
    _write_json(out / "calibration.json", [
        {"pixel": [float(v) for v in p], "robot": [float(v) for v in r]} for p, r in zip(pix, rob)
    ])
    calls = []
    for i in range(PICK_SCENES):
        want = PICK_VISIBLE[i % len(PICK_VISIBLE)]
        visible = []
        while len(visible) != want:
            objects = make_scene(rng, int(rng.integers(max(6, want), 10)), 4)
            visible = [o for o in objects if o["visible"]]
        dets, grasp_sets = [], []
        for o in visible:
            score = float(rng.uniform(0.75, 1.0))
            side = min(o["bbox"][2] - o["bbox"][0], o["bbox"][3] - o["bbox"][1])
            dets.append({"id": o["id"], "category": o["category"],
                         "bbox": _jittered_box(rng, o["bbox"], 1.0), "score": score})
            for _ in range(int(rng.integers(1, 3))):
                dets.append({"id": 1000 + len(dets), "category": o["category"],
                             "bbox": _jittered_box(rng, o["bbox"], 0.03 * side),
                             "score": score * float(rng.uniform(0.4, 0.9))})
            grasp_sets += [o["grasps"]] * (len(dets) - len(grasp_sets))
        raw = [_anchor_outputs(rng, d["bbox"], g) for d, g in zip(dets, grasp_sets)]
        np.savez(out / f"raw_{i:03d}.npz",
                 deltas=np.stack([r[0] for r in raw]), logits=np.stack([r[1] for r in raw]))
        _depth_pgm(out / f"depth_{i:03d}.pgm", rng, objects, missing=0.02)
        calls.append({
            "detections": dets,
            "raw": f"raw_{i:03d}.npz",
            "relations": soft_relations(rng, objects, [o["id"] for o in visible], error=0.1),
            "depth": f"depth_{i:03d}.pgm",
            "target": int(rng.integers(1, len(objects) + 1)),
        })
    return {"calibration": "calibration.json", "calls": calls}


GENERATORS = {
    "simulate": gen_simulate,
    "eval": gen_eval,
    "plan_dense": gen_plan_dense,
    "pick": gen_pick,
}


def generate(workload: str, seed: int, out: Path) -> None:
    rng = np.random.default_rng([seed, list(GENERATORS).index(workload)])
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "manifest.json", GENERATORS[workload](rng, out))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)
