"""Independent reference implementations used to check the package.

Everything in here deliberately avoids the package's own algorithms:
overlap is estimated by Monte-Carlo point membership instead of polygon
clipping, the affine fit solves the normal equations instead of calling
lstsq, removal orders are enumerated by brute force, the grasp point
is found by scanning every pixel, the approach vector maps and crosses
one window pixel at a time, cycles are repaired by restarting the search
after every deletion, the plan document is built whole and encoded by
json.dumps, box coverage tests every grid cell against every box, relation
rows are converted and checked one at a time, the relation argmax
takes the maximum of a sort key, a fused pair gets a label that a second
loop turns into a graph edge, a ground-truth relation class comes from a
scan of the record's relations tuple, and a simulated trial rebuilds its scene
record at every removal and draws each relation flip, and each draw of
a generated scene, by scalar calls.
The polygon clip calls one helper per side test and per crossing, the
evaluator scans the record for every query, clips before it compares
angles and makes a Fraction at every rank, and scene and detection rows
are read one field at a time by the strict readers. Non-maximum
suppression marks every box a survivor overlaps, grasp selection
always ranks every candidate by confidence, and a ROI's grasps are decoded
in a loop that builds each candidate by keyword. The scene augmentations build
each box and rectangle field by field and normalize every angle before
the rectangle normalizes it again.

It also holds two writers that the package, which only reads these
formats, does not need: the predictions JSON writer and the 16-bit PGM
depth writer, with which tests make input files. Three forms the package
gave up stay here as exact references: the approach vector over a padded
whole window with ``np.cross``, whose rewrite must give the same bits,
the rectangle corners as a numpy array, and the depth loader that
converts and checks the whole frame, on whose frames the grasp point,
approach vector and robot pose must come out as on a loaded frame.
"""

from __future__ import annotations

import itertools
import json
import math
import re

import numpy as np


def _half_extents_frame(rect):
    t = math.radians(rect.theta)
    return math.cos(t), math.sin(t), rect.w / 2.0, rect.h / 2.0


def _membership(rect, xs, ys):
    c, s, hw, hh = _half_extents_frame(rect)
    dx = xs - rect.x
    dy = ys - rect.y
    xr = c * dx + s * dy
    yr = -s * dx + c * dy
    return (np.abs(xr) <= hw) & (np.abs(yr) <= hh)


def mc_jaccard(a, b, n_samples: int = 1_000_000, seed: int = 0) -> float:
    """Monte-Carlo Jaccard index of two oriented rectangles.

    Samples uniformly over a box certain to contain both rectangles
    (each center plus/minus its half diagonal) and counts membership.
    Standard error is about 1/sqrt(n_samples).
    """
    ra = math.hypot(a.w, a.h) / 2.0
    rb = math.hypot(b.w, b.h) / 2.0
    x0 = min(a.x - ra, b.x - rb)
    x1 = max(a.x + ra, b.x + rb)
    y0 = min(a.y - ra, b.y - rb)
    y1 = max(a.y + ra, b.y + rb)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(x0, x1, n_samples)
    ys = rng.uniform(y0, y1, n_samples)
    in_a = _membership(a, xs, ys)
    in_b = _membership(b, xs, ys)
    union = int(np.count_nonzero(in_a | in_b))
    if union == 0:
        return 0.0
    return int(np.count_nonzero(in_a & in_b)) / union


def central_diff(f, x: float, h: float = 1e-6) -> float:
    """Two-sided finite difference derivative of a scalar function."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def valid_orders(nodes, relations):
    """All removal orders of ``nodes`` that never take an object while
    something is still stacked on it, by brute-force permutation filtering.
    ``relations`` holds (above, below) pairs."""
    nodes = list(nodes)
    edges = set(relations)
    orders = []
    for perm in itertools.permutations(nodes):
        removed = set()
        ok = True
        for obj in perm:
            if any(a not in removed for (a, b) in edges if b == obj):
                ok = False
                break
            removed.add(obj)
        if ok:
            orders.append(perm)
    return orders


def order_is_valid(order, relations) -> bool:
    removed = set()
    for obj in order:
        if any(a not in removed for (a, b) in relations if b == obj):
            return False
        removed.add(obj)
    return True


def affine_fit_normal_equations(pairs):
    """Solve the 12-parameter affine fit via the normal equations.

    Returns (linear 3x3, offset 3). Independent of np.linalg.lstsq.
    """
    pix = np.array([p[0] for p in pairs], dtype=float)
    rob = np.array([p[1] for p in pairs], dtype=float)
    design = np.hstack([pix, np.ones((len(pairs), 1))])
    params = np.linalg.solve(design.T @ design, design.T @ rob)
    return params[:3, :].T, params[3, :]


def exhaustive_grasp_point(depth, rect):
    """Scan every pixel of the whole image for the minimum-depth valid
    pixel inside ``rect``; ties by distance to center, then v, then u.
    Returns (u, v, d) or None."""
    best = None
    c, s, hw, hh = _half_extents_frame(rect)
    for v in range(depth.height):
        for u in range(depth.width):
            if not depth.valid[v, u]:
                continue
            dx, dy = u - rect.x, v - rect.y
            xr = c * dx + s * dy
            yr = -s * dx + c * dy
            if abs(xr) > hw + 1e-9 or abs(yr) > hh + 1e-9:
                continue
            d = float(depth.values[v, u])
            key = (d, dx * dx + dy * dy, v, u)
            if best is None or key < best[0]:
                best = (key, (u, v, d))
    return None if best is None else best[1]


def loop_approach_vector(depth, at, affine, radius: int = 5):
    """Approach vector by visiting the window one pixel at a time: each
    neighbour is mapped by ``affine.apply`` and each normal is one
    ``np.cross``. Same rules and errors as ``execution.approach_vector``."""
    from stackgrasp.execution import SurfaceNormalError

    if radius < 1:
        raise ValueError("radius must be at least 1")
    u0, v0 = at
    lo_u, hi_u = max(u0 - radius, 0), min(u0 + radius, depth.width - 1)
    lo_v, hi_v = max(v0 - radius, 0), min(v0 + radius, depth.height - 1)
    window_valid = depth.valid[lo_v : hi_v + 1, lo_u : hi_u + 1]
    if int(window_valid.sum()) < 3:
        raise SurfaceNormalError("fewer than 3 valid depth pixels in the window")

    def mapped(u, v):
        if 0 <= u < depth.width and 0 <= v < depth.height and depth.valid[v, u]:
            return affine.apply((float(u), float(v), depth.values[v, u]))
        return None

    total = np.zeros(3)
    count = 0
    for v in range(lo_v, hi_v + 1):
        for u in range(lo_u, hi_u + 1):
            if not depth.valid[v, u]:
                continue
            left, right = mapped(u - 1, v), mapped(u + 1, v)
            up, down = mapped(u, v - 1), mapped(u, v + 1)
            if left is None or right is None or up is None or down is None:
                continue
            normal = np.cross(right - left, down - up)
            norm = float(np.linalg.norm(normal))
            if norm < 1e-12:
                continue
            total += normal / norm
            count += 1
    if count == 0:
        raise SurfaceNormalError("no surface normal could be formed in the window")
    norm = float(np.linalg.norm(total))
    if norm < 1e-12:
        raise SurfaceNormalError("window normals cancel out")
    approach = total / norm
    if approach[2] > 0 or (approach[2] == 0 and (approach[1] > 0 or (approach[1] == 0 and approach[0] > 0))):
        approach = -approach
    return approach


def rect_vertices(r) -> np.ndarray:
    """Corner coordinates of ``r``, shape (4, 2), counter-clockwise: the
    package's ``geometry._vertex_list`` as a float array. The first corner
    is the rotated image of ``(-w/2, -h/2)``."""
    from stackgrasp.geometry import _vertex_list

    return np.array(_vertex_list(r), dtype=float)


def whole_window_approach_vector(depth, at, affine, radius: int = 5):
    """Approach vector over the whole window at once, as the package
    computed it before its window was filled by slice assignment: both
    rasters padded by ``np.pad``, the pixel grid from ``np.mgrid``, the
    mapped points stacked and the normals from ``np.cross``. Same rules
    and errors as ``execution.approach_vector``, and the same bits."""
    from stackgrasp.execution import SurfaceNormalError

    if radius < 1:
        raise ValueError("radius must be at least 1")
    u0, v0 = at
    lo_u, hi_u = max(u0 - radius, 0), min(u0 + radius, depth.width - 1)
    lo_v, hi_v = max(v0 - radius, 0), min(v0 + radius, depth.height - 1)
    window_valid = depth.valid[lo_v : hi_v + 1, lo_u : hi_u + 1]
    if int(window_valid.sum()) < 3:
        raise SurfaceNormalError("fewer than 3 valid depth pixels in the window")

    # the window plus a one-pixel ring; pixels outside the image are invalid
    rows = slice(max(lo_v - 1, 0), hi_v + 2)
    cols = slice(max(lo_u - 1, 0), hi_u + 2)
    pad = (
        (int(lo_v == 0), int(hi_v == depth.height - 1)),
        (int(lo_u == 0), int(hi_u == depth.width - 1)),
    )
    valid = np.pad(depth.valid[rows, cols], pad)
    # masked pixels may hold anything, NaN included; zero keeps them finite
    d = np.where(valid, np.pad(depth.values[rows, cols], pad), 0.0)
    v, u = np.mgrid[lo_v - 1 : hi_v + 2, lo_u - 1 : hi_u + 2].astype(float)
    lin, off = affine.linear, affine.offset
    mapped = np.stack(
        [lin[i, 0] * u + lin[i, 1] * v + lin[i, 2] * d + off[i] for i in range(3)],
        axis=-1,
    )
    # central-difference tangents over the window; a pixel counts only when
    # it and its four neighbours are valid
    du = mapped[1:-1, 2:] - mapped[1:-1, :-2]
    dv = mapped[2:, 1:-1] - mapped[:-2, 1:-1]
    normals = np.cross(du, dv)
    norms = np.sqrt(np.einsum("...i,...i->...", normals, normals))
    keep = valid[1:-1, 1:-1] & valid[1:-1, 2:] & valid[1:-1, :-2]
    keep &= valid[2:, 1:-1] & valid[:-2, 1:-1] & (norms >= 1e-12)
    if not keep.any():
        raise SurfaceNormalError("no surface normal could be formed in the window")
    total = (normals[keep] / norms[keep, None]).sum(axis=0)
    norm = float(np.linalg.norm(total))
    if norm < 1e-12:
        raise SurfaceNormalError("window normals cancel out")
    approach = total / norm
    # orient into the surface: negative z, with deterministic fallbacks for
    # perfectly vertical surfaces
    if approach[2] > 0 or (approach[2] == 0 and (approach[1] > 0 or (approach[1] == 0 and approach[0] > 0))):
        approach = -approach
    return approach


def gather_depths_ok(values, valid) -> bool:
    """The depth-frame rule by gathering the valid depths: all of them
    positive and finite."""
    depths = np.asarray(values, dtype=float)[np.asarray(valid, dtype=bool)]
    return bool(np.all(depths > 0) and np.all(np.isfinite(depths)))


def grid_coverage_fraction(target, covers) -> float:
    """Share of ``target`` covered by the union of ``covers``: clip each
    cover to the target, cut the target into the grid of every clipped
    edge, and add the area of each cell whose centre some box holds, in
    (x, y) cell order."""
    clipped = []
    for c in covers:
        x0, y0 = max(c.xmin, target.xmin), max(c.ymin, target.ymin)
        x1, y1 = min(c.xmax, target.xmax), min(c.ymax, target.ymax)
        if x1 > x0 and y1 > y0:
            clipped.append((x0, y0, x1, y1))
    if not clipped:
        return 0.0
    xs = sorted({v for b in clipped for v in (b[0], b[2])})
    ys = sorted({v for b in clipped for v in (b[1], b[3])})
    covered = 0.0
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            cx = (xs[i] + xs[i + 1]) / 2.0
            cy = (ys[j] + ys[j + 1]) / 2.0
            if any(b[0] <= cx <= b[2] and b[1] <= cy <= b[3] for b in clipped):
                covered += (xs[i + 1] - xs[i]) * (ys[j + 1] - ys[j])
    return covered / target.area


def _find_cycle(nodes, edges):
    # Iterative DFS over sorted adjacency; returns the edge list of one
    # directed cycle, or None.
    adj = {n: [] for n in nodes}
    for (a, b) in sorted(edges):
        adj[a].append(b)
    color = {n: 0 for n in nodes}  # 0 new, 1 on stack, 2 done
    parent_edge = {}
    for start in sorted(nodes):
        if color[start] != 0:
            continue
        stack = [(start, iter(adj[start]))]
        color[start] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == 1:
                    # walk parents from node back to nxt
                    cycle = [(node, nxt)]
                    cur = node
                    while cur != nxt:
                        edge = parent_edge[cur]
                        cycle.append(edge)
                        cur = edge[0]
                    cycle.reverse()
                    return cycle
                if color[nxt] == 0:
                    color[nxt] = 1
                    parent_edge[nxt] = (node, nxt)
                    stack.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
    return None


def restart_cycle_repair(nodes, edges):
    """Cycle repair by restarting a full DFS after every deletion: find a
    cycle, drop its lowest-confidence edge (ties by endpoints), repeat.

    ``edges`` maps (above, below) to confidence. Returns (surviving edges
    dict, deleted (above, below, confidence) list).
    """
    edges = dict(edges)
    deleted = []
    while True:
        cycle = _find_cycle(nodes, edges)
        if cycle is None:
            return edges, deleted
        victim = min(cycle, key=lambda e: (edges[e], e))
        deleted.append((victim[0], victim[1], edges[victim]))
        del edges[victim]


def plan_document(preds, target: str) -> dict:
    """The ``stackgrasp plan`` document for ``preds`` as one dict, with each
    step's whole graph rebuilt and listed. The edges come from
    :func:`pair_labels` through :func:`label_edges`, and the graph is
    repaired by :func:`restart_cycle_repair`; the decisions are the
    package's ``next_action``, each step's on a new graph of the objects
    left, which is the reference for ``reasoning.plan``."""
    from stackgrasp.reasoning import ManipulationGraph, next_action

    perceived = preds.perceived()
    nodes = frozenset(p.detection.instance_id for p in perceived)
    edges, deleted = restart_cycle_repair(nodes, label_edges(pair_labels(preds.relations)))
    current = ManipulationGraph(nodes=nodes, edges=edges, deleted_edges=tuple(deleted))
    if re.fullmatch(r"-?[0-9]+", target):
        goal = int(target)
        resolved = goal in nodes
    else:
        goal = target
        resolved = any(p.detection.category == target for p in perceived)
    actions = []
    remaining = list(perceived)
    while remaining:
        action = next_action(current, remaining, goal)
        actions.append(
            {
                "object": action.object_id,
                "is_final_target": action.is_final_target,
                "graph": {
                    "nodes": sorted(current.nodes),
                    "edges": [
                        {"above": a, "below": b, "confidence": c}
                        for a, b, c in current.edge_list()
                    ],
                    "deleted_edges": [
                        {"above": a, "below": b, "confidence": c}
                        for a, b, c in current.deleted_edges
                    ],
                },
            }
        )
        if action.is_final_target:
            break
        remaining = [p for p in remaining if p.detection.instance_id != action.object_id]
        keep = {p.detection.instance_id for p in remaining}
        current = ManipulationGraph(
            nodes=frozenset(keep),
            edges={e: c for e, c in current.edges.items() if e[0] in keep and e[1] in keep},
        )
    return {"target": {"requested": target, "resolved": resolved}, "actions": actions}


def per_row_relations(data: dict, ids: set[int]) -> dict:
    """The ``relations`` of a predictions document as ``parse_predictions``
    stores them, read and checked one row at a time by the strict rules:
    each row an object, ``pair`` a list of two JSON integers naming two
    distinct known detections, ``probs`` JSON numbers (an integer read as
    a float) that pass ``check_relation``, no ordered pair twice. Raises
    ValueError with the parser's message for the first bad row."""
    from stackgrasp._json import integer, json_list, number_list
    from stackgrasp.losses import check_relation

    relations = {}
    for i, r in enumerate(json_list(data, "relations")):
        try:
            if not isinstance(r, dict):
                raise ValueError(f"expected an object, got {type(r).__name__}")
            pair = r["pair"]
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValueError(f"pair must be a list of 2 ids, got {pair!r}")
            a = integer("pair[0]", pair[0])
            b = integer("pair[1]", pair[1])
            probs = tuple(number_list("probs", r["probs"]))
            check_relation((a, b), probs)
        except (KeyError, ValueError) as e:
            raise ValueError(f"relations[{i}]: {e}") from e
        if a not in ids or b not in ids:
            raise ValueError(f"relations[{i}]: pair ({a}, {b}) references unknown detection")
        if (a, b) in relations:
            raise ValueError(f"relations[{i}]: duplicate pair ({a}, {b})")
        relations[(a, b)] = probs
    return relations


def argmax_by_key(probs) -> int:
    """Relation label of ``probs``: the class of the largest value, exact
    ties to the smaller class index."""
    return max(range(3), key=lambda k: (probs[k], -k))


def pair_labels(relations) -> dict:
    """{(i, j): (label, confidence)} for each pair i < j of ``relations``:
    the class of the two directions' averaged joint scores by
    :func:`argmax_by_key`, and that class's joint score. The per-pair
    labels that ``reasoning.symmetrize`` once returned."""
    labels = {}
    for (i, j), p_ij in relations.items():
        if i > j:
            continue
        p_ji = relations[(j, i)]
        joint = [(p_ij[0] + p_ji[0]) / 2.0, (p_ij[1] + p_ji[2]) / 2.0, (p_ij[2] + p_ji[1]) / 2.0]
        label = argmax_by_key(joint)
        labels[(i, j)] = (label, joint[label])
    return labels


def label_edges(labels) -> dict:
    """The stacking graph's {(above, below): confidence} edges of per-pair
    ``labels``: (i, j) labeled 1 is the edge i -> j, labeled 2 the edge
    j -> i, and labeled 0 no edge."""
    edges = {}
    for (i, j), (label, conf) in labels.items():
        if label == 1:
            edges[(i, j)] = conf
        elif label == 2:
            edges[(j, i)] = conf
    return edges


def scan_relation_label(record, a, b) -> int:
    """Class of the ordered pair (a, b) of ``record`` from a scan of its
    relations tuple: 1 when (a, b) is in it, 2 when (b, a) is, else 0."""
    if (a, b) in record.relations:
        return 1
    if (b, a) in record.relations:
        return 2
    return 0


def grid_coverages(scene) -> list[tuple[int, float]]:
    """(id, coverage) of every object of ``scene`` in order, each from its
    covers gathered by a scan of the relations tuple and summed by
    ``grid_coverage_fraction``."""
    boxes = {o.instance_id: o.box for o in scene.objects}
    return [
        (i, grid_coverage_fraction(box, [boxes[a] for a, b in scene.relations if b == i]))
        for i, box in boxes.items()
    ]


def rebuilt_predict(scene, noise, rng, coverage_threshold: float):
    """``simulation.oracle_predict`` on a scene record alone: visibility
    from ``grid_coverages``, each relation class from a scan of the
    relations tuple (:func:`scan_relation_label`), and the flip draws made
    by one scalar ``random()`` and one ``integers(0, 2)`` call per ordered
    pair."""
    from stackgrasp.geometry import AABox, OrientedRect
    from stackgrasp.perception import GraspCandidate, ObjectDetection, ScenePredictions

    shown = {i: c < coverage_threshold for i, c in grid_coverages(scene)}
    preds = ScenePredictions()
    for o in scene.objects:
        rects = [g.rect for g in scene.grasps if g.owner == o.instance_id]
        u_drop = rng.random()
        draws = rng.normal(size=5 + 2 * len(rects))
        if not shown[o.instance_id] or u_drop < noise.drop_prob:
            continue
        b, s = o.box, noise.box_sigma
        x0, x1 = sorted((b.xmin + s * draws[0], b.xmax + s * draws[2]))
        y0, y1 = sorted((b.ymin + s * draws[1], b.ymax + s * draws[3]))
        x1 = x1 if x1 > x0 else x0 + 1.0
        y1 = y1 if y1 > y0 else y0 + 1.0
        score = min(max(1.0 - abs(noise.score_sigma * float(draws[4])), 0.0), 1.0)
        preds.detections.append(
            ObjectDetection(AABox(x0, y0, x1, y1), o.category, score, o.instance_id)
        )
        preds.grasp_candidates[o.instance_id] = [
            GraspCandidate(
                OrientedRect(g.x, g.y, g.w, g.h, g.theta + noise.angle_sigma * float(draws[5 + 2 * k])),
                min(max(1.0 - abs(noise.score_sigma * float(draws[6 + 2 * k])), 0.0), 1.0),
            )
            for k, g in enumerate(rects)
        ]
    ids = [d.instance_id for d in preds.detections]
    for a in ids:
        for b in ids:
            if a == b:
                continue
            u_flip = rng.random()
            alt = int(rng.integers(0, 2))
            label = scan_relation_label(scene, a, b)
            if u_flip < noise.relation_flip_prob:
                label = [k for k in range(3) if k != label][alt]
            preds.relations[(a, b)] = tuple(float(k == label) for k in range(3))
    return preds


def rebuilt_run_trial(seed, cfg):
    """``simulation.run_trial`` as a loop that keeps no state but the scene
    record: it predicts with ``rebuilt_predict``, scans the relations for
    the order check, and builds a smaller record at every removal. Returns
    the TrialLog and, after each removal, ``grid_coverages`` of the scene
    left."""
    from dataclasses import replace

    from stackgrasp.reasoning import build_graph, next_action, symmetrize
    from stackgrasp.simulation import TrialLog, TrialStep, generate_scene, select_target

    scene = generate_scene(seed, cfg)
    target = select_target(scene, cfg.target_rule, np.random.default_rng([seed, 17]))
    current = scene
    steps, coverages = [], []
    reason = None  # stays None only if the steps run out before the target
    for step_index in range(len(scene.objects)):
        rng = np.random.default_rng([seed, 1009, step_index])
        preds = rebuilt_predict(current, cfg.noise, rng, cfg.coverage_threshold)
        if not preds.detections:
            reason = "no_detections"
            break
        ids = [d.instance_id for d in preds.detections]
        graph = build_graph(ids, symmetrize(preds.relations))
        action = next_action(graph, preds.perceived(), target)
        removed = action.object_id
        steps.append(
            TrialStep(
                detections=tuple(ids),
                claimed_final=action.is_final_target,
                removed=removed,
                order_valid=not any(b == removed for _, b in current.relations),
                target_visible=dict(grid_coverages(current))[target] < cfg.coverage_threshold,
            )
        )
        current = replace(
            current,
            objects=tuple(o for o in current.objects if o.instance_id != removed),
            grasps=tuple(g for g in current.grasps if g.owner != removed),
            relations=tuple(r for r in current.relations if removed not in r),
        )
        coverages.append(grid_coverages(current))
        if removed == target:
            reason = "target_removed"
            break
    log = TrialLog(seed, target, scene, tuple(steps), reason, cfg.noise)
    return log, coverages


def numpy_calls_generate_scene(seed, cfg):
    """``simulation.generate_scene`` drawing from ``np.random.default_rng(seed)``
    by its own scalar calls (``integers``, ``random``, ``uniform``,
    ``choice``), one per value, where the package decodes the same values
    from raw words."""
    from stackgrasp.dataset import SceneGrasp, SceneObject, SceneRecord
    from stackgrasp.geometry import AABox, OrientedRect
    from stackgrasp.simulation import (
        _MIN_CHILD_SIDE, _ROOT_COLS, _ROOT_ROWS, CATEGORIES, SCENE_HEIGHT, SCENE_WIDTH,
        _eligible, _Node,
    )

    rng = np.random.default_rng(seed)
    lo, hi = cfg.count_range
    n = int(rng.integers(lo, hi + 1))

    slot_w = SCENE_WIDTH // _ROOT_COLS
    slot_h = SCENE_HEIGHT // _ROOT_ROWS
    if cfg.max_stack_depth == 0:
        num_roots = n
    else:
        num_roots = int(rng.integers(1, min(n, 4) + 1))
    slots = [int(s) for s in rng.choice(_ROOT_COLS * _ROOT_ROWS, size=_ROOT_COLS * _ROOT_ROWS, replace=False)]

    nodes: list[_Node] = []
    roots = 0
    for i in range(n):
        candidates = [] if i < num_roots else [p for p in nodes if _eligible(p, cfg.max_stack_depth)]
        if not candidates:
            slot = slots[roots]
            roots += 1
            sx = (slot % _ROOT_COLS) * slot_w
            sy = (slot // _ROOT_COLS) * slot_h
            w = int(rng.integers(110, 171))
            h = int(rng.integers(110, 171))
            x0 = sx + int(rng.integers(8, slot_w - w - 8 + 1))
            y0 = sy + int(rng.integers(8, slot_h - h - 8 + 1))
            nodes.append(_Node(x0, y0, w, h, level=0, parent=None, index=i))
            continue
        parent = candidates[int(rng.integers(0, len(candidates)))]
        if parent.free_quads is None and rng.random() < 0.4:
            # one large child that hides most of the parent
            cw = min(max(int(round(parent.w * rng.uniform(0.92, 0.97))), _MIN_CHILD_SIDE), parent.w - 2)
            ch = min(max(int(round(parent.h * rng.uniform(0.92, 0.97))), _MIN_CHILD_SIDE), parent.h - 2)
            x0 = parent.x0 + int(rng.integers(0, parent.w - cw + 1))
            y0 = parent.y0 + int(rng.integers(0, parent.h - ch + 1))
            parent.free_quads = []
        else:
            if parent.free_quads is None:
                parent.free_quads = [0, 1, 2, 3]
            quad = parent.free_quads.pop(int(rng.integers(0, len(parent.free_quads))))
            qw, qh = parent.w // 2, parent.h // 2
            qx0 = parent.x0 + (quad % 2) * qw
            qy0 = parent.y0 + (quad // 2) * qh
            cw = min(max(int(round(parent.w * rng.uniform(0.34, 0.46))), _MIN_CHILD_SIDE), qw - 2)
            ch = min(max(int(round(parent.h * rng.uniform(0.34, 0.46))), _MIN_CHILD_SIDE), qh - 2)
            x0 = qx0 + int(rng.integers(1, qw - cw))
            y0 = qy0 + int(rng.integers(1, qh - ch))
        nodes.append(_Node(x0, y0, cw, ch, level=parent.level + 1, parent=parent, index=i))

    objects = []
    grasps = []
    edges = set()
    for nd in nodes:
        instance_id = nd.index + 1
        anc = nd.parent
        while anc is not None:
            edges.add((instance_id, anc.index + 1))
            anc = anc.parent
        category = CATEGORIES[int(rng.integers(0, len(CATEGORIES)))]
        side = float(min(nd.w, nd.h))
        cx0 = nd.x0 + nd.w / 2.0
        cy0 = nd.y0 + nd.h / 2.0
        for _ in range(int(rng.integers(1, 4))):
            rect = OrientedRect(
                x=cx0 + rng.uniform(-0.05, 0.05) * side,
                y=cy0 + rng.uniform(-0.05, 0.05) * side,
                w=side * rng.uniform(0.45, 0.6),
                h=side * rng.uniform(0.25, 0.4),
                theta=rng.uniform(-90.0, 90.0),
            )
            grasps.append(SceneGrasp(owner=instance_id, rect=rect))
        objects.append(
            SceneObject(
                instance_id=instance_id,
                category=category,
                box=AABox(float(nd.x0), float(nd.y0), float(nd.x0 + nd.w), float(nd.y0 + nd.h)),
            )
        )
    return SceneRecord(
        width=SCENE_WIDTH,
        height=SCENE_HEIGHT,
        objects=tuple(objects),
        grasps=tuple(grasps),
        relations=tuple(sorted(edges)),
    )


def reference_vertex_list(r):
    """Corners of ``r`` counter-clockwise, one rotation per corner."""
    t = math.radians(r.theta)
    c, s = math.cos(t), math.sin(t)
    hw, hh = r.w / 2.0, r.h / 2.0
    return [
        (r.x + c * px - s * py, r.y + s * px + c * py)
        for px, py in ((-hw, -hh), (hw, -hh), (hw, hh), (-hw, hh))
    ]


def _side(p, a, b) -> float:
    # positive left of the directed edge a->b of a counter-clockwise polygon
    return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])


def _inside(p, a, b) -> bool:
    return _side(p, a, b) >= 0.0


def _edge_intersection(s, e, a, b):
    # the crossing as a point of the segment s->e
    t = _side(s, a, b) / (_side(s, a, b) - _side(e, a, b))
    return (s[0] + t * (e[0] - s[0]), s[1] + t * (e[1] - s[1]))


def reference_clip_polygon(subject, clipper):
    """Sutherland-Hodgman clip with one helper call per side test and per
    crossing: the loop ``geometry.clip_polygon`` inlines."""
    output = list(subject)
    n = len(clipper)
    for i in range(n):
        if not output:
            return []
        a, b = clipper[i], clipper[(i + 1) % n]
        source, output = output, []
        s = source[-1]
        s_in = _inside(s, a, b)
        for e in source:
            e_in = _inside(e, a, b)
            if e_in:
                if not s_in:
                    output.append(_edge_intersection(s, e, a, b))
                output.append(e)
            elif s_in:
                output.append(_edge_intersection(s, e, a, b))
            s, s_in = e, e_in
    return output


def reference_rotated_jaccard(a, b) -> float:
    """``geometry.rotated_jaccard`` built from the helper-call clip above,
    the per-corner vertices and the ``area`` properties."""
    from stackgrasp.geometry import polygon_area

    ra = math.hypot(a.w, a.h) / 2.0
    rb = math.hypot(b.w, b.h) / 2.0
    if (a.x - b.x) ** 2 + (a.y - b.y) ** 2 >= (ra + rb) ** 2:
        return 0.0
    inter = polygon_area(reference_clip_polygon(reference_vertex_list(a), reference_vertex_list(b)))
    union = a.area + b.area - inter
    return min(max(inter / union, 0.0), 1.0)


def _reference_grasp_correct(pred, record, gt_id, thresholds) -> bool:
    # the Jaccard first, over a scan of the record's grasps
    if pred.best_grasp is None:
        return False
    from stackgrasp.geometry import angle_difference

    for g in record.grasps:
        if g.owner != gt_id:
            continue
        if (
            reference_rotated_jaccard(pred.best_grasp, g.rect) > thresholds.jaccard
            and angle_difference(pred.best_grasp.theta, g.rect.theta) < thresholds.angle_deg
        ):
            return True
    return False


def _reference_best_unused_gt(record, category, box, used, iou_threshold):
    # a scan of every object of the record per query
    from stackgrasp.geometry import aabb_iou

    best_id = None
    best_iou = -1.0
    for gt in record.objects:
        if gt.category != category or gt.instance_id in used:
            continue
        iou = aabb_iou(box, gt.box)
        if iou < iou_threshold:
            continue
        if iou > best_iou or (iou == best_iou and gt.instance_id < best_id):
            best_id = gt.instance_id
            best_iou = iou
    return best_id


def _reference_interpolated_ap(points):
    # all-point interpolated AP from (recall, precision) Fractions per rank
    from fractions import Fraction

    if not points:
        return Fraction(0)
    interp = [Fraction(0)] * len(points)
    running = Fraction(0)
    for i in range(len(points) - 1, -1, -1):
        running = max(running, points[i][1])
        interp[i] = running
    ap = Fraction(0)
    prev_recall = Fraction(0)
    for (recall, _), p in zip(points, interp):
        if recall > prev_recall:
            ap += (recall - prev_recall) * p
            prev_recall = recall
    return ap


def reference_evaluate(records, predictions, thresholds):
    """``evaluation.evaluate`` as (mAP, per-class AP, RelationMetrics), with
    the exact Fractions: a (recall, precision) Fraction at every rank, the
    Jaccard tested before the angle, a scan of the record for every
    grasp and box query, and :func:`scan_relation_label` for every pair."""
    from fractions import Fraction

    from stackgrasp.evaluation import RelationMetrics

    gt_counts = {}
    for rec in records:
        for o in rec.objects:
            gt_counts[o.category] = gt_counts.get(o.category, 0) + 1
    pooled = {c: [] for c in gt_counts}
    for scene_index, (rec, preds) in enumerate(zip(records, predictions)):
        perceived = preds.perceived(thresholds.top_n)
        order = sorted(range(len(perceived)), key=lambda i: (-perceived[i].detection.score, i))
        used = set()
        flags = [False] * len(perceived)
        for i in order:
            det = perceived[i].detection
            gt_id = _reference_best_unused_gt(rec, det.category, det.box, used, thresholds.iou)
            if gt_id is not None and _reference_grasp_correct(perceived[i], rec, gt_id, thresholds):
                flags[i] = True
                used.add(gt_id)
        for i, p in enumerate(perceived):
            if p.detection.category in pooled:
                pooled[p.detection.category].append((p.detection.score, scene_index, i, flags[i]))
    per_class = {}
    for cat, entries in pooled.items():
        entries.sort(key=lambda e: (-e[0], e[1], e[2]))
        tp = fp = 0
        points = []
        for _, _, _, is_tp in entries:
            if is_tp:
                tp += 1
            else:
                fp += 1
            points.append((Fraction(tp, gt_counts[cat]), Fraction(tp, tp + fp)))
        per_class[cat] = _reference_interpolated_ap(points)
    mean = sum(per_class.values(), Fraction(0)) / len(per_class) if per_class else Fraction(0)

    correct = gt_pairs = predicted_pairs = images_correct = 0
    by_count = {}
    for rec, preds in zip(records, predictions):
        used = set()
        det_of = {}
        for det in sorted(preds.detections, key=lambda d: (-d.score, d.instance_id)):
            gt_id = _reference_best_unused_gt(rec, det.category, det.box, used, thresholds.iou)
            if gt_id is not None:
                det_of[gt_id] = det.instance_id
                used.add(gt_id)
        n = len(rec.objects)
        gt_pairs += n * (n - 1)
        predicted_pairs += len(preds.relations)
        scene_correct = len(det_of) == n
        ids = [o.instance_id for o in rec.objects]
        for a in ids:
            for b in ids:
                if a == b:
                    continue
                da, db = det_of.get(a), det_of.get(b)
                probs = None if da is None or db is None else preds.relations.get((da, db))
                if probs is not None and argmax_by_key(probs) == scan_relation_label(rec, a, b):
                    correct += 1
                else:
                    scene_correct = False
        bucket = by_count.setdefault(n, [0, 0])
        bucket[1] += 1
        bucket[0] += scene_correct
        images_correct += scene_correct
    relations = RelationMetrics(
        correct_pairs=correct,
        gt_pairs=gt_pairs,
        predicted_pairs=predicted_pairs,
        images_correct=images_correct,
        images_total=len(records),
        by_object_count={n: (c, t) for n, (c, t) in sorted(by_count.items())},
    )
    return mean, per_class, relations


def require_object(row) -> None:
    """A row of a scene or predictions document must be a JSON object."""
    if type(row) is not dict:
        raise ValueError(f"expected an object, got {type(row).__name__}")


def non_empty_category(row) -> str:
    """The row's ``category``: a string that is not empty."""
    from stackgrasp._json import string

    category = string("category", row["category"])
    if not category:
        raise ValueError("empty category name")
    return category


def per_field_scene(source):
    """``dataset.parse_scene`` with every field of every row read by the
    strict readers of ``stackgrasp._json``, one field at a time. Raises the
    parser's DocumentError for the first bad field."""
    from stackgrasp._json import DocumentError, integer, json_list, load, number_list, string
    from stackgrasp.dataset import SceneGrasp, SceneObject, SceneRecord
    from stackgrasp.geometry import AABox, OrientedRect

    def optional_string(name, value):
        return None if value is None else string(name, value)

    data = load(source) if isinstance(source, str) else source
    if not isinstance(data, dict):
        raise DocumentError("$", "top level must be an object")
    image = data.get("image")
    if not isinstance(image, dict):
        raise DocumentError("image", "missing or not an object")
    try:
        width = integer("width", image["width"])
        height = integer("height", image["height"])
        image_path = optional_string("path", image.get("path"))
    except (KeyError, ValueError) as e:
        raise DocumentError("image", str(e)) from e
    objects = []
    for i, o in enumerate(json_list(data, "objects")):
        try:
            require_object(o)
            instance_id = integer("id", o["id"])
            category = non_empty_category(o)
            objects.append(
                SceneObject(
                    instance_id=instance_id,
                    category=category,
                    box=AABox(*number_list("bbox", o["bbox"], 4)),
                )
            )
        except (KeyError, TypeError, ValueError) as e:
            raise DocumentError(f"objects[{i}]", str(e)) from e
    grasps = []
    for i, g in enumerate(json_list(data, "grasps")):
        try:
            require_object(g)
            rect = OrientedRect(*number_list("rect", g["rect"], 5))
            grasps.append(SceneGrasp(owner=integer("owner", g["owner"]), rect=rect))
        except (KeyError, TypeError, ValueError) as e:
            raise DocumentError(f"grasps[{i}]", str(e)) from e
    relations = []
    for i, r in enumerate(json_list(data, "relations")):
        try:
            require_object(r)
            relations.append((integer("above", r["above"]), integer("below", r["below"])))
        except (KeyError, TypeError, ValueError) as e:
            raise DocumentError(f"relations[{i}]", str(e)) from e
    try:
        return SceneRecord(
            width=width,
            height=height,
            objects=tuple(objects),
            grasps=tuple(grasps),
            relations=tuple(relations),
            image_path=image_path,
            depth_path=optional_string("depth_path", data.get("depth_path")),
        )
    except ValueError as e:
        raise DocumentError("$", str(e)) from e


def per_field_detections(data: dict):
    """The detections and grasp candidates of a predictions document as
    ``parse_predictions`` stores them, with every field read by the strict
    readers of ``stackgrasp._json``, one field at a time. Raises
    ValueError with the parser's message for the first bad field."""
    from stackgrasp._json import integer, json_list, number, number_list
    from stackgrasp.geometry import AABox, OrientedRect
    from stackgrasp.perception import GraspCandidate, ObjectDetection

    if not isinstance(data, dict) or "detections" not in data:
        raise ValueError("detections: missing")
    detections, candidates = [], {}
    for i, d in enumerate(json_list(data, "detections")):
        try:
            require_object(d)
            instance_id = integer("id", d["id"])
            category = non_empty_category(d)
            det = ObjectDetection(
                box=AABox(*number_list("bbox", d["bbox"], 4)),
                category=category,
                score=number("score", d.get("score", 1.0)),
                instance_id=instance_id,
            )
            if instance_id in candidates:
                raise ValueError(f"duplicate id {instance_id}")
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"detections[{i}]: {e}") from e
        detections.append(det)
        grasps = []
        for j, g in enumerate(json_list(d, "grasps", f"detections[{i}].grasps")):
            try:
                require_object(g)
                rect = OrientedRect(*number_list("rect", g["rect"], 5))
                confidence = number("confidence", g.get("confidence", 1.0))
                grasps.append(GraspCandidate(rect=rect, confidence=confidence))
            except (KeyError, TypeError, ValueError) as e:
                raise ValueError(f"detections[{i}].grasps[{j}]: {e}") from e
        candidates[instance_id] = grasps
    return detections, candidates


def reference_nms(detections, iou_threshold: float = 0.3, score_floor: float = 0.05):
    """Greedy category-aware non-maximum suppression that marks, for every
    survivor in score order, each same-category box it overlaps by more
    than ``iou_threshold`` as suppressed."""
    from stackgrasp.geometry import aabb_iou

    alive = [d for d in detections if d.score >= score_floor]
    order = sorted(range(len(alive)), key=lambda i: (-alive[i].score, i))
    kept = []
    suppressed = set()
    for i in order:
        if i in suppressed:
            continue
        kept.append(alive[i])
        for j in order:
            if j == i or j in suppressed:
                continue
            if alive[j].category == alive[i].category and aabb_iou(
                alive[i].box, alive[j].box
            ) > iou_threshold:
                suppressed.add(j)
    return kept


def reference_select_best_grasp(candidates, box, top_n: int = 3):
    """The candidate ``select_best_grasp`` picks, always ranking the whole
    list by confidence before taking the ``top_n`` pool."""
    ranked = sorted(range(len(candidates)), key=lambda i: (-candidates[i].confidence, i))
    cx, cy = box.center

    def key(i):
        r = candidates[i].rect
        return ((r.x - cx) ** 2 + (r.y - cy) ** 2, -candidates[i].confidence, i)

    return candidates[min(ranked[:top_n], key=key)]


def reference_decode_roi_grasps(roi, preds, cfg):
    """``decode_roi_grasps``: one ``decode_grasp``, one softmax and one
    candidate built by keyword per anchor, appended in anchor order."""
    from stackgrasp.anchors import decode_grasp, generate_anchors
    from stackgrasp.losses import softmax2
    from stackgrasp.perception import GraspCandidate

    anchors = generate_anchors(roi, cfg)
    if len(preds) != len(anchors):
        raise ValueError(f"expected {len(anchors)} predictions, got {len(preds)}")
    out = []
    for anchor, pred in zip(anchors, preds):
        rect = decode_grasp(anchor, pred.delta, cfg.k)
        conf = softmax2(*pred.logits)[0]
        out.append(GraspCandidate(rect=rect, confidence=conf))
    return out


def reference_hflip(record):
    """``dataset.hflip``: the scene mirrored across its vertical axis."""
    from dataclasses import replace

    from stackgrasp.geometry import AABox, OrientedRect, normalize_angle

    w = record.width
    objects = tuple(
        replace(o, box=AABox(w - o.box.xmax, o.box.ymin, w - o.box.xmin, o.box.ymax))
        for o in record.objects
    )
    grasps = tuple(
        replace(
            g,
            rect=OrientedRect(
                x=w - g.rect.x,
                y=g.rect.y,
                w=g.rect.w,
                h=g.rect.h,
                theta=normalize_angle(-g.rect.theta),
            ),
        )
        for g in record.grasps
    )
    return replace(record, objects=objects, grasps=grasps)


def reference_rot90(record, quarter_turns: int = 1):
    """``dataset.rot90``: the scene turned counter-clockwise by
    ``quarter_turns`` quarter turns."""
    from dataclasses import replace

    from stackgrasp.geometry import AABox, OrientedRect, normalize_angle

    out = record
    for _ in range(quarter_turns % 4):
        w = out.width
        objects = tuple(
            replace(o, box=AABox(o.box.ymin, w - o.box.xmax, o.box.ymax, w - o.box.xmin))
            for o in out.objects
        )
        grasps = tuple(
            replace(
                g,
                rect=OrientedRect(
                    x=g.rect.y,
                    y=w - g.rect.x,
                    w=g.rect.w,
                    h=g.rect.h,
                    theta=normalize_angle(g.rect.theta + 90.0),
                ),
            )
            for g in out.grasps
        )
        out = replace(out, width=out.height, height=out.width, objects=objects, grasps=grasps)
    return out


def predictions_to_json_dict(preds) -> dict:
    """The predictions document of a ``ScenePredictions``: detections by
    id, each with its grasp candidates, and relations by pair."""
    dets = []
    for d in sorted(preds.detections, key=lambda d: d.instance_id):
        grasps = [
            {
                "rect": [float(g.rect.x), float(g.rect.y), float(g.rect.w), float(g.rect.h), float(g.rect.theta)],
                "confidence": float(g.confidence),
            }
            for g in preds.grasp_candidates.get(d.instance_id, [])
        ]
        dets.append(
            {
                "id": d.instance_id,
                "category": d.category,
                "bbox": [float(v) for v in d.box.as_tuple()],
                "score": float(d.score),
                "grasps": grasps,
            }
        )
    relations = [
        {"pair": [a, b], "probs": [float(p) for p in probs]}
        for (a, b), probs in sorted(preds.relations.items())
    ]
    return {"detections": dets, "relations": relations}


def serialize_predictions(preds) -> str:
    """The predictions file text of a ``ScenePredictions``."""
    return json.dumps(predictions_to_json_dict(preds), indent=2) + "\n"


def save_depth_pgm(path, depth) -> None:
    """Write a ``DepthImage`` as a 16-bit binary PGM (big-endian, maxval
    65535); invalid pixels are stored as 0 millimeters."""
    values = np.where(depth.valid, np.rint(depth.values), 0.0)
    if np.any(values < 0) or np.any(values > 65535):
        raise ValueError("depth values outside the 16-bit millimeter range")
    arr = values.astype(">u2")
    with open(path, "wb") as f:
        f.write(f"P5\n{depth.width} {depth.height}\n65535\n".encode("ascii"))
        f.write(arr.tobytes())


def whole_frame_load_depth_pgm(path):
    """A 16-bit PGM read as the package read it before its frames kept the
    raster: the whole file as bytes, the raster converted to float64 and
    checked by ``DepthImage(values, valid)``. Same errors as
    ``execution.load_depth_pgm`` on a regular file."""
    from pathlib import Path

    from stackgrasp.execution import DepthImage

    raw = Path(path).read_bytes()
    m = re.match(rb"^P5" + rb"\s+(?:#[^\n]*\n\s*)*(\d+)" * 3 + rb"\s", raw)
    if m is None:
        raise ValueError(f"{path}: not a binary PGM")
    width, height, maxval = (int(m.group(i)) for i in (1, 2, 3))
    if maxval != 65535:
        raise ValueError(f"{path}: expected 16-bit PGM, maxval {maxval}")
    start, end = m.end(), m.end() + width * height * 2
    if len(raw) < end:
        raise ValueError(f"{path}: truncated pixel data")
    raster = np.frombuffer(raw[start:end], dtype=">u2").reshape(height, width)
    return DepthImage(values=raster.astype(float), valid=raster != 0)
