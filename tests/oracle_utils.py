"""Independent reference implementations used to check the package.

Everything in here deliberately avoids the package's own algorithms:
overlap is estimated by Monte-Carlo point membership instead of polygon
clipping, the affine fit solves the normal equations instead of calling
lstsq, removal orders are enumerated by brute force, the grasp point
is found by scanning every pixel, the approach vector maps and crosses
one window pixel at a time, cycles are repaired by restarting the search
after every deletion, the plan document is built whole and encoded by
json.dumps, box coverage tests every grid cell against every box, relation
rows are converted and checked one at a time, and the relation argmax
takes the maximum of a sort key.
"""

from __future__ import annotations

import itertools
import math

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


def plan_document(preds, target: str, top_n: int = 3) -> dict:
    """The ``stackgrasp plan`` document for ``preds`` as one dict, with each
    step's whole graph rebuilt and listed. The graph is repaired by
    :func:`restart_cycle_repair`; the decisions are the package's
    ``symmetrize`` and ``next_action``."""
    from stackgrasp.reasoning import ManipulationGraph, next_action, symmetrize

    perceived = preds.perceived(top_n)
    nodes = frozenset(p.detection.instance_id for p in perceived)
    edges = {}
    for (i, j), (label, conf) in symmetrize(preds.relations).items():
        if label == 1:
            edges[(i, j)] = conf
        elif label == 2:
            edges[(j, i)] = conf
    edges, deleted = restart_cycle_repair(nodes, edges)
    current = ManipulationGraph(nodes=nodes, edges=edges, deleted_edges=tuple(deleted))
    try:
        goal = int(target)
        resolved = goal in nodes
    except ValueError:
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
    stores them, converting and checking one row at a time; raises
    ValueError with the parser's message for the first bad row."""
    from stackgrasp.losses import check_relation

    rows = data.get("relations", [])
    if not isinstance(rows, list):
        raise ValueError(f"relations: expected a list, got {type(rows).__name__}")
    relations = {}
    for i, r in enumerate(rows):
        try:
            a, b = map(int, r["pair"])
            probs = tuple(map(float, r["probs"]))
            check_relation((a, b), probs)
        except (KeyError, TypeError, ValueError) as e:
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
