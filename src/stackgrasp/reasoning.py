"""Stacking-order reasoning: turn pairwise relation probabilities into a
directed acyclic graph and pick the next object to grasp.

Relation classes for an ordered pair (a, b): 0 = none, 1 = a above b,
2 = a below b. ``symmetrize`` decides each pair's class once and turns it
into a graph edge from the object on top to the object under it: a -> b for
class 1, b -> a for class 2, none for class 0. The planner reads the graph
only among the current detections: a "leaf" is a detected object with no
incoming edge from another detected object (nothing seen is stacked on
it), and it is safe to remove.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Sequence

from .perception import PerceivedObject

RELATION_NONE = 0
RELATION_ABOVE = 1
RELATION_BELOW = 2


class EmptySceneError(ValueError):
    """Raised when an action is requested with no detections at all."""


def argmax_label(probs: Sequence[float]) -> int:
    """Most probable relation class; exact ties break toward the smaller
    class index: none, then above, then below."""
    p0, p1, p2 = probs
    if p0 >= p1:
        return RELATION_NONE if p0 >= p2 else RELATION_BELOW
    return RELATION_ABOVE if p1 >= p2 else RELATION_BELOW


def symmetrize(
    relations: Mapping[tuple[int, int], Sequence[float]],
) -> dict[tuple[int, int], float]:
    """Fuse the two ordered predictions of each pair into a graph edge.

    For i < j the joint score of each consistent labeling averages the two
    directions: none = (p_ij[0] + p_ji[0]) / 2, i-above-j =
    (p_ij[1] + p_ji[2]) / 2, i-below-j = (p_ij[2] + p_ji[1]) / 2, and
    ``argmax_label`` picks the winner. Returns {(above, below): winning
    score} for each pair labeled above or below.
    """
    out: dict[tuple[int, int], float] = {}
    for pair, p_ij in relations.items():
        a, b = pair
        try:
            p_ji = relations[(b, a)]
        except KeyError:
            raise ValueError(f"pair ({a}, {b}) present without its reverse") from None
        if a > b:
            continue
        joint = (
            (p_ij[0] + p_ji[0]) / 2.0,
            (p_ij[1] + p_ji[2]) / 2.0,
            (p_ij[2] + p_ji[1]) / 2.0,
        )
        label = argmax_label(joint)
        if label != RELATION_NONE:
            out[pair if label == RELATION_ABOVE else (b, a)] = joint[label]
    return out


@dataclass(frozen=True)
class ManipulationGraph:
    """Above->below edges with the confidence that survived symmetrization.

    ``deleted_edges`` records cycle repairs: whenever a directed cycle was
    found, its lowest-confidence edge was dropped.
    """

    nodes: frozenset[int]
    edges: dict[tuple[int, int], float]
    deleted_edges: tuple[tuple[int, int, float], ...] = ()

    def edge_list(self) -> list[tuple[int, int, float]]:
        return [(a, b, c) for (a, b), c in sorted(self.edges.items())]

    @functools.cached_property
    def incoming(self) -> dict[int, list[int]]:
        """The objects directly on top of each node, built once: keep ``edges`` as built."""
        incoming: dict[int, list[int]] = {n: [] for n in self.nodes}
        for (a, b) in self.edges:
            incoming[b].append(a)
        return incoming


def build_graph(
    nodes: Sequence[int],
    edges: Mapping[tuple[int, int], float],
) -> ManipulationGraph:
    """Build the acyclic stacking graph of ``nodes`` on a copy of ``edges``,
    ``symmetrize``'s above->below confidences; an unknown endpoint is an error.

    Any directed cycle is repaired by deleting its lowest-confidence edge
    (ties broken by edge endpoints); repairs repeat until acyclic and are
    reported in ``deleted_edges``.

    Cycles are found by one depth-first search over the sorted adjacency,
    roots in ascending order. The repairs are those of restarting that
    search after every deletion, without the restarts: the search rewinds
    to the moment it scanned the deleted edge. Everything before that
    moment runs the same without the edge, so the restarted search would
    reach the same state and skip the edge.
    """
    node_set = frozenset(int(n) for n in nodes)
    edges = dict(edges)
    adj: dict[int, list[int]] = {n: [] for n in node_set}
    for (a, b) in sorted(edges):
        if a not in adj or b not in adj:
            raise ValueError(f"edge ({a}, {b}) references unknown node")
        adj[a].append(b)
    # 0 new, 1 on the stack, 2 finished. ``order`` lists the nodes in
    # discovery order, ``found[n]`` is n's place in it, and ``pos[k]`` is
    # the next adjacency index of ``stack[k]`` to scan.
    color = dict.fromkeys(node_set, 0)
    found: dict[int, int] = {}
    order: list[int] = []
    deleted = []
    for root in sorted(node_set):
        if color[root]:
            continue
        color[root] = 1
        found[root] = len(order)
        order.append(root)
        stack, pos = [root], [0]
        while stack:
            node = stack[-1]
            out = adj[node]
            i = pos[-1]
            if i == len(out):
                color[node] = 2
                stack.pop()
                pos.pop()
                continue
            nxt = out[i]
            pos[-1] = i + 1
            state = color[nxt]
            if state == 0:
                color[nxt] = 1
                found[nxt] = len(order)
                order.append(nxt)
                stack.append(nxt)
                pos.append(0)
            elif state == 1:
                # stack[k:] runs from nxt down to node, closed by node -> nxt
                k = stack.index(nxt)
                cycle = [(stack[m], stack[m + 1]) for m in range(k, len(stack) - 1)]
                cycle.append((node, nxt))
                victim = min(cycle, key=lambda e: (edges[e], e))
                deleted.append((victim[0], victim[1], edges.pop(victim)))
                if victim == (node, nxt):
                    # back edge: rescan node's list from the same index
                    del out[i]
                    pos[-1] = i
                    continue
                # tree edge: forget everything discovered since b and
                # resume a's scan where b was
                a, b = victim
                depth = stack.index(b)
                i = pos[depth - 1] - 1
                del adj[a][i]
                del stack[depth:]
                del pos[depth:]
                pos[-1] = i
                for n in order[found[b]:]:
                    color[n] = 0
                del order[found[b]:]
    return ManipulationGraph(nodes=node_set, edges=edges, deleted_edges=tuple(deleted))


def _above(incoming: dict[int, list[int]], detected, node: int) -> set[int]:
    # the detected nodes stacked, transitively through detected ones, on ``node``
    seen: set[int] = set()
    frontier = [node]
    while frontier:
        cur = frontier.pop()
        for up in incoming.get(cur, ()):
            if up in detected and up not in seen:
                seen.add(up)
                frontier.append(up)
    return seen


@dataclass(frozen=True)
class GraspAction:
    object_id: int
    is_final_target: bool


def _best(ids, scores) -> int:
    return min(ids, key=lambda i: (-scores[i], i))


def resolve_target(
    detections: Sequence[PerceivedObject],
    target: int | str | None,
) -> int | None:
    """The instance id that ``target`` names among ``detections``, or None
    when none matches. An int is an instance id; a string is a category,
    resolved to its best-scoring detection with ties to the lower id."""
    if isinstance(target, int):
        return target if any(p.detection.instance_id == target for p in detections) else None
    if isinstance(target, str):
        scores = {
            p.detection.instance_id: p.detection.score
            for p in detections
            if p.detection.category == target
        }
        if scores:
            return _best(scores, scores)
    return None


def next_action(
    g: ManipulationGraph,
    detections: Sequence[PerceivedObject],
    target: int | str | None,
) -> GraspAction:
    """Choose the next object to grasp, reading ``g`` only among the ids in
    ``detections``: an undetected object covers nothing.

    If the target is detected (``resolve_target``): grasp it when nothing
    detected is stacked on it, otherwise grasp the best-scoring leaf among
    the detected objects above it, or the best of those objects if they
    all cover each other (a cyclic graph). If it is not detected (hidden,
    or absent): grasp the best-scoring leaf overall to uncover more of the
    scene, or the best detection if all are covered (a cyclic graph).
    Score ties go to the lower instance id.
    """
    if not detections:
        raise EmptySceneError("no detections to act on")
    scores = {p.detection.instance_id: p.detection.score for p in detections}
    target_id = resolve_target(detections, target)
    incoming = g.incoming
    if target_id is None:
        free = [n for n in scores if scores.keys().isdisjoint(incoming.get(n, ()))]
        return GraspAction(object_id=_best(free or scores, scores), is_final_target=False)

    above = _above(incoming, scores, target_id)
    if not above:
        return GraspAction(object_id=target_id, is_final_target=True)
    # leaves of the subgraph induced on the objects above the target
    sub_leaves = [n for n in above if above.isdisjoint(incoming[n])]
    return GraspAction(object_id=_best(sub_leaves or above, scores), is_final_target=False)


def plan(
    g: ManipulationGraph,
    detections: Sequence[PerceivedObject],
    target: int | str | None,
) -> list[GraspAction]:
    """The open-loop grasp plan: ``next_action`` at each step, with the
    acted-on object dropped from the detections (never from ``g``), up to
    the final target or until no detection is left."""
    actions = []
    remaining = list(detections)
    while remaining:
        action = next_action(g, remaining, target)
        actions.append(action)
        if action.is_final_target:
            break
        remaining = [p for p in remaining if p.detection.instance_id != action.object_id]
    return actions
