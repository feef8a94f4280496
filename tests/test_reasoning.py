import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackgrasp.geometry import AABox
from stackgrasp.perception import ObjectDetection, PerceivedObject
from stackgrasp.reasoning import (
    EmptySceneError,
    GraspAction,
    ManipulationGraph,
    _above,
    _incoming,
    argmax_label,
    build_graph,
    leaves,
    next_action,
    resolve_target,
    symmetrize,
)

from oracle_utils import argmax_by_key, order_is_valid, restart_cycle_repair, valid_orders


def perceived(instance_id, score=0.5, category="cup"):
    d = ObjectDetection(
        box=AABox(instance_id * 10.0, 0.0, instance_id * 10.0 + 5.0, 5.0),
        category=category,
        score=score,
        instance_id=instance_id,
    )
    return PerceivedObject(detection=d, best_grasp=None, grasp_confidence=0.0)


def one_hot(label):
    probs = [0.0, 0.0, 0.0]
    probs[label] = 1.0
    return tuple(probs)


# Few values, so that two-way and three-way ties are common.
_LABEL_VALUES = st.sampled_from([0.0, -0.0, 5e-324, 0.1, 0.25, 1 / 3, 0.5, 1.0, -1.0, 2.0])


class TestArgmaxOracle:
    """The comparison argmax keeps the tie rule of the maximum of a sort key
    (tests/oracle_utils.argmax_by_key)."""

    @given(probs=st.tuples(_LABEL_VALUES, _LABEL_VALUES, _LABEL_VALUES))
    @settings(max_examples=300)
    def test_matches_max_by_key(self, probs):
        assert argmax_label(probs) == argmax_by_key(probs)


class TestSymmetrize:
    def test_consistent_pair(self):
        rel = {(1, 2): (0.1, 0.8, 0.1), (2, 1): (0.1, 0.1, 0.8)}
        out = symmetrize(rel)
        assert out == {(1, 2): (1, pytest.approx(0.8))}

    def test_conflict_averages(self):
        # forward says above 0.9, reverse also says above (i.e. 2->1 above,
        # so 1 below 2) 0.7: joint above = (0.9 + 0.0)/2, below = (0.1+0.7)/2
        rel = {(1, 2): (0.0, 0.9, 0.1), (2, 1): (0.3, 0.7, 0.0)}
        out = symmetrize(rel)
        assert out[(1, 2)][0] == 1
        assert out[(1, 2)][1] == pytest.approx(0.45)

    def test_tie_prefers_none_then_above(self):
        rel = {(1, 2): (0.4, 0.4, 0.2), (2, 1): (0.4, 0.2, 0.4)}
        # joint: none 0.4, above 0.4, below 0.2
        assert symmetrize(rel)[(1, 2)][0] == 0
        rel = {(1, 2): (0.2, 0.4, 0.4), (2, 1): (0.2, 0.4, 0.4)}
        # joint: none 0.2, above 0.4, below 0.4
        assert symmetrize(rel)[(1, 2)][0] == 1

    def test_keys_are_low_high(self):
        rel = {(5, 2): one_hot(1), (2, 5): one_hot(2)}
        out = symmetrize(rel)
        assert set(out) == {(2, 5)}
        # (5 above 2) fused from both directions: for key (2, 5) that is below
        assert out[(2, 5)] == (2, pytest.approx(1.0))

    def test_missing_reverse_rejected(self):
        with pytest.raises(ValueError, match=r"\(1, 2\).*reverse"):
            symmetrize({(1, 2): one_hot(0)})


class TestBuildGraph:
    def test_chain(self):
        labels = {(1, 2): (1, 0.9), (2, 3): (1, 0.8), (1, 3): (0, 0.6)}
        g = build_graph([1, 2, 3], labels)
        assert g.edges == {(1, 2): 0.9, (2, 3): 0.8}
        assert g.deleted_edges == ()

    def test_below_label_flips_edge(self):
        g = build_graph([1, 2], {(1, 2): (2, 0.7)})
        assert g.edges == {(2, 1): 0.7}

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError, match="unknown node"):
            build_graph([1, 2], {(1, 3): (1, 0.5)})

    def test_cycle_repair_deletes_weakest(self):
        labels = {(1, 2): (1, 0.9), (2, 3): (1, 0.4), (1, 3): (2, 0.8)}
        # edges 1->2 (0.9), 2->3 (0.4), 3->1 (0.8): cycle, weakest is 2->3
        g = build_graph([1, 2, 3], labels)
        assert g.deleted_edges == ((2, 3, 0.4),)
        assert (2, 3) not in g.edges
        assert set(g.edges) == {(1, 2), (3, 1)}

    def test_cycle_tie_breaks_on_endpoints(self):
        labels = {(1, 2): (1, 0.5), (2, 3): (1, 0.5), (1, 3): (2, 0.5)}
        g = build_graph([1, 2, 3], labels)
        assert g.deleted_edges == ((1, 2, 0.5),)

    def test_two_cycles_both_repaired(self):
        labels = {
            (1, 2): (1, 0.9),
            (2, 3): (1, 0.4),
            (1, 3): (2, 0.8),
            (4, 5): (1, 0.3),
            (5, 6): (1, 0.6),
            (4, 6): (2, 0.7),
        }
        g = build_graph([1, 2, 3, 4, 5, 6], labels)
        assert len(g.deleted_edges) == 2
        assert {(a, b) for (a, b, _) in g.deleted_edges} == {(2, 3), (4, 5)}
        assert _is_acyclic(g)

    def test_edge_list_sorted(self):
        g = build_graph([1, 2, 3], {(2, 3): (1, 0.8), (1, 2): (1, 0.9)})
        assert g.edge_list() == [(1, 2, 0.9), (2, 3, 0.8)]


def _label_edges(labels):
    edges = {}
    for (i, j), (label, conf) in labels.items():
        if label == 1:
            edges[(i, j)] = conf
        elif label == 2:
            edges[(j, i)] = conf
    return edges


def _assert_matches_restart_oracle(nodes, labels):
    g = build_graph(nodes, labels)
    edges, deleted = restart_cycle_repair(frozenset(nodes), _label_edges(labels))
    assert list(g.deleted_edges) == deleted
    assert g.edges == edges
    assert _is_acyclic(g)
    return g


@st.composite
def noisy_graphs(draw):
    """Dense noisy label sets over up to 60 nodes. Some carry a long chain
    closed by a strong edge, whose weakest edge sits deep in the DFS stack
    when the cycle is found; confidences repeat, so ties are common."""
    n = draw(st.integers(1, 60))
    rng = draw(st.randoms(use_true_random=False))
    nodes = rng.sample(range(200), n)
    density = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.9]))
    labels = {}
    for x, y in itertools.combinations(sorted(nodes), 2):
        if rng.random() < density:
            conf = rng.choice([0.5, 0.75, round(rng.random(), 3)])
            labels[(x, y)] = (rng.choice((0, 1, 2)), conf)
    chain = sorted(nodes)[: draw(st.integers(0, n))]
    if len(chain) >= 3:
        weak = draw(st.integers(0, len(chain) - 2))
        for k in range(len(chain) - 1):
            labels[(chain[k], chain[k + 1])] = (1, 0.05 if k == weak else 0.95)
        labels[(chain[0], chain[-1])] = (2, 0.99)  # chain[-1] above chain[0]
    return nodes, labels


class TestCycleRepairOracle:
    """The rewinding DFS must delete exactly what restarting after every
    deletion deletes (tests/oracle_utils.restart_cycle_repair)."""

    @given(noisy_graphs())
    @settings(max_examples=100, deadline=None)
    def test_matches_restart_loop(self, graph):
        _assert_matches_restart_oracle(*graph)

    def test_deep_tree_edge_victim(self):
        # 0 -> 1 -> ... -> 9 -> 0; the weakest edge 3 -> 4 is a tree edge
        # six levels below the top of the stack. After its deletion 5..9
        # are rediscovered from 2, closing 0 -> 1 -> 2 -> 5 -> ... -> 9 -> 0,
        # whose weakest edge 2 -> 5 is again a tree edge.
        labels = {(k, k + 1): (1, 0.9) for k in range(9)}
        labels[(3, 4)] = (1, 0.1)
        labels[(0, 9)] = (2, 0.95)
        labels[(2, 5)] = (1, 0.3)
        g = _assert_matches_restart_oracle(range(10), labels)
        assert g.deleted_edges == ((3, 4, 0.1), (2, 5, 0.3))

    def test_back_edge_victim(self):
        labels = {(1, 2): (1, 0.9), (2, 3): (1, 0.8), (1, 3): (2, 0.2)}
        g = _assert_matches_restart_oracle([1, 2, 3], labels)
        assert g.deleted_edges == ((3, 1, 0.2),)

    def test_self_loop(self):
        g = _assert_matches_restart_oracle([1, 2], {(1, 1): (1, 0.4), (1, 2): (1, 0.5)})
        assert g.deleted_edges == ((1, 1, 0.4),)


def _is_acyclic(g: ManipulationGraph) -> bool:
    order = []
    remaining = dict(g.edges)
    nodes = set(g.nodes)
    while nodes:
        free = {n for n in nodes if not any(b == n for (_, b) in remaining)}
        if not free:
            return False
        for n in free:
            nodes.discard(n)
            order.append(n)
        remaining = {e: c for e, c in remaining.items() if e[0] in nodes}
    return True


class TestLeavesAncestors:
    def g(self):
        #   1        4
        #   |
        #   2
        #   |
        #   3
        return build_graph(
            [1, 2, 3, 4], {(1, 2): (1, 0.9), (2, 3): (1, 0.8), (1, 3): (1, 0.7)}
        )

    def test_leaves(self):
        assert leaves(self.g()) == {1, 4}

    def test_ancestors_transitive(self):
        # the ancestor walk next_action runs over its incoming-edge map
        incoming = _incoming(self.g())
        assert _above(incoming, 3) == {1, 2}
        assert _above(incoming, 2) == {1}
        assert _above(incoming, 1) == set()
        assert _above(incoming, 4) == set()


class TestNextAction:
    def setup_method(self):
        self.dets = [
            perceived(1, score=0.9),
            perceived(2, score=0.8),
            perceived(3, score=0.7, category="stapler"),
            perceived(4, score=0.6),
        ]
        self.g = build_graph(
            [1, 2, 3, 4], {(1, 2): (1, 0.9), (2, 3): (1, 0.8), (1, 3): (1, 0.7)}
        )

    def test_free_target_is_final(self):
        assert next_action(self.g, self.dets, 1) == GraspAction(1, True)
        assert next_action(self.g, self.dets, 4) == GraspAction(4, True)

    def test_buried_target_grasps_leaf_above_it(self):
        act = next_action(self.g, self.dets, 3)
        assert act == GraspAction(1, False)
        act = next_action(self.g, self.dets, 2)
        assert act == GraspAction(1, False)

    def test_hidden_target_grasps_best_leaf(self):
        act = next_action(self.g, self.dets, 99)
        assert act == GraspAction(1, False)  # leaves {1, 4}, higher score wins

    def test_none_target_grasps_best_leaf(self):
        act = next_action(self.g, self.dets, None)
        assert act == GraspAction(1, False)

    def test_category_target_resolution(self):
        act = next_action(self.g, self.dets, "stapler")
        assert act.object_id == 1  # resolved to 3, buried under 1 and 2
        assert not act.is_final_target

    def test_category_resolution_prefers_score(self):
        dets = self.dets + [perceived(5, score=0.95, category="stapler")]
        g = build_graph([1, 2, 3, 4, 5], {(1, 2): (1, 0.9)})
        act = next_action(g, dets, "stapler")
        assert act == GraspAction(5, True)

    def test_unknown_category_falls_back_to_leaf(self):
        act = next_action(self.g, self.dets, "umbrella")
        assert act == GraspAction(1, False)

    def test_score_tie_prefers_lower_id(self):
        dets = [perceived(7, score=0.5), perceived(3, score=0.5)]
        g = build_graph([3, 7], {})
        assert next_action(g, dets, None).object_id == 3

    def test_no_free_leaf_falls_back_to_all_detected(self):
        # graph says everything is covered by an undetected node 9
        g = ManipulationGraph(
            nodes=frozenset({1, 2, 9}), edges={(9, 1): 0.5, (9, 2): 0.5}
        )
        dets = [perceived(1, score=0.4), perceived(2, score=0.6)]
        assert next_action(g, dets, None) == GraspAction(2, False)

    def test_empty_scene_rejected(self):
        with pytest.raises(EmptySceneError):
            next_action(self.g, [], 1)


class TestResolveTarget:
    dets = [
        perceived(4, score=0.6, category="stapler"),
        perceived(2, score=0.8),
        perceived(7, score=0.8, category="stapler"),
        perceived(3, score=0.8, category="stapler"),
    ]

    def test_id_present(self):
        assert resolve_target(self.dets, 7) == 7

    def test_id_absent(self):
        assert resolve_target(self.dets, 5) is None

    def test_category_score_tie_prefers_lower_id(self):
        assert resolve_target(self.dets, "stapler") == 3

    def test_no_match(self):
        assert resolve_target(self.dets, "umbrella") is None
        assert resolve_target([], 4) is None

    def test_none(self):
        assert resolve_target(self.dets, None) is None


class TestClearOutOracle:
    """Repeatedly grasping what next_action suggests must clear any stack in
    an order that never removes a covered object."""

    def run_clearout(self, nodes, relations, target=None):
        labels = {}
        for i, j in itertools.combinations(sorted(nodes), 2):
            if (i, j) in relations:
                labels[(i, j)] = (1, 0.9)
            elif (j, i) in relations:
                labels[(i, j)] = (2, 0.9)
            else:
                labels[(i, j)] = (0, 0.9)
        removed = []
        alive = set(nodes)
        while alive:
            dets = [perceived(i, score=0.5) for i in sorted(alive)]
            live_edges = {e for e in relations if e[0] in alive and e[1] in alive}
            live_labels = {
                (i, j): lab
                for (i, j), lab in labels.items()
                if i in alive and j in alive
            }
            g = build_graph(sorted(alive), live_labels)
            act = next_action(g, dets, target)
            assert act.object_id in alive
            # never remove a covered object
            assert not any(b == act.object_id for (_, b) in live_edges)
            removed.append(act.object_id)
            alive.discard(act.object_id)
            if target is not None and act.is_final_target:
                break
        return removed

    def test_full_clear_matches_oracle_small(self):
        nodes = [1, 2, 3, 4]
        above = {(1, 2), (2, 3), (1, 3)}
        order = self.run_clearout(nodes, above)
        assert tuple(order) in valid_orders(nodes, above)

    def test_exhaustive_dags_small(self):
        # every subset of the i<j pairs is acyclic by construction
        for n in (2, 3, 4):
            nodes = list(range(n))
            pairs = list(itertools.combinations(nodes, 2))
            for bits in range(2 ** len(pairs)):
                above = {p for k, p in enumerate(pairs) if bits >> k & 1}
                order = self.run_clearout(nodes, above)
                assert order_is_valid(order, above)
                assert sorted(order) == nodes

    def test_targeted_runs_stop_at_target(self):
        nodes = [1, 2, 3, 4, 5]
        above = {(1, 3), (2, 3), (3, 4), (1, 4), (2, 4)}
        order = self.run_clearout(nodes, above, target=4)
        assert order[-1] == 4
        assert order_is_valid(order, above)
        assert 5 not in order  # unrelated object never touched
