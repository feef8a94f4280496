"""Seeded scene simulator: cluttered stacks of boxes, an oracle predictor
with tunable noise, and a grasp-remove trial loop.

Scenes are ``dataset.SceneRecord``s holding forests of axis-aligned boxes.
A stacked box is always nested inside its supporting box and siblings never
overlap, so two boxes overlap exactly when one is (transitively) stacked on
the other, and every such pair carries a direct above/below relation. That
containment rule is load bearing: it means any object visible to the oracle
predictor has all of its coverers visible too, so the planner's leaf
estimate over detected objects can never pick an object that secretly has
something on it. Zero-noise trials therefore always succeed.

Every random quantity is drawn from numpy Generators seeded from the trial
seed, and noise variates are drawn unconditionally before being applied, so
runs are reproducible and noise realizations are nested across noise levels
that share a seed.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from ._json import DocumentError, integer, load, number, string
from .dataset import SceneGrasp, SceneObject, SceneRecord, scene_to_json_dict
from .evaluation import sequential_success
from .geometry import AABox, OrientedRect
from .perception import GraspCandidate, ObjectDetection, ScenePredictions
from .reasoning import build_graph, next_action, symmetrize

SCENE_WIDTH = 640
SCENE_HEIGHT = 480

CATEGORIES = (
    "apple", "banana", "bottle", "box", "can", "charger", "cup", "eraser",
    "glasses", "glue", "hammer", "headphones", "knife", "marker", "mouse",
    "notebook", "pen", "pliers", "remote", "ruler", "scissors", "screwdriver",
    "shaver", "spoon", "stapler", "tape", "toothbrush", "toothpaste",
    "umbrella", "wallet", "wrench",
)

_ROOT_COLS = 3
_ROOT_ROWS = 2
_MIN_PARENT_SIDE = 24
_MIN_CHILD_SIDE = 8


def _only_fields(data, known, name: str, what: str | None = None) -> dict:
    """``data`` when it is an object with no field outside ``known``;
    otherwise a ValueError, ``<what> must be an object`` (``what``
    defaults to ``name``) or ``unknown <name> fields: [...]``."""
    if not isinstance(data, dict):
        raise ValueError(f"{what or name} must be an object")
    bad = set(data) - set(known)
    if bad:
        raise ValueError(f"unknown {name} fields: {sorted(bad)}")
    return data


@dataclass(frozen=True)
class NoiseModel:
    """Corruption applied by the oracle predictor; all defaults are zero."""

    drop_prob: float = 0.0
    box_sigma: float = 0.0
    angle_sigma: float = 0.0
    relation_flip_prob: float = 0.0
    score_sigma: float = 0.0

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            object.__setattr__(self, name, number(name, getattr(self, name)))
        for name in ("drop_prob", "relation_flip_prob"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        for name in ("box_sigma", "angle_sigma", "score_sigma"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be non-negative, got {v}")

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TrialConfig:
    count_range: tuple[int, int] = (6, 9)
    target_rule: str = "random"  # or "deepest"
    noise: NoiseModel = NoiseModel()
    coverage_threshold: float = 0.8
    max_stack_depth: int = 4

    def __post_init__(self) -> None:
        if not (isinstance(self.count_range, (tuple, list)) and len(self.count_range) == 2):
            raise ValueError(f"count_range must be a pair of integers, got {self.count_range!r}")
        lo, hi = (integer(f"count_range[{i}]", v) for i, v in enumerate(self.count_range))
        object.__setattr__(self, "count_range", (lo, hi))
        threshold = number("coverage_threshold", self.coverage_threshold)
        object.__setattr__(self, "coverage_threshold", threshold)
        integer("max_stack_depth", self.max_stack_depth)
        if lo < 1 or hi < lo:
            raise ValueError(f"bad object count range ({lo}, {hi})")
        if not (0.0 < self.coverage_threshold <= 1.0):
            raise ValueError("coverage threshold must be in (0, 1]")
        if self.max_stack_depth < 0:
            raise ValueError("max_stack_depth must be non-negative")
        # the guaranteed worst-case capacity is one single-child chain per
        # base slot; quad-mode stacking only adds room beyond that
        slots = _ROOT_COLS * _ROOT_ROWS
        capacity = slots * (1 + self.max_stack_depth) if self.max_stack_depth else slots
        if hi > capacity:
            raise ValueError(
                f"at most {capacity} objects fit with stack depth {self.max_stack_depth}"
            )
        if string("target_rule", self.target_rule) not in ("random", "deepest"):
            raise ValueError(f"unknown target rule {self.target_rule!r}")


def parse_sim_config(source: str | dict) -> tuple[int, list[tuple[str, int, TrialConfig]]]:
    """The base seed and every regime's name, trial count and config of a
    simulation config, given as text or as the decoded document, all
    checked before any trial runs; errors carry the JSON path of the
    offending field."""
    data = load(source) if isinstance(source, str) else source
    try:
        _only_fields(data, {"seed", "regimes"}, "config", "top level")
        seed = integer("seed", data.get("seed", 0))
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
    except ValueError as e:
        raise DocumentError("$", str(e)) from e
    regimes = data.get("regimes")
    if type(regimes) is not list or not regimes:
        raise DocumentError("regimes", "missing or not a non-empty list")
    out = []
    names = set()
    for i, regime in enumerate(regimes):
        try:
            if type(regime) is not dict or "count_range" not in regime or "trials" not in regime:
                raise ValueError("needs at least 'count_range' and 'trials'")
            fields = dict(regime)
            name = string("name", fields.pop("name", f"regime{i}"))
            trials = integer("trials", fields.pop("trials"))
            # a trial's seed is one 32-bit word, so more trials repeat a seed
            if not 1 <= trials <= 2**32:
                raise ValueError("'trials' must be from 1 to 2**32")
            # trials derive their seeds from the base seed, so no regime sets one
            _only_fields(fields, TrialConfig.__dataclass_fields__, "regime")
            if "noise" in fields:
                fields["noise"] = NoiseModel(
                    **_only_fields(fields["noise"], NoiseModel.__dataclass_fields__, "noise")
                )
            # the constructors check every value; absent fields keep their defaults
            config = TrialConfig(**fields)
            # names become trial log file names
            if name in names:
                raise ValueError(f"duplicate regime name {name!r}")
            if "/" in name or "\\" in name:
                raise ValueError(f"regime name {name!r} contains a path separator")
            if "\0" in name:
                raise ValueError(f"regime name {name!r} contains a NUL character")
        except (TypeError, ValueError) as e:
            raise DocumentError(f"regimes[{i}]", str(e)) from e
        names.add(name)
        out.append((name, trials, config))
    return seed, out


class _Node:
    __slots__ = ("x0", "y0", "w", "h", "level", "parent", "index", "free_quads")

    def __init__(self, x0, y0, w, h, level, parent, index):
        self.x0, self.y0, self.w, self.h = x0, y0, w, h
        self.level = level
        self.parent = parent
        self.index = index
        # None until the first child; [] after a covering child, else the
        # quadrants still free
        self.free_quads: list[int] | None = None


def _uniform(lo: float, hi: float, u: float) -> float:
    """``rng.uniform(lo, hi)`` from the ``rng.random()`` draw ``u``: numpy
    computes exactly this, so a batch of ``random`` draws replaces as many
    ``uniform`` calls without moving the stream or a value."""
    return lo + (hi - lo) * u


def _eligible(node: _Node, max_depth: int) -> bool:
    if node.level >= max_depth or min(node.w, node.h) < _MIN_PARENT_SIDE:
        return False
    return node.free_quads is None or bool(node.free_quads)


def generate_scene(seed: int, cfg: TrialConfig) -> SceneRecord:
    """Deterministic random scene for a seed: disjoint base objects, nested
    stacks on top of them, one to three grasps per object."""
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
            cw = min(max(int(round(parent.w * _uniform(0.92, 0.97, rng.random()))), _MIN_CHILD_SIDE), parent.w - 2)
            ch = min(max(int(round(parent.h * _uniform(0.92, 0.97, rng.random()))), _MIN_CHILD_SIDE), parent.h - 2)
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
            cw = min(max(int(round(parent.w * _uniform(0.34, 0.46, rng.random()))), _MIN_CHILD_SIDE), qw - 2)
            ch = min(max(int(round(parent.h * _uniform(0.34, 0.46, rng.random()))), _MIN_CHILD_SIDE), qh - 2)
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
        for ux, uy, uw, uh, ut in rng.random((int(rng.integers(1, 4)), 5)).tolist():
            rect = OrientedRect(
                x=cx0 + _uniform(-0.05, 0.05, ux) * side,
                y=cy0 + _uniform(-0.05, 0.05, uy) * side,
                w=side * _uniform(0.45, 0.6, uw),
                h=side * _uniform(0.25, 0.4, uh),
                theta=_uniform(-90.0, 90.0, ut),
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


def _coverage_fraction(target: AABox, covers: Sequence[AABox]) -> float:
    clipped = []
    for c in covers:
        x0, y0 = max(c.xmin, target.xmin), max(c.ymin, target.ymin)
        x1, y1 = min(c.xmax, target.xmax), min(c.ymax, target.ymax)
        if x1 > x0 and y1 > y0:
            clipped.append((x0, y0, x1, y1))
    if not clipped:
        return 0.0
    # the grid of every clipped edge; a cell counts as covered when a box
    # holds its centre, and covered cells are summed in (x, y) order
    xs = sorted({v for b in clipped for v in (b[0], b[2])})
    ys = sorted({v for b in clipped for v in (b[1], b[3])})
    cys = [(ys[j] + ys[j + 1]) / 2.0 for j in range(len(ys) - 1)]
    dys = [ys[j + 1] - ys[j] for j in range(len(ys) - 1)]
    # each box's x-extent and the run of y-cells whose centres it holds
    spans = [(b[0], b[2], bisect_left(cys, b[1]), bisect_right(cys, b[3])) for b in clipped]
    covered = 0.0
    for i in range(len(xs) - 1):
        cx = (xs[i] + xs[i + 1]) / 2.0
        hit = [False] * len(cys)
        for x0, x1, lo, hi in spans:
            if x0 <= cx <= x1:
                hit[lo:hi] = [True] * (hi - lo)
        dx = xs[i + 1] - xs[i]
        for dy, h in zip(dys, hit):
            if h:
                covered += dx * dy
    return covered / target.area


class LiveScene:
    """A scene as a trial takes it apart, indexed for the per-step queries:
    the live objects in order (by id), each one's grasp rects, the ids
    above each object (its relations), each object's coverage and, for
    zero angle and score noise, its grasp candidates.
    A coverage is computed when first asked for and kept until
    ``remove_object`` takes an object above it, the one change to it."""

    __slots__ = ("objects", "rects", "above", "_coverage", "_exact")

    def __init__(self, scene: SceneRecord):
        self.objects = {o.instance_id: o for o in scene.objects}
        self.rects: dict[int, list[OrientedRect]] = {i: [] for i in self.objects}
        for g in scene.grasps:
            self.rects[g.owner].append(g.rect)
        self.above: dict[int, set[int]] = {i: set() for i in self.objects}
        for a, b in scene.relations:
            self.above[b].add(a)
        self._coverage: dict[int, float] = {}
        self._exact: dict[int, list[GraspCandidate]] = {}

    def require(self, instance_id: int) -> None:
        if instance_id not in self.objects:
            raise ValueError(f"no object {instance_id} in the scene")

    def coverage(self, instance_id: int) -> float:
        """The fraction of the object's box that the boxes above it cover;
        the cover order does not change the value."""
        c = self._coverage.get(instance_id)
        if c is None:
            objects = self.objects
            covers = [objects[a].box for a in self.above[instance_id]]
            c = self._coverage[instance_id] = _coverage_fraction(objects[instance_id].box, covers)
        return c

    def exact_candidates(self, instance_id: int) -> list[GraspCandidate]:
        """The object's grasp candidates when the angle and score noise are
        zero: ``theta + 0.0 * draw`` is the (normalized, never -0.0) theta
        and the confidence is 1.0, so they are the same at every step."""
        cands = self._exact.get(instance_id)
        if cands is None:
            cands = self._exact[instance_id] = [GraspCandidate(g, 1.0) for g in self.rects[instance_id]]
        return list(cands)


def visible(live: LiveScene, instance_id: int, coverage_threshold: float) -> bool:
    """An object is visible while the boxes stacked above it cover less than
    ``coverage_threshold`` of its own box."""
    live.require(instance_id)
    return live.coverage(instance_id) < coverage_threshold


_OTHER_LABELS = ((1, 2), (0, 2), (0, 1))
_ONE_HOT = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def _flip_draws(rng: np.random.Generator, m: int) -> list[tuple[float, int]]:
    """What ``m`` turns of ``(rng.random(), int(rng.integers(0, 2)))`` give,
    with the generator left in the same state. On PCG64 the values are
    decoded from one ``random_raw`` call: ``random()`` is the next word's
    top 53 bits times 2**-53, and ``integers(0, 2)`` is the top bit of
    the next 32-bit half, which is the pending upper half of an earlier
    word or else the lower half of a fresh word (whose upper half becomes
    pending). Other bit generators make the scalar calls."""
    bits = rng.bit_generator
    if m == 0:
        return []
    if type(bits) is not np.random.PCG64:
        return [(rng.random(), int(rng.integers(0, 2))) for _ in range(m)]
    state = bits.state
    pending, half = state["has_uint32"], state["uinteger"]
    words = bits.random_raw(m + (m + 1 - pending) // 2).tolist()
    out = []
    pos = 0
    for _ in range(m):
        u = (words[pos] >> 11) * 2.0**-53
        pos += 1
        if not pending:
            half = words[pos]
            pos += 1
            out.append((u, (half & 0xFFFFFFFF) >> 31))
            half >>= 32
        else:
            out.append((u, half >> 31))
        pending = 1 - pending
    # random_raw leaves the 32-bit buffer alone: store where the halves end
    state = bits.state
    state["has_uint32"], state["uinteger"] = pending, half
    bits.state = state
    return out


def oracle_predict(
    live: LiveScene,
    noise: NoiseModel,
    rng: np.random.Generator,
    coverage_threshold: float,
) -> ScenePredictions:
    """Ground truth of the live scene filtered by visibility and corrupted
    by the noise model.

    Invisible objects are never reported. Every noise variate is drawn
    whether or not its parameter is active, keeping the stream aligned
    across noise settings for a fixed scene and generator state.
    """
    exact = noise.angle_sigma == 0.0 and noise.score_sigma == 0.0
    preds = ScenePredictions()
    for i, o in live.objects.items():
        rects = live.rects[i]
        u_drop = rng.random()
        # one call for the box jitter, the score and each grasp's angle and
        # confidence draws: the same stream as a call for each
        draws = rng.normal(size=5 + 2 * len(rects))
        if u_drop < noise.drop_prob or not live.coverage(i) < coverage_threshold:
            continue
        jitter = draws[:4].tolist()
        score_draw = float(draws[4])
        b = o.box
        x0, x1 = sorted((b.xmin + noise.box_sigma * jitter[0], b.xmax + noise.box_sigma * jitter[2]))
        y0, y1 = sorted((b.ymin + noise.box_sigma * jitter[1], b.ymax + noise.box_sigma * jitter[3]))
        if x1 <= x0:
            x1 = x0 + 1.0
        if y1 <= y0:
            y1 = y0 + 1.0
        score = min(max(1.0 - abs(noise.score_sigma * score_draw), 0.0), 1.0)
        preds.detections.append(
            ObjectDetection(
                box=AABox(x0, y0, x1, y1),
                category=o.category,
                score=score,
                instance_id=i,
            )
        )
        if exact:
            preds.grasp_candidates[i] = live.exact_candidates(i)
            continue
        cands = []
        grasp_draws = draws[5:].tolist()
        for g, a_draw, c_draw in zip(rects, grasp_draws[::2], grasp_draws[1::2]):
            rect = OrientedRect(x=g.x, y=g.y, w=g.w, h=g.h, theta=g.theta + noise.angle_sigma * a_draw)
            conf = min(max(1.0 - abs(noise.score_sigma * c_draw), 0.0), 1.0)
            cands.append(GraspCandidate(rect=rect, confidence=conf))
        preds.grasp_candidates[i] = cands

    det_ids = [d.instance_id for d in preds.detections]
    pairs = [(a, b) for a in det_ids for b in det_ids if a != b]
    above = live.above
    for (a, b), (u_flip, alt) in zip(pairs, _flip_draws(rng, len(pairs))):
        # the class of dataset.relation_label: 0 none, 1 a above b, 2 a below b
        label = 1 if a in above[b] else 2 if b in above[a] else 0
        if u_flip < noise.relation_flip_prob:
            label = _OTHER_LABELS[label][alt]
        preds.relations[(a, b)] = _ONE_HOT[label]
    return preds


def remove_object(live: LiveScene, instance_id: int) -> None:
    """Take one object, its grasps and its relations out of the live scene."""
    live.require(instance_id)
    del live.objects[instance_id], live.rects[instance_id], live.above[instance_id]
    live._coverage.pop(instance_id, None)
    for b, over in live.above.items():
        if instance_id in over:
            over.discard(instance_id)
            live._coverage.pop(b, None)


def select_target(scene: SceneRecord, rule: str, rng: np.random.Generator) -> int:
    ids = sorted(o.instance_id for o in scene.objects)
    if rule == "random":
        return ids[int(rng.integers(0, len(ids)))]
    if rule == "deepest":
        buried = {i: sum(1 for (a, b) in scene.relations if b == i) for i in ids}
        return min(ids, key=lambda i: (-buried[i], i))
    raise ValueError(f"unknown target rule {rule!r}")


@dataclass(frozen=True)
class TrialStep:
    detections: tuple[int, ...]
    claimed_final: bool
    removed: int  # the planned action's object, which the robot takes
    order_valid: bool
    target_visible: bool

    def to_json_dict(self) -> dict:
        return {
            "detections": list(self.detections),
            "action": {"object": self.removed, "is_final_target": self.claimed_final},
            "removed": self.removed,
            "order_valid": self.order_valid,
            "target_visible": self.target_visible,
        }


@dataclass(frozen=True)
class TrialLog:
    seed: int
    target: int
    scene: SceneRecord
    steps: tuple[TrialStep, ...]
    reason: str  # target_removed | no_detections
    noise: NoiseModel = NoiseModel()

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "target": self.target,
            "noise": self.noise.to_json_dict(),
            "scene": scene_to_json_dict(self.scene),
            "steps": [s.to_json_dict() for s in self.steps],
            "outcome": {
                "reason": self.reason,
                "steps_used": len(self.steps),
                "target_removed": bool(self.steps and self.steps[-1].removed == self.target),
                "success": sequential_success(self),
            },
        }


def run_trial(seed: int, cfg: TrialConfig) -> TrialLog:
    """One grasp-remove episode: predict, reason, remove, repeat.

    The loop ends when the true target is removed or nothing is detected.
    Each step removes one live object, so the target goes by the last step
    at the latest. Per-step noise draws come from a generator seeded by
    (seed, step), so a trial is a pure function of its seed and config.
    One ``LiveScene`` serves every step's prediction, visibility check and
    removal.
    """
    scene = generate_scene(seed, cfg)
    target = select_target(scene, cfg.target_rule, np.random.default_rng([seed, 17]))

    live = LiveScene(scene)
    steps: list[TrialStep] = []
    reason = "no_detections"
    for step_index in range(len(scene.objects)):
        rng = np.random.default_rng([seed, 1009, step_index])
        preds = oracle_predict(live, cfg.noise, rng, cfg.coverage_threshold)
        if not preds.detections:
            break
        perceived = preds.perceived()
        labels = symmetrize(preds.relations)
        detected = tuple(d.instance_id for d in preds.detections)
        graph = build_graph(detected, labels)
        action = next_action(graph, perceived, target)
        removed = action.object_id
        steps.append(
            TrialStep(
                detections=detected,
                claimed_final=action.is_final_target,
                removed=removed,
                order_valid=not live.above[removed],
                target_visible=visible(live, target, cfg.coverage_threshold),
            )
        )
        remove_object(live, removed)
        if removed == target:
            reason = "target_removed"
            break
    return TrialLog(
        seed=seed,
        target=target,
        scene=scene,
        steps=tuple(steps),
        reason=reason,
        noise=cfg.noise,
    )
