"""Outside-in tracer for the benchmark's traced runs.

Wraps public functions of the package at every name a caller resolves them
by (``stackgrasp.simulation.visible`` for ``oracle_predict``,
``stackgrasp.cli.build_graph`` for the plan loop, and so on), records one
span per call in memory and counts a few outcomes at the same boundaries.
No line of the package changes, and leaving the ``with`` block puts every
original back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# Traced functions, "<module>.<function>" under the stackgrasp package, and
# the workloads that call each one. A call on any other workload, or none
# on a listed one, fails the traced run.
ALL = frozenset({"simulate", "eval", "plan_dense", "pick"})
RUNS_ON = {
    "cli.main": {"simulate", "eval", "plan_dense"},
    "simulation.run_trial": {"simulate"},
    "simulation.generate_scene": {"simulate"},
    "simulation.oracle_predict": {"simulate"},
    "simulation.visible": {"simulate"},
    "simulation.remove_object": {"simulate"},
    "reasoning.symmetrize": {"simulate", "plan_dense", "pick"},
    "reasoning.build_graph": {"simulate", "plan_dense", "pick"},
    "reasoning.next_action": {"simulate", "plan_dense", "pick"},
    "perception.parse_predictions": {"eval", "plan_dense"},
    "perception.nms": {"pick"},
    "perception.decode_roi_grasps": {"pick"},
    "perception.perceive": ALL,
    "anchors.generate_anchors": {"pick"},
    "anchors.decode_grasp": {"pick"},
    "dataset.parse_scene": {"eval"},
    "evaluation.average_precision": {"eval"},
    "evaluation.relation_metrics": {"eval"},
    "evaluation.grasp_correct": {"eval"},
    "geometry.rotated_jaccard": {"eval"},
    "geometry.aabb_iou": {"eval", "pick"},
    "execution.load_depth_pgm": {"pick"},
    "execution.grasp_point": {"pick"},
    "execution.approach_vector": {"pick"},
    "execution.to_robot_pose": {"pick"},
}

# Per-layer metrics in report order: (name, unit, better). A name is
# "<function>.<statistic>"; every *_per_op statistic is divided by the
# workload's operation count (trials, scenes, plans or picks).
PER_LAYER = [
    ("cli.main.self_ms_per_op", "ms", "lower"),
    *((f"simulation.{f}.self_ms_per_op", "ms", "lower")
      for f in ("generate_scene", "oracle_predict", "remove_object", "run_trial")),
    ("simulation.visible.calls_per_op", "count", "lower"),
    ("simulation.visible.self_ms_per_op", "ms", "lower"),
    ("simulation.oracle_predict.calls_per_op", "count", "lower"),
    ("reasoning.symmetrize.self_ms_per_op", "ms", "lower"),
    ("reasoning.build_graph.self_ms_per_op", "ms", "lower"),
    ("reasoning.build_graph.repairs_per_op", "count", "lower"),
    ("reasoning.next_action.calls_per_op", "count", "lower"),
    ("reasoning.next_action.self_ms_per_op", "ms", "lower"),
    ("perception.parse_predictions.self_ms_per_op", "ms", "lower"),
    ("perception.decode_roi_grasps.calls_per_op", "count", "lower"),
    ("perception.decode_roi_grasps.self_ms_per_op", "ms", "lower"),
    ("perception.nms.self_ms_per_op", "ms", "lower"),
    ("perception.nms.kept_ratio", "ratio", "lower"),
    ("perception.perceive.calls_per_op", "count", "lower"),
    ("perception.perceive.self_ms_per_op", "ms", "lower"),
    ("anchors.generate_anchors.self_ms_per_op", "ms", "lower"),
    ("anchors.decode_grasp.calls_per_op", "count", "lower"),
    ("anchors.decode_grasp.self_ms_per_op", "ms", "lower"),
    ("dataset.parse_scene.self_ms_per_op", "ms", "lower"),
    ("evaluation.average_precision.self_ms_per_op", "ms", "lower"),
    ("evaluation.relation_metrics.self_ms_per_op", "ms", "lower"),
    ("evaluation.grasp_correct.calls_per_op", "count", "lower"),
    ("evaluation.grasp_correct.true_ratio", "ratio", "higher"),
    ("geometry.rotated_jaccard.calls_per_op", "count", "lower"),
    ("geometry.rotated_jaccard.self_ms_per_op", "ms", "lower"),
    ("geometry.aabb_iou.calls_per_op", "count", "lower"),
    *((f"execution.{f}.self_ms_per_op", "ms", "lower")
      for f in ("load_depth_pgm", "grasp_point", "approach_vector", "to_robot_pose")),
    ("execution.to_robot_pose.fail_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _count_repairs(counts, args, kwargs, result, exc):
    if exc is None:
        counts["repairs"] += len(result.deleted_edges)


def _count_kept(counts, args, kwargs, result, exc):
    counts["input"] += len(args[0] if args else kwargs["detections"])
    if exc is None:
        counts["kept"] += len(result)


def _count_true(counts, args, kwargs, result, exc):
    counts["true"] += result is True


def _count_pose_failures(counts, args, kwargs, result, exc):
    from stackgrasp.execution import GraspExecutionError

    counts["failed"] += isinstance(exc, GraspExecutionError)


HOOKS = {
    "reasoning.build_graph": _count_repairs,
    "perception.nms": _count_kept,
    "evaluation.grasp_correct": _count_true,
    "execution.to_robot_pose": _count_pose_failures,
}


class Tracer:
    """Span and count recorder over the functions in ``RUNS_ON``.

    A span is (request, function, start ns, end ns, parent span), where
    ``request_id()`` names the workload call in progress. Self time is a
    span's duration minus the durations of its direct children, summed per
    function as the calls return.
    """

    def __init__(self, request_id) -> None:
        self.request_id = request_id
        self.keys = list(RUNS_ON)
        self.calls = [0] * len(self.keys)
        self.self_ns = [0] * len(self.keys)
        self.counts = {key: {"repairs": 0, "input": 0, "kept": 0, "true": 0, "failed": 0}
                       for key in HOOKS}
        self.span_request, self.span_key, self.span_parent = array("i"), array("i"), array("i")
        self.span_start, self.span_end = array("q"), array("q")
        self._stack: list[int] = []  # open spans, innermost last
        self._child_ns: list[int] = []  # time spent in children of each open span
        # (module, attribute, original, wrapper) for every name that
        # resolves to a traced function, found once and applied per call.
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [m for name, m in list(sys.modules.items())
                   if name == "stackgrasp" or name.startswith("stackgrasp.")]
        for k, key in enumerate(self.keys):
            module, name = key.rsplit(".", 1)
            original = getattr(importlib.import_module(f"stackgrasp.{module}"), name)
            wrapper = self._wrap(k, original, HOOKS.get(key), self.counts.get(key))
            for m in modules:
                self._patches += [(m, attr, original, wrapper)
                                  for attr, value in vars(m).items() if value is original]

    def __enter__(self) -> "Tracer":
        for m, attr, _, wrapper in self._patches:
            setattr(m, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for m, attr, original, _ in self._patches:
            setattr(m, attr, original)

    def _wrap(self, k, fn, hook, counts):
        stack, child_ns = self._stack, self._child_ns
        span_request, span_key, span_parent = self.span_request, self.span_key, self.span_parent
        request_id = self.request_id
        span_start, span_end = self.span_start, self.span_end
        calls, self_ns = self.calls, self.self_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(span_key)
            span_request.append(request_id())
            span_key.append(k)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0)
            stack.append(span)
            child_ns.append(0)
            result = exc = None
            t0 = clock()
            span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = clock()
                span_end[span] = t1
                stack.pop()
                elapsed = t1 - t0
                self_ns[k] += elapsed - child_ns.pop()
                calls[k] += 1
                if child_ns:
                    child_ns[-1] += elapsed
                if hook is not None:
                    hook(counts, args, kwargs, result, exc)

        return traced

    def calls_of(self, key: str) -> int:
        return self.calls[self.keys.index(key)]

    def bypass_errors(self, workload: str) -> list[str]:
        """Traced functions called where ``RUNS_ON`` says they are bypassed,
        or never called where it says they run."""
        errors = []
        for key, runs_on in RUNS_ON.items():
            calls = self.calls_of(key)
            if workload in runs_on and calls == 0:
                errors.append(f"{key} was never called on {workload}")
            if workload not in runs_on and calls:
                errors.append(f"{key} was called {calls} times on {workload}, which bypasses it")
        return errors

    def metrics(self, ops: int, overhead_ratio: float) -> dict[str, dict]:
        """Every ``PER_LAYER`` metric, normalised per workload operation."""
        out = {}
        for name, unit, _ in PER_LAYER:
            key, stat = name.rsplit(".", 1)
            if name == "trace.overhead_ratio":
                value = overhead_ratio
            elif stat == "self_ms_per_op":
                value = self.self_ns[self.keys.index(key)] / 1e6 / ops
            elif stat == "calls_per_op":
                value = self.calls_of(key) / ops
            elif stat == "repairs_per_op":
                value = self.counts[key]["repairs"] / ops
            elif stat == "kept_ratio":
                value = self.counts[key]["kept"] / max(self.counts[key]["input"], 1)
            elif stat == "true_ratio":
                value = self.counts[key]["true"] / max(self.calls_of(key), 1)
            elif stat == "fail_ratio":
                value = self.counts[key]["failed"] / max(self.calls_of(key), 1)
            else:
                raise ValueError(f"unknown statistic in {name}")
            out[name] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            functions=np.array(self.keys),
            request=np.frombuffer(self.span_request, dtype=np.int32),
            function=np.frombuffer(self.span_key, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
        )
