"""Command line front end.

Subcommands:
  eval       score predictions against ground-truth scenes
  plan       turn one scene's predictions into an ordered grasp plan
  simulate   run seeded grasp-remove trials and report success rates
  calibrate  fit the pixel-to-robot affine map from point pairs
  augment    mirror / rotate a scene annotation file

Exit codes: 0 success, 1 usage error, 2 data error (missing, malformed or
inconsistent input), 3 numerical failure (degenerate calibration,
non-finite values).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .dataset import (
    SceneParseError,
    hflip,
    parse_scene,
    record_to_predictions,
    rot90,
    serialize_scene,
)
from .evaluation import MatchThresholds, evaluate, sequential_success
from .execution import CalibrationError, fit_affine, load_calibration_pairs
from .perception import ScenePredictions, parse_predictions
from .reasoning import ManipulationGraph, build_graph, next_action, symmetrize
from .simulation import TrialConfig, integer, run_trial

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# calibrate warns on stderr when a fit leaves more residual than this, in
# millimetres RMS per point
CALIBRATION_WARN_RMS_MM = 1.0


class DataError(Exception):
    """Input file missing, unreadable, malformed, or inconsistent."""


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as e:
        raise DataError(f"{path}: {e.strerror or e}") from e


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as e:
        raise DataError(f"{path}: {e.strerror or e}") from e


def _json_text(data) -> str:
    return json.dumps(data, indent=2) + "\n"


def _emit(text: str, out: str | None, pretty: bool, table: str) -> None:
    """Write the JSON ``text`` to ``out`` or stdout; ``pretty`` prints the
    human ``table`` instead of the JSON on stdout."""
    if out:
        _write_text(Path(out), text)
        if pretty:
            sys.stdout.write(table)
    elif pretty:
        sys.stdout.write(table)
    else:
        sys.stdout.write(text)


def _load_predictions_file(path: Path) -> ScenePredictions:
    """Accept either a predictions file or a ground-truth scene file (the
    latter is converted to perfect predictions)."""
    text = _read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: not valid JSON ({e.msg} at line {e.lineno})") from e
    if not isinstance(data, dict):
        raise DataError(f"{path}: expected a JSON object at the top level")
    try:
        if "detections" in data:
            return parse_predictions(data)
        if "objects" in data:
            return record_to_predictions(parse_scene(data))
    except (SceneParseError, ValueError) as e:
        raise DataError(f"{path}: {e}") from e
    raise DataError(f"{path}: neither a predictions file nor a scene file")


def _load_scene_file(path: Path):
    try:
        return parse_scene(_read_text(path))
    except (SceneParseError, ValueError) as e:
        raise DataError(f"{path}: {e}") from e


def _collect_eval_inputs(gt: Path, pred: Path) -> list[tuple[str, Path, Path]]:
    if gt.is_dir() != pred.is_dir():
        raise DataError("--gt and --pred must both be files or both be directories")
    if not gt.is_dir():
        return [(gt.stem, gt, pred)]
    gt_files = sorted(gt.glob("*.json"))
    if not gt_files:
        raise DataError(f"{gt}: no .json scene files found")
    pairs = []
    missing = []
    for g in gt_files:
        p = pred / g.name
        if p.is_file():
            pairs.append((g.stem, g, p))
        else:
            missing.append(str(p))
    if missing:
        for m in missing:
            print(f"missing predictions: {m}", file=sys.stderr)
        raise DataError(f"{len(missing)} scene(s) without a predictions file")
    return pairs


def _cmd_eval(args) -> int:
    thresholds = MatchThresholds(
        iou=args.iou, jaccard=args.jaccard, angle_deg=args.angle, top_n=args.topn
    )
    pairs = _collect_eval_inputs(Path(args.gt), Path(args.pred))
    records = []
    preds = []
    problems = []
    for _, gt_path, pred_path in pairs:
        try:
            records.append(_load_scene_file(gt_path))
            preds.append(_load_predictions_file(pred_path))
        except DataError as e:
            problems.append(str(e))
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        raise DataError(f"{len(problems)} unreadable input file(s)")
    report = evaluate(records, preds, thresholds)
    data = report.to_json_dict()
    lines = [
        f"scenes                 {report.scenes}",
        f"mAP (grasp-aware)      {report.map_with_grasp:.4f}",
        f"object pair recall     {report.relations.recall:.4f}",
        f"object pair precision  {report.relations.precision:.4f}",
        f"image accuracy         {report.relations.image_accuracy:.4f}",
    ]
    _emit(_json_text(data), args.out, args.pretty, "\n".join(lines) + "\n")
    return EXIT_OK


# The plan writer produces exactly the text of json.dumps(plan, indent=2).
# Each step's graph is the previous one minus an object, so every node and
# edge is encoded once per plan and each step joins the cached text. Ids
# are ints and confidences finite floats, for which json emits repr.
_GRAPH_INDENT = " " * 8


def _json_array(items: list[str], indent: str) -> str:
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


def _edge_text(above: int, below: int, confidence: float) -> str:
    return (
        "          {\n"
        f'            "above": {int.__repr__(above)},\n'
        f'            "below": {int.__repr__(below)},\n'
        f'            "confidence": {float.__repr__(confidence)}\n'
        "          }"
    )


def _cmd_plan(args) -> int:
    preds = _load_predictions_file(Path(args.pred))
    if not preds.detections:
        raise DataError(f"{args.pred}: no detections to plan over")
    perceived = preds.perceived(args.topn)
    try:
        labels = symmetrize(preds.relations)
    except ValueError as e:
        raise DataError(f"{args.pred}: {e}") from e
    graph = build_graph([p.detection.instance_id for p in perceived], labels)

    target: int | str
    try:
        target = int(args.target)
    except ValueError:
        target = args.target
    if isinstance(target, int):
        resolved = any(p.detection.instance_id == target for p in perceived)
    else:
        resolved = any(p.detection.category == target for p in perceived)
    if not resolved and not args.assume_hidden:
        raise DataError(
            f"target {args.target!r} matches no detection; pass --assume-hidden "
            "to plan an uncovering sequence anyway"
        )

    # sorted text of the current graph's nodes and edges, and the edges at
    # each node, so that removing an object pops its own entries only
    node_text = {n: f"{_GRAPH_INDENT}  {int.__repr__(n)}" for n in sorted(graph.nodes)}
    edge_text = {(a, b): _edge_text(a, b, c) for a, b, c in graph.edge_list()}
    incident: dict[int, list[tuple[int, int]]] = {n: [] for n in node_text}
    for e in edge_text:
        incident[e[0]].append(e)
        incident[e[1]].append(e)
    edges = dict(graph.edges)
    # only the first step's graph carries the cycle repairs
    deleted_text = _json_array(
        [_edge_text(*e) for e in graph.deleted_edges], _GRAPH_INDENT
    )
    steps = []
    lines = []
    current = graph
    remaining = list(perceived)
    while remaining:
        action = next_action(current, remaining, target)
        steps.append(
            "    {\n"
            f'      "object": {int.__repr__(action.object_id)},\n'
            f'      "is_final_target": {"true" if action.is_final_target else "false"},\n'
            '      "graph": {\n'
            f'        "nodes": {_json_array(list(node_text.values()), _GRAPH_INDENT)},\n'
            f'        "edges": {_json_array(list(edge_text.values()), _GRAPH_INDENT)},\n'
            f'        "deleted_edges": {deleted_text}\n'
            "      }\n"
            "    }"
        )
        lines.append(
            f"step {len(steps)}: grasp object {action.object_id}"
            + (" (target)" if action.is_final_target else "")
        )
        if action.is_final_target:
            break
        removed = action.object_id
        remaining = [p for p in remaining if p.detection.instance_id != removed]
        del node_text[removed]
        for e in incident.pop(removed):
            if edges.pop(e, None) is not None:
                del edge_text[e]
        current = ManipulationGraph(nodes=frozenset(node_text), edges=edges)
        deleted_text = "[]"

    text = (
        "{\n"
        '  "target": {\n'
        f'    "requested": {json.dumps(args.target)},\n'
        f'    "resolved": {json.dumps(resolved)}\n'
        "  },\n"
        f'  "actions": {_json_array(steps, "  ")}\n'
        "}\n"
    )
    _emit(text, args.out, args.pretty, "\n".join(lines) + "\n")
    return EXIT_OK


def _parse_sim_config(path: Path) -> tuple[int, list[dict]]:
    text = _read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: not valid JSON ({e.msg} at line {e.lineno})") from e
    if not isinstance(data, dict) or "regimes" not in data:
        raise DataError(f"{path}: expected an object with a 'regimes' list")
    regimes = data["regimes"]
    if not isinstance(regimes, list) or not regimes:
        raise DataError(f"{path}: 'regimes' must be a non-empty list")
    for i, r in enumerate(regimes):
        if not isinstance(r, dict) or "count_range" not in r or "trials" not in r:
            raise DataError(
                f"{path}: regimes[{i}] needs at least 'count_range' and 'trials'"
            )
    try:
        return _base_seed(data.get("seed", 0)), regimes
    except ValueError as e:
        raise DataError(f"{path}: {e}") from e


def _base_seed(value) -> int:
    seed = integer("seed", value)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


def _trial_seed(base: int, regime_index: int, trial_index: int) -> int:
    ss = np.random.SeedSequence([base, regime_index, trial_index])
    return int(ss.generate_state(1)[0])


def _regimes(
    regimes: list[dict], visibility: float | None
) -> list[tuple[str, int, TrialConfig]]:
    """Name, trial count and trial config (seed 0) of every regime, all
    checked before any trial runs."""
    out = []
    names = set()
    for ri, regime in enumerate(regimes):
        fields = dict(regime)
        name = fields.pop("name", f"regime{ri}")
        try:
            if not isinstance(name, str):
                raise ValueError(f"name must be a string, got {name!r}")
            trials = integer("trials", fields.pop("trials"))
            if trials < 1:
                raise ValueError("'trials' must be positive")
            if visibility is not None:
                fields["coverage_threshold"] = visibility
            config = TrialConfig.from_json_dict(fields)
        except (TypeError, ValueError) as e:
            raise DataError(f"regimes[{ri}]: {e}") from e
        # names become trial log file names
        if name in names:
            raise DataError(f"regimes[{ri}]: duplicate regime name {name!r}")
        if "/" in name or "\\" in name:
            raise DataError(f"regimes[{ri}]: regime name {name!r} contains a path separator")
        if "\0" in name:
            raise DataError(f"regimes[{ri}]: regime name {name!r} contains a NUL character")
        names.add(name)
        out.append((name, trials, config))
    return out


def _cmd_simulate(args) -> int:
    base_seed, regimes = _parse_sim_config(Path(args.config))
    if args.seed is not None:
        try:
            base_seed = _base_seed(args.seed)
        except ValueError as e:
            raise DataError(f"--seed: {e}") from e
    checked = _regimes(regimes, args.visibility)
    log_dir = Path(args.trial_log) if args.trial_log else None
    if log_dir is not None:
        log_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    for ri, (name, trials, config) in enumerate(checked):
        successes = 0
        for ti in range(trials):
            log = run_trial(replace(config, seed=_trial_seed(base_seed, ri, ti)))
            if sequential_success(log):
                successes += 1
            if log_dir is not None:
                _write_text(
                    log_dir / f"{name}_{ti:04d}.json",
                    _json_text(log.to_json_dict()),
                )
        rate = successes / trials
        rows.append(
            {
                "name": name,
                "trials": trials,
                "successes": successes,
                "rate": rate,
                "summary": f"{rate * 100:.1f}% ({successes}/{trials})",
            }
        )

    data = {"seed": base_seed, "regimes": rows}
    width = max(len(r["name"]) for r in rows)
    lines = [f"{r['name']:<{width}}  {r['summary']}" for r in rows]
    _emit(_json_text(data), args.out, args.pretty, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    path = Path(args.pairs)
    try:
        pairs = load_calibration_pairs(path)
    except (OSError, ValueError) as e:
        raise DataError(f"{path}: {e}") from e
    if len(pairs) < 4:
        raise DataError(f"{path}: need at least 4 calibration pairs, got {len(pairs)}")
    affine = fit_affine(pairs)  # CalibrationError propagates as a numeric failure
    if affine.residual_rms > CALIBRATION_WARN_RMS_MM:
        print(
            f"warning: calibration residual RMS {affine.residual_rms:.2f} mm per "
            f"point is above {CALIBRATION_WARN_RMS_MM} mm",
            file=sys.stderr,
        )
    table = (
        f"pairs         {len(pairs)}\n"
        f"residual RMS  {affine.residual_rms:.6f}\n"
    )
    _emit(_json_text(affine.to_json_dict()), args.out, args.pretty, table)
    return EXIT_OK


def _cmd_augment(args) -> int:
    record = _load_scene_file(Path(args.scene))
    if args.rot90:
        record = rot90(record, args.rot90)
    if args.hflip:
        record = hflip(record)
    _emit(serialize_scene(record), args.out, False, "")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stackgrasp",
        description="Grasp-in-clutter toolkit: evaluate, plan, simulate, calibrate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--gt", required=True, help="scene file or directory")
    p.add_argument("--pred", required=True, help="predictions file or directory")
    p.add_argument("--out", help="write the JSON report here (default: stdout)")
    p.add_argument("--iou", type=float, default=0.5)
    p.add_argument("--jaccard", type=float, default=0.25)
    p.add_argument("--angle", type=float, default=30.0)
    p.add_argument("--topn", type=int, default=3)
    p.add_argument("--pretty", action="store_true", help="print a summary table")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("plan", help="ordered grasp plan for one scene")
    p.add_argument("--pred", required=True, help="predictions (or scene) file")
    p.add_argument("--target", required=True, help="instance id or category name")
    p.add_argument(
        "--assume-hidden",
        action="store_true",
        help="plan an uncovering sequence when the target is not detected",
    )
    p.add_argument("--topn", type=int, default=3)
    p.add_argument("--out", help="write the plan JSON here (default: stdout)")
    p.add_argument("--pretty", action="store_true", help="print the step list")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("simulate", help="run seeded grasp-remove trials")
    p.add_argument("--config", required=True, help="simulation config JSON")
    p.add_argument("--seed", type=int, help="override the config's base seed")
    p.add_argument(
        "--visibility", type=float, help="override the coverage threshold everywhere"
    )
    p.add_argument("--out", help="write the results JSON here (default: stdout)")
    p.add_argument("--trial-log", help="directory for per-trial logs")
    p.add_argument("--pretty", action="store_true", help="print a rate table")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("calibrate", help="fit the pixel-to-robot affine map")
    p.add_argument("--pairs", required=True, help="calibration pairs JSON")
    p.add_argument("--out", help="write the affine JSON here (default: stdout)")
    p.add_argument("--pretty", action="store_true", help="print a fit summary")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("augment", help="mirror / rotate a scene file")
    p.add_argument("--scene", required=True, help="scene JSON to transform")
    p.add_argument(
        "--rot90", type=int, default=0, metavar="N",
        help="counter-clockwise quarter turns (applied before --hflip)",
    )
    p.add_argument("--hflip", action="store_true", help="mirror horizontally")
    p.add_argument("--out", help="write the scene here (default: stdout)")
    p.set_defaults(func=_cmd_augment)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process. This is not shared state:
    ``parse_args`` only reads the parser and puts each call's arguments in
    a new namespace."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except CalibrationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (np.linalg.LinAlgError, OverflowError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (SceneParseError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


def run() -> None:
    sys.exit(main())
