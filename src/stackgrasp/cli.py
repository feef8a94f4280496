"""Command line front end.

Subcommands:
  eval       score predictions against ground-truth scenes
  plan       turn one scene's predictions into an ordered grasp plan
  simulate   run seeded grasp-remove trials and report success rates
  calibrate  fit the pixel-to-robot affine map from point pairs
  augment    mirror / rotate a scene annotation file

Exit codes: 0 success, 1 usage error, 2 data error (missing, malformed or
inconsistent input, or a file that cannot be read or written), 3 numerical
failure (degenerate calibration, non-finite values, grasp coordinates too
large to compare). ``main`` alone maps an error to its code.

``simulate`` and ``eval`` run their trials or scenes in even contiguous
blocks, one per CPU the process may use: the caller runs the first block
and ``_run_blocks`` forks one worker for each other block, placed off the
caller's CPU. The caller takes the blocks' outcomes in order, so every
output is the same bytes for any CPU count; a worker that dies without a
result is a data error naming its block.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import pickle
import re
import sys
from pathlib import Path

from ._json import DocumentError, load, read_file
from .dataset import (
    hflip,
    load_scene,
    parse_scene,
    record_to_predictions,
    rot90,
    serialize_scene,
)
from .evaluation import MatchThresholds, metrics_report, score_scene, sequential_success
from .perception import ScenePredictions, parse_predictions
from .reasoning import build_graph, plan, resolve_target, symmetrize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# calibrate warns on stderr when a fit leaves more residual than this, in
# millimetres RMS per point
CALIBRATION_WARN_RMS_MM = 1.0


def _json_text(data) -> str:
    return json.dumps(data, indent=2) + "\n"


def _emit(text: str, out: str | None, pretty: bool, table: str) -> None:
    """Write the JSON ``text`` to ``out`` or stdout; ``pretty`` prints the
    human ``table`` instead of the JSON on stdout."""
    if out:
        Path(out).write_text(text)
        if pretty:
            sys.stdout.write(table)
    elif pretty:
        sys.stdout.write(table)
    else:
        sys.stdout.write(text)


def _predictions(text: str) -> ScenePredictions:
    """The predictions of a predictions file, or the perfect predictions of
    a ground-truth scene file."""
    data = load(text)
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object at the top level")
    if "detections" in data:
        return parse_predictions(data)
    if "objects" in data:
        return record_to_predictions(parse_scene(data))
    raise ValueError("neither a predictions file nor a scene file")


def _collect_eval_inputs(gt: Path, pred: Path) -> list[tuple[str, Path, Path]]:
    if gt.is_dir() != pred.is_dir():
        raise ValueError("--gt and --pred must both be files or both be directories")
    if not gt.is_dir():
        return [(gt.stem, gt, pred)]
    gt_files = sorted(gt.glob("*.json"))
    if not gt_files:
        raise ValueError(f"{gt}: no .json scene files found")
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
        raise ValueError(f"{len(missing)} scene(s) without a predictions file")
    return pairs


def _score_block(pairs: list[tuple[str, Path, Path]], thresholds: MatchThresholds,
                 block: range):
    """The scenes of ``pairs`` in ``block``: (problems, scores, error).
    Every file of the block is read first; if any is unreadable, problems
    lists each one and no scene is scored. Otherwise each scene is scored
    up to the first that fails, whose error names its ground-truth file."""
    inputs, problems = [], []
    for i in block:
        _, gt_path, pred_path = pairs[i]
        try:
            inputs.append((gt_path, load_scene(gt_path), read_file(pred_path, _predictions)))
        except DocumentError as e:
            problems.append(str(e))
    if problems:
        return problems, [], None
    scores = []
    for gt_path, record, preds in inputs:
        try:
            scores.append(score_scene(record, preds, thresholds))
        except ArithmeticError as e:
            return [], scores, ArithmeticError(f"{gt_path}: {e}")
    return [], scores, None


def _cmd_eval(args) -> None:
    thresholds = MatchThresholds(
        iou=args.iou, jaccard=args.jaccard, angle_deg=args.angle, top_n=args.topn
    )
    pairs = _collect_eval_inputs(Path(args.gt), Path(args.pred))
    # Scenes are scored independently, so contiguous blocks of them can run
    # in any process; the blocks' outcomes are taken in scene order, which
    # makes every output the same for any CPU count.
    blocks = _blocks(range(len(pairs)), _cpus(), _MIN_SCENE_BLOCK)
    outcomes = list(_run_blocks(
        functools.partial(_score_block, pairs, thresholds), blocks, args.gt, "scenes"
    ))
    problems = [p for block_problems, _, _ in outcomes for p in block_problems]
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        raise ValueError(f"{len(problems)} unreadable input file(s)")
    scores = []
    for _, block_scores, error in outcomes:
        if error is not None:
            raise error
        scores += block_scores
    report = metrics_report(scores, thresholds)
    data = report.to_json_dict()
    lines = [
        f"scenes                 {report.scenes}",
        f"mAP (grasp-aware)      {report.map_with_grasp:.4f}",
        f"object pair recall     {report.relations.recall:.4f}",
        f"object pair precision  {report.relations.precision:.4f}",
        f"image accuracy         {report.relations.image_accuracy:.4f}",
    ]
    _emit(_json_text(data), args.out, args.pretty, "\n".join(lines) + "\n")


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


def _cmd_plan(args) -> None:
    preds = read_file(args.pred, _predictions)
    if not preds.detections:
        raise ValueError(f"{args.pred}: no detections to plan over")
    perceived = preds.perceived()
    try:
        edges = symmetrize(preds.relations)
    except ValueError as e:
        raise ValueError(f"{args.pred}: {e}") from e
    graph = build_graph([p.detection.instance_id for p in perceived], edges)

    # an id is ASCII digits with an optional minus; other text is a category
    target = args.target
    if re.fullmatch(r"-?[0-9]+", target):
        try:
            target = int(target)
        except ValueError:  # past the interpreter's integer digit limit
            raise ValueError(
                f"--target: an instance id of {len(target.lstrip('-'))} digits is past "
                f"the limit of {sys.get_int_max_str_digits()}"
            ) from None
    resolved = resolve_target(perceived, target) is not None
    if not resolved and not args.assume_hidden:
        raise ValueError(
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
    # only the first step's graph carries the cycle repairs
    deleted_text = _json_array([_edge_text(*e) for e in graph.deleted_edges], _GRAPH_INDENT)
    steps = []
    lines = []
    for action in plan(graph, perceived, target):
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
        # the next step's graph is this one without the grasped object
        del node_text[action.object_id]
        for e in incident.pop(action.object_id):
            edge_text.pop(e, None)
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


# simulate and eval cut their work into even contiguous blocks, one per
# CPU, but none under a minimum size: _MIN_TRIAL_BLOCK trials a block for
# simulate, which runs a regime in rounds of at most _ROUND_PER_CPU trials
# per CPU, and _MIN_SCENE_BLOCK scenes for eval. Work under twice the
# minimum forks nothing.
_ROUND_PER_CPU = 256
_MIN_TRIAL_BLOCK = 64
_MIN_SCENE_BLOCK = 16


def _cpus() -> int:
    """The number of CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blocks(items: range, cpus: int, min_block: int) -> list[range]:
    """``items`` cut into ``max(1, min(cpus, len(items) // min_block))``
    contiguous blocks in order, whose sizes differ by at most one."""
    count = max(1, min(cpus, len(items) // min_block))
    size, extra = divmod(len(items), count)
    ends = [i * size + min(i, extra) for i in range(count + 1)]
    return [items[a:b] for a, b in zip(ends, ends[1:])]


def _current_cpu() -> int:
    """The CPU this process is running on now: field 39 of /proc/self/stat,
    counted past the command name, which may hold spaces and parentheses."""
    with open("/proc/self/stat", "rb") as f:
        return int(f.read().rsplit(b")", 1)[1].split()[36])


def _other_cpus() -> set[int] | None:
    """The CPUs this process may use but the one it is running on now, or
    None where /proc cannot be read or that leaves none."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        return os.sched_getaffinity(0) - {_current_cpu()} or None
    except (OSError, ValueError, IndexError):
        return None


def _trial_block(config, base_seed: int, ri: int, logs: bool, block: range):
    """Regime ``ri``'s trials in ``block``: (success, log text or None) for
    each trial up to the first that fails, and that trial's error or None.
    A ValueError is returned as a plain one with its text, since only its
    text is reported and a subclass such as DocumentError need not unpickle."""
    from . import simulation

    results = []
    for ti in block:
        try:
            log = simulation.run_trial(simulation.trial_seed(base_seed, ri, ti), config)
        except ValueError as e:
            return results, ValueError(str(e))
        except Exception as e:
            return results, e
        results.append((sequential_success(log), _json_text(log.to_json_dict()) if logs else None))
    return results, None


def _fork_block(work, block: range, cpus: set[int] | None) -> tuple[int, int]:
    """Fork a child that pickles ``work(block)`` into a pipe, and let it run
    only on ``cpus`` where that is given and the system allows it; the
    child's pid and the pipe's read end."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:  # the child never returns: os._exit skips every handler
        code = 1
        try:
            os.close(r)
            result = work(block)
            with open(w, "wb") as pipe:
                pickle.dump(result, pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    if cpus:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(pid, cpus)
    return pid, r


def _run_blocks(work, blocks: list[range], where: str, unit: str):
    """Yield ``work(block)`` for each of ``blocks`` in order. This process
    runs the first block while one forked child runs each other block; a
    child that ends without a result is a ChildProcessError naming
    ``where`` and the block's ``unit``. Every child is reaped however the
    caller leaves.

    Each child is placed off the CPU this process is on as the round
    starts, read before the first fork so that the child is placed the
    moment it exists: a child left on its caller's CPU can hold it for
    the whole round while another CPU idles."""
    children = {}  # pid -> read end of its pipe, until it is reaped
    cpus = _other_cpus() if len(blocks) > 1 else None
    try:
        for block in blocks[1:]:
            pid, fd = _fork_block(work, block, cpus)
            children[pid] = fd
        yield work(blocks[0])
        for block, pid in zip(blocks[1:], list(children)):
            with open(children[pid], "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            os.close(children.pop(pid))
            if status != 0 or not data:
                code = os.waitstatus_to_exitcode(status)
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise ChildProcessError(
                    f"{where}: {unit} {block.start} to {block.stop - 1}: "
                    f"a worker process ended without a result ({how})"
                )
            yield pickle.loads(data)
    finally:
        if children:  # the caller left early: stop the children still running
            import signal
            for pid, fd in children.items():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                os.close(fd)


def _cmd_simulate(args) -> None:
    from . import simulation

    path = Path(args.config)
    base_seed, regimes = read_file(path, simulation.parse_sim_config)
    if args.seed is not None:
        if args.seed < 0:
            raise ValueError(f"--seed: seed must be non-negative, got {args.seed}")
        base_seed = args.seed
    log_dir = Path(args.trial_log) if args.trial_log else None
    if log_dir is not None:
        log_dir.mkdir(parents=True, exist_ok=True)

    # Each trial is a function of (base seed, regime, index) alone, so the
    # blocks of a round can run in any process; their outcomes are taken
    # in trial order, which makes every output the same for any CPU count.
    cpus = _cpus()
    round_size = _ROUND_PER_CPU * cpus
    rows = []
    for ri, (name, trials, config) in enumerate(regimes):
        where = f"{path}: regimes[{ri}]"
        work = functools.partial(_trial_block, config, base_seed, ri, log_dir is not None)
        successes = 0
        for start in range(0, trials, round_size):
            trial_round = range(start, min(start + round_size, trials))
            blocks = _blocks(trial_round, cpus, _MIN_TRIAL_BLOCK)
            with contextlib.closing(_run_blocks(work, blocks, where, "trials")) as outcomes:
                for block, (results, error) in zip(blocks, outcomes):
                    for ti, (success, text) in zip(block, results):
                        successes += success
                        if log_dir is not None:
                            (log_dir / f"{name}_{ti:04d}.json").write_text(text)
                    if isinstance(error, ValueError):
                        ti = block[len(results)]
                        raise ValueError(f"{where}: trial {ti}: {error}") from error
                    if error is not None:
                        raise error
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


def _cmd_calibrate(args) -> None:
    from . import execution

    pairs = execution.load_calibration_pairs(args.pairs)
    affine = execution.fit_affine(pairs)  # CalibrationError propagates as a numeric failure
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


def _cmd_augment(args) -> None:
    record = load_scene(args.scene)
    if args.rot90:
        record = rot90(record, args.rot90)
    if args.hflip:
        record = hflip(record)
    _emit(serialize_scene(record), args.out, False, "")


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
    p.add_argument("--iou", type=float, default=MatchThresholds.iou)
    p.add_argument("--jaccard", type=float, default=MatchThresholds.jaccard)
    p.add_argument("--angle", type=float, default=MatchThresholds.angle_deg)
    p.add_argument("--topn", type=int, default=MatchThresholds.top_n)
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
    p.add_argument("--out", help="write the plan JSON here (default: stdout)")
    p.add_argument("--pretty", action="store_true", help="print the step list")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("simulate", help="run seeded grasp-remove trials")
    p.add_argument("--config", required=True, help="simulation config JSON")
    p.add_argument("--seed", type=int, help="override the config's base seed")
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
        args.func(args)
    except ArithmeticError as e:  # CalibrationError is one too
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as e:  # an output file, or the trial log directory
        where = f"{e.filename}: {e.strerror}" if e.filename is not None else e
        print(f"error: {where}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def run() -> None:
    sys.exit(main())
