"""Benchmark of the stackgrasp package: four seeded closed-loop workloads
with output gates, and a traced mode that reports per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``. Inputs are generated from the seed by ``inputs.py`` in
a child process, outside every timed region, and deleted afterwards.

Every call's output is reduced to a digest. Each call must give the same
digest every time it runs in a run, and the digest of one pass over all
calls must equal the one recorded in ``digests.json`` for that workload
and seed, when there is one. The ``simulate`` README call must also report
500/500 and 289/500. A mismatch prints ``"correct": false`` and exits 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
end-to-end latencies there are in units of ``reference()``. The line
before it is the full record: the wall-clock metrics under the names each
workload reports them by, the machine, sample counts and digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("simulate", "eval", "plan_dense", "pick")
SETUP_REPEATS = 7
# Fresh interpreter to ready: import the package, and for pick fit the
# session's calibration.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import stackgrasp
if len(sys.argv) > 2:
    from stackgrasp import execution
    execution.fit_affine(execution.load_calibration_pairs(sys.argv[2]))
"""
TAIL_PERCENTILES = (99, 95, 90, 75)
# The name each workload gives its throughput and latency metrics.
NATIVE_NAMES = {
    "simulate": {"ops_per_s": "trials_per_s"},
    "eval": {"ops_per_s": "scenes_per_s"},
    "plan_dense": {"call_p50_ms": "plan_p50_ms", "call_tail_ms": "plan_tail_ms"},
    "pick": {"call_p50_ms": "pick_p50_ms", "call_tail_ms": "pick_tail_ms"},
}


def reference() -> float:
    """Seconds a fixed pure-Python loop takes, timed right before every
    call. On a shared 2-core machine, speed drifted by up to a third
    within seconds; the loop's time tracks such drift, so a call's latency
    over it holds steady where wall-clock latency does not."""
    t0 = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return time.perf_counter() - t0


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the highest percentile of
    ``TAIL_PERCENTILES`` with at least 10 samples beyond it. Below 40
    samples none has, and the upper quartile stands in: the maximum of so
    few samples is too noisy to bound."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = -(-n * p // 100)  # nearest rank: ceil(n * p / 100)
        if n - rank >= 10 or p == TAIL_PERCENTILES[-1]:
            return ordered[rank - 1], p, n - rank


class Loop:
    """Runs a workload's calls in order, one at a time, checking each
    call's digest against the first digest that call gave."""

    def __init__(self, workload):
        self.wl = workload
        self.first: list[str | None] = [None] * len(workload.calls)
        self.problems: list[str] = []
        self.attempted = self.failed = 0

    def call(self, i: int) -> tuple[float, int, float]:
        """Run call ``i``; returns its latency in seconds, its units and
        the ``reference`` time taken just before it."""
        args = self.wl.prepare(i)
        ref = reference()
        t0 = time.perf_counter()
        result = self.wl.run(args)
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        self.failed += self.wl.failed(result)
        digest = self.wl.digest(i, result)
        if self.first[i] is None:
            self.first[i] = digest
        elif digest != self.first[i]:
            self.problems.append(f"call {i} gave digest {digest}, earlier {self.first[i]}")
        problem = self.wl.gate(i, result)
        if problem:
            self.problems.append(f"call {i}: {problem}")
        return elapsed, self.wl.units(i), ref

    def phase(self, seconds: float, min_calls: int):
        """Whole passes over the calls until ``seconds`` of wall time have
        passed and at least ``min_calls`` calls were made. Whole passes
        weigh every input alike in the medians."""
        latencies, units, refs = [], 0, []
        t_end = time.perf_counter() + seconds
        n = len(self.first)
        while len(latencies) < min_calls or time.perf_counter() < t_end or len(latencies) % n:
            elapsed, count, ref = self.call(len(latencies) % n)
            latencies.append(elapsed)
            units += count
            refs.append(ref)
        return latencies, units, refs

    def pass_digest(self) -> str:
        return hashlib.sha256("\n".join(self.first).encode()).hexdigest()


def measure_setup(workload: str, work: Path, manifest: dict) -> list[float]:
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    if workload == "pick":
        cmd.append(str(work / manifest["calibration"]))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    from tracer import Tracer
    from workloads import WORKLOADS as CLASSES

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        subprocess.run(
            [sys.executable, str(HERE / "inputs.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", str(work)],
            check=True, cwd=ROOT,
        )
        manifest = json.loads((work / "manifest.json").read_text())
        setup = [] if args.trace else measure_setup(args.workload, work, manifest)
        wl = CLASSES[args.workload](work, manifest)
        loop = Loop(wl)
        n = len(wl.calls)
        loop.call(0)  # warm-up, outside every metric
        record: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                        "env": environment(), "unit": wl.unit, "calls_per_pass": n}
        if args.trace:
            # Each call runs untraced and then traced, so that drift in
            # machine speed falls on both sides of the overhead ratio alike.
            tracer = Tracer(lambda: loop.attempted)
            plain, traced, traced_units = [], [], 0
            t_end = time.perf_counter() + args.seconds
            while not traced or time.perf_counter() < t_end:
                for i in range(n):
                    plain.append(loop.call(i)[0])
                    with tracer:
                        elapsed, units, _ = loop.call(i)
                    traced.append(elapsed)
                    traced_units += units
            tracer.write_spans(ROOT / ".bench_out" / f"spans-{args.workload}.npz")
            loop.problems += tracer.bypass_errors(args.workload)
            overhead = sum(traced) / sum(plain) - 1.0
            metrics = tracer.metrics(traced_units, overhead)
            record["samples"] = {"untraced_calls": len(plain), "traced_calls": len(traced),
                                 "units": traced_units, "spans": len(tracer.span_key)}
        else:
            latencies, units, refs = loop.phase(args.seconds, 2 * n)
            relative = [t / ref for t, ref in zip(latencies, refs)]
            value, pct, beyond = tail(latencies)
            common = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "unit": "MB"},
            }
            metrics = {
                "ops_per_ref": {"value": units / sum(relative), "unit": "1/ref"},
                "call_p50_ref": {"value": statistics.median(relative), "unit": "ref"},
                "call_tail_ref": {"value": tail(relative)[0], "unit": "ref"},
                **common,
            }
            wall = {
                "ops_per_s": {"value": units / sum(latencies), "unit": "1/s"},
                "call_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
                "call_tail_ms": {"value": value * 1e3, "unit": "ms"},
                **common,
                "fail_ratio": {"value": loop.failed / loop.attempted, "unit": "ratio"},
                "reference_ms": {"value": statistics.median(refs) * 1e3, "unit": "ms"},
            }
            record.update(
                metrics={NATIVE_NAMES[args.workload].get(k, k): v for k, v in wall.items()},
                relative=metrics,
                samples={"calls": len(latencies), "units": units, "setup_repeats": len(setup),
                         "tail_percentile": pct, "tail_beyond": beyond},
            )
        recorded = json.loads((HERE / "digests.json").read_text()).get(args.workload, {})
        digest = loop.pass_digest()
        expected = recorded.get(str(args.seed))
        if expected is not None and digest != expected:
            loop.problems.append(f"pass digest {digest} differs from the recorded {expected}")
        record.update(digest=digest, recorded_digest=expected, problems=loop.problems)
        print(json.dumps(record))
        print(json.dumps({
            "correct": not loop.problems,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": metrics,
        }))
        return 0 if not loop.problems else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run's inputs are still there
            pass


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        record = json.loads(lines[-2]) if len(lines) >= 2 else {"workload": name}
        print(json.dumps(record))
        status = status or proc.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "stackgrasp" / "__init__.py").is_file():
        print(f"error: no stackgrasp package under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
