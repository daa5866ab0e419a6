#!/usr/bin/env python3
"""fiberprod benchmark: one command, one process, one thread, closed loop.

    python3 perfbench/run.py --workload verify-small --seed 1 --seconds 34 --trace 0

Run from anywhere; the package is imported from `src/` next to this
directory and called only through `fiberprod.cli.run([...])`, in process.
`setup_s` times a cold `python -m fiberprod.cli examples --json` subprocess.

Workloads (see README.md for why each was chosen):

  verify-small   every pool scenario once per pass, seeded order, relabeling
                 and encoding, with two trivial inputs that must exit 1
  resolve-heavy  residue-field resolutions, x4 at hom 3/4/5 and xyz at hom 6
  formula-batch  series, betti, depth and classify; never reaches the oracle

`--trace 0` measures and prints the end-to-end metrics.  `--trace 1` runs
pass 0 untraced and then traced (wrappers on the public functions of cli,
oracle, fiber, series and structure), repeating the pair while time allows,
prints the per-layer metrics, and writes the spans to
perfbench/out/trace-<workload>-seed<seed>.jsonl.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import tracing
from workloads import WORKLOADS, Op, Workload, load_pool

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = Path(__file__).resolve().parent / "out"

SETUP_RUNS = 7
SETUP_TIMEOUT_S = 60

# Operations run untimed before measuring, so that lazy set-up (schema files,
# regular expressions, validator classes) is done: labels, or None for pass -1
# in full.
WARMUP = {
    "verify-small": {"lescot-xy", "amalg-dup-x"},
    "resolve-heavy": {"xyz-h6"},
    "formula-batch": None,
}

# Seconds per pass, checks included, at the commit that introduced the
# benchmark (2-core shared VM, Python 3.11.7, in its slower phases).  A run
# makes seconds // NOMINAL passes, so parent and child commits time the same
# operations and the latency percentiles cover the same number of samples; a
# faster commit just finishes sooner.  A run on a slower machine stops at
# DEADLINE_FACTOR * seconds and says so.
NOMINAL_PASS_S = {
    "verify-small": 11.0,
    "resolve-heavy": 10.5,
    "formula-batch": 0.2,
}
DEADLINE_FACTOR = 1.25

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "heavy_op_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_package() -> Dict[str, object]:
    """Import fiberprod from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "fiberprod" / "cli.py").is_file():
        raise BenchError(f"no fiberprod sources under {src}")
    sys.path.insert(0, os.fspath(src))
    from fiberprod import cli, fiber, oracle, series, structure

    if Path(cli.__file__).resolve().parent != (src / "fiberprod").resolve():
        raise BenchError(f"fiberprod imported from {cli.__file__}, not from {src}")
    return {"cli": cli, "oracle": oracle, "series": series, "fiber": fiber,
            "structure": structure}


# --- one operation and one pass -------------------------------------------------


@dataclass
class Outcome:
    code: Optional[int]
    stdout: str
    stderr: str
    seconds: float
    error: Optional[str]  # a traceback escaping cli.run


def call(cli, argv: List[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.run(argv)
        except (Exception, SystemExit):
            code = None
            error = traceback.format_exc()
        seconds = perf_counter() - start
    return Outcome(code, out.getvalue(), err.getvalue(), seconds, error)


def failure_reason(op: Op, o: Outcome) -> Optional[str]:
    if o.error is not None:
        return "traceback: " + o.error.strip().splitlines()[-1]
    try:
        return op.check(o.code, o.stdout, o.stderr)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


@dataclass
class PassResult:
    wall: float
    latencies: List[Tuple[str, float]]
    failures: List[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_pass(cli, ops: List[Op]) -> PassResult:
    """Closed loop: each operation starts when the previous one returned.
    Outputs are checked after the pass, outside the timed region."""
    outcomes = []
    start = perf_counter()
    for op in ops:
        outcomes.append(call(cli, op.argv))
    wall = perf_counter() - start
    result = PassResult(wall, [(op.label, o.seconds) for op, o in zip(ops, outcomes)])
    for op, o in zip(ops, outcomes):
        reason = failure_reason(op, o)
        if reason:
            result.failures.append(f"{op.label}: {reason}")
    return result


# --- statistics ------------------------------------------------------------------


def tail_percentile(values: List[float], planned: Optional[int] = None) -> Tuple[str, float, int]:
    """The highest percentile (from p50 up) with at least 10 samples beyond
    it, by nearest rank: (label, value, samples beyond).

    The percentile is chosen for `planned` samples (default: all of them),
    so that a run cut short at its deadline reports the same percentile, with
    fewer samples beyond it.  With fewer than 20 samples no such percentile
    exists and the maximum is reported.
    """
    xs = sorted(values)
    n = len(xs)
    planned = planned or n
    for p10 in range(999, 499, -1):
        if planned - -(-p10 * planned // 1000) >= 10:  # ceil(p * planned)
            rank = -(-p10 * n // 1000)
            label = f"p{p10 // 10}" if p10 % 10 == 0 else f"p{p10 / 10:g}"
            return label, xs[rank - 1], n - rank
    return "max", xs[-1], 0


def measure_setup() -> Tuple[float, List[str]]:
    """Median wall time of a cold `python -m fiberprod.cli examples --json`."""
    env = dict(os.environ, PYTHONPATH=os.fspath(ROOT / "src"))
    times, problems = [], []
    expected = sorted(p.stem for p in (ROOT / "src" / "fiberprod" / "corpus").glob("*.json"))
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "fiberprod.cli", "examples", "--json"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        times.append(perf_counter() - start)
        try:
            ids = sorted(s["id"] for s in json.loads(proc.stdout)["result"]["scenarios"])
        except (ValueError, KeyError, TypeError):
            ids = None
        if proc.returncode != 0 or ids != expected:
            problems.append(f"setup: exit {proc.returncode}, scenarios {ids}")
    return statistics.median(times), problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- the two modes ----------------------------------------------------------------


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, work_dir: Path):
        self.modules = import_package()
        self.cli = self.modules["cli"]
        self.reference = tracing.originals(self.modules)
        self.workload = Workload(workload, seed, work_dir, load_pool())
        self.seconds = seconds
        self.attempted = 0
        self.failures: List[str] = []  # one line per failed operation
        self.problems: List[str] = []  # set-up and tracing faults
        self.lines: List[str] = []

    def record(self, result: PassResult) -> PassResult:
        self.attempted += result.attempted
        self.failures.extend(result.failures)
        return result

    def assert_untraced(self) -> None:
        wrapped = tracing.wrapped_layers(self.modules, self.reference)
        if wrapped:
            raise RuntimeError(f"tracing wrappers still installed on {wrapped}")

    def untraced_pass(self, ops: List[Op]) -> PassResult:
        self.assert_untraced()
        gc.collect()
        return self.record(run_pass(self.cli, ops))

    def warm_up(self) -> None:
        keep = WARMUP[self.workload.name]
        ops = [op for op in self.workload.make_pass(-1) if keep is None or op.label in keep]
        self.untraced_pass(ops)
        # The pool and the modules stay alive for the whole run; a one-shot
        # CLI process would not carry them, so the collector skips them.
        gc.collect()
        gc.freeze()

    def measure(self) -> Dict[str, float]:
        setup_s, problems = measure_setup()
        self.problems.extend(problems)
        self.warm_up()
        wanted = max(1, int(self.seconds // NOMINAL_PASS_S[self.workload.name]))
        passes: List[PassResult] = []
        cycles: List[float] = []
        deadline = perf_counter() + DEADLINE_FACTOR * self.seconds
        for k in range(wanted):
            if cycles and perf_counter() + statistics.median(cycles) > deadline:
                self.lines.append(f"stopped after {k} of {wanted} passes at the deadline")
                break
            cycle = perf_counter()
            passes.append(self.untraced_pass(self.workload.make_pass(k)))
            cycles.append(perf_counter() - cycle)
        latencies = [s for p in passes for _, s in p.latencies]
        heavy = [s for p in passes for label, s in p.latencies
                 if label == self.workload.heavy_label]
        per_pass = len(passes[0].latencies)
        tail_label, tail_value, beyond = tail_percentile(latencies, wanted * per_pass)
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(p.wall for p in passes),
            "ops_per_s": len(latencies) / sum(p.wall for p in passes),
            "latency_p50_ms": statistics.median(latencies) * 1000.0,
            "latency_tail_ms": tail_value * 1000.0,
            "heavy_op_s": statistics.median(heavy),
            "peak_rss_mb": peak_rss_mb(),
        }
        self.lines.append(
            f"passes {len(passes)}, operations {len(latencies)}, "
            f"latency_tail_ms is {tail_label} with {beyond} of {len(latencies)} samples beyond it"
        )
        self.lines.append(f"heavy_op_s is the median of {len(heavy)} runs of "
                          f"{self.workload.heavy_label}"
                          + (" (x4_h5_s)" if self.workload.name == "resolve-heavy" else ""))
        return metrics

    def trace(self, seed: int) -> Dict[str, float]:
        self.warm_up()
        ops = self.workload.make_pass(0)
        tracer = tracing.Tracer(self.modules)
        untraced, traced, layer_runs = [], [], []
        counts = None
        start = perf_counter()
        while True:
            cycle = perf_counter()
            untraced.append(self.untraced_pass(ops).wall)
            tracer.reset()
            gc.collect()
            with tracer:
                traced.append(self.record(run_pass(self.cli, ops)).wall)
            self.assert_untraced()
            defects = tracer.self_time_defects()
            if defects:
                self.problems.append(f"trace: self times do not sum to the root span in ops {defects}")
            if counts is None:
                counts = tracer.counts()
                OUT_DIR.mkdir(exist_ok=True)
                tracer.write(OUT_DIR / f"trace-{self.workload.name}-seed{seed}.jsonl",
                             {"workload": self.workload.name, "seed": seed, "pass": 0})
            elif tracer.counts() != counts:
                self.problems.append("trace: call counts differ between repeats of one pass")
            layer_runs.append(tracer.layer_metrics())
            if perf_counter() - start + (perf_counter() - cycle) > self.seconds:
                break
        # Counts and ratios repeat exactly; seconds are medians over repeats.
        metrics = {
            name: statistics.median(run[name] for run in layer_runs)
            if layer_unit(name) == "s" else value
            for name, value in layer_runs[0].items()
        }
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
        self.lines.append(
            f"traced pass 0 {len(traced)} times: traced wall_s {statistics.median(traced):.4f}, "
            f"untraced wall_s {statistics.median(untraced):.4f}"
        )
        return metrics


def layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".s") or name.endswith("self_s"):
        return "s"
    return "count"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work_dir = OUT_DIR / f"work-{os.getpid()}"
    try:
        work_dir.mkdir(parents=True)
        bench = Bench(args.workload, args.seed, args.seconds, work_dir)
        if args.trace:
            metrics = bench.trace(args.seed)
            units = {name: layer_unit(name) for name in metrics}
        else:
            metrics = bench.measure()
            units = UNITS
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = len(bench.failures)
    for line in bench.failures[:20] + bench.problems:
        print(f"FAILED {line}")
    for line in bench.lines:
        print(line)
    print(f"failed_ratio {failed / bench.attempted:.6f} ({failed} of {bench.attempted} operations)")
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failed and not bench.problems,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
