"""Benchmark for vacuumdata: three seeded workloads, checked against oracles.

Run from the root of a vacuumdata checkout:

    python3 perfbench/run.py --workload build --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

Each workload runs in fresh interpreters (worker.py): ``SETUPS - 1`` that
only set up, then one that sets up and runs the timed phase.  ``setup_s``
is the median over all of them, measured from just before the interpreter
is started.  Every time metric is scaled by the host-speed reference timed
beside it (hostspeed.py), so that the drift of a shared host cancels.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0`` and
the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from hostspeed import REFERENCE_S, adjusted, scale_ops
from tracer import layer_unit

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("build", "tau-sweep", "recheck")  # the order of --workload all
# BENCHMARK.json lists these; recheck runs by hand only, because its set-up
# (three CLI runs per interpreter) leaves too little of the contract's time
# limit for runs long enough to be steady
LISTED_WORKLOADS = ("build", "tau-sweep")
SETUPS = 3
DEADLINE_S = 170.0
TAIL_BEYOND = 10  # samples a reported tail percentile must have above it
# the percentiles op_s.tail chooses from; a fixed ladder, so that a run with
# a cycle more or less of ops still reports the same percentile
TAIL_LADDER = (0.5, 0.75, 0.9, 0.95, 0.99)

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "failed_ratio": "ratio",
    "peak_rss_mb": "MB",
}


class BenchmarkError(Exception):
    """The benchmark itself could not produce a result."""


def percentile(values: list[float], fraction: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = fraction * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_fraction(count: int) -> float:
    """The highest percentile of TAIL_LADDER with TAIL_BEYOND samples
    beyond it, as a fraction; the median when none above it has them."""
    return max(f for f in TAIL_LADDER
               if f == 0.5 or round((1.0 - f) * count, 9) >= TAIL_BEYOND)


def _worker(args, scratch: str, deadline: float, setup_only: bool, spans: str | None):
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scratch", scratch]
    if setup_only:
        argv.append("--setup-only")
    if spans:
        argv += ["--spans", spans]
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
    os.makedirs(scratch, exist_ok=True)
    started = time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker exceeded the {DEADLINE_S:g} s deadline") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_wall_s"] = result["ready"] - started
    result["setup_s"] = adjusted(result["setup_wall_s"], result["setup_reference_s"])
    return result


def run_workload(args) -> tuple[dict, list[str]]:
    """Run one workload; return the contract JSON object and report lines."""
    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(HERE, ".work")
    os.makedirs(work, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work)
    spans = os.path.join(work, f"spans-{args.workload}.jsonl") if args.trace else None
    try:
        # a traced run reports no setup_s, so it sets up only once
        setups = [
            _worker(args, os.path.join(scratch, f"setup{i}"), deadline, True, None)
            for i in range(0 if args.trace else SETUPS - 1)
        ]
        result = _worker(args, os.path.join(scratch, "run"), deadline, False, spans)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    setups.append(result)
    ops = result["ops"]
    scaled = scale_ops([op["s"] for op in ops], [op["reference_s"] for op in ops])
    for op, op_s in zip(ops, scaled):
        op["adjusted_s"] = op_s
    failed = [op for op in ops if op["reasons"]]
    correct = not any(op["broken"] for op in ops)

    lines = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
             f"trace={args.trace}"]
    env = result["env"]
    lines.append(f"  env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
                 f"nproc {env['nproc']}, cpu {env['cpu']}")
    if args.trace:
        traced = [op["adjusted_s"] for op in ops if op["traced"]]
        untraced = [op["adjusted_s"] for op in ops if not op["traced"]]
        metrics = dict(result["layers"])
        metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced) - 1.0
        units = {name: layer_unit(name) for name in metrics}
        lines.append(f"  traced {len(traced)} of {len(ops)} ops; spans in {spans}")
    else:
        times = [op["adjusted_s"] for op in ops]
        fraction = tail_fraction(len(times))
        metrics = {
            "setup_s": statistics.median(setup["setup_s"] for setup in setups),
            "ops_per_s": len(ops) / sum(times),
            "op_s.p50": statistics.median(times),
            "op_s.tail": percentile(times, fraction),
            "failed_ratio": len(failed) / len(ops),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        units = END_TO_END_UNITS
        lines.append(f"  setup_s over {len(setups)} set-ups: "
                     + ", ".join(f"{setup['setup_s']:.3f}" for setup in setups)
                     + " (unscaled " + ", ".join(f"{setup['setup_wall_s']:.3f}" for setup in setups)
                     + ")")
        lines.append(f"  op_s.tail is p{100 * fraction:g} of {len(times)} ops")
        reference = statistics.median(op["reference_s"] for op in ops)
        lines.append(f"  times scaled to a {REFERENCE_S:g} s host-speed reference, which took "
                     f"{reference:.4f} s here (median); unscaled: ops_per_s "
                     f"{len(ops) / result['wall_s']:.6g} 1/s over the timed phase, op_s.p50 "
                     f"{statistics.median(op['s'] for op in ops):.6g} s")
    for name, value in metrics.items():
        lines.append(f"  {name:<38} {value:>14.6g} {units[name]}")

    lines.append(f"  verdicts ({len(failed)} of {len(ops)} ops failed):")
    for index, text in enumerate(result["inputs"]):
        mine = [op for op in ops if op["input"] == index]
        bad = [op for op in mine if op["reasons"]]
        status = "FAIL" if bad else "pass"
        lines.append(f"    [{status}] {text} ({len(bad)}/{len(mine)} ops failed)")
        for reason in dict.fromkeys(r for op in bad for r in op["reasons"]):
            lines.append(f"           {reason}")
    out = {
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return out, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="vacuumdata benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(os.getcwd(), "src", "vacuumdata", "__init__.py")):
        print("perfbench: run from the root of a vacuumdata checkout "
              "(src/vacuumdata/__init__.py not found)", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        args.workload = name
        try:
            results[name], lines = run_workload(args)
        except BenchmarkError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
