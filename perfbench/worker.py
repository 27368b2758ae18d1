"""One benchmark process: set up a workload, then run its timed phase.

run.py starts this file in a fresh interpreter, so set-up includes the
import of vacuumdata.  The BLAS pools are pinned to one thread before numpy
loads.  The process prints one JSON line: the monotonic time at which
set-up ended and, unless ``--setup-only``, every op's time and verdict.
The host-speed reference (hostspeed.py) is timed after set-up and after
every op, outside the op's time.

The timed phase is a closed loop with one client: it runs the input pool
in whole cycles and stops at the cycle boundary nearest to ``--seconds``,
after at least two cycles, so every input recurs and each run has the same
input mix.  With
``--trace 1`` the odd cycles run under the tracer and the even ones
without it; the two halves give the tracing overhead, and the recurrence
check compares traced reports with untraced ones.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from hostspeed import time_reference  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, describe  # noqa: E402


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


def timed_phase(workload, seconds: float, tracer: Tracer | None) -> list[dict]:
    ops: list[dict] = []
    first: dict[int, tuple[str, bool]] = {}
    start = time.perf_counter()
    cycle = 0
    while True:
        traced = tracer is not None and cycle % 2 == 1
        if traced:
            tracer.install()
        try:
            for index in range(len(workload.inputs)):
                if traced:
                    tracer.begin_op(len(ops))
                broken = False
                began = time.perf_counter()
                try:
                    text, reasons = workload.run(index)
                except Exception as exc:  # an untyped exception is a finding, not a crash
                    text, reasons, broken = None, [f"raised {type(exc).__name__}: {exc}"], True
                elapsed = time.perf_counter() - began
                reference_s = time_reference()
                if text is not None:
                    earlier = first.setdefault(index, (text, traced))
                    if earlier[0] != text:
                        what = "traced" if traced != earlier[1] else "repeated"
                        reasons = reasons + [f"{what} report differs from the first run"]
                        broken = True
                ops.append({"input": index, "s": elapsed, "reference_s": reference_s,
                            "traced": traced, "reasons": reasons, "broken": broken})
        finally:
            if traced:
                tracer.uninstall()
        cycle += 1
        # stop at the cycle boundary nearest to `seconds` (pairs of cycles
        # when tracing), after at least two cycles
        step = 2 if tracer is not None else 1
        elapsed = time.perf_counter() - start
        if cycle >= 2 and cycle % step == 0 and elapsed * (1 + step / (2 * cycle)) >= seconds:
            return ops


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True, help="directory for bundles")
    parser.add_argument("--spans", help="write the traced spans here as JSON lines")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import vacuumdata

    source = os.path.join(os.getcwd(), "src", "vacuumdata")
    if os.path.dirname(os.path.abspath(vacuumdata.__file__)) != source:
        print(f"imported vacuumdata from {vacuumdata.__file__}, not {source}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.scratch)
    tracer = Tracer() if args.trace and not args.setup_only else None
    if tracer is None:
        workload.prepare()
    else:
        # Set-up runs traced too, outside any op, so that operators it
        # builds count as cache hits when the ops reuse them.
        tracer.install()
        try:
            workload.prepare()
        finally:
            tracer.uninstall()
    ready = time.monotonic()
    setup_reference_s = time_reference(3)
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_reference_s": setup_reference_s}))
        return 0

    started = time.perf_counter()
    ops = timed_phase(workload, args.seconds, tracer)
    wall = time.perf_counter() - started
    result = {
        "ready": ready,
        "setup_reference_s": setup_reference_s,
        "wall_s": wall,
        "ops": ops,
        "inputs": [describe(inp) for inp in workload.inputs],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": environment(),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans, sum(op["traced"] for op in ops))
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
