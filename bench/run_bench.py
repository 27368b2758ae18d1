"""End-to-end timings of the five canonical CLI scenarios, written to BENCH_<date>.json.

Run from anywhere; it times the vacuumdata in the ``src`` of its own checkout:

    python3 bench/run_bench.py                        # best of 7, BENCH_<date>.json at the root
    python3 bench/run_bench.py --repeat 1 --out-dir DIR

The scenarios are those of CI's smoke step: ``smooth-schwarzschild --m 1``
writes the bundle that ``verify``, ``mass`` and ``decay`` read, and
``free-tau --c 1 --q 1.5`` writes its own.  Each is timed three ways, as
the best of ``--repeat`` runs:

- ``in_process_cold_s``: ``vacuumdata.cli.main`` with the grid operator
  cache emptied before the run, so every operator is built again;
- ``in_process_warm_s``: the same call with the cache its previous run
  filled, as a process that repeats a run sees it;
- ``subprocess_s``: a fresh ``python -m vacuumdata`` interpreter, import
  time included, as a one-shot command-line run sees it.

``exit`` is the scenario's exit status; the script fails if the three ways
disagree on it or a run writes to stderr.  ``import_s`` is the best of
the fresh ``python -c "import vacuumdata.cli"`` interpreters started just
before each subprocess run: the part of every ``subprocess_s`` that is
start-up and import, not the run.  On a shared host the spread of one
fresh interpreter is as wide as a scenario's own work, so the import takes
the best of all those runs.
``layers`` holds the best of ``--repeat`` in-process seconds of one call
into each layer, with the operators of its grids already built (see
``time_layers``).
``hostspeed_kernel_s`` is the median time of perfbench's host-speed kernel
(``perfbench/hostspeed.py``, read without importing it as a module), which
scales figures taken on different hosts or at different times.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import io
import json
import os
import pathlib
import platform
import runpy
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from vacuumdata import cli, radial  # noqa: E402
from vacuumdata.conformal import (  # noqa: E402
    InitialData,
    assemble_initial_data,
    build_solution,
    momentum_potential,
    read_solution_csv,
    tau_from_phi,
    write_solution_csv,
)
from vacuumdata.radial import Dimension, RadialProfile, build_grid, differentiate  # noqa: E402
from vacuumdata.solver import fixed_point_solve, smooth_schwarzschild_phi  # noqa: E402
from vacuumdata.verify import (  # noqa: E402
    adm_mass_surface,
    constraint_report,
    decay_exponents,
    default_sample_points,
)

# (name, argv); "{bundle}" and "{tau_bundle}" are paths in a scratch directory
SCENARIOS = (
    ("smooth-schwarzschild", ["smooth-schwarzschild", "--m", "1", "--profiles", "{bundle}"]),
    ("free-tau", ["free-tau", "--c", "1", "--q", "1.5", "--profiles", "{tau_bundle}"]),
    ("verify", ["verify", "{bundle}"]),
    ("mass", ["mass", "{bundle}"]),
    ("decay", ["decay", "{bundle}"]),
)
# the interpreter start-up and import that every cold run pays
IMPORT = ["-c", "import vacuumdata.cli"]


def in_process(argv: list[str], cold: bool) -> tuple[float, int, str]:
    """Seconds, exit status and stderr of one ``cli.main`` call; stdout is discarded."""
    if cold:
        with radial._OPERATORS_LOCK:
            radial._OPERATORS.clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        began = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - began
    return seconds, code, err.getvalue()


def in_subprocess(argv: list[str]) -> tuple[float, int, str]:
    """Seconds, exit status and stderr of one fresh ``python *argv``, under
    this interpreter's warning options."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    command = [sys.executable, *(f"-W{option}" for option in sys.warnoptions), *argv]
    began = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, env=env)
    return time.perf_counter() - began, done.returncode, done.stderr


def best(runs: list[tuple[float, int, str]], argv: list[str]) -> tuple[float, int]:
    """The fastest run's seconds and the exit status all runs share."""
    codes = {code for _, code, _ in runs}
    errors = [err for _, _, err in runs if err]
    if len(codes) != 1 or errors:
        raise SystemExit(f"{' '.join(argv)}: exit statuses {sorted(codes)}, stderr {errors[:1]}")
    return min(seconds for seconds, _, _ in runs), codes.pop()


def time_scenario(argv: list[str], repeat: int, fresh: tuple[float, int]) -> dict:
    """The in-process timings of one scenario, beside its subprocess ``fresh``."""
    cold = best([in_process(argv, cold=True) for _ in range(repeat)], argv)
    in_process(argv, cold=False)  # fills the cache the warm runs read
    warm = best([in_process(argv, cold=False) for _ in range(repeat)], argv)
    if not cold[1] == warm[1] == fresh[1]:
        raise SystemExit(f"{' '.join(argv)}: exit {cold[1]} cold, {warm[1]} warm, {fresh[1]} in a subprocess")
    return {"exit": fresh[1], "in_process_cold_s": cold[0], "in_process_warm_s": warm[0], "subprocess_s": fresh[0]}


def time_subprocesses(argvs: list[list[str]], repeat: int) -> tuple[float, list[tuple[float, int]]]:
    """The best seconds of a fresh import, and the best-of-``repeat`` seconds
    and exit status of each scenario in a fresh interpreter.  The runs go in
    ``repeat`` rounds of one run per scenario, each just after an import, so
    that a drift in host speed moves imports and runs alike."""
    imports, runs = [], [[] for _ in argvs]
    for _ in range(repeat):
        for argv, timed in zip(argvs, runs):
            imports.append(in_subprocess(IMPORT))
            timed.append(in_subprocess(["-m", "vacuumdata", *argv]))
    return best(imports, IMPORT)[0], [best(timed, argv) for timed, argv in zip(runs, argvs)]


def time_layers(repeat: int, scratch: str) -> dict[str, float]:
    """Best-of-``repeat`` seconds of one call into each layer, on the data of
    ``smooth-schwarzschild --m 1`` (n = 3, 4000 nodes, its 8000-node grid as
    the refined one) and on the solve of ``free-tau --c 1 --q 1.5``.  Each
    call gets fresh profiles, so no derived field comes from a memo."""
    dim = Dimension(3)
    grid, fine = build_grid(4000, 1.0e4, 1.01), build_grid(8000, 1.0e4, 1.01)
    phi, fine_phi = smooth_schwarzschild_phi(dim, 1.0, grid), smooth_schwarzschild_phi(dim, 1.0, fine)
    solution = build_solution(dim, phi)
    data = assemble_initial_data(solution)
    fine_tau = tau_from_phi(dim, fine_phi)
    refined = InitialData(dim, fine_phi, fine_tau, momentum_potential(dim, fine_phi, fine_tau))
    points = default_sample_points(dim)
    bundle = os.path.join(scratch, "layers.csv")
    write_solution_csv(solution, bundle)
    seed = (1.0 + grid.nodes**2) ** -0.75
    calls = {
        "differentiate_4000": lambda: differentiate(RadialProfile(grid, phi.values), 2),
        "differentiate_8000": lambda: differentiate(RadialProfile(fine, fine_phi.values), 2),
        "build_solution": lambda: build_solution(dim, RadialProfile(grid, phi.values)),
        "constraint_report": lambda: constraint_report(data, points, refined=refined),
        "decay_exponents": lambda: decay_exponents(data),
        "adm_mass_surface": lambda: adm_mass_surface(data, tuple(f * grid.r_max for f in cli._SURFACE_FRACTIONS)),
        "write_solution_csv": lambda: write_solution_csv(solution, bundle),
        "read_solution_csv": lambda: read_solution_csv(bundle, dim),
        "fixed_point_solve": lambda: fixed_point_solve(dim, RadialProfile(grid, seed)),
    }
    for call in calls.values():
        call()  # builds what the call caches per grid
    seconds = {}
    for name, call in calls.items():
        runs = []
        for _ in range(repeat):
            began = time.perf_counter()
            call()
            runs.append(time.perf_counter() - began)
        seconds[name] = min(runs)
    return seconds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7, help="runs per timing, the best is kept (default 7)")
    parser.add_argument("--out-dir", type=pathlib.Path, default=ROOT, help="directory of BENCH_<date>.json")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error(f"--repeat must be at least 1, got {args.repeat}")

    today = datetime.date.today().isoformat()
    hostspeed = runpy.run_path(str(ROOT / "perfbench" / "hostspeed.py"))
    result = {
        "date": today,
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "repeat": args.repeat,
        "hostspeed_kernel_s": hostspeed["time_reference"](args.repeat),
        "scenarios": {},
    }
    with tempfile.TemporaryDirectory() as scratch:
        paths = {"bundle": os.path.join(scratch, "b.csv"), "tau_bundle": os.path.join(scratch, "tau.csv")}
        argvs = [[arg.format(**paths) for arg in template] for _, template in SCENARIOS]
        result["import_s"], fresh = time_subprocesses(argvs, args.repeat)
        print(f"import_s: {result['import_s']:.4f}", flush=True)
        for (name, template), argv, timed_fresh in zip(SCENARIOS, argvs, fresh):
            timed = time_scenario(argv, args.repeat, timed_fresh)
            result["scenarios"][name] = {"command": " ".join(template), **timed}
            print(f"{name}: {json.dumps(timed)}", flush=True)
        result["layers"] = time_layers(args.repeat, scratch)
        print(f"layers: {json.dumps(result['layers'])}", flush=True)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    path = args.out_dir / f"BENCH_{today}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="ascii")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
