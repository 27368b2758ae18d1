"""Command-line front end for building and checking vacuum initial data.

Each invocation runs one scenario end to end: construct or load a radial
solution, assemble the Cartesian data, verify it, and emit a JSON report
plus an optional CSV profile bundle.  Reports are deterministic: floats
are written with 17 significant digits, keys appear in a fixed order,
and there are no timestamps, so identical configurations produce
byte-identical output.

Exit status is 0 when every boolean in the report's ``checks`` block is
true and the constraint residual sup norms stay below ``RESIDUAL_GATE``,
1 on a failed gate or a solver breakdown, and 2 on invalid arguments or
unreadable input.  Failures print ``{"error": {"type": ..., "message":
...}}`` with the machine code carried by the raised exception.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .conformal import (
    ConformalSolution,
    InitialData,
    _identity_residual,
    assemble_initial_data,
    build_solution,
    read_solution_csv,
    write_solution_csv,
)
from .errors import (
    DegenerateFitError,
    InvalidArgumentError,
    NoTailError,
    SchemaError,
    TailTooSlowError,
    VacuumDataError,
)
from .radial import Dimension, RadialProfile, build_grid
from .solver import SolveControls, fixed_point_solve, smooth_schwarzschild_phi
from .verify import (
    adm_mass_radial,
    adm_mass_surface,
    check_solution,
    constraint_report,
    decay_exponents,
    default_sample_points,
)

__all__ = [
    "RESIDUAL_GATE",
    "IDENTITY_GATE",
    "LW_GATE",
    "DIVW_GATE",
    "ZERO_MASS_GATE",
    "ScenarioConfig",
    "render_report",
    "run",
    "main",
]

# Junction stencil noise for the smoothed construction sits near 2e-4 at
# the default step, so the pass gate leaves a factor-of-five margin.
RESIDUAL_GATE = 1e-3
IDENTITY_GATE = 1e-6
LW_GATE = 1e-10
DIVW_GATE = 1e-6
ZERO_MASS_GATE = 1e-2

# Step for the 2x-refinement order study; large enough that truncation,
# not interpolant rounding, dominates the stencil error.
_ORDER_STEP = 1e-2

_SURFACE_FRACTIONS = (0.1, 0.2, 0.4)

_COMMANDS = ("smooth-schwarzschild", "free-tau", "verify", "mass", "decay")
_CSV_COMMANDS = ("verify", "mass", "decay")


@dataclasses.dataclass(frozen=True)
class ScenarioConfig:
    """One front-end invocation: the scenario to run and its knobs.

    ``grid`` holds (points, r_max, stretch) for the radial grid,
    ``controls`` drives the nonlinear solver (free-tau only), and
    ``points``/``h`` fix the Cartesian verification sample.  Command
    specific requirements (m for smooth-schwarzschild; c and q inside
    the admissible range for free-tau; an input CSV for the read-only
    commands) are validated here so the front end can emit a uniform
    machine-readable failure record.
    """

    command: str
    n: int = 3
    m: float | None = None
    c: float | None = None
    q: float | None = None
    grid: tuple[int, float, float] = (4000, 1.0e4, 1.01)
    controls: SolveControls = SolveControls()
    points: int = 64
    h: float = 1e-3
    csv_path: str | None = None
    out_json: str | None = None
    out_csv: str | None = None

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise InvalidArgumentError(f"unknown command {self.command!r}")
        Dimension(self.n)
        if self.command == "smooth-schwarzschild":
            if self.m is None:
                raise InvalidArgumentError("smooth-schwarzschild requires m")
            if not self.m > 0:
                raise InvalidArgumentError(f"m must be positive, got {self.m!r}")
        if self.command == "free-tau":
            if self.c is None or self.q is None:
                raise InvalidArgumentError("free-tau requires c and q")
            if not self.c > 0:
                raise InvalidArgumentError(f"c must be positive, got {self.c!r}")
            lo = (self.n + 2) / 4.0
            if not lo < self.q < self.n:
                raise InvalidArgumentError(
                    f"q must lie in ({lo:g}, {self.n}) for the decay laws"
                    f" to apply, got {self.q!r}"
                )
        if self.command in _CSV_COMMANDS and self.csv_path is None:
            raise InvalidArgumentError(f"{self.command} requires an input CSV bundle")
        if self.points < 1:
            raise InvalidArgumentError(f"points must be at least 1, got {self.points!r}")
        if not self.h > 0:
            raise InvalidArgumentError(f"h must be positive, got {self.h!r}")

    @property
    def dim(self) -> Dimension:
        return Dimension(self.n)


def _render(value) -> str:
    # bool before int: Python bools are ints.
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return format(v, ".17g") if math.isfinite(v) else "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        body = ",".join(f"{json.dumps(str(k))}:{_render(v)}" for k, v in value.items())
        return "{" + body + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_render(v) for v in value) + "]"
    raise InvalidArgumentError(f"cannot serialize {type(value).__name__} in a report")


def render_report(report: dict) -> str:
    """Serialize a report dict to compact deterministic JSON.

    Floats use 17 significant digits (enough to round-trip float64);
    non-finite values become null; keys keep insertion order.
    """
    return _render(report) + "\n"


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def _grid_params(config: ScenarioConfig) -> dict:
    points, r_max, stretch = config.grid
    return {"points": points, "r_max": r_max, "stretch": stretch}


def _checks_block(sol: ConformalSolution) -> dict:
    checks = check_solution(sol)
    return {
        "monotone": bool(checks.monotone),
        "identity_residual": bool(checks.identity_residual < IDENTITY_GATE),
        "lw_identity": bool(checks.lw_identity < LW_GATE),
        "divW_identity": bool(checks.divw_identity < DIVW_GATE),
    }


def _residuals_block(
    config: ScenarioConfig,
    data: InitialData,
    refined: ConformalSolution | None = None,
) -> dict:
    pts = default_sample_points(data.dim, config.points)
    level = constraint_report(data, pts, config.h)
    order = None
    if refined is not None:
        study = constraint_report(
            data, pts, _ORDER_STEP, refined=assemble_initial_data(refined)
        )
        order = study.convergence_order
    return {
        "hamiltonian_sup": level.hamiltonian_sup,
        "momentum_sup": level.momentum_sup,
        "order": order,
    }


def _mass_block(dim: Dimension, sol: ConformalSolution, data: InitialData) -> dict:
    radial = adm_mass_radial(dim, sol.phi)
    if radial.diverges:
        return {
            "standard": None,
            "paper_radial": None,
            "paper_surface": None,
            "diverges": True,
        }
    r_max = sol.grid.r_max
    surface = adm_mass_surface(data, tuple(f * r_max for f in _SURFACE_FRACTIONS))
    return {
        "standard": radial.mass_standard,
        "paper_radial": radial.mass_paper_radial,
        "paper_surface": surface.mass_paper_surface,
        "diverges": False,
    }


def _decay_block(data: InitialData) -> dict:
    try:
        report = decay_exponents(data)
    except (DegenerateFitError, NoTailError, TailTooSlowError):
        return {"tau": None, "metric": None, "k": None}
    return {
        "tau": report.tau_exponent,
        "metric": report.metric_exponent,
        "k": report.k_exponent,
    }


_REPORT_KEYS = ("scenario", "n", "params", "mass", "residuals", "decay", "checks", "iterations")


def _report(
    config: ScenarioConfig, params: dict, mass=None, residuals=None, decay=None, checks=None, iterations=0
) -> dict:
    """The report skeleton of every command; blocks it does not produce are null."""
    values = (config.command, config.n, params, mass, residuals, decay, checks, iterations)
    return dict(zip(_REPORT_KEYS, values))


def _solution_report(
    config: ScenarioConfig,
    params: dict,
    sol: ConformalSolution,
    iterations: int,
    refined: ConformalSolution | None = None,
) -> dict:
    data = assemble_initial_data(sol)
    report = _report(
        config,
        params,
        mass=_mass_block(config.dim, sol, data),
        residuals=_residuals_block(config, data, refined),
        decay=_decay_block(data),
        checks=_checks_block(sol),
        iterations=iterations,
    )
    if config.out_csv:
        write_solution_csv(sol, config.out_csv)
    return report


def _sampling_params(config: ScenarioConfig) -> dict:
    return {"points": config.points, "h": config.h}


def _cmd_smooth_schwarzschild(config: ScenarioConfig) -> dict:
    dim = config.dim
    points, r_max, stretch = config.grid
    sol = build_solution(
        dim, smooth_schwarzschild_phi(dim, config.m, build_grid(points, r_max, stretch))
    )
    # The closed-form construction is cheap, so the report includes the
    # 2x-refinement convergence order of the constraint residuals.
    refined = build_solution(
        dim,
        smooth_schwarzschild_phi(dim, config.m, build_grid(2 * points, r_max, stretch)),
    )
    params = {"m": config.m, "grid": _grid_params(config), **_sampling_params(config)}
    return _solution_report(config, params, sol, iterations=0, refined=refined)


def _classification(mass: dict) -> str:
    if mass["diverges"]:
        return "negative-infinite"
    standard = mass["standard"]
    if abs(standard) < ZERO_MASS_GATE:
        return "zero"
    return "negative" if standard < 0 else "positive"


def _cmd_free_tau(config: ScenarioConfig) -> dict:
    dim = config.dim
    points, r_max, stretch = config.grid
    grid = build_grid(points, r_max, stretch)
    seed = config.c * (1.0 + grid.nodes**2) ** (-config.q / 2.0)
    sol, trace = fixed_point_solve(dim, RadialProfile(grid, seed), config.controls)
    params = {
        "c": config.c,
        "q": config.q,
        "grid": _grid_params(config),
        "tol": config.controls.tol,
        "max_iter": config.controls.max_newton,
        "continuation": config.controls.continuation_steps,
        **_sampling_params(config),
    }
    report = _solution_report(
        config, params, sol, iterations=len(trace.outer_iterates)
    )
    report["classification"] = _classification(report["mass"])
    return report


def _cmd_verify(config: ScenarioConfig) -> dict:
    sol = read_solution_csv(config.csv_path, config.dim)
    return _report(
        config,
        {"csv": config.csv_path, **_sampling_params(config)},
        residuals=_residuals_block(config, assemble_initial_data(sol)),
        checks=_checks_block(sol),
    )


def _read_bundle_at_n(config: ScenarioConfig) -> ConformalSolution:
    """The bundle read at ``config.n``, refused unless it passes the
    mean-curvature identity there.  A bundle does not record its
    dimension, and one read at another n fails the identity by orders of
    magnitude while its mass may even change sign."""
    sol = read_solution_csv(config.csv_path, config.dim)
    try:
        residual = _identity_residual(config.dim, sol.phi, sol.tau)
    except VacuumDataError:
        residual = math.inf
    if not residual < IDENTITY_GATE:
        raise SchemaError(
            f"bundle fails the mean-curvature identity at n={config.n} (residual {residual:.3g});"
            " was it written with another --n?"
        )
    return sol


def _cmd_mass(config: ScenarioConfig) -> dict:
    sol = _read_bundle_at_n(config)
    return _report(
        config,
        {"csv": config.csv_path},
        mass=_mass_block(config.dim, sol, assemble_initial_data(sol)),
    )


def _cmd_decay(config: ScenarioConfig) -> dict:
    sol = _read_bundle_at_n(config)
    return _report(
        config,
        {"csv": config.csv_path},
        decay=_decay_block(assemble_initial_data(sol)),
    )


_HANDLERS = {
    "smooth-schwarzschild": _cmd_smooth_schwarzschild,
    "free-tau": _cmd_free_tau,
    "verify": _cmd_verify,
    "mass": _cmd_mass,
    "decay": _cmd_decay,
}


def run(config: ScenarioConfig) -> dict:
    """Execute one scenario and return its report dict.

    Writes the CSV profile bundle when the config asks for one.  Raises
    VacuumDataError subclasses on invalid input or solver breakdown;
    the caller maps those to exit codes.
    """
    return _HANDLERS[config.command](config)


def _exit_status(report: dict) -> int:
    checks = report.get("checks")
    if checks is not None and not all(v is True for v in checks.values()):
        return 1
    residuals = report.get("residuals")
    if residuals is not None:
        for key in ("hamiltonian_sup", "momentum_sup"):
            value = residuals[key]
            if value is None or not value < RESIDUAL_GATE:
                return 1
    return 0


# Option defaults are the ScenarioConfig and SolveControls field defaults.
# Each option fills the field of its own name or the one _FIELDS gives;
# the three grid options make up ScenarioConfig.grid.
_FIELDS = {"max_iter": "max_newton", "continuation": "continuation_steps", "csv": "csv_path",
           "out": "out_json", "profiles": "out_csv"}
_GRID_OPTIONS = ("grid_points", "grid_max", "stretch")


def _add_defaulted(parser: argparse.ArgumentParser, *options) -> None:
    """Add (flag, type, default, help) options; --help shows the default."""
    for flag, kind, default, text in options:
        parser.add_argument(flag, type=kind, default=default, help=f"{text} (default %(default)g)")


def _add_dimension(parser: argparse.ArgumentParser) -> None:
    _add_defaulted(parser, ("--n", int, ScenarioConfig.n, "spatial dimension"))


def _add_grid(parser: argparse.ArgumentParser) -> None:
    points, r_max, stretch = ScenarioConfig.grid
    _add_defaulted(
        parser,
        ("--grid-points", int, points, "radial grid size"),
        ("--grid-max", float, r_max, "outer radius"),
        ("--stretch", float, stretch, "geometric node ratio in the far field"),
    )


def _add_solver(parser: argparse.ArgumentParser) -> None:
    controls = ScenarioConfig.controls
    _add_defaulted(
        parser,
        ("--tol", float, controls.tol, "solver tolerance"),
        ("--max-iter", int, controls.max_newton, "Newton step budget per continuation stage"),
        ("--continuation", int, controls.continuation_steps, "continuation stages for hard profiles"),
    )


def _add_sampling(parser: argparse.ArgumentParser) -> None:
    _add_defaulted(
        parser,
        ("--points", int, ScenarioConfig.points, "Cartesian sample points"),
        ("--h", float, ScenarioConfig.h, "stencil step for residuals"),
    )


def _add_report(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="also write the JSON report to this path")


def _add_csv_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("csv", help="solution bundle written by --profiles")


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InvalidArgumentError instead of exiting, so they
    end in the same failure record as every other invalid argument."""

    def error(self, message):
        raise InvalidArgumentError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vacuumdata",
        description="Build, solve, and verify conformally flat vacuum initial data.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ss = sub.add_parser(
        "smooth-schwarzschild",
        help="negative-mass exterior glued to a smooth interior",
    )
    _add_dimension(ss)
    ss.add_argument("--m", type=float, help="mass parameter, must be positive")
    _add_grid(ss)
    _add_sampling(ss)
    _add_report(ss)
    ss.add_argument("--profiles", help="write the solution bundle CSV to this path")

    ft = sub.add_parser(
        "free-tau", help="solve the constraints for a prescribed mean curvature"
    )
    _add_dimension(ft)
    ft.add_argument("--c", type=float, help="mean-curvature amplitude, must be positive")
    ft.add_argument("--q", type=float, help="mean-curvature tail exponent")
    _add_grid(ft)
    _add_solver(ft)
    _add_sampling(ft)
    _add_report(ft)
    ft.add_argument("--profiles", help="write the solution bundle CSV to this path")

    vf = sub.add_parser("verify", help="re-check a solution bundle CSV")
    _add_csv_input(vf)
    _add_dimension(vf)
    _add_sampling(vf)
    _add_report(vf)

    ms = sub.add_parser("mass", help="estimate the mass of a solution bundle CSV")
    _add_csv_input(ms)
    _add_dimension(ms)
    _add_report(ms)

    dc = sub.add_parser("decay", help="fit decay exponents of a solution bundle CSV")
    _add_csv_input(dc)
    _add_dimension(dc)
    _add_report(dc)

    return parser


def _config_from_args(args: argparse.Namespace) -> ScenarioConfig:
    """Fields a subcommand has no option for keep their dataclass default."""
    given = {_FIELDS.get(name, name): value for name, value in vars(args).items()}

    def fields_of(cls) -> dict:
        return {f.name: given[f.name] for f in dataclasses.fields(cls) if f.name in given}

    config = fields_of(ScenarioConfig)
    if _GRID_OPTIONS[0] in given:
        config["grid"] = tuple(given[name] for name in _GRID_OPTIONS)
    return ScenarioConfig(controls=SolveControls(**fields_of(SolveControls)), **config)


def _emit_failure(exc: Exception, out_path: str | None) -> int:
    code = getattr(exc, "code", "invalid-argument")
    text = render_report({"error": {"type": code, "message": str(exc)}})
    try:
        sys.stdout.write(text)
        if out_path:
            _write_text(out_path, text)
    except OSError:
        pass
    return 2 if isinstance(exc, (ValueError, OSError, MemoryError)) else 1


def main(argv: list[str] | None = None) -> int:
    args = None
    try:
        args = _build_parser().parse_args(argv)
        config = _config_from_args(args)
    except VacuumDataError as exc:
        return _emit_failure(exc, getattr(args, "out", None))
    try:
        report = run(config)
    except (VacuumDataError, OSError, MemoryError) as exc:
        # MemoryError: a size option asked for more memory than the host has
        return _emit_failure(exc, config.out_json)
    text = render_report(report)
    if config.out_json:
        try:
            _write_text(config.out_json, text)
        except OSError as exc:
            return _emit_failure(exc, None)
    sys.stdout.write(text)
    return _exit_status(report)


if __name__ == "__main__":
    sys.exit(main())
