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
input (out-of-range arithmetic included).  Failures print ``{"error":
{"type": ..., "message": ...}}`` with the machine code of the exception.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from collections.abc import Callable

import numpy as np

from .conformal import (
    ConformalSolution,
    InitialData,
    _identity_residual,
    assemble_initial_data,
    build_solution,
    momentum_potential,
    read_solution_csv,
    tau_from_phi,
    write_solution_csv,
)
from .errors import DegenerateFitError, InvalidArgumentError, SchemaError, VacuumDataError
from .radial import Dimension, RadialProfile, build_grid
from .solver import SolveControls, fixed_point_solve, smooth_schwarzschild_phi
from .verify import (
    _RESIDUAL_STEP,
    _SAMPLE_COUNT,
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

_SURFACE_FRACTIONS = (0.1, 0.2, 0.4)

# dimensions at which mass and decay try a bundle that fails the identity
_PROBED_DIMENSIONS = range(3, 11)


@dataclasses.dataclass(frozen=True)
class ScenarioConfig:
    """One front-end invocation: the scenario to run and its knobs.

    ``grid_points``, ``r_max`` and ``stretch`` shape the radial grid,
    ``tol`` and ``max_newton`` drive the nonlinear solver (free-tau
    only), and ``points``/``h`` fix the Cartesian verification sample.
    The solver fields are checked first, by SolveControls, then the
    command specific requirements (m for smooth-schwarzschild; c and q
    inside the admissible range for free-tau; an input CSV for the
    read-only commands), so the front end can emit a uniform
    machine-readable failure record.
    """

    command: str
    n: int = 3
    m: float | None = None
    c: float | None = None
    q: float | None = None
    grid_points: int = 4000
    r_max: float = 1.0e4
    stretch: float = 1.01
    tol: float = SolveControls.tol
    max_newton: int = SolveControls.max_newton
    points: int = _SAMPLE_COUNT
    h: float = _RESIDUAL_STEP
    csv_path: str | None = None
    out_json: str | None = None
    out_csv: str | None = None

    def __post_init__(self):
        SolveControls(self.tol, self.max_newton)
        if self.command not in _COMMAND_TABLE:
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
        if _COMMAND_TABLE[self.command].reads_bundle and self.csv_path is None:
            raise InvalidArgumentError(f"{self.command} requires an input CSV bundle")
        if isinstance(self.points, bool) or not isinstance(self.points, (int, np.integer)):
            raise InvalidArgumentError(f"points must be an integer, got {self.points!r}")
        if self.points < 1:
            raise InvalidArgumentError(f"points must be at least 1, got {self.points!r}")
        if not self.h > 0:
            raise InvalidArgumentError(f"h must be positive, got {self.h!r}")
        # as verify.momentum_residual checks, but before the grid is built
        if not _COMMAND_TABLE[self.command].reads_bundle and self.h >= self.r_max:
            raise InvalidArgumentError(f"h must lie in (0, r_max {self.r_max:g}), got {self.h!r}")

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
    refined: InitialData | None = None,
) -> dict:
    report = constraint_report(data, default_sample_points(data.dim, config.points), config.h, refined)
    return {
        "hamiltonian_sup": report.hamiltonian_sup,
        "momentum_sup": report.momentum_sup,
        "order": report.convergence_order,
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
    except DegenerateFitError:
        return {"tau": None, "metric": None, "k": None}
    return {
        "tau": report.tau_exponent,
        "metric": report.metric_exponent,
        "k": report.k_exponent,
    }


_REPORT_KEYS = ("scenario", "n", "params", "mass", "residuals", "decay", "checks", "iterations")


def _report(
    config: ScenarioConfig, mass=None, residuals=None, decay=None, checks=None, iterations=0
) -> dict:
    """The report skeleton of every command; blocks it does not produce are null."""
    params = _COMMAND_TABLE[config.command].params(config)
    values = (config.command, config.n, params, mass, residuals, decay, checks, iterations)
    return dict(zip(_REPORT_KEYS, values))


def _solution_report(
    config: ScenarioConfig, sol: ConformalSolution, iterations: int, refined: InitialData | None = None
) -> dict:
    data = assemble_initial_data(sol)
    report = _report(
        config,
        mass=_mass_block(config.dim, sol, data),
        residuals=_residuals_block(config, data, refined),
        decay=_decay_block(data),
        checks=_checks_block(sol),
        iterations=iterations,
    )
    if config.out_csv:
        write_solution_csv(sol, config.out_csv)
    return report


def _cmd_smooth_schwarzschild(config: ScenarioConfig) -> dict:
    dim = config.dim
    grid = build_grid(config.grid_points, config.r_max, config.stretch)
    sol = build_solution(dim, smooth_schwarzschild_phi(dim, config.m, grid))
    # The closed-form construction is cheap, so the report includes the
    # 2x-refinement convergence order of the constraint residuals.
    fine = build_grid(2 * config.grid_points, config.r_max, config.stretch)
    phi = smooth_schwarzschild_phi(dim, config.m, fine)
    tau = tau_from_phi(dim, phi)
    refined = InitialData(dim, phi, tau, momentum_potential(dim, phi, tau))
    return _solution_report(config, sol, iterations=0, refined=refined)


def _classification(mass: dict) -> str:
    if mass["diverges"]:
        return "negative-infinite"
    standard = mass["standard"]
    if abs(standard) < ZERO_MASS_GATE:
        return "zero"
    return "negative" if standard < 0 else "positive"


def _cmd_free_tau(config: ScenarioConfig) -> dict:
    dim = config.dim
    grid = build_grid(config.grid_points, config.r_max, config.stretch)
    seed = config.c * (1.0 + grid.nodes**2) ** (-config.q / 2.0)
    controls = SolveControls(config.tol, config.max_newton)
    sol, trace = fixed_point_solve(dim, RadialProfile(grid, seed), controls)
    report = _solution_report(config, sol, iterations=len(trace.outer_iterates))
    report["classification"] = _classification(report["mass"])
    return report


def _cmd_verify(config: ScenarioConfig) -> dict:
    sol = read_solution_csv(config.csv_path, config.dim)
    return _report(
        config,
        residuals=_residuals_block(config, assemble_initial_data(sol)),
        checks=_checks_block(sol),
    )


def _read_bundle_at_n(config: ScenarioConfig) -> ConformalSolution:
    """The bundle read at ``config.n``, refused unless it passes the
    mean-curvature identity there.  A bundle does not record its
    dimension, and one read at another n fails the identity by orders of
    magnitude while its mass may even change sign; a refusal names the
    dimensions in _PROBED_DIMENSIONS at which the bundle does pass."""
    sol = read_solution_csv(config.csv_path, config.dim)
    try:
        residual = _identity_residual(config.dim, sol.phi, sol.tau)
    except VacuumDataError:
        residual = math.inf
    if not residual < IDENTITY_GATE:
        passes = [n for n in _PROBED_DIMENSIONS if n != config.n and _passes_identity(Dimension(n), sol)]
        if passes:
            hint = f" but passes it at n={', '.join(map(str, passes))}; was it written with --n {passes[0]}?"
        else:
            hint = f" and at every other n from {_PROBED_DIMENSIONS[0]} to {_PROBED_DIMENSIONS[-1]}"
        raise SchemaError(
            f"bundle fails the mean-curvature identity at n={config.n} (residual {residual:.3g}){hint}"
        )
    return sol


def _passes_identity(dim: Dimension, sol: ConformalSolution) -> bool:
    """Whether the bundle passes the mean-curvature identity read at
    ``dim``; a probe that raises does not."""
    try:
        return _identity_residual(dim, sol.phi, sol.tau) < IDENTITY_GATE
    except (VacuumDataError, ArithmeticError):
        return False


def _cmd_mass(config: ScenarioConfig) -> dict:
    sol = _read_bundle_at_n(config)
    return _report(config, mass=_mass_block(config.dim, sol, assemble_initial_data(sol)))


def _cmd_decay(config: ScenarioConfig) -> dict:
    sol = _read_bundle_at_n(config)
    return _report(config, decay=_decay_block(assemble_initial_data(sol)))


def run(config: ScenarioConfig) -> dict:
    """Execute one scenario and return its report dict.

    Writes the CSV profile bundle when the config asks for one.  Raises
    VacuumDataError subclasses on invalid input or solver breakdown;
    the caller maps those to exit codes.
    """
    return _COMMAND_TABLE[config.command].handler(config)


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


@dataclasses.dataclass(frozen=True)
class _Option:
    """One command-line option, or a positional when ``flag`` has no dashes.

    It fills the ScenarioConfig field ``dest`` and defaults to the
    field's default, which --help shows unless it is None.  ``name``
    keys its value in the report's params block.
    """

    flag: str
    dest: str
    help: str
    kind: type | None = None

    @property
    def name(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        if not self.flag.startswith("-"):
            parser.add_argument(self.dest, metavar=self.flag, help=self.help)
            return
        default = getattr(ScenarioConfig, self.dest)
        text = self.help if default is None else f"{self.help} (default {default:g})"
        parser.add_argument(
            self.flag, dest=self.dest, type=self.kind, default=default, metavar=self.name.upper(), help=text
        )


@dataclasses.dataclass(frozen=True)
class _Command:
    """One subcommand: its --help line, its handler and its own options.

    Every command also takes --n and --out, and either the path of the
    bundle it reads or --profiles to write one.
    """

    help: str
    handler: Callable[[ScenarioConfig], dict]
    options: tuple[_Option, ...] = ()
    reads_bundle: bool = False

    def all_options(self) -> tuple[_Option, ...]:
        return (_DIMENSION, *self.options, _REPORT_OUT, _BUNDLE_IN if self.reads_bundle else _BUNDLE_OUT)

    def params(self, config: ScenarioConfig) -> dict:
        """The report's params block: the value of each option but --n,
        --out and --profiles; the grid options make up one ``grid`` block."""
        params = {}
        for option in ((_BUNDLE_IN,) if self.reads_bundle else ()) + self.options:
            if option == _GRID[0]:
                params["grid"] = {"points": config.grid_points, "r_max": config.r_max, "stretch": config.stretch}
            elif option not in _GRID:
                params[option.name] = getattr(config, option.dest)
        return params


_DIMENSION = _Option("--n", "n", "spatial dimension", int)
_REPORT_OUT = _Option("--out", "out_json", "also write the JSON report to this path")
_BUNDLE_IN = _Option("csv", "csv_path", "solution bundle written by --profiles")
_BUNDLE_OUT = _Option("--profiles", "out_csv", "write the solution bundle CSV to this path")
_GRID = (
    _Option("--grid-points", "grid_points", "radial grid size", int),
    _Option("--grid-max", "r_max", "outer radius", float),
    _Option("--stretch", "stretch", "geometric node ratio in the far field", float),
)
_SAMPLING = (
    _Option("--points", "points", "Cartesian sample points", int),
    _Option("--h", "h", "stencil step for residuals", float),
)

_COMMAND_TABLE = {
    "smooth-schwarzschild": _Command(
        "negative-mass exterior glued to a smooth interior",
        _cmd_smooth_schwarzschild,
        (_Option("--m", "m", "mass parameter, must be positive", float), *_GRID, *_SAMPLING),
    ),
    "free-tau": _Command(
        "solve the constraints for a prescribed mean curvature",
        _cmd_free_tau,
        (
            _Option("--c", "c", "mean-curvature amplitude, must be positive", float),
            _Option("--q", "q", "mean-curvature tail exponent", float),
            *_GRID,
            _Option("--tol", "tol", "solver tolerance", float),
            _Option("--max-iter", "max_newton", "Newton step budget", int),
            *_SAMPLING,
        ),
    ),
    "verify": _Command("re-check a solution bundle CSV", _cmd_verify, _SAMPLING, reads_bundle=True),
    "mass": _Command("estimate the mass of a solution bundle CSV", _cmd_mass, reads_bundle=True),
    "decay": _Command("fit decay exponents of a solution bundle CSV", _cmd_decay, reads_bundle=True),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InvalidArgumentError instead of exiting, so they
    end in the same failure record as every other invalid argument."""

    def error(self, message):
        raise InvalidArgumentError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  Parsing leaves no state in
    it: each subcommand parses into a fresh namespace."""
    parser = _Parser(
        prog="vacuumdata",
        description="Build, solve, and verify conformally flat vacuum initial data.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMAND_TABLE.items():
        sub_parser = sub.add_parser(name, help=command.help)
        for option in command.all_options():
            option.add_to(sub_parser)
    return parser


def _config_from_args(args: argparse.Namespace) -> ScenarioConfig:
    """Fields a subcommand has no option for keep their dataclass default."""
    return ScenarioConfig(**vars(args))


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
        return _emit_failure(exc, getattr(args, "out_json", None))
    try:
        # arithmetic that leaves the double range raises instead of warning
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            report = run(config)
    except (VacuumDataError, OSError, MemoryError) as exc:
        # MemoryError: a size option asked for more memory than the host has
        return _emit_failure(exc, config.out_json)
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        failure = InvalidArgumentError(f"arithmetic on the input failed: {exc}")
        return _emit_failure(failure, config.out_json)
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
