"""Spherically symmetric vacuum initial data with prescribed mean curvature."""

from .errors import (
    ConstructionFailedError,
    DegenerateFitError,
    EvaluationOutOfRangeError,
    InvalidArgumentError,
    NegativeRadicandError,
    NoConvergenceError,
    NonpositiveIterateError,
    NotMonotoneError,
    NoTailError,
    ProfileParseError,
    SchemaError,
    SingularSystemError,
    TailTooSlowError,
    VacuumDataError,
)
from .radial import (
    Dimension,
    RadialGrid,
    RadialProfile,
    TailModel,
    build_grid,
    differentiate,
    fit_tail,
    integrate_from_zero,
    integrate_to_infinity,
    read_profile_csv,
    write_profile_csv,
)
from .conformal import (
    ConformalSolution,
    InitialData,
    assemble_initial_data,
    build_solution,
    divergence_source,
    lichnerowicz_residual,
    lw_norm,
    momentum_potential,
    read_solution_csv,
    tau_from_phi,
    vector_potential,
    write_solution_csv,
)
from .solver import (
    SolveControls,
    SolveTrace,
    fixed_point_solve,
    smooth_schwarzschild_phi,
    solve_lichnerowicz,
    solve_radial_helmholtz,
)
from .verify import (
    DecayReport,
    MassReport,
    ResidualReport,
    SolutionChecks,
    adm_mass_radial,
    adm_mass_surface,
    check_solution,
    constraint_report,
    decay_exponents,
    default_sample_points,
    hamiltonian_residual,
    momentum_residual,
    tail_limit_check,
)

__version__ = "0.1.0"

# The CLI exports load on first use (PEP 562): importing ``cli`` here would
# make ``python -m vacuumdata.cli`` warn that runpy found it in sys.modules.
_CLI_EXPORTS = ("ScenarioConfig", "render_report", "run")


def __getattr__(name):
    if name in _CLI_EXPORTS:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
