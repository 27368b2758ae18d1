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
)
from .conformal import (
    ConformalSolution,
    InitialData,
    assemble_initial_data,
    build_solution,
    divergence_source,
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
