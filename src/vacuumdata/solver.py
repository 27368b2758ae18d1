"""Radial elliptic solvers and the fixed-point construction.

Three layers: a linear Helmholtz solve on [0, r_max] with a regularity
row at the origin and an asymptotic Robin row at r_max; a damped Newton
iteration for the radial Lichnerowicz equation

    -(4(n-1)/(n-2)) (phi'' + (n-1) phi'/r)
        + ((n-1)/n) tau^2 phi^{N-1} - |LW|^2 phi^{-N-1} = 0

at fixed (tau, |LW|); and a Picard loop that alternates the closed-form
potential updates with Lichnerowicz solves until the conformal factor is
self-consistent.  All operators act on u = phi - 1 so that the flat
solution is reproduced bitwise.

The Helmholtz operator is kept as the 7-point stencil rows of the grid's
derivative weights.  Its matrix is banded (at most six diagonals on each
side of the main one), so every linear solve is one banded LU.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.linalg

from .conformal import (
    ConformalSolution,
    _identity_residual,
    _monotonicity_margin,
    build_solution,
    lw_norm,
    momentum_potential,
)
from .errors import (
    ConstructionFailedError,
    InvalidArgumentError,
    NoConvergenceError,
    NonpositiveIterateError,
    NotMonotoneError,
    SingularSystemError,
)
from .radial import Dimension, RadialGrid, RadialProfile, _apply_window, _window_starts

__all__ = [
    "SolveControls",
    "SolveTrace",
    "solve_radial_helmholtz",
    "solve_lichnerowicz",
    "fixed_point_solve",
    "smooth_schwarzschild_phi",
]


@dataclasses.dataclass(frozen=True)
class SolveControls:
    """Iteration budget and damping for the nonlinear solvers."""

    tol: float = 1e-10
    max_outer: int = 200
    max_newton: int = 40
    damping: float = 0.7
    continuation_steps: int = 1

    def __post_init__(self):
        if not self.tol > 0:
            raise InvalidArgumentError(f"tol must be positive, got {self.tol!r}")
        if self.max_outer < 1 or self.max_newton < 1:
            raise InvalidArgumentError("iteration limits must be at least 1")
        if not 0.0 < self.damping <= 1.0:
            raise InvalidArgumentError(f"damping must lie in (0, 1], got {self.damping!r}")
        if self.continuation_steps < 1:
            raise InvalidArgumentError("continuation_steps must be at least 1")


@dataclasses.dataclass
class SolveTrace:
    """Convergence history of one fixed_point_solve run.

    ``bounded`` records whether every Picard iterate stayed below
    1 + tol in sup norm, as fixed points with phi increasing to 1 must.
    """

    outer_iterates: list[float] = dataclasses.field(default_factory=list)
    newton_residuals: list[float] = dataclasses.field(default_factory=list)
    converged: bool = False
    final_identity_residual: float = float("nan")
    bounded: bool = True


def _helmholtz_rows(n: int, grid: RadialGrid, v_values: np.ndarray) -> np.ndarray:
    """Stencil rows of u'' + (n-1) u'/r - V u, in the windowed layout of
    ``RadialGrid.derivative_matrix``.

    Row 0 holds the regular limit n u''(0); the last row is replaced by
    the Robin functional u' + (n-2) u / r at r_max (decaying far field).
    """
    d1 = grid.derivative_matrix(1)
    d2 = grid.derivative_matrix(2)
    npts, width = d1.shape
    scale = np.ones(npts)
    scale[0] = float(n)
    coupling = np.zeros(npts)
    coupling[1:] = (n - 1.0) / grid.nodes[1:]
    rows = scale[:, None] * d2 + coupling[:, None] * d1
    rows[np.arange(npts), np.arange(npts) - _window_starts(npts, width)] -= v_values
    rows[-1] = d1[-1]
    rows[-1, -1] += float(n - 2) / grid.r_max
    return rows


def _solve(rows: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the system with the given stencil rows by one banded LU."""
    npts, width = rows.shape
    columns = _window_starts(npts, width)[:, None] + np.arange(width)
    band = np.zeros((2 * width - 1, npts))
    band[width - 1 + np.arange(npts)[:, None] - columns, columns] = rows
    try:
        solution = scipy.linalg.solve_banded((width - 1, width - 1), band, rhs, check_finite=False)
    except np.linalg.LinAlgError:
        raise SingularSystemError("radial system is singular or ill-posed") from None
    if not np.all(np.isfinite(solution)):
        raise SingularSystemError("radial system is singular or ill-posed")
    return solution


def solve_radial_helmholtz(dim: Dimension, V: RadialProfile, rhs: RadialProfile) -> RadialProfile:
    """Solve u'' + (n-1)u'/r - V u = rhs with u'(0) = 0 and a decaying
    far field imposed through the Robin condition u' + (n-2)u/r = 0 at
    r_max."""
    if V.grid is not rhs.grid:
        raise InvalidArgumentError("V and rhs must share one grid")
    if np.any(V.values < 0):
        raise InvalidArgumentError("potential V must be nonnegative")
    grid = V.grid
    b = rhs.values.copy()
    b[-1] = 0.0
    return RadialProfile(grid, _solve(_helmholtz_rows(dim.n, grid, V.values), b))


def _lichnerowicz_newton(
    dim: Dimension,
    grid: RadialGrid,
    tau_sq: np.ndarray,
    lw_sq: np.ndarray,
    controls: SolveControls,
    start: np.ndarray,
):
    """Newton iteration on u = phi - 1 for the full discrete residual,
    including the Robin row.  Returns (phi values, residual history)."""
    n = dim.n
    nf = float(dim.N)
    a = 4.0 * (n - 1.0) / (n - 2.0)
    operator = _helmholtz_rows(n, grid, np.zeros(len(grid)))
    weight = (n - 1.0) / n

    phi = start.copy()
    residuals: list[float] = []

    def residual(p: np.ndarray) -> np.ndarray:
        u = p - 1.0
        applied = _apply_window(operator, u)
        out = -a * applied + weight * tau_sq * p ** (nf - 1.0) - lw_sq * p ** (-nf - 1.0)
        out[-1] = applied[-1]
        return out

    for _ in range(controls.max_newton):
        f = residual(phi)
        residuals.append(float(np.max(np.abs(f))))
        # Frechet diagonal; nonnegative for phi > 0
        v_hat = (nf - 1.0) * weight * tau_sq * phi ** (nf - 2.0) + (
            nf + 1.0
        ) * lw_sq * phi ** (-nf - 2.0)
        b = f / a
        b[-1] = -f[-1]
        delta = _solve(_helmholtz_rows(n, grid, v_hat / a), b)
        step = 1.0
        for _ in range(60):
            if np.all(phi + step * delta > 0.0):
                break
            step *= 0.5
        else:
            raise NonpositiveIterateError("Newton step cannot keep the factor positive")
        phi = phi + step * delta
        if np.max(np.abs(step * delta)) <= controls.tol * max(1.0, np.max(np.abs(phi))):
            residuals.append(float(np.max(np.abs(residual(phi)))))
            return phi, residuals
    raise NoConvergenceError(
        f"Newton stalled after {controls.max_newton} steps (last residual {residuals[-1]:.3e})"
    )


def solve_lichnerowicz(
    dim: Dimension,
    tau: RadialProfile,
    lw: RadialProfile,
    controls: SolveControls | None = None,
    phi0: RadialProfile | None = None,
) -> RadialProfile:
    """Solve the radial Lichnerowicz equation for phi at fixed (tau, |LW|).

    Newton steps solve radial Helmholtz problems whose potential is the
    Frechet diagonal (N-1)(n-1)/n tau^2 phi^{N-2} + (N+1)|LW|^2 phi^{-N-2};
    the default initial guess is phi == 1.
    """
    if tau.grid is not lw.grid:
        raise InvalidArgumentError("tau and lw must share one grid")
    controls = controls if controls is not None else SolveControls()
    grid = tau.grid
    start = np.ones(len(grid)) if phi0 is None else phi0.values.copy()
    if np.any(start <= 0):
        raise InvalidArgumentError("initial guess must be positive")
    phi, _ = _lichnerowicz_newton(dim, grid, tau.values**2, lw.values**2, controls, start)
    return RadialProfile(grid, phi)


def fixed_point_solve(
    dim: Dimension, tau: RadialProfile, controls: SolveControls | None = None
) -> tuple[ConformalSolution, SolveTrace]:
    """Picard iteration for a freely specified mean curvature profile.

    Starting from phi == 1, alternate the closed-form potential update
    (A, |LW|) with a Lichnerowicz solve, applying the damped update
    phi <- phi + d (phi_new - phi).  With continuation, earlier stages
    solve for the scaled field t^N tau, warm-starting the next stage.
    """
    controls = controls if controls is not None else SolveControls()
    grid = tau.grid
    nf = float(dim.N)
    trace = SolveTrace()
    flat_tau = not np.any(tau.values)

    phi = RadialProfile(grid, np.ones(len(grid)))
    for stage in range(1, controls.continuation_steps + 1):
        t = stage / controls.continuation_steps
        stage_tau = tau if t == 1.0 else RadialProfile(grid, t**nf * tau.values)
        stage_tau_sq = stage_tau.values**2
        converged = False
        for _ in range(controls.max_outer):
            lw = lw_norm(dim, momentum_potential(dim, phi, stage_tau))
            phi_new, newton_res = _lichnerowicz_newton(
                dim, grid, stage_tau_sq, lw.values**2, controls, phi.values
            )
            trace.newton_residuals.extend(newton_res)
            update = controls.damping * (phi_new - phi.values)
            phi = RadialProfile(grid, phi.values + update)
            rel = float(np.max(np.abs(update)) / np.max(np.abs(phi.values)))
            trace.outer_iterates.append(rel)
            if not flat_tau and np.max(phi.values) > 1.0 + controls.tol:
                trace.bounded = False
            if rel < controls.tol:
                converged = True
                break
        if not converged:
            raise NoConvergenceError(
                f"Picard iteration exhausted {controls.max_outer} updates at t={t:g} "
                f"(last relative update {trace.outer_iterates[-1]:.3e})"
            )
    trace.converged = True

    mono_min, mono_tol = _monotonicity_margin(dim, phi)
    if mono_min < -mono_tol:
        raise NotMonotoneError("converged factor violates the monotonicity condition")
    trace.final_identity_residual = _identity_residual(dim, phi, tau)
    return build_solution(dim, phi, tau), trace


def smooth_schwarzschild_phi(dim: Dimension, m: float, grid: RadialGrid) -> RadialProfile:
    """Conformal factor of negative-mass Schwarzschild, smoothed inside.

    For r >= R = m^{1/(n-2)} the values are the exact closed form
    1 - (m/2) r^{2-n}.  On [0, R] the factor is a polynomial in
    x = (r/R)^2 whose value and first four derivatives match the
    exterior at R; the high-order contact keeps the derived mean
    curvature twice differentiable across R, so downstream quadratures
    see no kink.  The derivative is x^j (A + b1(1-x) + b2(1-x)^2 +
    b3(1-x)^3) with j raised until the factor is both monotone and
    positive at the origin.
    """
    if not m > 0:
        raise InvalidArgumentError(f"mass parameter must be positive, got {m!r}")
    n = dim.n
    p = (n - 2) / 2.0
    radius = m ** (1.0 / (n - 2))
    if radius >= grid.r_max:
        raise InvalidArgumentError(
            f"matching radius {radius:g} must sit inside the grid (r_max {grid.r_max:g})"
        )
    r = grid.nodes
    exterior = r >= radius

    values = np.empty(len(grid))
    values[exterior] = 1.0 - (m / 2.0) * r[exterior] ** (2.0 - n)

    # exterior derivatives at the matching point, in x = (r/R)^2
    slope = p / 2.0
    e2 = -p * (p + 1.0) / 2.0
    e3 = p * (p + 1.0) * (p + 2.0) / 2.0
    e4 = -p * (p + 1.0) * (p + 2.0) * (p + 3.0) / 2.0
    probe = np.linspace(0.0, 1.0, 513)
    for j in range(2, 65):
        b1 = j * slope - e2
        b2 = (e3 - j * (j - 1) * slope + 2 * j * b1) / 2.0
        b3 = (j * (j - 1) * (j - 2) * slope - 3 * j * (j - 1) * b1 + 6 * j * b2 - e4) / 6.0
        coeff = np.array(
            [slope + b1 + b2 + b3, -(b1 + 2 * b2 + 3 * b3), b2 + 3 * b3, -b3]
        )
        mass_deficit = sum(c / (j + k + 1) for k, c in enumerate(coeff))
        bracket = coeff[0] + probe * (coeff[1] + probe * (coeff[2] + probe * coeff[3]))
        if mass_deficit <= 0.45 and np.all(bracket >= 0.0):
            break
    else:
        raise ConstructionFailedError(
            f"no monotone positive interior interpolant for n={n}"
        )

    x = (r[~exterior] / radius) ** 2
    interior = np.full(x.shape, 0.5)
    for k, c in enumerate(coeff):
        interior -= c * (1.0 - x ** (j + k + 1)) / (j + k + 1)
    values[~exterior] = interior
    return RadialProfile(grid, values)
