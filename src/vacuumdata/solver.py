"""Radial elliptic solvers and the free-tau construction.

Two solvers, both acting on u = phi - 1 so that the flat solution is
reproduced bitwise, and both built on the radial Helmholtz operator on
[0, r_max], with a regularity row at the origin and a Robin row at r_max:
Newton for the radial Lichnerowicz equation at fixed (tau, |LW|),

    -(4(n-1)/(n-2)) (phi'' + (n-1) phi'/r)
        + ((n-1)/n) tau^2 phi^{N-1} - |LW|^2 phi^{-N-1} = 0;

and the free-tau solve, Newton on those rows with |LW|^2 = ((n-1)/n)
A^2 / r^{2n}, coupled to the first differences of the quadrature of
A(r) = int_0^r s^n phi^N tau' ds with the grid's interval weights w:

    A_0 = 0,    A_i - A_{i-1} = sum_k w[i-1, k] (r^n phi^N tau')[idx[i-1, k]].

Every matrix is banded and solved by one LAPACK gbsv.  The free-tau
unknowns (phi_i, A_i) are interleaved, and so are their equations but for
the last three node pairs: their three phi rows (the Robin row last) come
before their three A rows.  Those phi rows reach six, five and four nodes
inward; placed earlier, they fit a band of kl = 10 diagonals below the
main one, and the interior rows need ku = 6 above it (the band is read
off the stencils' nonzero pattern).  The Helmholtz band is (6, 6).  Fixed
band entries are cached on the grid per dimension; a Newton step copies
them and writes the iterate-dependent ones.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .conformal import ConformalSolution, _identity_residual, _monotonicity_margin, build_solution
from .errors import (
    ConstructionFailedError,
    InvalidArgumentError,
    NoConvergenceError,
    NonpositiveIterateError,
    NotMonotoneError,
    SingularSystemError,
)
from .radial import Dimension, RadialGrid, RadialProfile, _apply_window, _slot_major, differentiate

__all__ = [
    "SolveControls",
    "SolveTrace",
    "solve_lichnerowicz",
    "fixed_point_solve",
    "smooth_schwarzschild_phi",
]


@dataclasses.dataclass(frozen=True)
class SolveControls:
    """Tolerance, Newton step budget per continuation stage, and the
    number of continuation stages of the nonlinear solvers."""

    tol: float = 1e-10
    max_newton: int = 40
    continuation_steps: int = 1

    def __post_init__(self):
        if not (self.tol > 0 and np.isfinite(self.tol)):
            raise InvalidArgumentError(f"tol must be finite and positive, got {self.tol!r}")
        if self.max_newton < 1:
            raise InvalidArgumentError("iteration limits must be at least 1")
        if self.continuation_steps < 1:
            raise InvalidArgumentError("continuation_steps must be at least 1")


@dataclasses.dataclass
class SolveTrace:
    """Convergence history of one fixed_point_solve run.

    ``outer_iterates`` holds the relative phi step of every Newton step;
    ``newton_residuals`` the residual sup norm before every step and at
    the converged iterate of each continuation stage.
    """

    outer_iterates: list[float] = dataclasses.field(default_factory=list)
    newton_residuals: list[float] = dataclasses.field(default_factory=list)
    converged: bool = False
    final_identity_residual: float = float("nan")


@dataclasses.dataclass(frozen=True)
class _HelmholtzOperator:
    """Zero-potential system of u'' + (n-1) u'/r - V u on one grid, read-only.

    ``rows`` are stencil rows in the windowed layout of
    ``RadialGrid.derivative_matrix``: row 0 holds the regular limit
    n u''(0) and the last row the Robin functional u' + (n-2) u / r at
    r_max (decaying far field).  The Lichnerowicz residual applies them,
    and so do the phi rows of the free-tau Jacobian.  ``band`` is the
    same matrix as a gbsv layout with ``kl`` diagonals on each side (see
    ``_solve``); each Lichnerowicz Newton step solves it with V the
    step's Frechet diagonal.
    """

    rows: np.ndarray
    band: np.ndarray
    kl: int

    def band_with_potential(self, v_values: np.ndarray, work: np.ndarray):
        """The band minus V on the diagonal, written into the gbsv layout
        ``work``.  The Robin entry stays fixed."""
        np.copyto(work, self.band)
        diag = 2 * self.kl
        np.subtract(self.band[diag, :-1], v_values[:-1], out=work[diag, :-1])
        return work


@dataclasses.dataclass(frozen=True)
class _CoupledOperator:
    """Fixed entries of the free-tau Jacobian on one grid.

    Unknown 2i is phi_i and 2i + 1 is A_i.  Equation rows follow the same
    order but for the last three node pairs, whose phi rows come first:
    ``phi_rows[i]`` and ``a_rows[i]`` are the layout rows of the phi and A
    equations of node i.  ``band`` (a read-only gbsv layout with ``kl``
    diagonals below the main one) holds the -4(n-1)/(n-2) Helmholtz
    stencil rows of phi, the Robin row unscaled, and the +-1 of the A
    rows.  The other fields index what a Newton step writes: ``diag`` the
    phi diagonal but the Robin entry, ``coupling`` d(phi row i)/dA_i for
    0 < i < npts - 1, and ``quad`` d(A row i)/d(phi at idx[i-1]) for
    i >= 1.
    """

    band: np.ndarray
    kl: int
    phi_rows: np.ndarray
    a_rows: np.ndarray
    diag: tuple
    coupling: tuple
    quad: tuple


def _band_layout(kl: int, ku: int, size: int, *entries) -> np.ndarray:
    """Read-only gbsv layout of ``kl`` diagonals below the main one and
    ``ku`` above, holding the (rows, columns, values) of ``entries``."""
    band = np.zeros((2 * kl + ku + 1, size), order="F")
    for rows, columns, values in entries:
        band[kl + ku + rows - columns, columns] = values
    band.setflags(write=False)
    return band


def _helmholtz_operator(n: int, grid: RadialGrid) -> _HelmholtzOperator:
    """The grid's cached Helmholtz operator for dimension n."""

    def build():
        d1 = grid.derivative_matrix(1)
        d2 = grid.derivative_matrix(2)
        npts, width = d1.shape
        scale = np.ones(npts)
        scale[0] = float(n)
        coupling = np.zeros(npts)
        coupling[1:] = (n - 1.0) / grid.nodes[1:]
        rows = scale[:, None] * d2 + coupling[:, None] * d1
        rows[-1] = d1[-1]
        rows[-1, -1] += float(n - 2) / grid.r_max
        columns = grid._window_index(width).T
        band = _band_layout(width - 1, width - 1, npts, (np.arange(npts)[:, None], columns, rows))
        return _HelmholtzOperator(_slot_major(rows), band, width - 1)

    return grid._cached(("helmholtz", n), build)


def _coupled_operator(n: int, grid: RadialGrid) -> _CoupledOperator:
    """The grid's cached free-tau Jacobian entries for dimension n."""

    def build():
        rows = _helmholtz_operator(n, grid).rows
        npts, width = rows.shape
        phi = 2 * np.arange(npts)
        # layout row of each equation (see the module docstring)
        place = np.arange(2 * npts)
        place[-6:] = 2 * npts + np.array([-6, -3, -5, -2, -4, -1])
        place.setflags(write=False)
        phi_rows, a_rows = place[0::2], place[1::2]
        scale = np.full((npts, 1), -_laplacian_weight(n))
        scale[-1] = 1.0
        values = scale * rows
        node, slot = np.nonzero(values)
        stencil = (phi_rows[node], 2 * grid._window_index(width)[slot, node], values[node, slot])
        ones = (a_rows, phi + 1, 1.0)
        minus_ones = (a_rows[1:], phi[:-1] + 1, -1.0)
        diag = (phi_rows[:-1], phi[:-1])
        coupling = (phi_rows[1:-1], phi[1:-1] + 1)
        quad = (a_rows[1:, None], 2 * grid._quadrature()[0])
        offsets = np.concatenate(
            [np.ravel(r - c) for r, c, *_ in (stencil, ones, minus_ones, diag, coupling, quad)]
        )
        kl, ku = int(offsets.max()), int(-offsets.min())
        band = _band_layout(kl, ku, 2 * npts, stencil, ones, minus_ones)

        def at(rows, columns):
            return kl + ku + rows - columns, columns

        return _CoupledOperator(band, kl, phi_rows, a_rows, at(*diag), at(*coupling), at(*quad))

    return grid._cached(("coupled", n), build)


def _solve(layout: np.ndarray, rhs: np.ndarray, kl: int) -> np.ndarray:
    """Solve a banded system by one LAPACK gbsv.

    ``layout`` is gbsv's band storage with ``kl`` diagonals below the main
    one and ku above: 2 kl + ku + 1 rows, the matrix in the last
    kl + ku + 1 in the diagonal-ordered form of ``scipy.linalg.solve_banded``
    with (l, u) = (kl, ku), which gives bitwise the same solution; the
    first kl rows are workspace for the LU fill.  A Fortran-ordered layout
    is overwritten by the LU factors.  SciPy's LAPACK loads here, on the
    first solve, so commands that never solve do not import SciPy.
    """
    from scipy.linalg.lapack import dgbsv

    ku = layout.shape[0] - 1 - 2 * kl
    _, _, solution, info = dgbsv(kl, ku, layout, rhs, overwrite_ab=True)
    if info != 0 or not np.all(np.isfinite(solution)):
        raise SingularSystemError("radial system is singular or ill-posed")
    return solution


def _laplacian_weight(n: int) -> float:
    """The factor 4(n-1)/(n-2) of the radial Laplacian in the Lichnerowicz rows."""
    return 4.0 * (n - 1.0) / (n - 2.0)


def _lichnerowicz_rows(dim: Dimension, grid: RadialGrid, phi, tau_sq, lw_sq):
    """Residual of the discrete Lichnerowicz equation (the Robin row
    last) and its Frechet diagonal, which is nonnegative for phi > 0."""
    n = dim.n
    nf = float(dim.N)
    weight = (n - 1.0) / n
    applied = _apply_window(grid, _helmholtz_operator(n, grid).rows, phi - 1.0)
    out = -_laplacian_weight(n) * applied + weight * tau_sq * phi ** (nf - 1.0) - lw_sq * phi ** (
        -nf - 1.0
    )
    out[-1] = applied[-1]
    v_hat = (nf - 1.0) * weight * tau_sq * phi ** (nf - 2.0) + (
        nf + 1.0
    ) * lw_sq * phi ** (-nf - 2.0)
    return out, v_hat


def _newton(x, stride, linearize, controls, trace):
    """Newton iteration on the unknowns x, of which x[::stride] is phi.

    ``linearize(x)`` returns the residual sup norm and a function that
    assembles and solves the step's banded system; it is not called at
    the converged iterate.  A residual norm that is not finite raises
    SingularSystemError.  A step is halved until phi stays positive;
    the iteration stops once the phi step is at most
    tol * max(1, sup |phi|).  ``trace`` records each step.
    """

    def record_residual(x):
        norm, solve_step = linearize(x)
        if not np.isfinite(norm):
            raise SingularSystemError("radial system overflows: the residual is not finite")
        trace.newton_residuals.append(norm)
        return solve_step

    for _ in range(controls.max_newton):
        delta = record_residual(x)()
        step = 1.0
        for _ in range(60):
            if np.all(x[::stride] + step * delta[::stride] > 0.0):
                break
            step *= 0.5
        else:
            raise NonpositiveIterateError("Newton step cannot keep the factor positive")
        x = x + step * delta
        change = np.max(np.abs(step * delta[::stride]))
        scale = max(1.0, np.max(np.abs(x[::stride])))
        trace.outer_iterates.append(float(change / scale))
        if change <= controls.tol * scale:
            record_residual(x)
            return x
    raise NoConvergenceError(
        f"Newton stalled after {controls.max_newton} steps"
        f" (last residual {trace.newton_residuals[-1]:.3e})"
    )


def solve_lichnerowicz(
    dim: Dimension,
    tau: RadialProfile,
    lw: RadialProfile,
    controls: SolveControls | None = None,
    phi0: RadialProfile | None = None,
) -> RadialProfile:
    """Solve the radial Lichnerowicz equation for phi at fixed (tau, |LW|).

    Newton on the full discrete residual, including the Robin row.  Each
    step solves a radial Helmholtz problem whose potential is the Frechet
    diagonal (N-1)(n-1)/n tau^2 phi^{N-2} + (N+1)|LW|^2 phi^{-N-2}; the
    default initial guess is phi == 1.
    """
    if tau.grid is not lw.grid:
        raise InvalidArgumentError("tau and lw must share one grid")
    grid = tau.grid
    start = np.ones(len(grid)) if phi0 is None else phi0.values.copy()
    if np.any(start <= 0):
        raise InvalidArgumentError("initial guess must be positive")
    a = _laplacian_weight(dim.n)
    operator = _helmholtz_operator(dim.n, grid)
    work = np.empty_like(operator.band)

    def linearize(phi):
        f, v_hat = _lichnerowicz_rows(dim, grid, phi, tau_sq, lw_sq)

        def solve_step():
            b = f / a
            b[-1] = -f[-1]
            return _solve(operator.band_with_potential(v_hat / a, work), b, operator.kl)

        return float(np.max(np.abs(f))), solve_step

    controls = controls if controls is not None else SolveControls()
    # an overflow ends in _newton's SingularSystemError, not in a warning
    with np.errstate(over="ignore", invalid="ignore"):
        tau_sq, lw_sq = tau.values**2, lw.values**2
        return RadialProfile(grid, _newton(start, 1, linearize, controls, SolveTrace()))


def _coupled_system(dim: Dimension, grid: RadialGrid, tau_sq, dtau, phi, A):
    """Residual of the coupled (phi, A) system in the equation order of
    ``_CoupledOperator``, and a function that writes its Jacobian into a
    gbsv layout ``work`` and returns it."""
    n = dim.n
    nf = float(dim.N)
    operator = _coupled_operator(n, grid)
    idx, weights = grid._quadrature()
    r = grid.nodes
    r_n = r**n
    lw_scale = np.zeros(len(grid))
    lw_scale[1:] = (n - 1.0) / n / r[1:] ** (2 * n)
    residual = np.empty(2 * len(grid))
    residual[operator.phi_rows], v_hat = _lichnerowicz_rows(dim, grid, phi, tau_sq, lw_scale * A**2)
    residual[operator.a_rows[0]] = A[0]
    residual[operator.a_rows[1:]] = A[1:] - A[:-1] - np.einsum(
        "ij,ij->i", weights, (r_n * phi**nf * dtau)[idx]
    )

    def jacobian(work):
        np.copyto(work, operator.band)
        work[operator.diag] += v_hat[:-1]
        work[operator.coupling] = (-2.0 * lw_scale * A * phi ** (-nf - 1.0))[1:-1]
        work[operator.quad] = -weights * (nf * r_n * phi ** (nf - 1.0) * dtau)[idx]
        return work

    return residual, jacobian


def fixed_point_solve(
    dim: Dimension, tau: RadialProfile, controls: SolveControls | None = None
) -> tuple[ConformalSolution, SolveTrace]:
    """Solve the constraints for a freely specified mean curvature profile.

    Newton on the coupled (phi, A) system of the module docstring, from
    phi == 1, A == 0; its solution is the discrete fixed point of the
    Lichnerowicz solve at |LW|(A) and the quadrature of A at phi.  With
    continuation, earlier stages solve for the scaled field t^N tau and
    warm-start the next stage with their (phi, A).
    """
    controls = controls if controls is not None else SolveControls()
    grid = tau.grid
    trace = SolveTrace()
    operator = _coupled_operator(dim.n, grid)
    work = np.empty_like(operator.band)
    x = np.zeros(2 * len(grid))
    x[0::2] = 1.0
    # an overflow ends in _newton's SingularSystemError, not in a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for stage in range(1, controls.continuation_steps + 1):
            t = stage / controls.continuation_steps
            stage_tau = tau if t == 1.0 else RadialProfile(grid, t ** float(dim.N) * tau.values)
            tau_sq = stage_tau.values**2
            try:
                dtau = differentiate(stage_tau, 1).values
            except InvalidArgumentError as exc:  # tau' overflows
                raise SingularSystemError("radial system overflows: tau' is not finite") from exc

            def linearize(x):
                residual, jacobian = _coupled_system(dim, grid, tau_sq, dtau, x[0::2], x[1::2])

                def solve_step():
                    return _solve(jacobian(work), -residual, operator.kl)

                return float(np.max(np.abs(residual))), solve_step

            x = _newton(x, 2, linearize, controls, trace)
    trace.converged = True

    phi = RadialProfile(grid, x[0::2])
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
