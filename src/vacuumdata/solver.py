"""Radial elliptic solvers and the free-tau construction.

One Newton solve drives the rows of the discrete reduced Lichnerowicz
equation, ``conformal._lichnerowicz_rows`` (the radial Helmholtz operator
on [0, r_max] with a regularity row at the origin and a Robin row at
r_max, acting on u = phi - 1 so that the flat solution is reproduced
bitwise), to zero: the free-tau solve, Newton on those rows with
|LW|^2 = ((n-1)/n) A^2 / r^{2n}, coupled to the first differences of the
quadrature of A(r) = int_0^r s^n phi^N tau' ds with the grid's interval
weights w:

    A_0 = 0,    A_i - A_{i-1} = sum_k w[i-1, k] (r^n phi^N tau')[idx[i-1, k]].

A Newton step LU-factors its banded Jacobian by LAPACK gbtrf and solves by
gbtrs; once the phi steps are at most sqrt(tol) and shrinking, a step only
back-solves with the last factors (see ``fixed_point_solve``).  Both are
numpy's own OpenBLAS, called through ctypes, so no solve imports SciPy;
SciPy's LAPACK only where numpy's BLAS lacks them.  The unknowns (phi_i,
A_i) are interleaved, and so are their equations but for the last three
node pairs: their three phi rows (the Robin row last) come before their
three A rows.  Those phi rows reach six, five and four nodes inward; placed
earlier, they fit a band of kl = 10 diagonals below the main one, and the
interior rows need ku = 6 above it (the band is read off the stencils'
nonzero pattern).  The band is cached on the grid, per dimension; a Newton
step copies it and writes the iterate-dependent entries.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools

import numpy as np

from .conformal import ConformalSolution, _radicand_margin, build_solution
from .conformal import _helmholtz_operator, _laplacian_weight, _lichnerowicz_diagonal, _lichnerowicz_rows
from .errors import (
    ConstructionFailedError,
    InvalidArgumentError,
    NoConvergenceError,
    NonpositiveIterateError,
    NotMonotoneError,
    SingularSystemError,
)
from .radial import Dimension, RadialGrid, RadialProfile, _window_starts, differentiate
from .verify import _FAR_FIELD_FRACTIONS

__all__ = [
    "SolveControls",
    "SolveTrace",
    "fixed_point_solve",
    "smooth_schwarzschild_phi",
]


@dataclasses.dataclass(frozen=True)
class SolveControls:
    """Tolerance and Newton step budget of the free-tau solve."""

    tol: float = 1e-10
    max_newton: int = 40

    def __post_init__(self):
        if not (self.tol > 0 and np.isfinite(self.tol)):
            raise InvalidArgumentError(f"tol must be finite and positive, got {self.tol!r}")
        if isinstance(self.max_newton, bool) or not isinstance(self.max_newton, (int, np.integer)):
            raise InvalidArgumentError(f"max_newton must be an integer, got {self.max_newton!r}")
        if self.max_newton < 1:
            raise InvalidArgumentError(f"max_newton must be at least 1, got {self.max_newton!r}")


@dataclasses.dataclass
class SolveTrace:
    """Convergence history of one fixed_point_solve run.

    ``outer_iterates`` holds the relative phi step of every Newton step;
    ``newton_residuals`` the residual sup norm before every step and at
    the converged iterate.
    """

    outer_iterates: list[float] = dataclasses.field(default_factory=list)
    newton_residuals: list[float] = dataclasses.field(default_factory=list)
    converged: bool = False


@dataclasses.dataclass(frozen=True)
class _CoupledOperator:
    """Fixed entries of the free-tau Jacobian on one grid.

    Unknown 2i is phi_i and 2i + 1 is A_i.  Equation rows follow the same
    order but for the last three node pairs, whose phi rows come first:
    ``phi_rows[i]`` and ``a_rows[i]`` are the layout rows of the phi and A
    equations of node i.  ``band`` (a read-only gbtrf layout with ``kl``
    diagonals below the main one) holds the -4(n-1)/(n-2) Helmholtz
    stencil rows of phi, the Robin row unscaled, and the +-1 of the A
    rows.  ``diag``, ``coupling`` and ``quad`` are the flat (Fortran-order)
    layout indices of what a Newton step writes: the phi diagonal but the
    Robin entry, d(phi row i)/dA_i for 0 < i < npts - 1, and
    d(A row i)/d(phi at idx[i-1]) for i >= 1.  ``r_n`` is r^n and
    ``lw_scale`` the factor ((n-1)/n) / r^{2n} (0 at the origin) of
    |LW|^2 = lw_scale A^2.  Every array is read-only: grids on equal nodes
    share it.
    """

    band: np.ndarray
    kl: int
    phi_rows: np.ndarray
    a_rows: np.ndarray
    diag: np.ndarray
    coupling: np.ndarray
    quad: np.ndarray
    r_n: np.ndarray
    lw_scale: np.ndarray


def _band_layout(kl: int, ku: int, size: int, *entries) -> np.ndarray:
    """Read-only gbtrf layout of ``kl`` diagonals below the main one and
    ``ku`` above, holding the (rows, columns, values) of ``entries``."""
    band = np.zeros((2 * kl + ku + 1, size), order="F")
    for rows, columns, values in entries:
        band[kl + ku + rows - columns, columns] = values
    band.setflags(write=False)
    return band


def _coupled_operator(n: int, grid: RadialGrid) -> _CoupledOperator:
    """The grid's cached free-tau Jacobian entries for dimension n."""

    def build():
        rows = _helmholtz_operator(n, grid)
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
        stencil = (phi_rows[node], 2 * (_window_starts(npts, width)[node] + slot), values[node, slot])
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
            flat = np.ravel_multi_index((kl + ku + rows - columns, columns), band.shape, order="F")
            flat.setflags(write=False)
            return flat

        r = grid.nodes
        r_n = r**n
        lw_scale = np.zeros(npts)
        lw_scale[1:] = (n - 1.0) / n / r[1:] ** (2 * n)
        r_n.setflags(write=False)
        lw_scale.setflags(write=False)
        return _CoupledOperator(
            band, kl, phi_rows, a_rows, at(*diag), at(*coupling), at(*quad), r_n, lw_scale
        )

    return grid._cached(("coupled", n), build)


def _openblas_lapack():
    """numpy's own LAPACK (dgbtrf, dgbtrs), called as ``_scipy_lapack``'s,
    or None where numpy's BLAS lacks either.

    numpy's wheels link an ILP64 OpenBLAS that exports ``scipy_dgbtrf_64_``
    and ``scipy_dgbtrs_64_`` (every integer argument 64 bits wide).  numpy's
    linalg extension has loaded it already, and the loader's symbol search
    through that extension's dependencies finds both without naming the file.
    """
    try:
        from numpy.linalg import _umath_linalg

        library = ctypes.CDLL(_umath_linalg.__file__)
        dgbtrf, dgbtrs = library.scipy_dgbtrf_64_, library.scipy_dgbtrs_64_
    except (ImportError, OSError, AttributeError):
        return None
    # every argument but TRANS is the address of a checked array or of an
    # int64 slot of one array; gfortran passes TRANS's length last, by value
    dgbtrf.argtypes = [ctypes.c_void_p] * 8
    dgbtrs.argtypes = [ctypes.c_char_p] + [ctypes.c_void_p] * 10 + [ctypes.c_size_t]
    dgbtrf.restype = dgbtrs.restype = None

    def gbtrf(layout, kl, ku):
        rows, size = layout.shape
        pivots = np.empty(size, dtype=np.int64)
        integers = np.array((size, kl, ku, rows, 0), dtype=np.int64)
        start = _address(integers)
        n, lower, upper, ldab, info = range(start, start + 40, 8)
        dgbtrf(n, n, lower, upper, _address(layout), ldab, _address(pivots), info)
        return layout, pivots, int(integers[4])

    def gbtrs(lu, pivots, b, kl, ku):
        rows, size = lu.shape
        integers = np.array((size, kl, ku, 1, rows, 0), dtype=np.int64)
        start = _address(integers)
        n, lower, upper, nrhs, ldab, info = range(start, start + 48, 8)
        dgbtrs(b"N", n, lower, upper, nrhs, _address(lu), ldab, _address(pivots), _address(b), n, info, 1)
        return b, int(integers[5])

    return gbtrf, gbtrs


def _address(array: np.ndarray) -> int:
    """Address of a writeable array's first element; ``array.T`` because
    the buffer protocol exports C-ordered arrays only."""
    return ctypes.addressof(ctypes.c_char.from_buffer(array.T))


def _scipy_lapack():
    """SciPy's LAPACK (dgbtrf, dgbtrs), which overwrite a checked layout and
    a fresh right-hand side and return (factors, pivots, info) and (solution, info)."""
    from scipy.linalg.lapack import dgbtrf, dgbtrs

    return (
        lambda layout, kl, ku: dgbtrf(layout, kl, ku, overwrite_ab=True),
        lambda lu, pivots, b, kl, ku: dgbtrs(lu, kl, ku, b, pivots, overwrite_b=True),
    )


@functools.cache
def _lapack():
    """The process's (dgbtrf, dgbtrs): numpy's OpenBLAS where it exports both, else SciPy's."""
    return _openblas_lapack() or _scipy_lapack()


def _factor(layout: np.ndarray, kl: int) -> tuple:
    """LU-factor a banded matrix by one LAPACK gbtrf, for ``_back_solve``.

    ``layout`` is gbtrf's band storage with ``kl`` diagonals below the main
    one and ku above: a writeable, Fortran-ordered float64 array of
    2 kl + ku + 1 rows, the matrix in the last kl + ku + 1 in the
    diagonal-ordered form of ``scipy.linalg.solve_banded`` with
    (l, u) = (kl, ku); the first kl rows are workspace for the LU fill.
    The layout is overwritten by the factors.  gbsv is gbtrf then gbtrs, so
    a back-solve gives bitwise ``solve_banded``'s solution.  A layout of
    another shape, order or type raises InvalidArgumentError before any
    native call, an exactly singular one SingularSystemError.
    """
    if not (
        isinstance(layout, np.ndarray)
        and layout.ndim == 2
        and layout.dtype == np.float64
        and layout.flags.f_contiguous
        and layout.flags.writeable
    ):
        raise InvalidArgumentError("band layout must be a writeable Fortran-ordered float64 matrix")
    ku = layout.shape[0] - 1 - 2 * kl
    if kl < 0 or ku < 0:
        raise InvalidArgumentError(f"a band layout of {layout.shape[0]} rows cannot hold kl = {kl} diagonals")
    lu, pivots, info = _lapack()[0](layout, kl, ku)
    if info < 0:
        raise RuntimeError(f"dgbtrf rejected its argument {-info}")
    if info > 0:
        raise SingularSystemError("radial system is singular or ill-posed")
    return lu, pivots, kl, ku


def _back_solve(factors: tuple, rhs: np.ndarray) -> np.ndarray:
    """Solve by one LAPACK gbtrs on the ``factors`` of ``_factor``; ``rhs`` is
    copied.  One of another shape raises InvalidArgumentError before any
    native call, and a solution that is not finite SingularSystemError."""
    lu, pivots, kl, ku = factors
    if np.shape(rhs) != lu.shape[1:]:
        raise InvalidArgumentError(f"right-hand side must have shape {lu.shape[1:]}, got {np.shape(rhs)}")
    solution, info = _lapack()[1](lu, pivots, np.array(rhs, dtype=np.float64), kl, ku)
    if info < 0:
        raise RuntimeError(f"dgbtrs rejected its argument {-info}")
    if not np.all(np.isfinite(solution)):
        raise SingularSystemError("radial system is singular or ill-posed")
    return solution


def _coupled_system(dim: Dimension, grid: RadialGrid, tau_sq, dtau, phi, A):
    """Residual of the coupled (phi, A) system in the equation order of
    ``_CoupledOperator``, and a function that writes its Jacobian into a
    gbtrf layout ``work`` and returns it."""
    nf = float(dim.N)
    operator = _coupled_operator(dim.n, grid)
    idx, weights = grid._quadrature()
    r_n, lw_scale = operator.r_n, operator.lw_scale
    lw_sq = lw_scale * A**2
    residual = np.empty(2 * len(grid))
    residual[operator.phi_rows], (up, down) = _lichnerowicz_rows(dim, grid, phi, tau_sq, lw_sq)
    residual[operator.a_rows[0]] = A[0]
    residual[operator.a_rows[1:]] = A[1:] - A[:-1] - np.einsum(
        "ij,ij->i", weights, (r_n * phi**nf * dtau)[idx]
    )

    def jacobian(work):
        if not work.flags.f_contiguous:
            raise InvalidArgumentError("the Jacobian layout must be Fortran-ordered")
        np.copyto(work, operator.band)
        flat = work.T.reshape(-1)  # a view, in the layout's Fortran order
        flat[operator.diag] += _lichnerowicz_diagonal(dim, phi, tau_sq, lw_sq)[:-1]
        flat[operator.coupling] = (-2.0 * lw_scale * A * down)[1:-1]
        flat[operator.quad] = -weights * (nf * r_n * up * dtau)[idx]
        return work

    return residual, jacobian


def fixed_point_solve(
    dim: Dimension, tau: RadialProfile, controls: SolveControls | None = None
) -> tuple[ConformalSolution, SolveTrace]:
    """Solve the constraints for a freely specified mean curvature profile.

    Newton on the coupled (phi, A) system of the module docstring, from
    phi == 1, A == 0; its solution is the discrete fixed point of the
    Lichnerowicz equation at |LW|(A) and the quadrature of A at phi.  A
    step is halved until phi stays positive, and the iteration stops once
    the phi step is at most tol * max(1, sup |phi|); the residual at that
    iterate is recorded, but its Jacobian is not filled.  A step fills and
    factors the Jacobian unless the previous relative phi step is at most
    sqrt(tol) and smaller than the one before it, if any: then it
    back-solves with the last factors (chord Newton), so a reused step
    that fails to shrink makes the next factor afresh.  A residual norm
    that is not finite raises SingularSystemError.
    """
    controls = controls if controls is not None else SolveControls()
    grid = tau.grid
    trace = SolveTrace()
    operator = _coupled_operator(dim.n, grid)
    work = np.empty_like(operator.band)
    x = np.zeros(2 * len(grid))
    x[0::2] = 1.0
    # an overflow ends in a SingularSystemError, not in a warning
    with np.errstate(over="ignore", invalid="ignore"):
        tau_sq = tau.values**2
        try:
            dtau = differentiate(tau, 1).values
        except InvalidArgumentError as exc:  # tau' overflows
            raise SingularSystemError("radial system overflows: tau' is not finite") from exc
        while True:
            residual, jacobian = _coupled_system(dim, grid, tau_sq, dtau, x[0::2], x[1::2])
            norm = float(np.max(np.abs(residual)))
            if not np.isfinite(norm):
                raise SingularSystemError("radial system overflows: the residual is not finite")
            trace.newton_residuals.append(norm)
            if trace.converged:
                break
            steps = trace.outer_iterates
            if not steps or steps[-1] > controls.tol**0.5 or (len(steps) > 1 and steps[-1] >= steps[-2]):
                factors = _factor(jacobian(work), operator.kl)
            delta = _back_solve(factors, -residual)
            step = 1.0
            for _ in range(60):
                if np.all(x[0::2] + step * delta[0::2] > 0.0):
                    break
                step *= 0.5
            else:
                raise NonpositiveIterateError("Newton step cannot keep the factor positive")
            x = x + step * delta
            change = np.max(np.abs(step * delta[0::2]))
            scale = max(1.0, np.max(np.abs(x[0::2])))
            trace.outer_iterates.append(float(change / scale))
            trace.converged = bool(change <= controls.tol * scale)
            if not trace.converged and len(trace.outer_iterates) == controls.max_newton:
                raise NoConvergenceError(
                    f"Newton stalled after {controls.max_newton} steps"
                    f" (last residual {trace.newton_residuals[-1]:.3e})"
                )

    phi = RadialProfile(grid, x[0::2])
    mono_min, mono_tol = _radicand_margin(dim, phi)
    if mono_min < -mono_tol:
        raise NotMonotoneError("converged factor violates the monotonicity condition")
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
    positive at the origin.  R may not exceed r_max/16, the innermost
    radius sampled by the radial mass limit, which assumes the exterior.
    """
    if not m > 0:
        raise InvalidArgumentError(f"mass parameter must be positive, got {m!r}")
    n = dim.n
    p = (n - 2) / 2.0
    radius = m ** (1.0 / (n - 2))
    inner = grid.r_max * _FAR_FIELD_FRACTIONS[0]
    if radius > inner:
        raise InvalidArgumentError(
            f"matching radius {radius:g} must not exceed {inner:g}, the inner far-field radius"
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
