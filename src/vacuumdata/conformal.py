"""Closed-form radial conformal-method machinery.

Given a radial conformal factor phi (positive, nondecreasing, tending to
1) the mean curvature magnitude |tau| is determined pointwise by a master
identity; conversely the momentum potential A, the vector potential
coefficient w, and the Euclidean norm |LW| follow from phi and tau by
explicit radial integrals.  This module implements those maps, the radial
residual of the reduced Lichnerowicz equation, and assembly of the
physical Cartesian fields (g, k).

Conventions used throughout: n is the spatial dimension, N = 2n/(n-2),
g_ij = phi^{N-2} delta_ij, and

    k_ij = (tau/n) phi^{N-2} delta_ij
           - phi^{-2} (delta_ij/(n r^n) - x_i x_j / r^{n+2}) A(r),

with A(r) = integral_0^r s^n phi^N tau' ds.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import (
    DegenerateFitError,
    InvalidArgumentError,
    NegativeRadicandError,
    NotMonotoneError,
)
from .radial import (
    Dimension,
    RadialGrid,
    RadialProfile,
    TailModel,
    _read_csv_table,
    differentiate,
    fit_tail,
    integrate_from_zero,
    integrate_to_infinity,
)

__all__ = [
    "ConformalSolution",
    "InitialData",
    "tau_from_phi",
    "momentum_potential",
    "divergence_source",
    "vector_potential",
    "lw_norm",
    "lichnerowicz_residual",
    "build_solution",
    "assemble_initial_data",
    "write_solution_csv",
    "read_solution_csv",
]

# relative threshold below which phi' counts as zero for branch selection
_BRANCH_EPS = 1e-12

_BUNDLE_HEADER = "r,phi,dphi,tau,A,w,lw"


@dataclasses.dataclass(frozen=True, eq=False)
class ConformalSolution:
    """A consistent radial tuple (phi, tau, A, w, |LW|) on one grid.

    The constructor checks positivity of phi and grid consistency only;
    monotonicity and the defining identities are examined by
    ``verify.check_solution`` so that deliberately broken inputs can be
    diagnosed rather than rejected.
    """

    dim: Dimension
    phi: RadialProfile
    tau: RadialProfile
    A: RadialProfile
    w: RadialProfile
    lw_norm: RadialProfile

    def __post_init__(self):
        grid = self.phi.grid
        for name in ("tau", "A", "w", "lw_norm"):
            if getattr(self, name).grid is not grid:
                raise InvalidArgumentError(f"profile {name!r} is not on the conformal factor's grid")
        if np.any(self.phi.values <= 0):
            raise InvalidArgumentError("conformal factor must be positive everywhere")

    @property
    def grid(self) -> RadialGrid:
        return self.phi.grid


def _require_same_grid(*profiles: RadialProfile) -> RadialGrid:
    grid = profiles[0].grid
    for p in profiles[1:]:
        if p.grid is not grid:
            raise InvalidArgumentError("profiles must share one grid")
    return grid


def _with_tail(profile: RadialProfile, window=None) -> RadialProfile:
    """Attach a fitted tail when the data admits one; identity otherwise.

    Identically zero profiles get an exact zero tail so that flat data
    stays evaluable beyond the grid.
    """
    r_max = profile.grid.r_max
    if not np.any(profile.values):
        return profile.with_tail(TailModel(0.0, 2.0, (r_max / 100.0, r_max), 0.0))
    try:
        return profile.with_tail(fit_tail(profile, window))
    except (DegenerateFitError, InvalidArgumentError):
        return profile


def tau_from_phi(dim: Dimension, phi: RadialProfile) -> RadialProfile:
    """Mean curvature magnitude determined by the conformal factor.

    At nodes where phi'(r) = 0 (within a relative branch tolerance,
    always including r = 0):

        |tau| = sqrt(2 n N phi^{1-N} phi'')

    and elsewhere the generic expression, written here with the radial
    prefactors expanded so the 0/0 structure at phi' = 0 is explicit:

        |tau| = phi^{-N/2} |(2n-1) phi phi' + (N/2) r phi'^2 + r phi phi''|
                / sqrt(r) / sqrt(phi' ((n-2) phi + r phi'))

    The returned branch is nonnegative; either sign of tau yields valid
    data.
    """
    n = dim.n
    nf = float(dim.N)
    grid = phi.grid
    r = grid.nodes
    v = phi.values
    if np.any(v <= 0):
        raise InvalidArgumentError("conformal factor must be positive everywhere")
    dphi = differentiate(phi, 1).values
    d2phi = differentiate(phi, 2).values

    dmax = float(np.max(np.abs(dphi)))
    monotone_tol = 1e-9 * max(1.0, dmax)
    if np.any(dphi < -monotone_tol):
        worst = int(np.argmin(dphi))
        raise NotMonotoneError(
            f"conformal factor decreases near r={r[worst]:g} (phi'={dphi[worst]:.3e})"
        )

    radicand = dphi * ((n - 2) * v + r * dphi)
    # The plateau branch needs phi'' >= 0.  Far fields with n >= 4 sink
    # below the global slope threshold while still concave; use the
    # generic branch there whenever the slope is resolved well above
    # the local rounding floor of the difference stencil.
    spacing = np.gradient(r) if len(r) > 1 else np.ones_like(r)
    slope_floor = 100.0 * np.finfo(float).eps * np.abs(v) / np.abs(spacing)
    concave = (d2phi < 0) & (dphi > slope_floor)
    generic = ((np.abs(dphi) > _BRANCH_EPS * dmax) | concave) & (r > 0)
    rad_tol = 1e-10 * max(1.0, float(np.max(np.abs(radicand))))
    bad = generic & (radicand < -rad_tol)
    if np.any(bad):
        worst = int(np.argmax(np.where(bad, -radicand, -np.inf)))
        raise NegativeRadicandError(
            f"negative radicand {radicand[worst]:.3e} at r={r[worst]:g}"
        )

    # plateau branch everywhere, then overwrite the generic nodes
    out = np.sqrt(np.maximum(2.0 * n * nf * v ** (1.0 - nf) * d2phi, 0.0))
    use = generic & (radicand > 0)
    numerator = (2 * n - 1) * v * dphi + 0.5 * nf * r * dphi**2 + r * v * d2phi
    out[use] = (
        v[use] ** (-0.5 * nf)
        * np.abs(numerator[use])
        / np.sqrt(r[use] * radicand[use])
    )
    return RadialProfile(grid, out)


def _monotonicity_margin(dim: Dimension, phi: RadialProfile) -> tuple[float, float]:
    """Smallest value of the monotonicity condition phi' (2n phi + N r phi')
    on the grid, and the tolerance: the condition holds when the smallest
    value is at least minus the tolerance."""
    dphi = differentiate(phi, 1).values
    condition = dphi * (2.0 * dim.n * phi.values + float(dim.N) * phi.r * dphi)
    return float(np.min(condition)), 1e-9 * max(1.0, float(np.max(np.abs(condition))))


def _identity_residual(dim: Dimension, phi: RadialProfile, tau: RadialProfile) -> float:
    """Sup of |tau_from_phi(phi) - |tau|| on r <= min(100, r_max); raises
    what tau_from_phi raises."""
    recomputed = tau_from_phi(dim, phi)
    window = phi.r <= min(100.0, phi.grid.r_max)
    return float(np.max(np.abs(recomputed.values[window] - np.abs(tau.values[window]))))


def momentum_potential(dim: Dimension, phi: RadialProfile, tau: RadialProfile) -> RadialProfile:
    """A(r) = integral_0^r s^n phi^N tau' ds (vanishes when tau is constant)."""
    _require_same_grid(phi, tau)
    return _momentum_integral(dim, phi, differentiate(tau, 1).values)


def _momentum_integral(dim: Dimension, phi: RadialProfile, dtau: np.ndarray) -> RadialProfile:
    """A(r) from phi and the sampled tau' on phi's grid."""
    grid = phi.grid
    integrand = grid.nodes**dim.n * phi.values ** float(dim.N) * dtau
    return integrate_from_zero(RadialProfile(grid, integrand))


def divergence_source(dim: Dimension, phi: RadialProfile, tau: RadialProfile) -> RadialProfile:
    """f(r) = -integral_r^inf phi^N tau' ds, the divergence of W times 2."""
    grid = _require_same_grid(phi, tau)
    integrand = phi.values ** float(dim.N) * differentiate(tau, 1).values
    if not np.any(integrand):
        return RadialProfile(grid, np.zeros(len(grid)))
    profile = RadialProfile(grid, integrand)
    # Fitting the differentiated integrand directly is fragile: for
    # n >= 4 the stencil noise on tau' flips signs across the far tail.
    # Derive the remainder model from tau's own tail instead; phi^N
    # approaches 1 out there, so tau = a r^-p gives a (p+1)-tail.
    tail = tau.tail if tau.tail is not None else fit_tail(tau)
    model = TailModel(
        -tail.exponent * tail.coefficient, tail.exponent + 1.0, tail.window, tail.misfit
    )
    improper = integrate_to_infinity(profile.with_tail(model))
    return RadialProfile(grid, -improper.values)


def vector_potential(dim: Dimension, phi: RadialProfile, tau: RadialProfile) -> RadialProfile:
    """Radial coefficient w with W_i(x) = x_i w(|x|).

    w(r) = (1/(2 r^n)) integral_0^r s^{n-1} f(s) ds, extended by its
    limit w(0) = f(0)/(2n).
    """
    grid = _require_same_grid(phi, tau)
    n = dim.n
    f = divergence_source(dim, phi, tau)
    inner = integrate_from_zero(RadialProfile(grid, grid.nodes ** (n - 1) * f.values))
    values = np.empty(len(grid))
    values[0] = f.values[0] / (2.0 * n)
    values[1:] = inner.values[1:] / (2.0 * grid.nodes[1:] ** n)
    return RadialProfile(grid, values)


def lw_norm(dim: Dimension, A: RadialProfile) -> RadialProfile:
    """Euclidean |LW|(r) = sqrt((n-1)/n) |A(r)| / r^n, with |LW|(0) = 0."""
    n = dim.n
    grid = A.grid
    values = np.zeros(len(grid))
    values[1:] = np.sqrt((n - 1.0) / n) * np.abs(A.values[1:]) / grid.nodes[1:] ** n
    return RadialProfile(grid, values)


def lichnerowicz_residual(
    dim: Dimension, phi: RadialProfile, tau: RadialProfile, lw: RadialProfile
) -> RadialProfile:
    """Pointwise residual of the reduced radial equation

        -(4n/(n-2)) (phi'' + (n-1) phi'/r) + tau^2 phi^{N-1}
            - (n/(n-1)) |LW|^2 phi^{-N-1}

    The |LW|^2 coefficient n/(n-1) makes the expression vanish exactly on
    solutions of the Hamiltonian constraint; dropping it would shift the
    residual by an O(1) multiple of |LW|^2.  At r = 0 the radial Laplacian
    is replaced by its regular limit n phi''(0).
    """
    grid = _require_same_grid(phi, tau, lw)
    n = dim.n
    nf = float(dim.N)
    r = grid.nodes
    v = phi.values
    dphi = differentiate(phi, 1).values
    d2phi = differentiate(phi, 2).values
    lap = np.empty(len(grid))
    lap[0] = n * d2phi[0]
    lap[1:] = d2phi[1:] + (n - 1) * dphi[1:] / r[1:]
    residual = (
        -(4.0 * n / (n - 2)) * lap
        + tau.values**2 * v ** (nf - 1.0)
        - (n / (n - 1.0)) * lw.values**2 * v ** (-nf - 1.0)
    )
    return RadialProfile(grid, residual)


def build_solution(
    dim: Dimension, phi: RadialProfile, tau: RadialProfile | None = None
) -> ConformalSolution:
    """Complete a conformal factor (optionally with a prescribed tau) to a
    full ConformalSolution, fitting power-law tails where the data admits
    them."""
    if tau is None:
        tau = tau_from_phi(dim, phi)
    tau = tau if tau.tail is not None else _with_tail(tau)
    A = _with_tail(momentum_potential(dim, phi, tau))
    w = _with_tail(vector_potential(dim, phi, tau))
    lw = _with_tail(lw_norm(dim, A))
    return ConformalSolution(dim, phi, tau, A, w, lw)


class InitialData:
    """Cartesian evaluator for the assembled vacuum data (g, k).

    ``metric`` and ``extrinsic_curvature`` map one point (n,) to (n, n) and
    points (M, n) to (M, n, n) by interpolating the radial profiles; beyond
    the grid they use fitted tails, or raise EvaluationOutOfRangeError.
    Instances are immutable and safe for concurrent evaluation.
    """

    def __init__(self, solution: ConformalSolution):
        self.dim = solution.dim
        self.solution = solution
        grid = solution.grid
        n = self.dim.n

        phim1 = _with_tail(RadialProfile(grid, solution.phi.values - 1.0))
        self._phim1 = phim1
        self._dphi = RadialProfile(
            grid, differentiate(solution.phi, 1).values, _derived_tail(phim1.tail, 1)
        )
        self._d2phi = RadialProfile(
            grid, differentiate(solution.phi, 2).values, _derived_tail(phim1.tail, 2)
        )
        self._tau = solution.tau if solution.tau.tail is not None else _with_tail(solution.tau)
        trace_free = np.zeros(len(grid))
        trace_free[1:] = solution.A.values[1:] / grid.nodes[1:] ** n
        self._trace_free = _with_tail(RadialProfile(grid, trace_free))

    @property
    def r_max(self) -> float:
        return self.solution.grid.r_max

    # -- radial accessors (scalar or array radii) --------------------------

    def conformal_factor_at(self, radii):
        return 1.0 + self._phim1.at(radii)

    def conformal_factor_derivative_at(self, radii, order: int = 1):
        if order == 1:
            return self._dphi.at(radii)
        if order == 2:
            return self._d2phi.at(radii)
        raise InvalidArgumentError(f"derivative order must be 1 or 2, got {order!r}")

    def mean_curvature_at(self, radii):
        return self._tau.at(radii)

    def trace_free_amplitude_at(self, radii):
        """A(r)/r^n, the radial amplitude of the trace-free part of k."""
        return self._trace_free.at(radii)

    # -- Cartesian evaluator ------------------------------------------------

    def metric(self, x) -> np.ndarray:
        """g_ij(x) = phi^{N-2} delta_ij."""
        _, r = _cartesian_points(self.dim, x)
        psi = _libm_pow(self.conformal_factor_at(r), float(self.dim.N) - 2.0)
        return (psi[:, None, None] * np.eye(self.dim.n)).reshape(np.shape(x) + (self.dim.n,))

    def extrinsic_curvature(self, x) -> np.ndarray:
        """k_ij(x); the trace-free part vanishes at x = 0, where x/r has no limit."""
        pts, r = _cartesian_points(self.dim, x)
        n = self.dim.n
        phi = self.conformal_factor_at(r)
        psi = _libm_pow(phi, float(self.dim.N) - 2.0)
        eye = np.eye(n)
        out = ((self.mean_curvature_at(r) / n) * psi)[:, None, None] * eye
        off = r > 0.0
        unit = pts[off] / r[off, None]
        amp = _libm_pow(phi[off], -2.0) * self.trace_free_amplitude_at(r[off])
        out[off] += amp[:, None, None] * (unit[:, :, None] * unit[:, None, :] - eye / n)
        return out.reshape(np.shape(x) + (n,))


def _cartesian_points(dim: Dimension, x) -> tuple[np.ndarray, np.ndarray]:
    """Finite points of shape (M, n) or (n,) as an (M, n) array, and |x| of
    each.  sqrt(vecdot) rounds as np.linalg.norm of one point does;
    norm(axis=1) differs in the last bit for about 11 % of rows."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim not in (1, 2) or pts.shape[-1] != dim.n or not np.all(np.isfinite(pts)):
        raise InvalidArgumentError(f"points must be finite, shape (M, {dim.n}) or ({dim.n},); got {pts.shape}")
    pts = pts.reshape(-1, dim.n)
    return pts, np.sqrt(np.vecdot(pts, pts))


def _libm_pow(base: np.ndarray, exponent: float) -> np.ndarray:
    """base ** exponent per element through Python floats (libm pow).  On
    AVX-512 hosts np.power differs from libm in the last bit for about 5 %
    of elements, and the momentum residual's finite differences amplify that
    to 3e-6 relative, enough to flip gate verdicts near the threshold."""
    return np.power(base.astype(object), exponent).astype(float)


def _derived_tail(tail: TailModel | None, order: int) -> TailModel | None:
    """Tail model of the derivative of a power-law tail."""
    if tail is None:
        return None
    c, p = tail.coefficient, tail.exponent
    if order == 1:
        return TailModel(-c * p, p + 1.0, tail.window, tail.misfit)
    return TailModel(c * p * (p + 1.0), p + 2.0, tail.window, tail.misfit)


def assemble_initial_data(solution: ConformalSolution) -> InitialData:
    """Wrap a ConformalSolution in its Cartesian (g, k) evaluator."""
    return InitialData(solution)


def write_solution_csv(solution: ConformalSolution, path) -> None:
    """Write the solution bundle with columns ``r,phi,dphi,tau,A,w,lw``."""
    grid = solution.grid
    dphi = differentiate(solution.phi, 1).values
    columns = (
        grid.nodes,
        solution.phi.values,
        dphi,
        solution.tau.values,
        solution.A.values,
        solution.w.values,
        solution.lw_norm.values,
    )
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(_BUNDLE_HEADER + "\n")
        for row in zip(*columns):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def read_solution_csv(path, dim: Dimension) -> ConformalSolution:
    """Read a bundle written by :func:`write_solution_csv`.

    The dphi column is redundant (derivatives are recomputed from phi on
    the reconstructed grid) and is ignored.
    """
    table = _read_csv_table(path, _BUNDLE_HEADER)
    grid = RadialGrid(table[:, 0])
    phi = RadialProfile(grid, table[:, 1])
    tau = _with_tail(RadialProfile(grid, table[:, 3]))
    A = _with_tail(RadialProfile(grid, table[:, 4]))
    w = _with_tail(RadialProfile(grid, table[:, 5]))
    lw = _with_tail(RadialProfile(grid, table[:, 6]))
    return ConformalSolution(dim, phi, tau, A, w, lw)
