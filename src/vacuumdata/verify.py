"""Independent verification of assembled initial data.

Everything here recomputes its target by a route other than the assembly
path: constraint residuals contract Cartesian tensors, evaluated
on all sample points at once, with finite-difference derivatives; the ADM
mass comes from the radial limit r^{n-1} phi' and from the surface flux,
which for radial data is the constant radial integrand times the area of
the sphere; decay exponents come from log-log fits.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .conformal import (
    ConformalSolution,
    InitialData,
    _cartesian_points,
    _identity_residual,
    _laplacian_weight,
    _libm_pow,
    _monotonicity_margin,
    divergence_source,
)
from .errors import DegenerateFitError, InvalidArgumentError, NoTailError, VacuumDataError
from .radial import Dimension, RadialGrid, RadialProfile, _fit_window, _window_bounds, differentiate, fit_tail

__all__ = [
    "ResidualReport",
    "MassReport",
    "DecayReport",
    "SolutionChecks",
    "hamiltonian_residual",
    "momentum_residual",
    "constraint_report",
    "adm_mass_radial",
    "adm_mass_surface",
    "decay_exponents",
    "tail_limit_check",
    "check_solution",
    "default_sample_points",
]

# relative curvature threshold under which Richardson extrapolation would
# divide noise by noise; the last sample is then used directly
_FLAT_SEQUENCE = 1e-9

# sup |phi - 1| under which the data count as flat: zero mass, zero tail limit
_FLAT_FACTOR = 1e-13

# radii, as fractions of r_max, of the samples of the far-field limits
_FAR_FIELD_FRACTIONS = (1.0 / 16.0, 1.0 / 4.0, 1.0)

# span of the radii of the residual sample points, and their default count
_SAMPLE_RADII = (0.1, 50.0)
_SAMPLE_COUNT = 64

# default step of the momentum residual's differences
_RESIDUAL_STEP = 1e-3

# Step for the 2x-refinement order study; large enough that truncation,
# not interpolant rounding, dominates the stencil error.
_ORDER_STEP = 1e-2


@dataclasses.dataclass(frozen=True)
class ResidualReport:
    """Pointwise Hamiltonian and momentum constraint residuals."""

    hamiltonian: np.ndarray
    momentum: np.ndarray
    stencil_h: float
    convergence_order: float | None = None

    @property
    def hamiltonian_sup(self) -> float:
        return float(np.max(np.abs(self.hamiltonian)))

    @property
    def momentum_sup(self) -> float:
        return float(np.max(np.abs(self.momentum)))


@dataclasses.dataclass(frozen=True)
class MassReport:
    """ADM mass under three normalizations.

    The standard convention is calibrated so that phi = 1 - m/(2 r^{n-2})
    reports exactly -m; the two alternatives differ from it by fixed
    n-dependent positive factors, so sign and divergence statements are
    convention independent.  Fields not produced by an estimator are NaN.
    """

    mass_standard: float
    mass_paper_radial: float
    mass_paper_surface: float
    radii_used: tuple[float, ...]
    extrapolated: bool
    diverges: bool = False


@dataclasses.dataclass(frozen=True)
class DecayReport:
    """Fitted far-field exponents of the data."""

    metric_exponent: float
    k_exponent: float
    tau_exponent: float
    windows: dict[str, tuple[float, float]]


@dataclasses.dataclass(frozen=True)
class SolutionChecks:
    """Consolidated result of check_solution; failures recorded, not raised.

    ``divw_identity`` checks n w + r w' = f/2 by differentiating the w the
    solution carries, with f from ``divergence_source``: a w built from
    another remainder of f beyond r_max fails it by that remainder's offset.
    """

    monotone: bool
    monotone_min: float
    identity_residual: float
    lw_identity: float
    divw_identity: float
    notes: tuple[str, ...] = ()


def default_sample_points(dim: Dimension, count: int = _SAMPLE_COUNT) -> np.ndarray:
    """Deterministic Cartesian sample points: radii log-spaced over
    _SAMPLE_RADII along fixed pseudo-random unit directions."""
    rng = np.random.default_rng(12021)
    radii = np.logspace(*map(math.log10, _SAMPLE_RADII), count)
    directions = rng.normal(size=(count, dim.n))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return radii[:, None] * directions


def hamiltonian_residual(data: InitialData, points) -> np.ndarray:
    """R_g - |k|^2_g + (tr_g k)^2 at each Cartesian point.

    ``points`` is (M, n) or one point (n,).  The scalar curvature uses the
    conformally flat closed form R_g = -(4(n-1)/(n-2)) phi^{1-N} Delta phi
    with radial derivatives taken from the stored profiles.
    """
    n = data.dim.n
    nf = float(data.dim.N)
    x, r = _cartesian_points(data.dim, points)
    phi, d1, d2, tau, amplitude = data._fields_at(r, "phi", "dphi", "d2phi", "tau", "trace_free")
    psi = _libm_pow(phi, nf - 2.0)
    k = data._curvature(x, r, phi, psi, tau, amplitude)
    tr_k = np.trace(k, axis1=1, axis2=2) / psi
    k_sq = np.sum(k * k, axis=(1, 2)) / _libm_pow(psi, 2.0)
    lap = np.where(r == 0.0, n * d2, d2 + (n - 1) * d1 / np.where(r == 0.0, 1.0, r))
    scalar = -_laplacian_weight(n) * _libm_pow(phi, 1.0 - nf) * lap
    return (scalar - k_sq + _libm_pow(tr_k, 2.0)).reshape(np.shape(points)[:-1])


def momentum_residual(data: InitialData, points, h: float = _RESIDUAL_STEP) -> np.ndarray:
    """|div_g(k - (tr_g k) g)|_delta at each point.

    ``points`` is (M, n) or one point (n,).  Spatial derivatives of
    P = k - (tr_g k) g use 4th-order centered differences with step
    h (1 + |x|), evaluated in one call on all 4n shifted copies of every
    point; Christoffel symbols of the conformally flat metric come from the
    closed form Gamma^c_ab = (L_a d_cb + L_b d_ca - L_c d_ab)/2,
    L_a = (N-2) phi'/phi x_a/r.  The step h must lie in (0, r_max).
    """
    if not 0 < h < data.r_max:
        raise InvalidArgumentError(f"h must lie in (0, r_max {data.r_max:g}), got {h!r}")
    n = data.dim.n
    nf = float(data.dim.N)
    eye = np.eye(n)
    x, r = _cartesian_points(data.dim, points)
    step = h * (1.0 + r)
    # shifted[s, m, a] is point m moved by s * step along axis a
    shifted = x[:, None] + np.array([1.0, -1.0, 2.0, -2.0])[:, None, None, None] * (step[:, None, None] * eye)
    x_all, r_all = _cartesian_points(data.dim, np.concatenate([x, shifted.reshape(-1, n)]))
    phi_all, dphi, tau, amplitude = data._fields_at(r_all, "phi", "dphi", "tau", "trace_free")
    psi_all = _libm_pow(phi_all, nf - 2.0)
    k = data._curvature(x_all, r_all, phi_all, psi_all, tau, amplitude)
    # (tr_g k) g = (trace(k)/psi) psi I: the conformal factors cancel
    p_all = k - np.trace(k, axis1=1, axis2=2)[:, None, None] * eye
    p = p_all[: len(x)]
    plus, minus, plus2, minus2 = p_all[len(x) :].reshape(4, len(x), n, n, n)
    grad_p = (8.0 * (plus - minus) - (plus2 - minus2)) / (12.0 * step)[:, None, None, None]

    # the first len(x) rows are the points themselves
    phi, psi = phi_all[: len(x)], psi_all[: len(x)]
    off = (r > 0.0)[:, None]
    slope = (nf - 2.0) * dphi[: len(x)] / phi
    ell = np.where(off, slope[:, None] * (x / np.where(off, r[:, None], 1.0)), 0.0)
    gamma = 0.5 * (np.einsum("ma,cb->mcab", ell, eye) + np.einsum("mb,ca->mcab", ell, eye)
                   - np.einsum("mc,ab->mcab", ell, eye))
    div = np.einsum("maaj->mj", grad_p)
    div -= np.einsum("mcaa,mcj->mj", gamma, p)
    div -= np.einsum("mcaj,mac->mj", gamma, p)
    div /= psi[:, None]
    return np.sqrt(np.vecdot(div, div)).reshape(np.shape(points)[:-1])


def constraint_report(
    data: InitialData,
    points,
    h: float = _RESIDUAL_STEP,
    refined: InitialData | None = None,
) -> ResidualReport:
    """Both residuals at stencil step h, which must lie in (0, r_max), as
    momentum_residual checks.  Given data on a refined grid, also the
    convergence order of a 2x-refinement study: the smaller of the two
    residuals' log2 sup-norm ratios, with momentum steps _ORDER_STEP on
    ``data`` and half that on ``refined``."""
    ham = hamiltonian_residual(data, points)
    mom = momentum_residual(data, points, h)
    order = None
    if refined is not None:
        coarse_mom = mom if h == _ORDER_STEP else momentum_residual(data, points, _ORDER_STEP)
        ham2 = hamiltonian_residual(refined, points)
        mom2 = momentum_residual(refined, points, _ORDER_STEP / 2.0)
        orders = []
        for coarse, fine in ((ham, ham2), (coarse_mom, mom2)):
            sup_c = float(np.max(np.abs(coarse)))
            sup_f = float(np.max(np.abs(fine)))
            if sup_c > 0 and sup_f > 0:
                orders.append(math.log2(sup_c / sup_f))
        order = min(orders) if orders else None
    return ResidualReport(ham, mom, h, order)


def _richardson(radii, samples) -> float:
    """Limit L of y(r) = L + a/r + b/r^2 through three samples."""
    vander = np.vander(1.0 / np.asarray(radii, dtype=float), 3, increasing=True)
    return float(np.linalg.solve(vander, np.asarray(samples, dtype=float))[0])


def _far_field_limit(grid: RadialGrid, y: np.ndarray) -> tuple[float, bool, np.ndarray]:
    """Richardson limit of the node values y at the first nodes at or past
    the far-field radii, whether it extrapolated, and those nodes; the last
    sample when the second difference is below noise (flat sequences)."""
    r = grid.nodes
    idx = np.searchsorted(r, tuple(grid.r_max * f for f in _FAR_FIELD_FRACTIONS))
    y0, y1, y2 = y[idx]
    if abs(y2 - 2.0 * y1 + y0) < _FLAT_SEQUENCE * max(1.0, abs(y2)):
        return float(y2), False, r[idx]
    return _richardson(r[idx], y[idx]), True, r[idx]


def adm_mass_radial(dim: Dimension, phi: RadialProfile) -> MassReport:
    """Mass from the limit L = lim r^{n-1} phi' (radial estimator).

    Detects divergence (q < n/2 seeds) as sustained geometric growth of
    r^{n-1} phi' across the last decade of the grid.
    """
    n = dim.n
    grid = phi.grid
    r = grid.nodes
    shifted = phi.values - 1.0
    if float(np.max(np.abs(shifted))) < _FLAT_FACTOR:
        return MassReport(0.0, 0.0, math.nan, (), extrapolated=False)
    try:
        _fit_window(grid, shifted, (grid.r_max / 100.0, grid.r_max))  # a single-signed far field
    except (DegenerateFitError, InvalidArgumentError) as exc:
        raise NoTailError(f"no power-law far field for the factor: {exc}") from None

    y = r ** (n - 1) * differentiate(phi, 1).values

    decade = r >= grid.r_max / 10.0
    y_dec = y[decade]
    growing = (
        np.all(y_dec > 0)
        and np.all(np.diff(y_dec) >= -1e-12 * np.max(y_dec))
        and y_dec[-1] / y_dec[0] >= 10.0**0.1
    )
    if growing:
        inf = float("-inf")
        radii = (float(r[decade][0]), grid.r_max)
        return MassReport(inf, inf, math.nan, radii, extrapolated=False, diverges=True)

    limit, used, radii = _far_field_limit(grid, y)
    return MassReport(
        mass_standard=-2.0 * limit / (n - 2),
        mass_paper_radial=-(n - 1.0) / (2.0 * (n - 2)) * limit,
        mass_paper_surface=math.nan,
        radii_used=tuple(radii.tolist()),
        extrapolated=used,
    )


def sphere_area(n: int) -> float:
    """Area of the unit sphere S^{n-1}."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def adm_mass_surface(data: InitialData, radii) -> MassReport:
    """Mass from the flux of Sum (g_ij,i - g_ii,j) x_j / r through spheres.

    The data are radial, so on the sphere of radius r the integrand is the
    constant -(n-1) psi'(r), with psi' = (N-2) phi^{N-3} phi' in closed
    form, and the flux is that constant times the sphere's area
    |S^{n-1}| r^{n-1}.  The radii must be finite, positive and distinct.
    With three or more radii the last three are fitted to
    m + a/r + b/r^2 and the limit is reported.
    """
    n = data.dim.n
    nf = float(data.dim.N)
    radii = tuple(float(r) for r in radii)
    if not radii:
        raise InvalidArgumentError("at least one radius is required")
    if not all(0.0 < r < math.inf for r in radii) or len(set(radii)) < len(radii):
        raise InvalidArgumentError(f"radii must be finite, positive and distinct, got {radii!r}")
    omega = sphere_area(n)

    raw = []
    phis, dphis = data._fields_at(np.array(radii), "phi", "dphi")
    for r, phi, dphi in zip(radii, phis.tolist(), dphis.tolist()):
        dpsi = (nf - 2.0) * phi ** (nf - 3.0) * dphi
        raw.append(-(n - 1.0) * dpsi * omega * r ** (n - 1))

    extrapolated = False
    flux = raw[-1]
    if len(radii) >= 3:
        flux = _richardson(radii[-3:], raw[-3:])
        extrapolated = True
    standard = flux / (2.0 * (n - 1.0) * omega)
    paper = flux / (2.0 * (n - 2.0) * omega)
    return MassReport(
        mass_standard=standard,
        mass_paper_radial=math.nan,
        mass_paper_surface=paper,
        radii_used=radii,
        extrapolated=extrapolated,
    )


def decay_exponents(data: InitialData, windows: dict[str, tuple[float, float]] | None = None) -> DecayReport:
    """Fit far-field power laws to |psi - 1| and |tau| from data.phi and
    data.tau, and to |k| along a ray; each window (lo, hi) must satisfy
    0 < lo < hi <= r_max."""
    grid = data.phi.grid
    default = (grid.r_max / 10.0**1.5, grid.r_max)
    windows = dict(windows or {})
    for key in ("metric", "k", "tau"):
        _window_bounds(grid, windows.setdefault(key, default))

    nf = float(data.dim.N)
    metric_profile = RadialProfile(grid, np.abs(data.phi.values ** (nf - 2.0) - 1.0))
    metric_exp = fit_tail(metric_profile, windows["metric"]).exponent
    tau_profile = RadialProfile(grid, np.abs(data.tau.values))
    tau_exp = fit_tail(tau_profile, windows["tau"]).exponent

    radii = np.logspace(*map(math.log10, windows["k"]), 48)
    k = data.extrinsic_curvature(radii[:, None] * np.eye(data.dim.n)[0])
    norms = np.sqrt(np.sum(k * k, axis=(1, 2)))
    if np.any(norms <= 0):
        raise DegenerateFitError("extrinsic curvature vanishes on the fit window")
    slope = np.polyfit(np.log(radii), np.log(norms), 1)[0]
    return DecayReport(
        metric_exponent=float(metric_exp),
        k_exponent=float(-slope),
        tau_exponent=float(tau_exp),
        windows=windows,
    )


def tail_limit_check(dim: Dimension, phi: RadialProfile, c: float, q: float) -> float:
    """Measured limit of phi' r^{2q-1} on the tail, for comparison with
    the predicted (c sqrt(n-2)/(2(n-q)))^2."""
    del c
    if float(np.max(np.abs(phi.values - 1.0))) < _FLAT_FACTOR:
        return 0.0
    y = differentiate(phi, 1).values * phi.grid.nodes ** (2.0 * q - 1.0)
    return _far_field_limit(phi.grid, y)[0]


def check_solution(sol: ConformalSolution) -> SolutionChecks:
    """Run the consistency battery on one solution; never raises."""
    dim = sol.dim
    n = dim.n
    r = sol.grid.nodes
    notes: list[str] = []

    mono_min, mono_tol = _monotonicity_margin(dim, sol.phi)
    monotone = mono_min >= -mono_tol
    try:
        identity = _identity_residual(dim, sol.phi, sol.tau)
    except VacuumDataError as exc:
        identity = math.inf
        notes.append(f"mean-curvature identity unavailable: {exc}")

    lw_scaled = sol.lw_norm.values * r ** n * math.sqrt(n / (n - 1.0))
    lw_identity = float(
        np.max(np.abs(lw_scaled - np.abs(sol.A.values)))
        / max(1.0, float(np.max(np.abs(sol.A.values))))
    )

    f = divergence_source(dim, sol.phi, sol.tau)
    dw = differentiate(sol.w, 1).values
    divw = float(
        np.max(np.abs(n * sol.w.values + r * dw - 0.5 * f.values))
        / max(1.0, float(np.max(np.abs(f.values))))
    )

    return SolutionChecks(
        monotone=monotone,
        monotone_min=mono_min,
        identity_residual=identity,
        lw_identity=lw_identity,
        divw_identity=divw,
        notes=tuple(notes),
    )
