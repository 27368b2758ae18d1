"""Closed-form radial conformal-method machinery.

Given a radial conformal factor phi (positive, nondecreasing, tending to
1) the mean curvature magnitude |tau| is determined pointwise by a master
identity; conversely the momentum potential A, the vector potential
coefficient w, and the Euclidean norm |LW| follow from phi and tau by
explicit radial integrals.  This module implements those maps, the rows
of the discrete reduced Lichnerowicz equation that the free-tau solve
drives to zero, and assembly of the physical Cartesian fields (g, k).

Conventions used throughout: n is the spatial dimension, N = 2n/(n-2),
g_ij = phi^{N-2} delta_ij, and

    k_ij = (tau/n) phi^{N-2} delta_ij
           - phi^{-2} (delta_ij/(n r^n) - x_i x_j / r^{n+2}) A(r),

with A(r) = integral_0^r s^n phi^N tau' ds.
"""

from __future__ import annotations

import dataclasses
import fractions
import functools
import math
import typing

import numpy as np

from .errors import (
    InvalidArgumentError,
    NegativeRadicandError,
    NotMonotoneError,
    ProfileParseError,
    SchemaError,
)
from .radial import (
    Dimension,
    RadialGrid,
    RadialProfile,
    differentiate,
    integrate_from_zero,
    integrate_to_infinity,
    _apply_window,
    _sample_profiles,
    _slot_major,
)

__all__ = [
    "ConformalSolution",
    "InitialData",
    "tau_from_phi",
    "momentum_potential",
    "divergence_source",
    "vector_potential",
    "lw_norm",
    "build_solution",
    "assemble_initial_data",
    "write_solution_csv",
    "read_solution_csv",
]

# relative threshold below which phi' counts as zero for branch selection
_BRANCH_EPS = 1e-12


@dataclasses.dataclass(frozen=True, eq=False)
class ConformalSolution:
    """A consistent radial tuple (phi, tau, A, w, |LW|) on one grid.

    Every profile ends at r_max, and nothing here fits a tail.  The
    constructor checks positivity of phi and grid consistency only;
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
        _require_same_grid(self.phi, self.tau, self.A, self.w, self.lw_norm)
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


def _memoised(name: str):
    """Keep f(dim, phi, *profiles) in phi's memo under (name, n, *profiles),
    as ``differentiate`` keeps derivatives; a call that raises keeps nothing."""
    def decorate(fn):
        @functools.wraps(fn)
        def memoised(dim: Dimension, phi: RadialProfile, *profiles: RadialProfile) -> RadialProfile:
            key = (name, dim.n, *profiles)
            if key not in phi._memo:
                phi._memo[key] = fn(dim, phi, *profiles)
            return phi._memo[key]
        return memoised
    return decorate


@_memoised("tau")
def tau_from_phi(dim: Dimension, phi: RadialProfile) -> RadialProfile:
    """Mean curvature magnitude determined by the conformal factor.

    At nodes where phi'(r) = 0 (within a relative branch tolerance,
    always including r = 0):

        |tau| = sqrt(2 n N phi^{1-N} phi'')

    and elsewhere the generic expression, written here with the radial
    prefactors expanded so the 0/0 structure at phi' = 0 is explicit:

        |tau| = phi^{-N/2} |(2n-1) phi phi' + (N/2) r phi'^2 + r phi phi''|
                / sqrt(r) / sqrt(phi' ((n-2) phi + r phi'))

    The returned branch is nonnegative, either sign of tau yields valid
    data, and it is computed once per profile and dimension.
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

    radicand = _radicand(dim, phi)
    # The plateau branch needs phi'' >= 0.  Far fields with n >= 4 sink
    # below the global slope threshold while still concave; use the
    # generic branch there whenever the slope is resolved well above
    # the local rounding floor of the difference stencil.
    slope_floor = 100.0 * np.finfo(float).eps * np.abs(v) / np.abs(np.gradient(r))
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


def _radicand(dim: Dimension, phi: RadialProfile) -> np.ndarray:
    """R = phi' ((n-2) phi + r phi') on the grid: the radicand of the master
    identity, whose generic branch needs R >= 0.  N R = phi' (2n phi + N r phi')
    is the monotonicity condition of the construction."""
    dphi = differentiate(phi, 1).values
    return dphi * ((dim.n - 2) * phi.values + phi.r * dphi)


def _radicand_margin(dim: Dimension, phi: RadialProfile) -> tuple[float, float]:
    """Smallest radicand on the grid and its tolerance 1e-9 max(1/N, max|R|):
    the monotonicity condition holds when the smallest radicand is at least
    minus the tolerance."""
    radicand = _radicand(dim, phi)
    return float(np.min(radicand)), 1e-9 * max(1.0 / float(dim.N), float(np.max(np.abs(radicand))))


def _identity_residual(dim: Dimension, phi: RadialProfile, tau: RadialProfile) -> float:
    """Sup of |tau_from_phi(phi) - |tau|| on r <= min(100, r_max); raises
    what tau_from_phi raises."""
    recomputed = tau_from_phi(dim, phi)
    window = phi.r <= min(100.0, phi.grid.r_max)
    return float(np.max(np.abs(recomputed.values[window] - np.abs(tau.values[window]))))


def momentum_potential(dim: Dimension, phi: RadialProfile, tau: RadialProfile) -> RadialProfile:
    """A(r) = integral_0^r s^n phi^N tau' ds (vanishes when tau is constant)."""
    grid = _require_same_grid(phi, tau)
    integrand = grid.nodes**dim.n * phi.values ** float(dim.N) * differentiate(tau, 1).values
    return integrate_from_zero(RadialProfile(grid, integrand))


@_memoised("f")
def divergence_source(dim: Dimension, phi: RadialProfile, tau: RadialProfile) -> RadialProfile:
    """f(r) = -integral_r^inf phi^N tau' ds, the divergence of W times 2.

    Beyond r_max phi^N is taken as 1 and tau as decaying to 0, so the
    remainder there is -tau(r_max), read from the data: f(r_max) is
    tau(r_max) exactly.  Data with phi^N tau' = 0 on every node give f = 0
    (not -0) on every node.  f is computed once per (phi, n, tau).
    """
    grid = _require_same_grid(phi, tau)
    integrand = phi.values ** float(dim.N) * differentiate(tau, 1).values
    if not np.any(integrand):
        return RadialProfile(grid, np.zeros(len(grid)))
    improper = integrate_to_infinity(RadialProfile(grid, integrand), -tau.values[-1])
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


def _laplacian_weight(n: int) -> float:
    """The factor 4(n-1)/(n-2) of the radial Laplacian in the Lichnerowicz rows."""
    return 4.0 * (n - 1.0) / (n - 2.0)


def _helmholtz_operator(n: int, grid: RadialGrid) -> np.ndarray:
    """The grid's cached, read-only stencil rows of u'' + (n-1) u'/r for
    dimension n in the windowed layout of ``RadialGrid.derivative_matrix``;
    row 0 is the regular limit n u''(0), the last the Robin functional
    u' + (n-2) u / r at r_max (decaying far field)."""

    def build():
        d1, d2 = grid.derivative_matrix(1), grid.derivative_matrix(2)
        coupling = np.zeros(len(grid))
        coupling[1:] = (n - 1.0) / grid.nodes[1:]
        rows = d2 + coupling[:, None] * d1
        rows[0] = float(n) * d2[0]
        rows[-1] = d1[-1]
        rows[-1, -1] += float(n - 2) / grid.r_max
        return _slot_major(rows)

    return grid._cached(("helmholtz", n), build)


def _lichnerowicz_rows(dim: Dimension, grid: RadialGrid, phi, tau_sq, lw_sq):
    """The discrete reduced Lichnerowicz equation at node values phi, given
    tau^2 and |LW|^2 there: -(4(n-1)/(n-2)) (phi'' + (n-1) phi'/r)
    + ((n-1)/n) tau^2 phi^{N-1} - |LW|^2 phi^{-N-1}, from the Helmholtz
    rows applied to phi - 1, then the Robin row; and (phi^{N-1},
    phi^{-N-1}) for the free-tau Jacobian."""
    n = dim.n
    nf = float(dim.N)
    weight = (n - 1.0) / n
    up, down = phi ** (nf - 1.0), phi ** (-nf - 1.0)
    applied = _apply_window(_helmholtz_operator(n, grid), phi - 1.0)
    out = -_laplacian_weight(n) * applied + weight * tau_sq * up - lw_sq * down
    out[-1] = applied[-1]
    return out, (up, down)


def _lichnerowicz_diagonal(dim: Dimension, phi, tau_sq, lw_sq):
    """Frechet diagonal of ``_lichnerowicz_rows`` in phi, nonnegative for
    phi > 0: (N-1)((n-1)/n) tau^2 phi^{N-2} + (N+1) |LW|^2 phi^{-N-2}."""
    nf = float(dim.N)
    weight = (dim.n - 1.0) / dim.n
    return (nf - 1.0) * weight * tau_sq * phi ** (nf - 2.0) + (nf + 1.0) * lw_sq * phi ** (-nf - 2.0)


def build_solution(
    dim: Dimension, phi: RadialProfile, tau: RadialProfile | None = None
) -> ConformalSolution:
    """Complete a conformal factor (optionally with a prescribed tau) to a
    full ConformalSolution."""
    if tau is None:
        tau = tau_from_phi(dim, phi)
    A = momentum_potential(dim, phi, tau)
    w = vector_potential(dim, phi, tau)
    return ConformalSolution(dim, phi, tau, A, w, lw_norm(dim, A))


class InitialData:
    """Cartesian evaluator for the vacuum data (g, k) of phi, tau and A.

    ``metric`` and ``extrinsic_curvature`` map one point (n,) to (n, n) and
    points (M, n) to (M, n, n) by interpolating the radial profiles; past
    r_max they raise EvaluationOutOfRangeError.  Radial values come from
    the profiles themselves: ``data.phi.at(r)``, ``data.tau.at(r)`` and
    ``differentiate(data.phi, k).at(r)``.  Instances are immutable and safe
    for concurrent evaluation.
    """

    def __init__(self, dim: Dimension, phi: RadialProfile, tau: RadialProfile, A: RadialProfile):
        grid = _require_same_grid(phi, tau, A)
        self.dim, self.phi, self.tau = dim, phi, tau
        n = dim.n

        trace_free = np.zeros(len(grid))
        trace_free[1:] = A.values[1:] / grid.nodes[1:] ** n
        # fields by name: "phi" holds phi - 1, which decays like the others
        self._profiles = {
            "phi": RadialProfile(grid, phi.values - 1.0),
            "dphi": differentiate(phi, 1),
            "d2phi": differentiate(phi, 2),
            "tau": tau,
            "trace_free": RadialProfile(grid, trace_free),
        }

    @property
    def r_max(self) -> float:
        return self.phi.grid.r_max

    def metric(self, x) -> np.ndarray:
        """g_ij(x) = phi^{N-2} delta_ij."""
        _, r = _cartesian_points(self.dim, x)
        (phi,) = self._fields_at(r, "phi")
        psi = _libm_pow(phi, float(self.dim.N) - 2.0)
        return (psi[:, None, None] * np.eye(self.dim.n)).reshape(np.shape(x) + (self.dim.n,))

    def extrinsic_curvature(self, x) -> np.ndarray:
        """k_ij(x); the trace-free part vanishes at x = 0, where x/r has no limit."""
        pts, r = _cartesian_points(self.dim, x)
        phi, tau, amplitude = self._fields_at(r, "phi", "tau", "trace_free")
        k = self._curvature(pts, r, phi, _libm_pow(phi, float(self.dim.N) - 2.0), tau, amplitude)
        return k.reshape(np.shape(x) + (self.dim.n,))

    def _fields_at(self, r, *names: str) -> list[np.ndarray]:
        """The named fields ("phi", "dphi", "d2phi", "tau", "trace_free") at
        the radii r, all interpolated with one cubic basis."""
        values = _sample_profiles([self._profiles[name] for name in names], r)
        return [1.0 + v if name == "phi" else v for name, v in zip(names, values)]

    def _curvature(self, pts, r, phi, psi, tau, amplitude) -> np.ndarray:
        """k_ij at points (M, n) of norms r from the fields there; psi = phi^{N-2}."""
        n = self.dim.n
        eye = np.eye(n)
        out = ((tau / n) * psi)[:, None, None] * eye
        off = slice(None) if np.all(r > 0.0) else r > 0.0  # masks only for points at the origin
        unit = pts[off] / r[off, None]
        amp = _libm_pow(phi[off], -2.0) * amplitude[off]
        out[off] += amp[:, None, None] * (unit[:, :, None] * unit[:, None, :] - eye / n)
        return out


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
    to 3e-6 relative, enough to flip gate verdicts near the threshold.
    A result past the double range raises FloatingPointError, as np.power
    does under np.errstate(over="raise")."""
    try:
        return np.power(base.astype(object), exponent).astype(float)
    except OverflowError:
        raise FloatingPointError("overflow encountered in power") from None


def assemble_initial_data(solution: ConformalSolution) -> InitialData:
    """The Cartesian (g, k) evaluator of a ConformalSolution, which reads
    its phi, tau and A; w and |LW| enter no evaluation."""
    return InitialData(solution.dim, solution.phi, solution.tau, solution.A)


# ---------------------------------------------------------------------------
# solution bundle CSV

_BUNDLE_HEADER = "r,phi,dphi,tau,A,w,lw"


def _read_csv_table(path, expected_header: str) -> tuple[str, np.ndarray]:
    """Parse a numeric CSV with a fixed header, which `` # `` and a record
    may end.  Returns the record ('' where there is none) and the table.
    A byte outside ASCII is a parse error on its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = data.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        # a stand-in for the bad byte ends the last of the lines before it
        line = len((data[: exc.start] + b"?").decode("ascii").splitlines())
        raise ProfileParseError(f"byte 0x{data[exc.start]:02x} is not ASCII", line=line) from None
    if not lines:
        raise SchemaError("empty CSV file")
    header, _, record = lines[0].strip().partition(" # ")
    if header != expected_header:
        raise SchemaError(f"expected header {expected_header!r}, got {lines[0]!r}")
    n_fields = expected_header.count(",") + 1
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != n_fields:
            raise ProfileParseError(f"expected {n_fields} fields, got {len(parts)}", line=lineno)
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ProfileParseError(str(exc), line=lineno) from None
    if not rows:
        raise SchemaError("CSV file has no data rows")
    return record, np.asarray(rows, dtype=float)


def _write_csv_table(path, header: str, columns, first=None) -> None:
    """Write equal-length float arrays as columns under a fixed header.

    One row per index, each value as ``%.17g`` (enough digits to read back
    the same float), ``\\n`` line endings.  numpy decides the 17 digits
    and lays out the text (:func:`_g17_slots`); Python's ``%`` formats,
    one at a time, the rare values whose digits float64 arithmetic cannot
    decide, so every byte is the one ``%.17g`` gives.  ``first`` may hold
    the slots of a column before them (see :func:`_g17_rows`).  The whole
    text is formatted before the file is opened: a failure while
    formatting leaves no file, or the old one as it was.
    """
    blocks = _g17_rows(np.column_stack(columns), first)
    with open(path, "wb") as fh:
        fh.writelines([header.encode("ascii") + b"\n", *blocks])


# ``%.17g`` text of float64 tables.  A value x with 1e-250 < |x| < 1e250
# and decimal exponent k has the 17-digit significand
# D = round(|x| 10^(16-k)).  k comes from log10, corrected once against
# the smallest doubles at or above 10^k.  The product with 10^(16-k),
# held as a double-double, is exact to about 1e-13 through Dekker's
# error-free split products ("A floating-point technique for extending
# the available precision", 1971), so only a fraction within 1e-9 of
# one half leaves the rounding of D undecided.  Those values, zeros,
# non-finite values and values outside the range take Python's ``%``.
#
# Each value's text is laid out in a slot of four little-endian 64-bit
# words, padded with NUL bytes, then the NULs are dropped:
#   word 0   sign, and "0." with leading zeros, right-aligned
#   word 1   digits 0-7     \  with the point inserted after digit q:
#   word 2   digits 8-15     > digits past q move up one byte, and
#   word 3   digit 16       /  digits past the kept ones are dropped
#   word 3   exponent and separator, right-aligned in bytes 2-7

_G17_K_MIN, _G17_K_MAX = -251, 251  # decimal exponents the tables cover
_G17_N_K = _G17_K_MAX - _G17_K_MIN + 1
_G17_NO_POINT = 17
_G17_BLOCK = 4096  # values formatted together; bounds the temporaries
_WORD = np.dtype("<u8")
_SPLITTER = 134217729.0  # 2^27 + 1: Dekker's split into 26-bit halves


def _word(text: bytes, at: int = 0) -> int:
    """A little-endian 64-bit word holding ``text`` from byte ``at``."""
    return int.from_bytes(bytes(at) + text, "little")


def _low_bytes(count: int) -> int:
    """A word whose ``count`` low bytes (clipped to 0..8) are all ones."""
    return _word(b"\xff" * min(8, max(0, count)))


class _G17Tables(typing.NamedTuple):
    floor: np.ndarray  # [k] smallest double >= 10^k
    scale_hi: np.ndarray  # [k] 10^(16-k) = scale_hi + scale_lo
    scale_lo: np.ndarray
    scale_hi_hi: np.ndarray  # [k] Dekker halves of scale_hi
    scale_hi_lo: np.ndarray
    int_len: np.ndarray  # [k] digits before the point in fixed notation
    point: np.ndarray  # [k] digit the point follows, if any digit follows it
    prefix: np.ndarray  # [k + N_K * negative] word 0
    suffix: np.ndarray  # [k + N_K * last column] exponent and separator
    quads: np.ndarray  # [0..9999] four ASCII digits as a word
    quad_zeros: np.ndarray  # [0..9999] trailing zeros of four digits
    stay: np.ndarray  # [word, 18 keep + q] digit bytes that stay in place
    move: np.ndarray  # [word, 18 keep + q] digit bytes that move up one
    dot: np.ndarray  # [word, 18 keep + q] the point


@functools.cache
def _g17_tables() -> _G17Tables:
    """Built on first use, from exact fractions and ``%.17g``'s rules:
    positional notation for -4 <= k < 17, trailing zeros dropped."""
    ks = range(_G17_K_MIN, _G17_K_MAX + 1)
    floor, scale_hi, scale_lo, int_len, point = [], [], [], [], []
    prefix, suffix = ([], []), ([], [])
    for k in ks:
        power = fractions.Fraction(10) ** k
        below = float(power)
        floor.append(below if below >= power else math.nextafter(below, math.inf))
        scale = fractions.Fraction(10) ** (16 - k)
        scale_hi.append(float(scale))
        scale_lo.append(float(scale - fractions.Fraction(scale_hi[-1])))
        fixed = -4 <= k < 17
        int_len.append(k + 1 if fixed and k >= 0 else 0)
        point.append(k if fixed and k >= 0 else _G17_NO_POINT if fixed else 0)
        lead = b"0." + b"0" * (-k - 1) if fixed and k < 0 else b""
        exponent = b"" if fixed else f"e{k:+03d}".encode()
        for negative, sign in enumerate((b"", b"-")):
            prefix[negative].append(_word(sign + lead, 8 - len(sign + lead)))
        for last, separator in enumerate((b",", b"\n")):
            suffix[last].append(_word(exponent + separator, 8 - len(exponent + separator)))
    stay, move, dot = (np.zeros((3, 18 * 18), dtype=_WORD) for _ in range(3))
    for keep in range(18):
        for q in range(18):
            in_place = 18 if q == _G17_NO_POINT else q + 1
            for w in range(3):
                kept = _low_bytes(keep - 8 * w)
                stay[w, 18 * keep + q] = kept & _low_bytes(in_place - 8 * w)
                move[w, 18 * keep + q] = kept & ~_low_bytes(in_place - 8 * w)
            if q != _G17_NO_POINT:
                dot[(q + 1) // 8, 18 * keep + q] = _word(b".", (q + 1) % 8)
    scale_hi = np.array(scale_hi)
    split = scale_hi * _SPLITTER
    scale_hi_hi = split - (split - scale_hi)
    four_digits = np.arange(10000)
    return _G17Tables(
        floor=np.array(floor),
        scale_hi=scale_hi,
        scale_lo=np.array(scale_lo),
        scale_hi_hi=scale_hi_hi,
        scale_hi_lo=scale_hi - scale_hi_hi,
        int_len=np.array(int_len, dtype=np.intp),
        point=np.array(point, dtype=np.intp),
        prefix=np.array(prefix, dtype=_WORD).ravel(),
        suffix=np.array(suffix, dtype=_WORD).ravel(),
        quads=np.frombuffer("".join(f"{v:04d}" for v in range(10000)).encode(), dtype="<u4").astype(_WORD),
        quad_zeros=sum((four_digits % 10**e == 0).astype(np.intp) for e in (1, 2, 3, 4)),
        stay=stay,
        move=move,
        dot=dot,
    )


def _g17_rows(table: np.ndarray, first=None) -> list[bytes]:
    """The rows of a 2-D float64 table as ``%.17g`` text, in blocks of
    whole rows: values joined by commas, each row ended by ``\\n``, after
    the row's slot in ``first`` (see :func:`_g17_column`) if given."""
    rows, cols = table.shape
    block = max(1, _G17_BLOCK // (cols + (first is not None)))
    last_column = np.zeros((block, cols), dtype=np.intp)
    last_column[:, -1] = _G17_N_K
    parts = []
    for start in range(0, rows, block):
        x = table[start:start + block].ravel()
        slots = _g17_slots(x, last_column.ravel()[: x.size])
        if first is not None:
            slots = np.concatenate([first[start:start + block, None], slots.reshape(-1, cols, 4)], axis=1)
        text = slots.view(np.uint8).ravel()
        parts.append(text[text != 0].tobytes())
    return parts


def _g17_column(values: np.ndarray) -> np.ndarray:
    """Read-only _g17_slots of the values, each followed by a comma."""
    commas = np.zeros(_G17_BLOCK, dtype=np.intp)
    blocks = np.split(values, range(_G17_BLOCK, values.size, _G17_BLOCK))
    slots = np.concatenate([_g17_slots(x, commas[: x.size]) for x in blocks])
    slots.setflags(write=False)
    return slots


def _g17_slots(x: np.ndarray, last_column: np.ndarray) -> np.ndarray:
    """(len(x), 4) words: the NUL-padded ``%.17g`` text of each value of
    x and its separator.  ``last_column`` is _G17_N_K for a value that
    ends its row (a newline follows it) and 0 for the others (a comma)."""
    tab = _g17_tables()
    ax = np.abs(x)
    fast = (ax > 1e-250) & (ax < 1e250)
    ax[~fast] = 1.0
    # log10 truncated toward zero is within one of k; i = k - K_MIN
    i = np.log10(ax).astype(np.intp) - _G17_K_MIN
    below = ax < tab.floor[i]
    i += ax >= tab.floor[i + 1]
    i -= below
    # |x| 10^(16-k) = high + t exactly but for about 1e-13 in t; high is
    # an integer, as every double at or above 2^53 is
    high = ax * tab.scale_hi[i]
    split = ax * _SPLITTER
    ax_hi = split - (split - ax)
    ax_lo = ax - ax_hi
    s_hi, s_lo = tab.scale_hi_hi[i], tab.scale_hi_lo[i]
    t = ax_hi * s_hi - high
    t += ax_hi * s_lo
    t += ax_lo * s_hi
    t += ax_lo * s_lo
    t += ax * tab.scale_lo[i]
    # D rounds high + t; a fraction of t this close to one half is a tie
    # or too close to call, and goes to ``%``
    whole = np.floor(t)
    t -= whole
    d = high.astype(np.int64) + whole.astype(np.int64)
    d += t > 0.5
    fast &= np.abs(t - 0.5) > 1e-9
    # 99...9.5 and up rounds to 10^17: one digit more, so 10^16 at k + 1
    carry = d == 10**17
    d[carry] = 10**16
    i += carry
    # the digits as words 0-7, 8-15 and 16, four at a time
    first8 = d // 10**9
    last9 = d - first8 * 10**9
    mid8 = last9 // 10
    digit16 = last9 - mid8 * 10
    q0 = first8 // 10**4
    q1 = first8 - q0 * 10**4
    q2 = mid8 // 10**4
    q3 = mid8 - q2 * 10**4
    zeros = tab.quad_zeros
    trailing = (digit16 == 0) * (
        1 + zeros[q3] + (q3 == 0) * (zeros[q2] + (q2 == 0) * (zeros[q1] + (q1 == 0) * zeros[q0]))
    )
    significant = 17 - trailing
    # no point when no digit would follow it
    point = tab.point[i]
    point[significant <= point + 1] = _G17_NO_POINT
    j = 18 * np.maximum(significant, tab.int_len[i]) + point
    w0 = tab.quads[q0] | (tab.quads[q1] << np.uint64(32))
    w1 = tab.quads[q2] | (tab.quads[q3] << np.uint64(32))
    w2 = digit16.astype(_WORD) + np.uint64(ord("0"))
    moved0 = w0 & tab.move[0][j]
    moved1 = w1 & tab.move[1][j]
    byte, top_byte = np.uint64(8), np.uint64(56)
    slots = np.empty((x.size, 4), dtype=_WORD)
    slots[:, 0] = tab.prefix[i + _G17_N_K * (x < 0)]
    slots[:, 1] = (w0 & tab.stay[0][j]) | (moved0 << byte) | tab.dot[0][j]
    slots[:, 2] = (w1 & tab.stay[1][j]) | (moved1 << byte) | (moved0 >> top_byte) | tab.dot[1][j]
    slots[:, 3] = ((w2 & tab.stay[2][j]) | ((w2 & tab.move[2][j]) << byte) | (moved1 >> top_byte)
                   | tab.dot[2][j] | tab.suffix[i + last_column])
    slow = np.flatnonzero(~fast)
    if slow.size:
        # the separator stays in the last byte
        slots.view(np.uint8)[slow, :31] = _percent_g17(x[slow]).view(np.uint8).reshape(-1, 31)
    return slots


def _percent_g17(values: np.ndarray) -> np.ndarray:
    """``%.17g`` of each value, one at a time, NUL-padded to 31 bytes."""
    return np.array([b"%.17g" % v for v in values.tolist()], dtype="S31")


def write_solution_csv(solution: ConformalSolution, path) -> None:
    """Write the solution bundle: header ``r,phi,dphi,tau,A,w,lw # n=<n>``,
    which records the dimension, and one row per grid node in the format
    of :func:`_write_csv_table`.  dphi, the grid derivative of phi, is for
    other readers of the file.  The grid's operator cache keeps r's text."""
    grid = solution.grid
    radii = grid._cached("g17_radii", lambda: _g17_column(grid.nodes))
    dphi = differentiate(solution.phi, 1).values
    columns = (
        solution.phi.values,
        dphi,
        solution.tau.values,
        solution.A.values,
        solution.w.values,
        solution.lw_norm.values,
    )
    _write_csv_table(path, f"{_BUNDLE_HEADER} # n={solution.dim.n}", columns, radii)


def read_solution_csv(path, dim: Dimension) -> ConformalSolution:
    """Read a bundle written by :func:`write_solution_csv` at the dimension
    its header records, or at ``dim`` for a legacy bundle that records
    none.  The redundant dphi column is ignored: derivatives are
    recomputed from phi on the reconstructed grid."""
    record, table = _read_csv_table(path, _BUNDLE_HEADER)
    if record:
        key, _, n = record.partition("=")
        if key != "n" or not n.isdigit() or len(n) > 9 or int(n) < 3:
            raise SchemaError(f"expected the dimension record 'n=<3 to 999999999>', got {record!r}")
        dim = Dimension(int(n))
    grid = RadialGrid(table[:, 0])
    phi = RadialProfile(grid, table[:, 1])
    tau, A, w, lw = (RadialProfile(grid, table[:, k]) for k in (3, 4, 5, 6))
    return ConformalSolution(dim, phi, tau, A, w, lw)
