"""Radial grids, profiles, and the calculus they support.

Everything downstream (conformal construction, elliptic solves,
verification) works with scalar functions of the radius sampled on a
shared grid.  This module owns that representation:

* graded grids on [0, r_max] with a uniform head near the origin and a
  geometrically stretched tail,
* high-order finite differences with even reflection across r = 0,
  stored as windowed stencils (one row of weights per node, applied to
  a window of neighbouring values),
* composite polynomial quadrature, cumulative and improper; stencil and
  quadrature weights are built once per local grid geometry, then scaled,
  and shared by grids with bitwise-equal nodes,
* power-law tail fits used for decay diagnostics.
"""

from __future__ import annotations

import collections
import dataclasses
import threading
from fractions import Fraction

import numpy as np

from .errors import DegenerateFitError, EvaluationOutOfRangeError, InvalidArgumentError

__all__ = [
    "Dimension",
    "RadialGrid",
    "RadialProfile",
    "TailModel",
    "build_grid",
    "differentiate",
    "integrate_from_zero",
    "integrate_to_infinity",
    "fit_tail",
]

_STENCIL = 7  # interior stencil width; order 6 (d/dr) and 5 (d2/dr2)
_QUAD_STENCIL = 5  # nodes per interval integral; exact through degree 4
_GEOMETRY_TOL = 1e-11  # rows whose scaled local geometry agrees this closely share weights
_OPERATOR_SETS = 8  # node sets whose operators stay shared; a CLI run uses 2

# operator caches by node bytes, least recently constructed first
_OPERATORS: collections.OrderedDict[bytes, dict] = collections.OrderedDict()
_OPERATORS_LOCK = threading.Lock()


@dataclasses.dataclass(frozen=True)
class Dimension:
    """Spatial dimension n >= 3 with the derived conformal exponent.

    The exponent N = 2n/(n-2) is kept exact (n = 3 gives N = 6); use
    ``float(dim.N)`` in floating-point formulas.
    """

    n: int

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)) or self.n < 3:
            raise InvalidArgumentError(f"spatial dimension must be an integer >= 3, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def N(self) -> Fraction:
        return Fraction(2 * self.n, self.n - 2)


class RadialGrid:
    """Strictly increasing nodes 0 = r_0 < r_1 < ... < r_max.

    Instances are immutable (the nodes are copied as ``_frozen`` says) and
    cache their differentiation and quadrature operators as windowed
    weights (row i weighs a short run of consecutive values), built once
    per class of scaled local geometry (see ``_geometry_classes``) from the
    nodes alone.  So grids with bitwise-equal nodes share one cache of
    read-only operators, kept for the last ``_OPERATOR_SETS`` node sets
    constructed; profiles still refer to grids by identity.
    """

    def __init__(self, nodes: np.ndarray):
        nodes = _frozen(nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise InvalidArgumentError("grid needs a 1-D array of at least two nodes")
        if not np.all(np.isfinite(nodes)):
            raise InvalidArgumentError("grid nodes must be finite")
        if nodes[0] != 0.0:
            raise InvalidArgumentError("first grid node must be exactly 0")
        if np.any(np.diff(nodes) <= 0):
            raise InvalidArgumentError("grid nodes must be strictly increasing")
        self.nodes = nodes
        key = nodes.tobytes()
        with _OPERATORS_LOCK:
            self._cache: dict = _OPERATORS.pop(key, {})
            _OPERATORS[key] = self._cache
            if len(_OPERATORS) > _OPERATOR_SETS:
                _OPERATORS.popitem(last=False)

    def __len__(self) -> int:
        return self.nodes.size

    def __repr__(self) -> str:
        return f"RadialGrid({len(self)} nodes, r_max={self.r_max:g})"

    @property
    def r_max(self) -> float:
        return float(self.nodes[-1])

    # -- cached operators -------------------------------------------------

    def derivative_matrix(self, order: int) -> np.ndarray:
        """Windowed stencil weights of d/dr (order 1) or d2/dr2 (order 2),
        shape (nodes, 7), or (nodes, 5) below seven nodes; read-only."""
        if order not in (1, 2):
            raise InvalidArgumentError(f"derivative order must be 1 or 2, got {order!r}")
        weights = self._cached("deriv", lambda: tuple(map(_slot_major, _build_derivative_weights(self.nodes))))
        return weights[order - 1]

    def _cached(self, key, build):
        """The operator cached under ``key``, built by ``build()`` on first use."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def _quadrature(self):
        return self._cached("quad", lambda: _build_quadrature(self.nodes))


@dataclasses.dataclass(frozen=True)
class TailModel:
    """Power-law model ``coefficient * r**-exponent`` fitted on a window.

    ``coefficient`` is signed; a negative ``exponent`` describes growth.
    ``misfit`` is the pointwise relative sup error over the fit window.
    """

    coefficient: float
    exponent: float
    window: tuple[float, float]
    misfit: float


@dataclasses.dataclass(frozen=True, eq=False)
class RadialProfile:
    """Samples of a radial function on a grid, which ends at r_max.

    The values are copied on construction unless they already are an
    owned, read-only float array, so neither side can change the other's.
    Its derivatives are cached per profile (see ``differentiate``).
    """

    grid: RadialGrid
    values: np.ndarray
    # derivative profiles by order
    _memo: dict = dataclasses.field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        values = _frozen(self.values)
        if values.shape != self.grid.nodes.shape:
            raise InvalidArgumentError(
                f"profile has {values.size} values for a grid of {len(self.grid)} nodes"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidArgumentError("profile values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def r(self) -> np.ndarray:
        return self.grid.nodes

    def at(self, radii):
        """Evaluate by local cubic interpolation; raises
        EvaluationOutOfRangeError past r_max."""
        out = _sample_profiles((self,), radii)[0]
        if np.isscalar(radii) or np.asarray(radii).ndim == 0:
            return float(out[0])
        return out


def _frozen(values) -> np.ndarray:
    """The values as a read-only C-contiguous float64 array that no other
    array can write to: the input itself when it already is one, else a copy,
    which leaves the caller's array writable."""
    if not (
        type(values) is np.ndarray
        and values.dtype == np.float64
        and values.flags.c_contiguous
        and not values.flags.writeable
        and values.base is None
    ):
        values = np.array(values, dtype=float, order="C")
        values.setflags(write=False)
    return values


# ---------------------------------------------------------------------------
# grid construction


def build_grid(n_points: int, r_max: float, stretch: float = 1.0) -> RadialGrid:
    """Graded grid on [0, r_max]: uniform head, geometric tail.

    ``stretch`` bounds the ratio of adjacent spacings.  The tail nodes
    follow r_t * rho**i with a node ratio rho <= stretch, and the number
    of uniform head cells is chosen so the spacing is continuous at the
    seam and the head covers radius ~1 (the inner scale; r_max must
    exceed it).  A stretch too small for any such split, stretch = 1
    among them, gives the uniform grid.
    """
    if not isinstance(n_points, (int, np.integer)) or n_points < 64:
        raise InvalidArgumentError(f"need at least 64 grid points, got {n_points!r}")
    if not (r_max > 1.0 and np.isfinite(r_max)):
        raise InvalidArgumentError(f"r_max must be finite and exceed 1, got {r_max!r}")
    if not (stretch >= 1.0 and np.isfinite(stretch)):
        raise InvalidArgumentError(f"stretch must be finite and >= 1, got {stretch!r}")

    intervals = int(n_points) - 1
    # Tail of K_g geometric intervals with node ratio rho = 1 + 1/K_u makes
    # the first tail spacing equal the head spacing exactly.  Pick the split
    # whose head radius r_t = r_max * rho**-K_g is closest to 1.
    k_tail = np.arange(1, intervals)
    k_head = intervals - k_tail
    rho = 1.0 + 1.0 / k_head
    feasible = rho <= stretch * (1.0 + 1e-12)
    if not np.any(feasible):
        return RadialGrid(np.linspace(0.0, r_max, n_points))
    log_rt = np.log(r_max) - k_tail * np.log1p(1.0 / k_head)
    log_rt[~feasible] = np.inf
    pick = int(np.argmin(np.abs(log_rt)))
    kg = int(k_tail[pick])
    ku = int(k_head[pick])
    rt = float(np.exp(log_rt[pick]))

    head = np.linspace(0.0, rt, ku + 1)
    tail = rt * (1.0 + 1.0 / ku) ** np.arange(1, kg + 1, dtype=float)
    nodes = np.concatenate([head, tail])
    nodes[-1] = r_max
    return RadialGrid(nodes)


# ---------------------------------------------------------------------------
# finite differences


def _fornberg_weights(x: np.ndarray) -> np.ndarray:
    """Weights for derivatives 0..2 at 0 on the nodes x[i, :], all rows at once.

    Fornberg's recursion (1988) with each scalar of the classic loop
    replaced by a vector over the rows; the loops run over the stencil
    slots only.  Returns an array of shape (rows, width, 3).
    """
    rows, width = x.shape
    c = np.zeros((width, 3, rows))
    c1 = np.ones(rows)
    c[0, 0] = 1.0
    for i in range(1, width):
        mn = min(i, 2)
        c2 = np.ones(rows)
        for j in range(i):
            c3 = x[:, i] - x[:, j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - x[:, j] * c[i - 1, k]) / c2
                c[i, 0] = -c1 * x[:, j] * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (x[:, i] * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = x[:, i] * c[j, 0] / c3
        c1 = c2
    return c.transpose(2, 0, 1)


def _geometry_classes(geometry: np.ndarray):
    """(representatives, class of each row) of rows of scaled local geometry.

    Rows whose every coordinate rounds to the same multiple of
    ``_GEOMETRY_TOL`` form a class, so each row lies within that tolerance
    of the class's representative, its first row; nothing chains along
    neighbours.  Classes come in runs of consecutive rows, so only the
    first row of each run is sorted."""
    key = np.rint(geometry / _GEOMETRY_TOL)
    heads = np.flatnonzero(np.r_[True, np.any(key[1:] != key[:-1], axis=1)])
    order = np.lexsort(key[heads].T[::-1])  # stable: equal keys keep row order
    new = np.r_[True, np.any(np.diff(key[heads[order]], axis=0) != 0.0, axis=1)]
    label = np.empty_like(order)
    label[order] = np.cumsum(new) - 1
    return heads[order[new]], np.repeat(label, np.diff(np.r_[heads, len(key)]))


def _window_starts(npts: int, width: int) -> np.ndarray:
    """First column of each node's window: centred, or pushed inside the grid."""
    return np.clip(np.arange(npts) - width // 2, 0, npts - width)


def _build_derivative_weights(nodes: np.ndarray):
    """First- and second-derivative stencils with even reflection at r=0.

    Returns (d1, d2), each of shape (npts, width): row i acts on the
    values in columns starts[i] .. starts[i] + width - 1 (see
    ``_window_starts``).  Odd-order stencils near the origin use ghost
    nodes at -r_k carrying the value at +r_k; each ghost weight is folded
    onto column k, and the row for d/dr at r=0 is zero.  Each class of
    window offsets scaled by the window's extent h (``_geometry_classes``)
    gets one row; each row divides it by h or h^2 and is re-normalized to
    sum to zero.
    """
    npts = nodes.size
    if npts < 5:
        raise InvalidArgumentError("differentiation needs at least 5 nodes")
    width = _STENCIL if npts >= _STENCIL else 5
    rows = np.arange(npts)
    starts = _window_starts(npts, width)
    # the first rows centre their stencil on the node, reaching past r = 0
    first = np.minimum(starts, rows - width // 2)
    offsets = first[:, None] + np.arange(width)
    x = np.copysign(nodes[np.abs(offsets)], offsets) - nodes[:, None]
    h = x[:, -1] - x[:, 0]
    reps, label = _geometry_classes(np.column_stack([x / h[:, None], starts - first]))
    w = _fornberg_weights(x[reps] / h[reps, None])[:, :, 1:]
    folded = np.zeros_like(w)  # ghost weights onto their mirror columns, slot by slot
    np.add.at(folded, (np.arange(reps.size)[:, None], np.abs(offsets[reps]) - starts[reps, None]), w)
    scaled = folded.T.take(label, axis=2)  # slot-major, see _slot_major
    scaled /= np.stack([h, h * h])[:, None]
    scaled.reshape(2, -1)[:, (rows - starts) * npts + rows] -= scaled.sum(axis=1)
    scaled[0, :, 0] = 0.0  # d/dr of a smooth even profile vanishes at the origin
    return scaled.transpose(0, 2, 1)


def _slot_major(weights: np.ndarray) -> np.ndarray:
    """Read-only (npts, width) view of a slot-major copy of the weights, so
    that ``weights.T`` is contiguous for ``_apply_window``."""
    store = np.ascontiguousarray(weights.T)
    store.setflags(write=False)
    return store.T


def _apply_window(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Row i of the result is ``weights[i] @ values[starts[i]:starts[i]+width]``,
    summed from zero slot by slot in column order; reports depend on this
    order bitwise.  Slot s slices ``values[s : npts - width + 1 + s]`` for the
    centred rows; the first and last width // 2 rows take their edge window's
    value.  Fastest for weights laid out by ``_slot_major``."""
    npts, width = weights.shape
    half = width // 2
    out, term = np.zeros(npts), np.empty(npts)
    for slot, column in enumerate(weights.T):
        term[:half], term[npts - half:] = values[slot], values[npts - width + slot]
        term[half:npts - half] = values[slot:npts - width + 1 + slot]
        term *= column
        out += term
    return out


def differentiate(profile: RadialProfile, order: int = 1) -> RadialProfile:
    """Derivative of the given order (1 or 2) on the profile's grid.

    The constant mode is removed before applying the stencil so constant
    profiles differentiate to exactly zero.  The result is computed once
    per profile and returned again on later calls.
    """
    cache = profile._memo
    if order not in (1, 2) or order not in cache:
        weights = profile.grid.derivative_matrix(order)  # raises on any other order
        values = profile.values - profile.values[0]
        cache[order] = RadialProfile(profile.grid, _apply_window(weights, values))
    return cache[order]


# ---------------------------------------------------------------------------
# quadrature


def _build_quadrature(nodes: np.ndarray):
    """Per-interval weights integrating the local degree-4 interpolant.

    Returns read-only (index, weights) where interval i integrates
    ``weights[i] @ values[index[i]]``, a run of five consecutive nodes.
    One row per class of node offsets from the interval's centre, scaled
    by its width (``_geometry_classes``), is multiplied by that width.
    """
    npts = nodes.size
    if npts < _QUAD_STENCIL:
        raise InvalidArgumentError("quadrature needs at least 5 nodes")
    idx = _window_starts(npts, _QUAD_STENCIL)[:-1, None] + np.arange(_QUAD_STENCIL)
    widths = np.diff(nodes)
    t = (nodes[idx] - 0.5 * (nodes[:-1] + nodes[1:])[:, None]) / widths[:, None]
    reps, label = _geometry_classes(t)
    # 3-point Gauss-Legendre on [-1/2, 1/2] (exact through degree 5) of the interpolant;
    # the recursion works row by row, so one call on the three shifted copies
    # gives each point's weights bitwise as a call of its own would
    gauss_t = (-np.sqrt(0.15), 0.0, np.sqrt(0.15))
    at_points = _fornberg_weights(np.concatenate([t[reps] - g_t for g_t in gauss_t]))[:, :, 0]
    per_point = np.split(at_points, len(gauss_t))
    weights = sum(g_w * w for g_w, w in zip((5 / 18, 8 / 18, 5 / 18), per_point))
    weights = weights[label] * widths[:, None]
    idx.setflags(write=False)
    weights.setflags(write=False)
    return idx, weights


def _interval_integrals(profile: RadialProfile) -> np.ndarray:
    """Integral of the profile over each grid interval."""
    idx, weights = profile.grid._quadrature()
    return np.einsum("ij,ij->i", weights, profile.values[idx])


def integrate_from_zero(profile: RadialProfile) -> RadialProfile:
    """Cumulative integral I(r) = int_0^r p, sampled on the same grid."""
    increments = _interval_integrals(profile)
    out = np.empty(len(profile.grid))
    out[0] = 0.0
    np.cumsum(increments, out=out[1:])
    return RadialProfile(profile.grid, out)


def integrate_to_infinity(profile: RadialProfile, remainder: float) -> RadialProfile:
    """Improper integral J(r) = int_r^inf p via grid quadrature plus
    ``remainder``, the caller's value of int_{r_max}^inf p; so J(r_max)
    is the remainder itself.
    """
    increments = _interval_integrals(profile)
    # reverse accumulation: no cancellation against the near-origin bulk
    values = np.empty(len(profile.grid))
    values[-1] = 0.0
    values[:-1] = np.cumsum(increments[::-1])[::-1]
    values += remainder
    return RadialProfile(profile.grid, values)


# ---------------------------------------------------------------------------
# tail fits


def _window_bounds(grid: RadialGrid, window: tuple[float, float]) -> tuple[float, float]:
    """(lo, hi) as floats if 0 < lo < hi <= r_max (to rounding), else InvalidArgumentError."""
    lo, hi = float(window[0]), float(window[1])
    if not (0.0 < lo < hi <= grid.r_max * (1.0 + 1e-12)):
        raise InvalidArgumentError(f"bad fit window ({lo:g}, {hi:g}) for r_max={grid.r_max:g}")
    return lo, hi


def _fit_window(grid: RadialGrid, values: np.ndarray, window: tuple[float, float]):
    """((lo, hi), radii, values) of the nodes in the fit window of
    ``fit_tail``, once the window and the sign of the values there pass
    its checks; raises InvalidArgumentError or DegenerateFitError."""
    lo, hi = _window_bounds(grid, window)
    mask = (grid.nodes >= lo) & (grid.nodes <= hi)
    if int(mask.sum()) < 4:
        raise InvalidArgumentError("fit window contains fewer than 4 grid nodes")
    vw = values[mask]
    if np.all(vw == 0.0):
        raise DegenerateFitError("profile vanishes identically on the fit window")
    if np.any(vw == 0.0) or (np.any(vw > 0.0) and np.any(vw < 0.0)):
        raise DegenerateFitError("profile vanishes or changes sign on the fit window")
    return (lo, hi), grid.nodes[mask], vw


def fit_tail(profile: RadialProfile, window: tuple[float, float]) -> TailModel:
    """Least-squares power-law fit of the profile on the log-log window
    (lo, hi), 0 < lo < hi <= r_max.  The data must be single-signed and
    nonvanishing on the window; otherwise the fit is degenerate.
    """
    (lo, hi), rw, vw = _fit_window(profile.grid, profile.values, window)
    sign = 1.0 if vw[0] > 0 else -1.0
    slope, intercept = np.polyfit(np.log(rw), np.log(np.abs(vw)), 1)
    exponent = -float(slope)
    coefficient = sign * float(np.exp(intercept))
    model = coefficient * rw ** (-exponent)
    misfit = float(np.max(np.abs(model / vw - 1.0)))
    return TailModel(coefficient, exponent, (lo, hi), misfit)


# ---------------------------------------------------------------------------
# interpolation


def _sample_profiles(profiles, radii) -> list[np.ndarray]:
    """Each profile, all on one grid, at the radii (as a 1-D or larger array)
    from one local 4-point Lagrange basis; raises EvaluationOutOfRangeError
    past r_max.  Weight j is the left-to-right product of the factors
    (r - x_k)/(x_j - x_k), k != j in order, and each profile sums its four
    terms from zero in basis order; reports depend on this bitwise."""
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if not np.all(radii >= 0):  # NaN fails too
        raise InvalidArgumentError("radii must be nonnegative")
    nodes = profiles[0].grid.nodes
    r_max = profiles[0].grid.r_max
    # tolerate roundoff from norms of points nominally on the boundary
    if np.any(radii > r_max * (1.0 + 1e-12)):
        raise EvaluationOutOfRangeError(f"evaluation at r={float(radii.max()):g} beyond r_max={r_max:g}")
    if nodes.size < 4:
        raise InvalidArgumentError("interpolation needs at least 4 nodes")
    r = np.minimum(radii.ravel(), r_max)
    s = np.clip(np.searchsorted(nodes, r, side="right") - 2, 0, nodes.size - 4)
    idx = s + np.arange(4)[:, None]
    x = nodes[idx]
    d = r - x
    basis = [d[a] / (x[j] - x[a]) * (d[b] / (x[j] - x[b])) * (d[c] / (x[j] - x[c]))
             for j, a, b, c in ((0, 1, 2, 3), (1, 0, 2, 3), (2, 0, 1, 3), (3, 0, 1, 2))]
    samples = []
    for profile in profiles:
        f = profile.values[idx]
        out = np.zeros_like(r)
        for j in range(4):
            out += f[j] * basis[j]
        samples.append(out.reshape(radii.shape))
    return samples
