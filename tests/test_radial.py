"""Oracle and property tests for the radial calculus layer."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import vacuumdata

from vacuumdata.errors import (
    DegenerateFitError,
    EvaluationOutOfRangeError,
    InvalidArgumentError,
    NoTailError,
    ProfileParseError,
    SchemaError,
    TailTooSlowError,
)
from vacuumdata.radial import (
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
from vacuumdata.conformal import _derived_tail, _read_csv_table
from vacuumdata.conformal import build_solution, read_solution_csv, write_solution_csv
from vacuumdata.radial import (
    _GEOMETRY_TOL,
    _apply_window,
    _build_quadrature,
    _geometry_classes,
    _window_starts,
)
from vacuumdata.solver import smooth_schwarzschild_phi


@pytest.fixture(scope="module")
def work_grid():
    return build_grid(4000, 1e4, 1.01)


def irregular_nodes(npts, seed=3):
    """Nodes with random spacings between 0.1 and 2: no two rows share a geometry."""
    rng = np.random.default_rng(seed)
    return np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 2.0, npts - 1))])


def assert_rows_close(weights, reference, rtol=1e-10):
    """Every row within rtol of the reference row, relative to its largest weight."""
    scale = np.max(np.abs(reference), axis=1, keepdims=True)
    assert np.all(np.abs(weights - reference) <= rtol * scale)


def positive_power_profile(grid, power, coeff=1.0):
    vals = np.zeros(len(grid))
    pos = grid.nodes > 0
    vals[pos] = coeff * grid.nodes[pos] ** power
    return RadialProfile(grid, vals)


class TestDimension:
    @pytest.mark.parametrize("n,num,den", [(3, 6, 1), (4, 4, 1), (5, 10, 3), (6, 3, 1)])
    def test_conformal_exponent(self, n, num, den):
        dim = Dimension(n)
        assert dim.N.numerator == num and dim.N.denominator == den

    @pytest.mark.parametrize("bad", [2, 0, -1, 3.0])
    def test_rejects_bad_dimension(self, bad):
        with pytest.raises(InvalidArgumentError):
            Dimension(bad)


class TestBuildGrid:
    def test_stretch_one_is_uniform(self):
        grid = build_grid(64, 10.0, 1.0)
        assert len(grid) == 64
        assert grid.nodes[0] == 0.0
        assert grid.nodes[-1] == 10.0
        np.testing.assert_allclose(np.diff(grid.nodes), 10.0 / 63, rtol=1e-14)

    @pytest.mark.parametrize("n_points,r_max,stretch", [(128, 100.0, 1.05), (4000, 1e4, 1.01), (256, 50.0, 1.2)])
    def test_spacing_ratio_bound(self, n_points, r_max, stretch):
        grid = build_grid(n_points, r_max, stretch)
        assert len(grid) == n_points
        assert grid.nodes[0] == 0.0
        assert grid.nodes[-1] == r_max
        h = np.diff(grid.nodes)
        ratios = h[1:] / h[:-1]
        assert ratios.max() <= stretch * (1.0 + 1e-9)

    def test_graded_grid_resolves_origin(self):
        # the head spacing must be far finer than uniform spacing r_max/K
        grid = build_grid(4000, 1e4, 1.01)
        assert np.diff(grid.nodes)[0] < 1e-2

    @pytest.mark.parametrize("args", [
        (63, 10.0, 1.0), (64, 1.0, 1.0), (64, 0.5, 1.0), (64, 10.0, 0.9),
        (64, math.inf, 1.0), (64, math.inf, 1.01), (64, 10.0, math.inf),
    ])
    def test_rejects_bad_arguments(self, args):
        with pytest.raises(InvalidArgumentError):
            build_grid(*args)


class TestRadialGridValidation:
    def test_rejects_nonzero_origin(self):
        with pytest.raises(InvalidArgumentError):
            RadialGrid(np.array([0.1, 1.0, 2.0]))

    def test_rejects_nonmonotone(self):
        with pytest.raises(InvalidArgumentError):
            RadialGrid(np.array([0.0, 2.0, 1.0]))

    def test_profile_shape_mismatch(self):
        grid = build_grid(64, 10.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            RadialProfile(grid, np.zeros(63))


class TestDifferentiate:
    def test_quadratic_exact(self):
        grid = build_grid(64, 10.0, 1.0)
        d = differentiate(RadialProfile(grid, grid.nodes**2), 1)
        assert np.max(np.abs(d.values - 2 * grid.nodes)) < 1e-10

    def test_constant_maps_to_exact_zero(self, work_grid):
        c = RadialProfile(work_grid, np.full(len(work_grid), 2.5))
        assert np.all(differentiate(c, 1).values == 0.0)
        assert np.all(differentiate(c, 2).values == 0.0)

    def test_origin_derivative_vanishes_for_even_profiles(self, work_grid):
        p = RadialProfile(work_grid, np.cos(work_grid.nodes))
        assert differentiate(p, 1).values[0] == 0.0

    @pytest.mark.parametrize("order,exact,min_rate", [
        (1, lambda r: -r * (1 + r**2) ** -1.5, 3.5),
        (2, lambda r: (2 * r**2 - 1) * (1 + r**2) ** -2.5, 3.0),
    ])
    def test_decaying_profile_convergence(self, order, exact, min_rate):
        errs = []
        for n_points in (512, 1024):
            grid = build_grid(n_points, 50.0, 1.0)
            d = differentiate(RadialProfile(grid, (1 + grid.nodes**2) ** -0.5), order)
            errs.append(np.max(np.abs(d.values - exact(grid.nodes))))
        rate = math.log2(errs[0] / errs[1])
        assert rate > min_rate

    def test_rejects_bad_order(self, work_grid):
        with pytest.raises(InvalidArgumentError):
            differentiate(RadialProfile(work_grid, work_grid.nodes), 3)


def scalar_fornberg_weights(x, x0, max_order):
    """Fornberg's recursion for one node, one scalar at a time (reference)."""
    npts = len(x)
    c = np.zeros((npts, max_order + 1))
    c1 = 1.0
    c4 = x[0] - x0
    c[0, 0] = 1.0
    for i in range(1, npts):
        mn = min(i, max_order)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c


def reference_stencils(nodes):
    """Node-by-node stencil construction with ghost nodes at -r_k, folded
    onto the windowed layout (row i starts at its clamped window start)."""
    npts = nodes.size
    width = 7 if npts >= 7 else 5
    half = width // 2
    starts = [min(max(i - half, 0), npts - width) for i in range(npts)]
    d1 = np.zeros((npts, width))
    d2 = np.zeros((npts, width))
    for i in range(npts):
        if i < half:
            offsets = np.arange(i - half, i + half + 1)
            positions = np.where(offsets >= 0, nodes[np.abs(offsets)], -nodes[np.abs(offsets)])
            columns = np.abs(offsets)
            center = half
        else:
            columns = np.arange(starts[i], starts[i] + width)
            positions = nodes[columns]
            center = i - starts[i]
        w = scalar_fornberg_weights(positions, nodes[i], 2)
        w1 = w[:, 1].copy()
        w2 = w[:, 2].copy()
        w1[center] -= w1.sum()
        w2[center] -= w2.sum()
        if i == 0:
            w1[:] = 0.0
        for col, a, b in zip(columns, w1, w2):
            d1[i, col - starts[i]] += a
            d2[i, col - starts[i]] += b
    return d1, d2


STENCIL_GRIDS = pytest.mark.parametrize("nodes", [
    build_grid(4000, 1e4, 1.01).nodes,
    build_grid(300, 20.0, 1.0).nodes,
    np.array([0.0, 0.5, 1.25, 2.0, 3.5]),
    np.array([0.0, 0.5, 1.25, 2.0, 3.5, 6.0]),
    irregular_nodes(400),
], ids=["graded-4000", "uniform-300", "five-nodes", "six-nodes", "irregular-400"])


class TestStencilWeights:
    @STENCIL_GRIDS
    def test_match_scalar_recursion(self, nodes):
        # rows borrow their class's weights, so they equal the node-by-node
        # construction to rounding, not bitwise
        grid = RadialGrid(nodes)
        ref1, ref2 = reference_stencils(grid.nodes)
        assert grid.derivative_matrix(1).shape == ref1.shape
        assert_rows_close(grid.derivative_matrix(1), ref1)
        assert_rows_close(grid.derivative_matrix(2), ref2)
        assert np.all(grid.derivative_matrix(1)[0] == 0.0)
        for order in (1, 2):
            # re-normalized rows: constants differentiate to rounding of the weights
            weights = grid.derivative_matrix(order)
            assert np.all(np.abs(weights.sum(axis=1)) <= 1e-15 * np.abs(weights).sum(axis=1))

    @STENCIL_GRIDS
    def test_exact_on_polynomials(self, nodes):
        # row i differentiates ((r - r_i)/s)^k, k < width, exactly at r_i; the
        # first rows, which fold ghost nodes, the even powers (r/s)^(2m)
        grid = RadialGrid(nodes)
        npts, width = grid.derivative_matrix(1).shape
        half = width // 2
        s = nodes[-1]
        r = nodes[grid._window_index(width).T]
        ri = nodes[:, None]
        for order in (1, 2):
            weights = grid.derivative_matrix(order)
            for k in range(width):
                local = ((r - ri) / s) ** k
                exact = math.factorial(k) / s**k if k == order else 0.0
                got = np.sum(weights * local, axis=1)
                bound = 1e-9 * np.sum(np.abs(weights * local), axis=1) + 1e-300
                assert np.all(np.abs(got[half:] - exact) <= bound[half:])
            for m in range(half + 1):
                even = (r / s) ** (2 * m)
                exact = np.zeros(half)
                if m >= 1:
                    p, x = 2 * m, nodes[:half] / s
                    exact = (p * x ** (p - 1) if order == 1 else p * (p - 1) * x ** (p - 2)) / s**order
                    if order == 1:
                        exact[0] = 0.0
                got = np.sum(weights[:half] * even[:half], axis=1)
                bound = 1e-9 * np.sum(np.abs(weights[:half] * even[:half]), axis=1) + 1e-300
                assert np.all(np.abs(got - exact) <= bound)

    def test_cached_per_grid(self):
        grid = build_grid(64, 10.0, 1.0)
        assert grid.derivative_matrix(1) is grid.derivative_matrix(1)
        assert grid.derivative_matrix(2) is grid.derivative_matrix(2)

    def test_window_sum_runs_in_column_order(self):
        # each row is accumulated from zero, slot by slot, left to right
        grid = build_grid(64, 10.0, 1.05)
        weights = grid.derivative_matrix(2)
        values = np.cos(grid.nodes)
        starts = _window_starts(len(grid), weights.shape[1])
        expected = np.empty(len(grid))
        for i in range(len(grid)):
            total = 0.0
            for slot in range(weights.shape[1]):
                total += weights[i, slot] * values[starts[i] + slot]
            expected[i] = total
        assert np.array_equal(_apply_window(grid, weights, values), expected)
        # any weight layout gives the same sums
        assert np.array_equal(_apply_window(grid, np.ascontiguousarray(weights), values), expected)

    def test_window_index_cached_and_read_only(self):
        grid = build_grid(64, 10.0, 1.05)
        index = grid._window_index(7)
        assert index is grid._window_index(7)
        assert np.array_equal(index, _window_starts(64, 7) + np.arange(7)[:, None])
        with pytest.raises(ValueError):
            index[0, 0] = 1

    def test_import_loads_no_sparse_module(self):
        code = "import sys, vacuumdata; print(any(m.startswith('scipy.sparse') for m in sys.modules))"
        src = os.path.dirname(os.path.dirname(vacuumdata.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_only_a_solve_loads_scipy(self, tmp_path):
        # the commands that never solve load no scipy module at all; the
        # free-tau solve imports LAPACK on its first banded solve
        code = (
            "import contextlib, io, json, sys\n"
            "import vacuumdata\n"
            "from vacuumdata import cli\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "seen, codes = {'import': loaded()}, {}\n"
            "bundle = sys.argv[1]\n"
            "for argv in (['smooth-schwarzschild', '--m', '1', '--profiles', bundle],\n"
            "             ['verify', bundle], ['mass', bundle], ['decay', bundle]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        codes[argv[0]] = cli.main(argv)\n"
            "    seen[argv[0]] = loaded()\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    codes['free-tau'] = cli.main(['free-tau', '--c', '1', '--q', '1.5'])\n"
            "print(json.dumps({'seen': seen, 'codes': codes,\n"
            "                  'iterations': json.loads(out.getvalue())['iterations'],\n"
            "                  'lapack': 'scipy.linalg.lapack' in sys.modules}))\n"
        )
        src = os.path.dirname(os.path.dirname(vacuumdata.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "bundle.csv")],
                             env=env, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout)
        assert result["seen"] == {name: [] for name in ("import", "smooth-schwarzschild", "verify", "mass", "decay")}
        assert result["codes"] == {name: 0 for name in ("smooth-schwarzschild", "verify", "mass", "decay", "free-tau")}
        assert result["iterations"] > 0
        assert result["lapack"]
        assert out.stderr == ""


def reference_quadrature(nodes):
    """The interval weights solved interval by interval: the Vandermonde of
    the scaled node offsets, every power through np.power, against the
    moments of t^k over [-1/2, 1/2]."""
    npts = nodes.size
    starts = _window_starts(npts, 5)[:-1]
    idx = starts[:, None] + np.arange(5)[None, :]
    widths = np.diff(nodes)
    centers = 0.5 * (nodes[:-1] + nodes[1:])
    t = (nodes[idx] - centers[:, None]) / widths[:, None]
    k = np.arange(5)
    moments = np.where(k % 2 == 0, 0.5**k / (k + 1.0), 0.0)
    vander = t[:, :, None] ** k[None, None, :]
    rhs = np.broadcast_to(moments[:, None], (npts - 1, 5, 1)).copy()
    weights = np.linalg.solve(np.swapaxes(vander, 1, 2), rhs)[:, :, 0]
    weights *= widths[:, None]
    return idx, weights


QUADRATURE_GRIDS = pytest.mark.parametrize("n_points,r_max,stretch", [
    (64, 10.0, 1.0), (4000, 1e4, 1.01), (8000, 1e3, 1.01), (300, 50.0, 1.05), (400, None, None),
], ids=["64-10.0-1.0", "4000-10000.0-1.01", "8000-1000.0-1.01", "300-50.0-1.05", "irregular-400"])


def quadrature_nodes(n_points, r_max, stretch):
    return irregular_nodes(n_points) if r_max is None else build_grid(n_points, r_max, stretch).nodes


def interval_offsets(nodes, index):
    """Each interval's node offsets from its centre in units of its width."""
    widths = np.diff(nodes)
    return (nodes[index] - 0.5 * (nodes[:-1] + nodes[1:])[:, None]) / widths[:, None]


class TestQuadratureWeights:
    @QUADRATURE_GRIDS
    def test_match_full_power_reference(self, n_points, r_max, stretch):
        nodes = quadrature_nodes(n_points, r_max, stretch)
        index, weights = _build_quadrature(nodes)
        ref_index, ref_weights = reference_quadrature(nodes)
        assert np.array_equal(index, ref_index)
        assert_rows_close(weights, ref_weights)

    @QUADRATURE_GRIDS
    def test_exact_through_degree_four(self, n_points, r_max, stretch):
        nodes = quadrature_nodes(n_points, r_max, stretch)
        index, weights = _build_quadrature(nodes)
        widths = np.diff(nodes)
        t = interval_offsets(nodes, index)
        for k in range(5):
            exact = widths * (0.5**k / (k + 1.0) if k % 2 == 0 else 0.0)
            terms = weights * t**k
            assert np.all(np.abs(terms.sum(axis=1) - exact) <= 1e-12 * np.sum(np.abs(terms), axis=1))


class TestGeometryClasses:
    def test_drifting_rows_stay_within_tolerance_of_representative(self):
        # neighbours differ by 0.3 tol, so chaining along neighbours would put
        # rows 100 tol apart into one class
        geometry = np.arange(400.0)[:, None] * np.array([0.3, -0.7]) * _GEOMETRY_TOL + 0.25
        reps, label = _geometry_classes(geometry)
        assert np.all(np.abs(geometry - geometry[reps[label]]) <= _GEOMETRY_TOL)
        assert np.all(reps[label] <= np.arange(400))  # the representative is its class's first row
        assert reps.size > 1

    @pytest.mark.parametrize("n_points,r_max", [(4000, 1e4), (8000, 1e4), (8000, 1e3)])
    def test_graded_grid_has_few_classes(self, n_points, r_max):
        nodes = build_grid(n_points, r_max, 1.01).nodes
        t = interval_offsets(nodes, _build_quadrature(nodes)[0])
        reps, label = _geometry_classes(t)
        assert reps.size <= 20
        assert np.all(np.abs(t - t[reps[label]]) <= _GEOMETRY_TOL)

    def test_irregular_grid_has_one_class_per_row(self):
        nodes = irregular_nodes(400)
        index, _ = _build_quadrature(nodes)
        reps, label = _geometry_classes(interval_offsets(nodes, index))
        assert np.array_equal(np.sort(reps), np.arange(len(index)))
        assert np.array_equal(reps[label], np.arange(len(index)))


class TestWeightsFromBundle:
    @pytest.mark.parametrize("n,grid_args", [(3, (4000, 1e4, 1.01)), (4, (4000, 1e3, 1.01))],
                             ids=["n3-4000-1e4", "n4-4000-1e3"])
    def test_read_grid_gets_bitwise_equal_weights(self, tmp_path, n, grid_args):
        dim = Dimension(n)
        built = build_grid(*grid_args)
        sol = build_solution(dim, smooth_schwarzschild_phi(dim, 1.0, built))
        write_solution_csv(sol, tmp_path / "bundle.csv")
        read = read_solution_csv(tmp_path / "bundle.csv", dim).grid
        assert read is not built and np.array_equal(read.nodes, built.nodes)
        for order in (1, 2):
            assert np.array_equal(read.derivative_matrix(order).view(np.int64),
                                  built.derivative_matrix(order).view(np.int64))
        assert np.array_equal(read._quadrature()[1].view(np.int64), built._quadrature()[1].view(np.int64))


class TestIntegrateFromZero:
    def test_cubic_closed_form(self):
        # h = 10/640 is a power of two, so r = 1 is hit exactly
        grid = build_grid(641, 10.0, 1.0)
        integral = integrate_from_zero(RadialProfile(grid, grid.nodes**3))
        i_at_one = integral.values[np.searchsorted(grid.nodes, 1.0)]
        assert abs(i_at_one - 0.25) < 1e-12

    def test_zero_integrand_is_bitwise_zero(self, work_grid):
        integral = integrate_from_zero(RadialProfile(work_grid, np.zeros(len(work_grid))))
        assert np.all(integral.values == 0.0)

    def test_exponential_closed_form(self, work_grid):
        r = work_grid.nodes
        integral = integrate_from_zero(RadialProfile(work_grid, r * np.exp(-r)))
        exact = 1.0 - (1.0 + r) * np.exp(-r)
        assert np.max(np.abs(integral.values - exact)) < 1e-10

    def test_starts_at_zero(self, work_grid):
        integral = integrate_from_zero(RadialProfile(work_grid, np.ones(len(work_grid))))
        assert integral.values[0] == 0.0


class TestIntegrateToInfinity:
    @pytest.mark.parametrize("power,tol", [(2.0, 1e-8), (3.0, 1e-10)])
    def test_inverse_power_closed_form(self, work_grid, power, tol):
        profile = positive_power_profile(work_grid, -power)
        improper = integrate_to_infinity(profile.with_tail(fit_tail(profile)))
        sel = work_grid.nodes >= 1.0
        exact = work_grid.nodes[sel] ** (1.0 - power) / (power - 1.0)
        assert np.max(np.abs(improper.values[sel] - exact) / exact) < tol

    def test_slow_tail_rejected(self, work_grid):
        profile = positive_power_profile(work_grid, -0.9)
        with pytest.raises(TailTooSlowError):
            integrate_to_infinity(profile.with_tail(fit_tail(profile)))

    def test_missing_tail_rejected(self, work_grid):
        profile = positive_power_profile(work_grid, -3.0)
        with pytest.raises(NoTailError):
            integrate_to_infinity(profile)

    def test_sum_with_cumulative_is_constant(self, work_grid):
        r = work_grid.nodes
        profile = RadialProfile(work_grid, (1 + r**2) ** -2.0)
        total = integrate_from_zero(profile).values + integrate_to_infinity(
            profile.with_tail(fit_tail(profile))
        ).values
        # integral of (1+s^2)^-2 over [0, inf) is pi/4
        assert abs(total[0] - math.pi / 4) < 1e-12
        assert np.max(np.abs(total - total[0])) < 1e-12


class TestFitTail:
    def test_exact_power_law(self, work_grid):
        model = fit_tail(positive_power_profile(work_grid, -1.5, coeff=2.0))
        assert abs(model.coefficient - 2.0) < 1e-12
        assert abs(model.exponent - 1.5) < 1e-13
        assert model.misfit < 1e-10

    def test_negative_data_keeps_sign(self, work_grid):
        model = fit_tail(positive_power_profile(work_grid, -2.0, coeff=-3.0))
        assert model.coefficient < 0
        assert abs(model.coefficient + 3.0) < 1e-12

    def test_perturbed_power_law(self, work_grid):
        r = work_grid.nodes
        vals = np.zeros(len(work_grid))
        pos = r > 0
        vals[pos] = r[pos] ** -2.0 * (1 + 1.0 / r[pos])
        model = fit_tail(RadialProfile(work_grid, vals), window=(1e3, 1e4))
        assert abs(model.exponent - 2.0) < 0.01

    def test_zero_profile_degenerate(self, work_grid):
        with pytest.raises(DegenerateFitError):
            fit_tail(RadialProfile(work_grid, np.zeros(len(work_grid))))

    def test_sign_change_degenerate(self, work_grid):
        vals = np.sin(work_grid.nodes / 500.0) + 1e-9
        with pytest.raises(DegenerateFitError):
            fit_tail(RadialProfile(work_grid, vals))

    def test_window_outside_grid_rejected(self, work_grid):
        profile = positive_power_profile(work_grid, -2.0)
        with pytest.raises(InvalidArgumentError):
            fit_tail(profile, window=(1e3, 1e6))

    def test_model_derivatives(self):
        model = TailModel(coefficient=2.0, exponent=1.5, window=(1.0, 10.0), misfit=0.0)
        r = 7.3
        assert abs(model.at(r) - 2.0 * r**-1.5) < 1e-15
        assert abs(_derived_tail(model, 1).at(r) + 3.0 * r**-2.5) < 1e-15
        assert abs(_derived_tail(model, 2).at(r) - 7.5 * r**-3.5) < 1e-15


class TestInterpolation:
    def test_cubic_accuracy(self):
        grid = build_grid(2048, 20.0, 1.0)
        profile = RadialProfile(grid, np.exp(-grid.nodes / 3.0))
        r = np.linspace(0.05, 19.9, 777)
        err = np.abs(profile.at(r) - np.exp(-r / 3.0))
        assert err.max() < 1e-8

    def test_scalar_round_trip(self, work_grid):
        profile = RadialProfile(work_grid, work_grid.nodes**2)
        out = profile.at(3.25)
        assert isinstance(out, float)
        assert abs(out - 3.25**2) < 1e-9

    def test_tail_used_beyond_grid(self, work_grid):
        profile = positive_power_profile(work_grid, -3.0)
        profile = profile.with_tail(fit_tail(profile))
        assert abs(profile.at(2e4) - 2e4**-3.0) < 1e-17

    def test_out_of_range_without_tail(self, work_grid):
        profile = positive_power_profile(work_grid, -3.0)
        with pytest.raises(EvaluationOutOfRangeError):
            profile.at(2e4)


class TestDerivativeIntegralInverse:
    def test_recovers_shifted_profile_under_refinement(self):
        errs = []
        for n_points in (512, 1024):
            grid = build_grid(n_points, 50.0, 1.0)
            f = (1 + grid.nodes**2) ** -0.5
            recovered = integrate_from_zero(differentiate(RadialProfile(grid, f), 1))
            errs.append(np.max(np.abs(recovered.values - (f - f[0]))))
        assert errs[0] / errs[1] > 8.0


class TestProfileCsv:
    """The numeric table reader behind the solution bundle, on a two-column
    ``r,value`` table."""

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            _read_csv_table(path, "r,value")

    def test_non_numeric_field_reports_line(self, tmp_path):
        path = tmp_path / "corrupt.csv"
        path.write_text("r,value\n0,1\n0.5,abc\n")
        with pytest.raises(ProfileParseError, match="line 3"):
            _read_csv_table(path, "r,value")
