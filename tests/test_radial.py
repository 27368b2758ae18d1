"""Oracle and property tests for the radial calculus layer."""

import collections
import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vacuumdata

from vacuumdata.errors import (
    DegenerateFitError,
    EvaluationOutOfRangeError,
    InvalidArgumentError,
    ProfileParseError,
    SchemaError,
)
from vacuumdata.radial import (
    Dimension,
    RadialGrid,
    RadialProfile,
    build_grid,
    differentiate,
    fit_tail,
    integrate_from_zero,
    integrate_to_infinity,
)
from vacuumdata.conformal import _helmholtz_operator, _read_csv_table
from vacuumdata.conformal import build_solution, read_solution_csv, write_solution_csv
from vacuumdata import radial
from vacuumdata.radial import (
    _GEOMETRY_TOL,
    _apply_window,
    _build_derivative_weights,
    _build_quadrature,
    _fornberg_weights,
    _geometry_classes,
    _sample_profiles,
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
        np.testing.assert_array_equal(build_grid(64, 10.0, 1.0).nodes, np.linspace(0.0, 10.0, 64))

    def test_stretch_too_small_for_a_graded_split_is_uniform(self):
        # the finest split of 63 intervals has rho = 1 + 1/62 > 1.0001
        np.testing.assert_array_equal(build_grid(64, 10.0, 1.0001).nodes, np.linspace(0.0, 10.0, 64))

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


class TestValuesCopiedOnConstruction:
    def test_grid_does_not_follow_callers_array(self):
        base = np.linspace(0.0, 10.0, 64)
        grid = RadialGrid(base[:])
        before = grid.derivative_matrix(1).copy()
        base[5] = 7.0
        assert grid.nodes[5] == np.linspace(0.0, 10.0, 64)[5]
        assert np.array_equal(grid.derivative_matrix(1), before)
        assert np.array_equal(grid._quadrature()[1], _build_quadrature(np.linspace(0.0, 10.0, 64))[1])

    def test_grid_leaves_callers_array_writable(self):
        nodes = np.linspace(0.0, 10.0, 64)
        RadialGrid(nodes)
        assert nodes.flags.writeable

    def test_profile_does_not_follow_callers_array(self):
        grid = build_grid(64, 10.0, 1.0)
        base = np.cos(grid.nodes)
        profile = RadialProfile(grid, base[:])
        first = differentiate(profile, 1)
        base[5] = 7.0
        assert profile.values[5] == np.cos(grid.nodes[5])
        assert differentiate(profile, 1) is first
        assert np.array_equal(first.values, differentiate(RadialProfile(grid, np.cos(grid.nodes)), 1).values)

    def test_profile_leaves_callers_array_writable(self):
        grid = build_grid(64, 10.0, 1.0)
        values = np.cos(grid.nodes)
        RadialProfile(grid, values)
        assert values.flags.writeable

    def test_read_only_owned_values_are_shared(self):
        grid = build_grid(64, 10.0, 1.0)
        profile = RadialProfile(grid, np.cos(grid.nodes))
        assert not profile.values.flags.writeable
        assert RadialProfile(grid, profile.values).values is profile.values
        assert RadialGrid(grid.nodes).nodes is grid.nodes


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

    @pytest.mark.parametrize("order", [1, 2])
    def test_cached_derivative_equals_stencil_application(self, work_grid, order):
        profile = RadialProfile(work_grid, (1.0 + work_grid.nodes**2) ** -0.5)
        values = profile.values - profile.values[0]
        direct = _apply_window(work_grid.derivative_matrix(order), values)
        first = differentiate(profile, order)
        assert np.array_equal(first.values, direct)
        assert differentiate(profile, order) is first

    def test_equal_values_do_not_share_a_cache(self, work_grid):
        values = np.cos(work_grid.nodes / 100.0)
        one, two = RadialProfile(work_grid, values), RadialProfile(work_grid, values)
        assert differentiate(one, 1) is not differentiate(two, 1)
        assert np.array_equal(differentiate(one, 1).values, differentiate(two, 1).values)
        three = RadialProfile(work_grid, values)
        differentiate(one, 2)
        assert three._memo == {}

    def test_cache_is_no_constructor_or_repr_field(self, work_grid):
        profile = RadialProfile(work_grid, work_grid.nodes)
        differentiate(profile, 1)
        assert "_memo" not in repr(profile)
        with pytest.raises(TypeError):
            RadialProfile(work_grid, work_grid.nodes, {})

    @pytest.mark.parametrize("order", [0, 3])
    def test_derivative_matrix_rejects_bad_order(self, work_grid, order):
        # order 0 used to index the d2/dr2 stencils from the end
        with pytest.raises(InvalidArgumentError, match="order"):
            work_grid.derivative_matrix(order)
        with pytest.raises(InvalidArgumentError, match="order"):
            differentiate(RadialProfile(work_grid, work_grid.nodes), order)


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


def gathered_window(weights, values):
    """``_apply_window`` as it was: each slot's values gathered through the
    window index, times the slot's weights, summed from zero in slot order."""
    npts, width = weights.shape
    terms = values[_window_starts(npts, width) + np.arange(width)[:, None]]
    terms *= weights.T
    out = np.zeros(npts)
    for term in terms:
        out += term
    return out


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
        assert np.array_equal(_apply_window(weights, values), expected)
        # any weight layout gives the same sums
        assert np.array_equal(_apply_window(np.ascontiguousarray(weights), values), expected)

    @STENCIL_GRIDS
    @pytest.mark.parametrize("weights_of", [
        lambda grid: grid.derivative_matrix(1),
        lambda grid: grid.derivative_matrix(2),
        lambda grid: _helmholtz_operator(3, grid),
        lambda grid: _helmholtz_operator(5, grid),
    ], ids=["d1", "d2", "helmholtz-3", "helmholtz-5"])
    def test_sliced_windows_equal_the_gathered_form_bitwise(self, nodes, weights_of):
        # five and six nodes give width 5, the others width 7; the first and
        # last width // 2 rows read their edge window, the rest a slice
        grid = RadialGrid(nodes)
        weights = weights_of(grid)
        values = np.random.default_rng(11).normal(size=len(grid)) * (1.0 + nodes) ** -1.5
        got, expected = _apply_window(weights, values), gathered_window(weights, values)
        half = weights.shape[1] // 2
        for rows in (slice(None, half), slice(half, len(grid) - half), slice(len(grid) - half, None)):
            assert np.array_equal(got[rows].view(np.int64), expected[rows].view(np.int64))

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

    def test_no_command_loads_scipy(self, tmp_path):
        # the banded solve calls numpy's own LAPACK, so no command, the
        # free-tau solve included, loads any scipy module
        code = (
            "import contextlib, io, json, sys\n"
            "import vacuumdata\n"
            "from vacuumdata import cli\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "seen, codes = {'import': loaded()}, {}\n"
            "bundle = sys.argv[1]\n"
            "for argv in (['smooth-schwarzschild', '--m', '1', '--profiles', bundle],\n"
            "             ['verify', bundle], ['mass', bundle], ['decay', bundle],\n"
            "             ['free-tau', '--c', '1', '--q', '1.5']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "        codes[argv[0]] = cli.main(argv)\n"
            "    seen[argv[0]] = loaded()\n"
            "print(json.dumps({'seen': seen, 'codes': codes,\n"
            "                  'iterations': json.loads(out.getvalue())['iterations']}))\n"
        )
        src = os.path.dirname(os.path.dirname(vacuumdata.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "bundle.csv")],
                             env=env, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout)
        commands = ("smooth-schwarzschild", "verify", "mass", "decay", "free-tau")
        assert result["seen"] == {name: [] for name in ("import", *commands)}
        assert result["codes"] == {name: 0 for name in commands}
        assert result["iterations"] > 0
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


def three_call_quadrature(nodes):
    """The quadrature as built with one Fornberg call per Gauss point."""
    idx = _window_starts(nodes.size, 5)[:-1, None] + np.arange(5)
    widths = np.diff(nodes)
    t = (nodes[idx] - 0.5 * (nodes[:-1] + nodes[1:])[:, None]) / widths[:, None]
    reps, label = _geometry_classes(t)
    gauss = zip((-np.sqrt(0.15), 0.0, np.sqrt(0.15)), (5 / 18, 8 / 18, 5 / 18))
    weights = sum(g_w * _fornberg_weights(t[reps] - g_t)[:, :, 0] for g_t, g_w in gauss)
    return idx, weights[label] * widths[:, None]


def quadrature_nodes(n_points, r_max, stretch):
    return irregular_nodes(n_points) if r_max is None else build_grid(n_points, r_max, stretch).nodes


def interval_offsets(nodes, index):
    """Each interval's node offsets from its centre in units of its width."""
    widths = np.diff(nodes)
    return (nodes[index] - 0.5 * (nodes[:-1] + nodes[1:])[:, None]) / widths[:, None]


class TestQuadratureWeights:
    @QUADRATURE_GRIDS
    def test_equal_three_call_construction_bitwise(self, n_points, r_max, stretch):
        nodes = quadrature_nodes(n_points, r_max, stretch)
        index, weights = _build_quadrature(nodes)
        ref_index, ref_weights = three_call_quadrature(nodes)
        assert np.array_equal(index, ref_index)
        assert np.array_equal(weights, ref_weights)

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


def all_rows_geometry_classes(geometry):
    """The class finder as it was before runs of equal keys were collapsed:
    a stable sort of every row."""
    key = np.rint(geometry / _GEOMETRY_TOL)
    order = np.lexsort(key.T[::-1])
    new = np.r_[True, np.any(np.diff(key[order], axis=0) != 0.0, axis=1)]
    label = np.empty_like(order)
    label[order] = np.cumsum(new) - 1
    return order[new], label


def assert_classes_equal_all_rows_sort(geometry):
    reps, label = _geometry_classes(geometry)
    ref_reps, ref_label = all_rows_geometry_classes(geometry)
    assert np.array_equal(reps, ref_reps) and np.array_equal(label, ref_label)
    assert label.dtype == ref_label.dtype


def bundle_nodes(tmp_path):
    dim = Dimension(3)
    sol = build_solution(dim, smooth_schwarzschild_phi(dim, 1.0, build_grid(4000, 1e4, 1.01)))
    write_solution_csv(sol, tmp_path / "bundle.csv")
    return read_solution_csv(tmp_path / "bundle.csv", dim).grid.nodes


class TestRunLengthGeometryClasses:
    @pytest.mark.parametrize("nodes", [
        lambda tmp: build_grid(4000, 1e4, 1.01).nodes,
        lambda tmp: build_grid(8000, 1e4, 1.01).nodes,
        lambda tmp: build_grid(4000, 1e3, 1.01).nodes,
        lambda tmp: build_grid(8000, 1e3, 1.01).nodes,
        lambda tmp: build_grid(1000, 50.0, 1.0).nodes,
        lambda tmp: irregular_nodes(400),
        bundle_nodes,
    ], ids=["4000-1e4", "8000-1e4", "4000-1e3", "8000-1e3", "uniform", "irregular", "bundle"])
    def test_stencil_and_quadrature_classes_match_all_rows_sort(self, tmp_path, monkeypatch, nodes):
        nodes = nodes(tmp_path)
        seen = []

        def checked(geometry):
            assert_classes_equal_all_rows_sort(geometry)
            seen.append(geometry.shape[1])
            return all_rows_geometry_classes(geometry)

        monkeypatch.setattr(radial, "_geometry_classes", checked)
        _build_derivative_weights(nodes)
        _build_quadrature(nodes)
        assert seen == [8, 5]  # the stencil geometry, then the quadrature one

    def test_drifting_rows_match_all_rows_sort(self):
        geometry = np.arange(400.0)[:, None] * np.array([0.3, -0.7]) * _GEOMETRY_TOL + 0.25
        assert_classes_equal_all_rows_sort(geometry)

    def test_recurring_keys_in_separate_runs_share_a_class(self):
        geometry = np.array([[0.0], [1.0], [1.0], [0.0], [2.0], [1.0], [0.0]])
        reps, label = _geometry_classes(geometry)
        assert reps.tolist() == [0, 1, 4] and label.tolist() == [0, 1, 1, 0, 2, 1, 0]
        assert_classes_equal_all_rows_sort(geometry)


class TestWeightsFromBundle:
    @pytest.mark.parametrize("n,grid_args", [(3, (4000, 1e4, 1.01)), (4, (4000, 1e3, 1.01))],
                             ids=["n3-4000-1e4", "n4-4000-1e3"])
    def test_read_grid_gets_bitwise_equal_weights(self, tmp_path, monkeypatch, n, grid_args):
        dim = Dimension(n)
        built = build_grid(*grid_args)
        sol = build_solution(dim, smooth_schwarzschild_phi(dim, 1.0, built))
        write_solution_csv(sol, tmp_path / "bundle.csv")
        # an empty operator cache: the read grid builds its own weights
        monkeypatch.setattr(radial, "_OPERATORS", collections.OrderedDict())
        read = read_solution_csv(tmp_path / "bundle.csv", dim).grid
        assert read is not built and np.array_equal(read.nodes, built.nodes)
        assert read._cache is not built._cache
        for order in (1, 2):
            assert np.array_equal(read.derivative_matrix(order).view(np.int64),
                                  built.derivative_matrix(order).view(np.int64))
        assert np.array_equal(read._quadrature()[1].view(np.int64), built._quadrature()[1].view(np.int64))


class TestSharedOperators:
    """Grids with bitwise-equal nodes share one cache of operators."""

    def test_equal_nodes_share_operators(self):
        grid = build_grid(64, 10.0, 1.05)
        twin = RadialGrid(grid.nodes.copy())
        assert twin is not grid
        assert twin.derivative_matrix(1) is grid.derivative_matrix(1)
        assert twin._quadrature() is grid._quadrature()

    def test_nodes_one_ulp_apart_share_nothing(self):
        grid = build_grid(64, 10.0, 1.05)
        grid.derivative_matrix(1)
        grid._quadrature()
        nodes = grid.nodes.copy()
        nodes[30] = np.nextafter(nodes[30], np.inf)
        other = RadialGrid(nodes)
        assert other._cache is not grid._cache
        assert other.derivative_matrix(1) is not grid.derivative_matrix(1)
        assert other._quadrature() is not grid._quadrature()

    def test_shared_operators_equal_a_direct_build(self, work_grid):
        nodes = work_grid.nodes
        shared = RadialGrid(nodes.copy())
        shared_weights = (shared.derivative_matrix(1), shared.derivative_matrix(2), *shared._quadrature())
        direct = (*_build_derivative_weights(nodes), *_build_quadrature(nodes))
        for got, expected in zip(shared_weights, direct, strict=True):
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_least_recently_constructed_node_set_is_evicted(self, monkeypatch):
        monkeypatch.setattr(radial, "_OPERATORS", collections.OrderedDict())
        grids = [RadialGrid(np.linspace(0.0, 10.0 + k, 64)) for k in range(radial._OPERATOR_SETS)]
        for grid in grids:
            grid.derivative_matrix(1)
        assert RadialGrid(grids[0].nodes)._cache is grids[0]._cache  # now the most recent
        newest = RadialGrid(np.linspace(0.0, 100.0, 64))  # one node set more than the bound
        assert list(radial._OPERATORS) == [g.nodes.tobytes() for g in (*grids[2:], grids[0], newest)]
        # the evicted grid keeps its operators; a new grid on its nodes builds afresh
        assert grids[1].derivative_matrix(1) is grids[1]._cache["deriv"][0]
        assert RadialGrid(grids[1].nodes)._cache == {}

    def test_failed_build_caches_nothing(self, monkeypatch):
        monkeypatch.setattr(radial, "_OPERATORS", collections.OrderedDict())
        nodes = np.linspace(0.0, 1.0, 4)  # too few nodes for a stencil or a quadrature
        for build in (lambda grid: grid.derivative_matrix(1), RadialGrid._quadrature):
            for grid in (RadialGrid(nodes), RadialGrid(nodes)):
                with pytest.raises(InvalidArgumentError):
                    build(grid)
        assert list(radial._OPERATORS.values()) == [{}]

    def test_concurrent_constructions_share_one_cache_per_node_set(self, monkeypatch):
        # a lost update between taking a node set's cache and putting it
        # back would leave some grid with a cache of its own
        monkeypatch.setattr(radial, "_OPERATORS", collections.OrderedDict())
        node_sets = [np.linspace(0.0, 10.0 + k, 64) for k in range(4)]
        grids = []

        def work():
            for _ in range(300):
                grids.extend(RadialGrid(nodes) for nodes in node_sets)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(grids) == 4 * 300 * len(node_sets)
        assert all(grid._cache is radial._OPERATORS[grid.nodes.tobytes()] for grid in grids)


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
        remainder = work_grid.r_max ** (1.0 - power) / (power - 1.0)
        improper = integrate_to_infinity(profile, remainder)
        sel = work_grid.nodes >= 1.0
        exact = work_grid.nodes[sel] ** (1.0 - power) / (power - 1.0)
        assert np.max(np.abs(improper.values[sel] - exact) / exact) < tol

    def test_remainder_is_the_value_at_r_max(self, work_grid):
        profile = positive_power_profile(work_grid, -3.0)
        for c in (1.0, 2.0):
            # at r_max = 1e4 only the remainder c r_max^-2 / 2 is left
            improper = integrate_to_infinity(profile, c * 1e4**-2.0 / 2.0)
            assert improper.values[-1] == c * 1e4**-2.0 / 2.0

    def test_sum_with_cumulative_is_constant(self, work_grid):
        r = work_grid.nodes
        profile = RadialProfile(work_grid, (1 + r**2) ** -2.0)
        # integral of (1+s^2)^-2 over [R, inf) is (atan(1/R) - R/(1+R^2))/2
        big = work_grid.r_max
        remainder = 0.5 * (math.atan(1.0 / big) - big / (1.0 + big * big))
        total = integrate_from_zero(profile).values + integrate_to_infinity(profile, remainder).values
        # integral of (1+s^2)^-2 over [0, inf) is pi/4
        assert abs(total[0] - math.pi / 4) < 1e-12
        assert np.max(np.abs(total - total[0])) < 1e-12


class TestFitTail:
    def test_exact_power_law(self, work_grid):
        model = fit_tail(positive_power_profile(work_grid, -1.5, coeff=2.0), window=(1e2, 1e4))
        assert abs(model.coefficient - 2.0) < 1e-12
        assert abs(model.exponent - 1.5) < 1e-13
        assert model.misfit < 1e-10

    def test_negative_data_keeps_sign(self, work_grid):
        model = fit_tail(positive_power_profile(work_grid, -2.0, coeff=-3.0), window=(1e2, 1e4))
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
            fit_tail(RadialProfile(work_grid, np.zeros(len(work_grid))), window=(1e2, 1e4))

    def test_sign_change_degenerate(self, work_grid):
        vals = np.sin(work_grid.nodes / 500.0) + 1e-9
        with pytest.raises(DegenerateFitError):
            fit_tail(RadialProfile(work_grid, vals), window=(1e2, 1e4))

    def test_window_outside_grid_rejected(self, work_grid):
        profile = positive_power_profile(work_grid, -2.0)
        with pytest.raises(InvalidArgumentError):
            fit_tail(profile, window=(1e3, 1e6))


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

    @pytest.mark.parametrize("radii,shown", [
        (2e4, "20000"),
        ([1.0, 2e4, 1.5e4], "20000"),
        (math.inf, "inf"),
        (1e4 * (1.0 + 1e-11), "10000"),
    ], ids=["scalar", "array", "infinite", "just-past"])
    def test_out_of_range_past_r_max(self, work_grid, radii, shown):
        profile = positive_power_profile(work_grid, -3.0)
        with pytest.raises(EvaluationOutOfRangeError) as info:
            profile.at(radii)
        assert str(info.value) == f"evaluation at r={shown} beyond r_max=10000"

    @pytest.mark.parametrize("radii", [math.nan, [1.0, math.nan, 2e4]], ids=["scalar", "array"])
    def test_nan_radius_rejected(self, work_grid, radii):
        profile = positive_power_profile(work_grid, -3.0)
        with pytest.raises(InvalidArgumentError, match="nonnegative"):
            profile.at(radii)

    def test_array_radii_keep_their_shape(self, work_grid):
        profile = positive_power_profile(work_grid, -3.0)
        radii = np.array([[1.0, 2.0, 3.0], [40.0, 500.0, 6000.0]])
        assert np.array_equal(profile.at(radii), profile.at(radii.ravel()).reshape(2, 3))


def per_profile_cubic(nodes, values, r):
    """Local 4-point Lagrange interpolation as it was before the basis was
    shared between profiles."""
    npts = nodes.size
    interval = np.clip(np.searchsorted(nodes, r, side="right") - 1, 0, npts - 2)
    s = np.clip(interval - 1, 0, npts - 4)
    idx = s[:, None] + np.arange(4)[None, :]
    x = nodes[idx]
    f = values[idx]
    out = np.zeros_like(r)
    for j in range(4):
        lj = np.ones_like(r)
        for k in range(4):
            if k != j:
                lj *= (r - x[:, k]) / (x[:, j] - x[:, k])
        out += f[:, j] * lj
    return out


def stacked_cubic(profiles, radii):
    """``_sample_profiles``' arithmetic as it was: each basis weight an
    ``np.prod`` over its stacked factors, each profile a ``sum`` from zeros."""
    nodes = profiles[0].grid.nodes
    r = np.minimum(radii, nodes[-1])
    idx = np.clip(np.searchsorted(nodes, r, side="right") - 2, 0, nodes.size - 4) + np.arange(4)[:, None]
    x = nodes[idx]
    basis = [np.prod([(r - x[k]) / (x[j] - x[k]) for k in range(4) if k != j], axis=0) for j in range(4)]
    return [sum((profile.values[idx][j] * basis[j] for j in range(4)), np.zeros_like(r)) for profile in profiles]


SAMPLED_NODES = irregular_nodes(64, seed=9)


def sample_radius(nodes):
    """Radii at 0, at r_max, at nodes, in the first and last intervals, and anywhere."""
    return st.one_of(
        st.sampled_from([0.0, float(nodes[-1])]),
        st.sampled_from(nodes.tolist()),
        st.floats(0.0, float(nodes[1])),
        st.floats(float(nodes[-2]), float(nodes[-1])),
        st.floats(0.0, float(nodes[-1])),
    )


class TestSharedBasis:
    @pytest.fixture(scope="class")
    def profiles(self, work_grid):
        rng = np.random.default_rng(5)
        powers = [positive_power_profile(work_grid, p, c) for p, c in ((-3.0, 1.0), (-1.5, -2.0))]
        # zeros signed against the basis weights of every fourth interval:
        # each term there is -0.0, and only a sum from +0.0 gives +0.0
        signed_zeros = np.where(np.arange(len(work_grid)) % 4 % 3 == 0, 0.0, -0.0)
        return powers + [RadialProfile(work_grid, rng.normal(size=len(work_grid))),
                         RadialProfile(work_grid, signed_zeros)]

    @pytest.fixture(scope="class")
    def radii(self, work_grid):
        nodes = work_grid.nodes
        rng = np.random.default_rng(7)
        between = nodes[:-1] + rng.uniform(0.0, 1.0, nodes.size - 1) * np.diff(nodes)
        r_max = work_grid.r_max
        return np.concatenate([[0.0], nodes[::7], between[::3], [r_max, r_max * (1 + 1e-12)]])

    def test_equals_per_profile_at_bitwise(self, profiles, radii):
        shared = _sample_profiles(profiles, radii)
        for profile, values in zip(profiles, shared):
            assert np.array_equal(values.view(np.int64), profile.at(radii).view(np.int64))

    def test_inside_equals_per_profile_interpolation_bitwise(self, profiles, radii):
        r_max = profiles[0].grid.r_max
        shared = _sample_profiles(profiles, radii)
        for profile, values in zip(profiles, shared):
            reference = per_profile_cubic(profile.grid.nodes, profile.values, np.minimum(radii, r_max))
            assert np.array_equal(values.view(np.int64), reference.view(np.int64))

    def test_equals_the_stacked_product_form_bitwise(self, profiles, radii):
        for values, reference in zip(_sample_profiles(profiles, radii), stacked_cubic(profiles, radii), strict=True):
            assert np.array_equal(values.view(np.int64), reference.view(np.int64))

    @settings(max_examples=80, deadline=None)
    @given(st.lists(sample_radius(SAMPLED_NODES), min_size=1, max_size=30), st.integers(0, 2**32 - 1))
    def test_random_radii_equal_the_stacked_product_form_bitwise(self, radii, seed):
        grid = RadialGrid(SAMPLED_NODES)
        rng = np.random.default_rng(seed)
        profiles = [RadialProfile(grid, rng.normal(size=len(grid)) * 10.0 ** rng.integers(-100, 100)) for _ in range(3)]
        radii = np.array(radii)
        for values, reference in zip(_sample_profiles(profiles, radii), stacked_cubic(profiles, radii), strict=True):
            assert np.array_equal(values.view(np.int64), reference.view(np.int64))

    def test_radii_beyond_r_max_refused(self, profiles):
        with pytest.raises(EvaluationOutOfRangeError, match="^evaluation at r=20000 beyond r_max=10000$"):
            _sample_profiles(profiles, np.array([5.0, 2e4]))


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
