"""Solver tests.

Discretization accuracy is pinned with manufactured solutions whose
right-hand sides are exact, so the measured error is pure scheme error.
Convergence rates are asserted between two uniform grids.  The
Schwarzschild construction is checked against its closed-form exterior
bitwise, and the free-tau solver against the mean-curvature identity it
is required to restore.  The coupled (phi, A) Newton solve is checked
against the damped Picard loop it replaced, whose Lichnerowicz steps are
assembled per step, and against a Newton solve on the natural-order
(12, 12) band; the references are kept below.
"""

from __future__ import annotations

import collections
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from vacuumdata import (
    Dimension,
    InvalidArgumentError,
    NoConvergenceError,
    RadialGrid,
    RadialProfile,
    SolveControls,
    build_grid,
    check_solution,
    fixed_point_solve,
    smooth_schwarzschild_phi,
    tau_from_phi,
)
from vacuumdata import radial, solver
from vacuumdata.conformal import _helmholtz_operator, build_solution, lw_norm, momentum_potential
from vacuumdata.errors import SingularSystemError, VacuumDataError
from vacuumdata.radial import _apply_window, _window_starts, differentiate
from vacuumdata.solver import (
    _band_layout,
    _coupled_operator,
    _coupled_system,
    _solve,
)

DIM3 = Dimension(3)
DIM4 = Dimension(4)


@pytest.fixture(scope="module")
def work_grid():
    return build_grid(4000, 1e4, 1.01)


def conformal_seed(grid, c, q):
    r = grid.nodes
    return RadialProfile(grid, c * (1.0 + r * r) ** (-q / 2.0))


def helmholtz_layout(n, grid, potential):
    """The cached Helmholtz rows minus the potential on the diagonal (the
    Robin entry kept) as a writeable gbsv layout, and its kl."""
    rows = _helmholtz_operator(n, grid)
    npts, width = rows.shape
    kl = width - 1
    columns = _window_starts(npts, width)[:, None] + np.arange(width)
    band = _band_layout(kl, kl, npts, (np.arange(npts)[:, None], columns, rows))
    layout = band.copy(order="F")
    layout[2 * kl, :-1] -= potential[:-1]
    return layout, kl


class TestHelmholtzSolve:
    """The Helmholtz operator of the Lichnerowicz rows."""

    def test_overflowing_tau_raises_typed_error_without_warning(self):
        # tau^2 overflows; the solve must end in the typed error, not a RuntimeWarning
        grid = build_grid(400, 50.0, 1.01)
        tau = RadialProfile(grid, np.full(len(grid), 1e300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystemError):
                fixed_point_solve(DIM3, tau)

    def test_harmonic_function_in_operator_kernel(self, work_grid):
        # 1/r is harmonic away from the origin; apply the assembled
        # operator rows directly since the function is singular at r = 0
        rows = _helmholtz_operator(3, work_grid)
        u = np.zeros(len(work_grid))
        u[1:] = 1.0 / work_grid.nodes[1:]
        image = _apply_window(rows, u)
        rows = work_grid.nodes[1:-1] >= 1.0
        assert float(np.max(np.abs(image[1:-1][rows]))) < 1e-9
        assert abs(image[-1]) < 1e-15


class TestBandedSolve:
    def test_matches_dense_solve(self):
        grid = build_grid(200, 50.0, 1.05)
        r = grid.nodes
        potential = 1.0 / (1.0 + r * r)
        rows = _helmholtz_operator(3, grid)
        npts, width = rows.shape
        dense = np.zeros((npts, npts))
        columns = _window_starts(npts, width)[:, None] + np.arange(width)
        dense[np.arange(npts)[:, None], columns] = rows
        dense[np.arange(npts - 1), np.arange(npts - 1)] -= potential[:-1]
        rhs = np.exp(-r)
        expected = np.linalg.solve(dense, rhs)
        layout, kl = helmholtz_layout(3, grid, potential)
        got = _solve(layout, rhs, kl)
        assert float(np.max(np.abs(got - expected))) <= 1e-12 * float(np.max(np.abs(expected)))

    def test_zero_rows_raise_singular(self):
        with pytest.raises(SingularSystemError):
            _solve(np.zeros((19, 64), order="F"), np.ones(64), 6)

    @pytest.mark.parametrize(
        "kl, ku, size",
        [(6, 6, 4000), (12, 12, 8000), (10, 6, 8000)],
        ids=["6-4000", "12-8000", "10-6-8000"],
    )
    def test_equals_solve_banded_bitwise(self, kl, ku, size, monkeypatch):
        rng = np.random.default_rng(kl + ku)
        band = rng.standard_normal((kl + ku + 1, size))
        band[ku] += 2.0 * (kl + ku)
        rhs = rng.standard_normal(size)
        layout = np.zeros((2 * kl + ku + 1, size), order="F")
        layout[kl:] = band
        expected = scipy.linalg.solve_banded((kl, ku), band, rhs, check_finite=False)
        assert np.array_equal(_solve(layout.copy(order="F"), rhs, kl), expected)
        # the SciPy fallback, as on a numpy whose BLAS lacks dgbsv
        monkeypatch.setattr(solver, "_gbsv", lambda: solver._scipy_gbsv)
        assert np.array_equal(_solve(layout, rhs, kl), expected)

    def test_numpy_openblas_binding_is_used(self):
        # where numpy links an ILP64 scipy-openblas, as its manylinux wheels
        # do, the binding must be taken, not the SciPy fallback
        blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
        if blas.get("name") != "scipy-openblas" or "USE64BITINT" not in blas.get(
            "openblas configuration", ""
        ):
            pytest.skip(f"numpy links {blas.get('name')!r}, not an ILP64 scipy-openblas")
        assert solver._gbsv() is not solver._scipy_gbsv

    # unlike the random bands above, the coupled Jacobian makes LU pivot
    @pytest.mark.parametrize("dim", [DIM3, DIM4], ids=["n3", "n4"])
    def test_binding_equals_scipy_dgbsv_on_the_solver_layouts(self, dim, work_grid):
        from scipy.linalg.lapack import dgbsv

        binding = solver._openblas_gbsv()
        if binding is None:
            pytest.skip("numpy's BLAS exports no dgbsv")
        r = work_grid.nodes
        tau = conformal_seed(work_grid, 1.0, 1.5)
        phi = 1.0 - 0.3 / (1.0 + r * r) ** 0.5
        A = -0.2 * r**dim.n / (1.0 + r * r) ** 1.2
        residual, jacobian = _coupled_system(
            dim, work_grid, tau.values**2, differentiate(tau, 1).values, phi, A
        )
        coupled = _coupled_operator(dim.n, work_grid)
        helmholtz, kl = helmholtz_layout(dim.n, work_grid, 1.0 / (1.0 + r * r))
        layouts = [
            (helmholtz, np.exp(-r), kl),
            (jacobian(np.empty_like(coupled.band)), -residual, coupled.kl),
        ]
        assert [layout.shape[0] - 1 - kl for layout, _, kl in layouts] == [12, 16]
        for layout, rhs, kl in layouts:
            ku = layout.shape[0] - 1 - 2 * kl
            expected = dgbsv(kl, ku, layout.copy(order="F"), rhs)[2]
            got, info = binding(layout.copy(order="F"), rhs.copy(), kl, ku)
            assert info == 0
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("case", ["c-order", "short-rhs", "read-only", "float32", "kl-too-large"])
    def test_bad_layout_raises_before_native_code(self, case, monkeypatch):
        def native(*args):
            raise AssertionError("reached the native solve")

        monkeypatch.setattr(solver, "_gbsv", lambda: native)
        kl, size = 6, 64
        layout = np.zeros((3 * kl + 1, size), order="F")
        rhs = np.ones(size)
        if case == "c-order":
            layout = np.ascontiguousarray(layout)
        elif case == "short-rhs":
            rhs = rhs[:-1]
        elif case == "read-only":
            layout.setflags(write=False)
        elif case == "float32":
            layout = layout.astype(np.float32, order="F")
        else:
            kl = 10
        with pytest.raises(InvalidArgumentError):
            _solve(layout, rhs, kl)

    def test_negative_info_is_a_programming_error(self, monkeypatch):
        monkeypatch.setattr(solver, "_gbsv", lambda: lambda layout, b, kl, ku: (b, -4))
        with pytest.raises(RuntimeError, match="argument 4"):
            _solve(np.zeros((19, 64), order="F"), np.ones(64), 6)


# -- reference: per-step assembly, as before the operator was cached ---------


def reference_rows(n, grid, v_values):
    """Stencil rows of u'' + (n-1) u'/r - V u with V on the diagonal slot
    and the Robin row last, assembled from the derivative weights."""
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


def reference_apply(rows, values):
    npts, width = rows.shape
    starts = _window_starts(npts, width)
    out = np.zeros(npts)
    for slot in range(width):
        out += rows[:, slot] * values[starts + slot]
    return out


def reference_solve(rows, rhs):
    """Scatter the rows into band storage and solve by one banded LU."""
    npts, width = rows.shape
    columns = _window_starts(npts, width)[:, None] + np.arange(width)
    band = np.zeros((2 * width - 1, npts))
    band[width - 1 + np.arange(npts)[:, None] - columns, columns] = rows
    return scipy.linalg.solve_banded((width - 1, width - 1), band, rhs, check_finite=False)


def reference_newton(dim, grid, tau_sq, lw_sq, controls, start):
    n = dim.n
    nf = float(dim.N)
    a = 4.0 * (n - 1.0) / (n - 2.0)
    operator = reference_rows(n, grid, np.zeros(len(grid)))
    weight = (n - 1.0) / n
    phi = start.copy()
    residuals = []

    def residual(p):
        applied = reference_apply(operator, p - 1.0)
        out = -a * applied + weight * tau_sq * p ** (nf - 1.0) - lw_sq * p ** (-nf - 1.0)
        out[-1] = applied[-1]
        return out

    for _ in range(controls.max_newton):
        f = residual(phi)
        residuals.append(float(np.max(np.abs(f))))
        v_hat = (nf - 1.0) * weight * tau_sq * phi ** (nf - 2.0) + (
            nf + 1.0
        ) * lw_sq * phi ** (-nf - 2.0)
        b = f / a
        b[-1] = -f[-1]
        delta = reference_solve(reference_rows(n, grid, v_hat / a), b)
        step = 1.0
        while not np.all(phi + step * delta > 0.0):
            step *= 0.5
        phi = phi + step * delta
        if np.max(np.abs(step * delta)) <= controls.tol * max(1.0, np.max(np.abs(phi))):
            residuals.append(float(np.max(np.abs(residual(phi)))))
            return phi, residuals
    raise AssertionError("reference Newton did not converge")


def reference_fixed_point(dim, tau, damping=0.7, max_outer=200):
    """The damped Picard loop that fixed_point_solve ran before the coupled
    Newton solve: Lichnerowicz solves alternating with the closed-form
    update of A and |LW|, until the relative update is below tol."""
    controls = SolveControls()
    grid = tau.grid
    tau_sq = tau.values**2
    phi = RadialProfile(grid, np.ones(len(grid)))
    for _ in range(max_outer):
        lw = lw_norm(dim, momentum_potential(dim, phi, tau))
        phi_new, _ = reference_newton(dim, grid, tau_sq, lw.values**2, controls, phi.values)
        update = damping * (phi_new - phi.values)
        phi = RadialProfile(grid, phi.values + update)
        if np.max(np.abs(update)) / np.max(np.abs(phi.values)) < controls.tol:
            return build_solution(dim, phi, tau)
    raise AssertionError("reference Picard loop did not converge")


class TestBitwiseAgainstPerStepAssembly:
    @pytest.mark.parametrize(
        "dim, q, r_max", [(DIM3, 1.5, 1e4), (DIM4, 2.2, 1e3)], ids=["n3", "n4"]
    )
    def test_fixed_point_solve(self, dim, q, r_max):
        # Newton and Picard solve the same discrete equations; they agree
        # to the Picard stopping rule (measured: 5e-11 at n = 3 and n = 4)
        grid = build_grid(2000, r_max, 1.01)
        tau = conformal_seed(grid, 1.0, q)
        sol, trace = fixed_point_solve(dim, tau)
        expected = reference_fixed_point(dim, tau)
        assert float(np.max(np.abs(sol.phi.values - expected.phi.values))) <= 1e-9
        assert len(trace.outer_iterates) == len(trace.newton_residuals) - 1 <= 10


def layout_entries(layout, kl, place=None):
    """The nonzero (row, column, value) entries of the matrix held in a gbsv
    layout with ``kl`` diagonals below the main one.  ``place[k]`` is the
    layout row of natural equation k (interleaved: phi row i is 2i, A row
    i is 2i + 1); rows are returned in natural order."""
    ku = layout.shape[0] - 1 - 2 * kl
    band_rows, columns = np.nonzero(layout)
    assert np.all(band_rows >= kl), "the first kl layout rows are LU workspace"
    rows = band_rows - kl - ku + columns
    if place is not None:
        rows = np.argsort(place)[rows]
    return rows, columns, layout[band_rows, columns]


def equation_place(operator):
    """Layout row of each natural equation of a coupled operator."""
    place = np.empty(2 * len(operator.phi_rows), dtype=int)
    place[0::2] = operator.phi_rows
    place[1::2] = operator.a_rows
    return place


def dense_from_layout(layout, kl, place=None):
    """The matrix held in a gbsv layout, rows in natural order."""
    size = layout.shape[1]
    dense = np.zeros((size, size))
    rows, columns, values = layout_entries(layout, kl, place)
    dense[rows, columns] = values
    return dense


# -- reference: the coupled Newton solve on the natural-order band -----------


def natural_layout(operator, work):
    """The coupled Jacobian in ``work`` as a natural-order band with 12
    diagonals on each side, in the diagonal-ordered form of solve_banded."""
    half = 12
    rows, columns, values = layout_entries(work, operator.kl, equation_place(operator))
    band = np.zeros((2 * half + 1, work.shape[1]))
    band[half + rows - columns, columns] = values
    return band


def reference_coupled_solve(dim, tau, controls=SolveControls()):
    """Newton on the coupled (phi, A) system as fixed_point_solve ran it
    with the interleaved equation order: each step one solve_banded on the
    (12, 12) band, the same step halving and stop rule."""
    grid = tau.grid
    operator = _coupled_operator(dim.n, grid)
    place = equation_place(operator)
    work = np.empty_like(operator.band)
    tau_sq, dtau = tau.values**2, differentiate(tau, 1).values
    x = np.zeros(2 * len(grid))
    x[0::2] = 1.0
    for steps in range(1, controls.max_newton + 1):
        residual, jacobian = _coupled_system(dim, grid, tau_sq, dtau, x[0::2], x[1::2])
        band = natural_layout(operator, jacobian(work))
        delta = scipy.linalg.solve_banded((12, 12), band, -residual[place], check_finite=False)
        step = 1.0
        while not np.all(x[0::2] + step * delta[0::2] > 0.0):
            step *= 0.5
        x = x + step * delta
        scale = max(1.0, np.max(np.abs(x[0::2])))
        if np.max(np.abs(step * delta[0::2])) <= controls.tol * scale:
            return x, steps
    raise AssertionError("reference coupled Newton did not converge")


class TestCoupledSystem:
    @pytest.mark.parametrize("dim", [DIM3, DIM4], ids=["n3", "n4"])
    def test_jacobian_matches_central_differences(self, dim):
        grid = build_grid(200, 50.0, 1.05)
        r = grid.nodes
        tau = conformal_seed(grid, 1.0, 1.8)
        dtau = np.gradient(tau.values, r)
        phi = 1.0 - 0.3 / (1.0 + r * r) ** 0.5
        A = -0.2 * r**dim.n / (1.0 + r * r) ** 1.2
        operator = _coupled_operator(dim.n, grid)
        place = equation_place(operator)
        work = np.empty_like(operator.band)

        def residual(phi, A):
            return _coupled_system(dim, grid, tau.values**2, dtau, phi, A)[0][place]

        _coupled_system(dim, grid, tau.values**2, dtau, phi, A)[1](work)
        jacobian = dense_from_layout(work, operator.kl, place)
        rng = np.random.default_rng(dim.n)
        # perturb each unknown on its own scale: A ~ r^n vanishes fast at
        # the origin, where |LW|^2 divides by r^{2n}
        direction = rng.standard_normal(2 * len(grid))
        direction[0::2] *= 0.1
        direction[1::2] *= 0.1 * r**dim.n / (1.0 + r * r) ** 1.2
        step = 1e-6
        plus = residual(phi + step * direction[0::2], A + step * direction[1::2])
        minus = residual(phi - step * direction[0::2], A - step * direction[1::2])
        expected = jacobian @ direction
        got = (plus - minus) / (2.0 * step)
        for rows in (slice(0, None, 2), slice(1, None, 2)):  # phi rows, then A rows
            scale = float(np.max(np.abs(expected[rows])))
            assert float(np.max(np.abs(got[rows] - expected[rows]))) <= 1e-6 * scale

    @pytest.mark.parametrize("npts", [64, 200, 4000, 8000])
    @pytest.mark.parametrize("dim", [DIM3, DIM4], ids=["n3", "n4"])
    def test_band_is_ten_below_six_above(self, dim, npts):
        grid = build_grid(npts, 1e3, 1.01)
        operator = _coupled_operator(dim.n, grid)
        kl, ku = 10, 6
        assert operator.kl == kl
        assert operator.band.shape == (2 * kl + ku + 1, 2 * npts)
        place = equation_place(operator)
        assert np.array_equal(np.sort(place), np.arange(2 * npts))
        # every fixed entry: the Helmholtz stencil rows of phi (Robin row
        # unscaled) and the +-1 of the A rows, nothing else
        rows, columns, values = layout_entries(operator.band, kl, place)
        helmholtz = _helmholtz_operator(dim.n, grid)
        phi = rows % 2 == 0
        assert np.all(columns[phi] % 2 == 0)
        i, j = rows[phi] // 2, columns[phi] // 2
        slot = j - _window_starts(npts, helmholtz.shape[1])[i]
        assert np.all((0 <= slot) & (slot < helmholtz.shape[1]))
        scale = np.where(i == npts - 1, 1.0, -4.0 * (dim.n - 1.0) / (dim.n - 2.0))
        assert np.array_equal(values[phi], scale * helmholtz[i, slot])
        assert np.count_nonzero(phi) == np.count_nonzero(helmholtz)
        a_rows, a_columns, a_values = rows[~phi], columns[~phi], values[~phi]
        assert np.array_equal(a_values, np.where(a_columns == a_rows, 1.0, -1.0))
        assert np.all((a_columns == a_rows) | (a_columns == a_rows - 2))
        assert len(a_values) == 2 * npts - 1
        # every entry a Newton step writes, at its natural (row, column)
        idx = grid._quadrature()[0]
        i = np.arange(npts)
        for index, natural_rows, natural_columns in (
            (operator.diag, 2 * i[:-1], 2 * i[:-1]),
            (operator.coupling, 2 * i[1:-1], 2 * i[1:-1] + 1),
            (operator.quad, np.broadcast_to(2 * i[1:, None] + 1, idx.shape), 2 * idx),
        ):
            band_rows, columns = np.unravel_index(index, operator.band.shape, order="F")
            assert np.all((kl <= band_rows) & (band_rows <= 2 * kl + ku))
            assert np.array_equal(place[natural_rows], band_rows - kl - ku + columns)
            assert np.array_equal(columns, natural_columns)

    @pytest.mark.parametrize(
        "dim, q, r_max", [(DIM3, 1.5, 1e4), (DIM4, 2.2, 1e3)], ids=["n3", "n4"]
    )
    def test_matches_natural_order_solve(self, dim, q, r_max):
        grid = build_grid(2000, r_max, 1.01)
        tau = conformal_seed(grid, 1.0, q)
        sol, trace = fixed_point_solve(dim, tau)
        expected, steps = reference_coupled_solve(dim, tau)
        assert float(np.max(np.abs(sol.phi.values - expected[0::2]))) <= 1e-12
        assert len(trace.outer_iterates) == steps

    def test_converged_residual_recorded_without_jacobian_fill(self, work_grid, monkeypatch):
        tau = conformal_seed(work_grid, 1.0, 1.5)
        calls, fills = [], []

        def system(*args):
            residual, jacobian = _coupled_system(*args)
            calls.append((args, residual))

            def counted(work):
                fills.append(len(calls) - 1)
                return jacobian(work)

            return residual, counted

        monkeypatch.setattr(solver, "_coupled_system", system)
        sol, trace = fixed_point_solve(DIM3, tau)
        assert len(calls) == len(trace.newton_residuals) == len(trace.outer_iterates) + 1
        # every call but the last fills its Jacobian once
        assert fills == list(range(len(calls) - 1))
        (_, _, _, _, phi, _), residual = calls[-1]
        assert np.array_equal(phi, sol.phi.values)
        assert trace.newton_residuals[-1] == float(np.max(np.abs(residual)))

    @settings(deadline=None, derandomize=True, max_examples=20)
    @given(
        n=st.sampled_from([3, 4]),
        c=st.floats(0.05, 20.0),
        fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_admissible_seeds_converge_or_raise_typed(self, n, c, fraction):
        grid = build_grid(400, 1e3, 1.02)
        lo = (n + 2) / 4.0
        q = lo + fraction * (n - lo)
        try:
            _, trace = fixed_point_solve(Dimension(n), conformal_seed(grid, c, q))
        except VacuumDataError:
            return
        assert trace.converged
        assert len(trace.outer_iterates) <= SolveControls().max_newton


class TestOperatorCache:
    def test_cached_arrays_are_read_only(self, work_grid):
        rows = _helmholtz_operator(3, work_grid)
        assert _helmholtz_operator(3, work_grid) is rows
        coupled = _coupled_operator(3, work_grid)
        assert _coupled_operator(3, work_grid) is coupled
        for array in (rows, coupled.band, work_grid.derivative_matrix(1)):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0

    def test_dimension_switches_match_fresh_grids(self, monkeypatch):
        shared = build_grid(2000, 1e3, 1.01)
        for dim in (DIM3, DIM4, DIM3):
            results = []
            # an empty operator cache, so the fresh grid shares none of shared's
            monkeypatch.setattr(radial, "_OPERATORS", collections.OrderedDict())
            for grid in (shared, RadialGrid(shared.nodes)):
                tau = conformal_seed(grid, 1.0, 1.5)
                results.append(
                    (
                        fixed_point_solve(dim, tau)[0].phi.values,
                        _helmholtz_operator(dim.n, grid),
                        _coupled_operator(dim.n, grid).band,
                    )
                )
            for got, fresh in zip(*results):
                assert np.array_equal(got, fresh)

    def test_singular_diagonal_raises_and_leaves_cache(self, work_grid):
        rows = _helmholtz_operator(3, work_grid)
        before = rows.copy()
        potential = np.zeros(len(work_grid))
        potential[len(work_grid) // 2] = np.inf
        layout, kl = helmholtz_layout(3, work_grid, potential)
        with pytest.raises(SingularSystemError):
            _solve(layout, np.ones(len(work_grid)), kl)
        assert _helmholtz_operator(3, work_grid) is rows
        assert np.array_equal(rows, before)


class TestLichnerowiczSolve:
    def test_manufactured_recovery(self, manufactured_error):
        assert manufactured_error(3, 750) < 3e-5

    def test_scheme_order_at_least_three_and_a_half(self, manufactured_error):
        # from 750 to 1500 nodes the order is 3.50, not yet asymptotic
        coarse, fine = manufactured_error(3, 1500), manufactured_error(3, 3000)
        assert fine < 1e-6
        assert math.log2(coarse / fine) > 3.5


class TestSolveControls:
    def test_defaults(self):
        controls = SolveControls()
        assert controls.tol == 1e-10
        assert controls.max_newton == 40

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": 0.0},
            {"tol": -1e-3},
            {"max_newton": 0},
            {"tol": math.inf},
            {"max_newton": 2.5},
            {"max_newton": True},
        ],
    )
    def test_invalid_controls_rejected(self, kwargs):
        with pytest.raises(InvalidArgumentError):
            SolveControls(**kwargs)


class TestSmoothSchwarzschild:
    def test_exterior_is_bitwise_closed_form(self, work_grid):
        for dim, m in ((DIM3, 1.0), (DIM3, 2.0), (DIM4, 1.0), (Dimension(5), 0.5)):
            phi = smooth_schwarzschild_phi(dim, m, work_grid)
            n = dim.n
            radius = m ** (1.0 / (n - 2))
            ext = work_grid.nodes >= radius
            r = work_grid.nodes[ext]
            assert np.array_equal(phi.values[ext], 1.0 - (m / 2.0) * r ** (2.0 - n))

    def test_center_value_positive_and_pinned(self, work_grid):
        phi = smooth_schwarzschild_phi(DIM3, 1.0, work_grid)
        assert phi.values[0] == pytest.approx(0.21797, abs=5e-5)
        for n, m in ((4, 1.0), (5, 2.0), (6, 0.5)):
            vals = smooth_schwarzschild_phi(Dimension(n), m, work_grid).values
            assert vals[0] > 0.05

    def test_profile_is_nondecreasing(self, work_grid):
        for n, m in ((3, 1.0), (4, 1.0), (6, 0.5)):
            phi = smooth_schwarzschild_phi(Dimension(n), m, work_grid)
            assert np.all(np.diff(phi.values) >= -1e-13)

    def test_interior_matches_value_and_slope_at_radius(self, work_grid):
        phi = smooth_schwarzschild_phi(DIM3, 1.0, work_grid)
        nodes = work_grid.nodes
        inside = nodes < 1.0
        j = int(np.sum(inside)) - 1
        # last interior node sits within one spacing of the matching radius
        assert nodes[j + 1] >= 1.0
        assert phi.values[j] == pytest.approx(1.0 - 0.5 / nodes[j], rel=1e-4)

    def test_derived_mean_curvature_matches_exterior_closed_form(self, work_grid):
        phi = smooth_schwarzschild_phi(DIM3, 1.0, work_grid)
        tau = tau_from_phi(DIM3, phi)
        r = work_grid.nodes
        window = (r >= 2.0) & (r <= 100.0)
        closed = (3.0 / math.sqrt(2.0)) * r[window] ** -1.5 * phi.values[window] ** -3.0
        rel = np.abs(tau.values[window] - closed) / closed
        assert float(np.max(rel)) < 1e-7

    def test_nonpositive_mass_rejected(self, work_grid):
        with pytest.raises(InvalidArgumentError, match="positive"):
            smooth_schwarzschild_phi(DIM3, 0.0, work_grid)
        with pytest.raises(InvalidArgumentError, match="positive"):
            smooth_schwarzschild_phi(DIM3, -1.0, work_grid)

    def test_grid_not_reaching_matching_radius_fails(self):
        grid = build_grid(64, 1.5, 1.0)
        with pytest.raises(InvalidArgumentError, match="matching radius"):
            smooth_schwarzschild_phi(DIM3, 64.0, grid)


class TestFixedPointSolve:
    def test_trivial_seed_returns_flat_bitwise(self, work_grid):
        zero = RadialProfile(work_grid, np.zeros(len(work_grid)))
        sol, trace = fixed_point_solve(DIM3, zero)
        assert trace.converged
        assert trace.outer_iterates == [0.0]
        assert np.all(sol.phi.values == 1.0)
        assert np.all(sol.A.values == 0.0)

    def test_decaying_seed_converges_with_identity_restored(self, work_grid):
        sol, trace = fixed_point_solve(DIM3, conformal_seed(work_grid, 1.0, 1.5))
        assert trace.converged
        assert check_solution(sol).identity_residual < 1e-6
        assert np.all(sol.phi.values > 0)
        assert np.all(np.diff(sol.phi.values) >= -1e-13)

    def test_critical_seed_converges(self, work_grid):
        # the converged factor stays at or below 1
        sol, trace = fixed_point_solve(DIM3, conformal_seed(work_grid, 1.0, 2.0))
        assert trace.converged
        assert check_solution(sol).identity_residual < 1e-6
        assert float(np.max(sol.phi.values)) <= 1.0 + 1e-10

    @pytest.mark.parametrize("c", [2.0, 0.5])
    def test_scaling_equivariance(self, work_grid, c):
        # rescaling lengths by 1/c maps the seed to c tau(c r) on the
        # shrunk grid and must reproduce the factor nodewise: phi_c(r) =
        # phi(c r); power-of-two c keeps the node arithmetic exact
        from vacuumdata import RadialGrid

        base, _ = fixed_point_solve(DIM3, conformal_seed(work_grid, 1.0, 2.0))
        shrunk = RadialGrid(work_grid.nodes / c)
        rc = shrunk.nodes
        seed_c = RadialProfile(shrunk, c * (1.0 + (c * rc) ** 2) ** -1.0)
        scaled, _ = fixed_point_solve(DIM3, seed_c)
        assert float(np.max(np.abs(scaled.phi.values - base.phi.values))) < 1e-9

    @pytest.mark.parametrize("c", [1e150, 1e300])
    def test_overflowing_seed_raises_typed(self, work_grid, c):
        # 1e300 overflows tau^2, 1e150 overflows A^2 after the first step;
        # either must end in a typed error, not a RuntimeWarning
        with pytest.raises(SingularSystemError, match="not finite"):
            fixed_point_solve(DIM3, conformal_seed(work_grid, c, 1.5))

    def test_iteration_budget_exhaustion_raises(self, work_grid):
        controls = SolveControls(tol=1e-14, max_newton=1)
        with pytest.raises(NoConvergenceError):
            fixed_point_solve(DIM3, conformal_seed(work_grid, 1.0, 1.5), controls)
