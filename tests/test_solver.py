"""Solver tests.

Discretization accuracy is pinned with manufactured solutions whose
right-hand sides are exact, so the measured error is pure scheme error.
Convergence rates are asserted between two uniform grids.  The
Schwarzschild construction is checked against its closed-form exterior
bitwise, and the fixed-point driver against the mean-curvature identity
it is required to restore.  The cached Helmholtz operator is checked
bitwise against per-step assembly, the reference kept below.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.linalg

from vacuumdata import (
    Dimension,
    InvalidArgumentError,
    RadialGrid,
    RadialProfile,
    SolveControls,
    build_grid,
    fixed_point_solve,
    smooth_schwarzschild_phi,
    solve_lichnerowicz,
    solve_radial_helmholtz,
    tau_from_phi,
)
from vacuumdata.conformal import build_solution, lw_norm, momentum_potential
from vacuumdata.errors import SingularSystemError
from vacuumdata.radial import _apply_window, _window_starts
from vacuumdata.solver import _helmholtz_operator, _solve

DIM3 = Dimension(3)
DIM4 = Dimension(4)


@pytest.fixture(scope="module")
def work_grid():
    return build_grid(4000, 1e4, 1.01)


def conformal_seed(grid, c, q):
    r = grid.nodes
    return RadialProfile(grid, c * (1.0 + r * r) ** (-q / 2.0))


class TestHelmholtzSolve:
    def helmholtz_error(self, n_points):
        # u* = (1+r^2)^{-1/2} solves -lap u = rhs with u'(0) = 0 and the
        # far-field Robin closure satisfied to O(r_max^-3)
        grid = build_grid(n_points, 150.0, 1.0)
        r = grid.nodes
        exact = (1.0 + r * r) ** -0.5
        rhs = RadialProfile(grid, -3.0 * (1.0 + r * r) ** -2.5)
        pot = RadialProfile(grid, np.zeros(len(grid)))
        u = solve_radial_helmholtz(DIM3, pot, rhs)
        return float(np.max(np.abs(u.values - exact)))

    def test_manufactured_potential_free(self):
        assert self.helmholtz_error(750) < 3e-4

    def test_scheme_order_at_least_three_and_a_half(self):
        coarse = self.helmholtz_error(750)
        fine = self.helmholtz_error(1500)
        assert fine < 1e-5
        assert math.log2(coarse / fine) > 3.5

    def test_zero_rhs_is_bitwise_zero(self, work_grid):
        zero = RadialProfile(work_grid, np.zeros(len(work_grid)))
        pot = RadialProfile(work_grid, work_grid.nodes**2)
        u = solve_radial_helmholtz(DIM3, pot, zero)
        assert np.all(u.values == 0.0)

    def test_negative_potential_rejected(self, work_grid):
        pot = RadialProfile(work_grid, -np.ones(len(work_grid)))
        rhs = RadialProfile(work_grid, np.ones(len(work_grid)))
        with pytest.raises(InvalidArgumentError, match="nonnegative"):
            solve_radial_helmholtz(DIM3, pot, rhs)

    def test_mixed_grids_rejected(self, work_grid):
        other = build_grid(512, 10.0, 1.0)
        pot = RadialProfile(work_grid, np.zeros(len(work_grid)))
        rhs = RadialProfile(other, np.ones(len(other)))
        with pytest.raises(InvalidArgumentError, match="grid"):
            solve_radial_helmholtz(DIM3, pot, rhs)

    def test_harmonic_function_in_operator_kernel(self, work_grid):
        # 1/r is harmonic away from the origin; apply the assembled
        # operator rows directly since the function is singular at r = 0
        rows = _helmholtz_operator(3, work_grid).rows
        u = np.zeros(len(work_grid))
        u[1:] = 1.0 / work_grid.nodes[1:]
        image = _apply_window(work_grid, rows, u)
        rows = work_grid.nodes[1:-1] >= 1.0
        assert float(np.max(np.abs(image[1:-1][rows]))) < 1e-9
        assert abs(image[-1]) < 1e-15


class TestBandedSolve:
    def test_matches_dense_solve(self):
        grid = build_grid(200, 50.0, 1.05)
        r = grid.nodes
        potential = 1.0 / (1.0 + r * r)
        operator = _helmholtz_operator(3, grid)
        npts, width = operator.rows.shape
        dense = np.zeros((npts, npts))
        columns = _window_starts(npts, width)[:, None] + np.arange(width)
        dense[np.arange(npts)[:, None], columns] = operator.rows
        dense[np.arange(npts - 1), np.arange(npts - 1)] -= potential[:-1]
        rhs = np.exp(-r)
        expected = np.linalg.solve(dense, rhs)
        got = _solve(operator.band_with_potential(potential), rhs)
        assert float(np.max(np.abs(got - expected))) <= 1e-12 * float(np.max(np.abs(expected)))

    def test_zero_rows_raise_singular(self):
        with pytest.raises(SingularSystemError):
            _solve(np.zeros((13, 64)), np.ones(64))


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


def reference_fixed_point(dim, tau, controls):
    """The damped Picard loop with tau' taken afresh in every update."""
    grid = tau.grid
    outer, newton = [], []
    tau_sq = tau.values**2
    phi = RadialProfile(grid, np.ones(len(grid)))
    for _ in range(controls.max_outer):
        lw = lw_norm(dim, momentum_potential(dim, phi, tau))
        phi_new, res = reference_newton(dim, grid, tau_sq, lw.values**2, controls, phi.values)
        newton.extend(res)
        update = controls.damping * (phi_new - phi.values)
        phi = RadialProfile(grid, phi.values + update)
        rel = float(np.max(np.abs(update)) / np.max(np.abs(phi.values)))
        outer.append(rel)
        if rel < controls.tol:
            return build_solution(dim, phi, tau), outer, newton
    raise AssertionError("reference Picard loop did not converge")


class TestBitwiseAgainstPerStepAssembly:
    def test_helmholtz_solve(self, work_grid):
        r = work_grid.nodes
        pot = RadialProfile(work_grid, 1.0 / (1.0 + r * r))
        rhs = RadialProfile(work_grid, np.exp(-r))
        got = solve_radial_helmholtz(DIM3, pot, rhs)
        b = rhs.values.copy()
        b[-1] = 0.0
        assert np.array_equal(got.values, reference_solve(reference_rows(3, work_grid, pot.values), b))

    @pytest.mark.parametrize("dim", [DIM3, DIM4], ids=["n3", "n4"])
    def test_lichnerowicz(self, dim):
        grid = build_grid(2000, 1e3, 1.01)
        tau = conformal_seed(grid, 1.0, 1.5)
        lw = RadialProfile(grid, 0.1 * (1.0 + grid.nodes**2) ** -1.0)
        got = solve_lichnerowicz(dim, tau, lw)
        expected, _ = reference_newton(
            dim, grid, tau.values**2, lw.values**2, SolveControls(), np.ones(len(grid))
        )
        assert np.array_equal(got.values, expected)

    @pytest.mark.parametrize(
        "dim, q, r_max", [(DIM3, 1.5, 1e4), (DIM4, 2.2, 1e3)], ids=["n3", "n4"]
    )
    def test_fixed_point_solve(self, dim, q, r_max):
        grid = build_grid(2000, r_max, 1.01)
        tau = conformal_seed(grid, 1.0, q)
        sol, trace = fixed_point_solve(dim, tau)
        expected, outer, newton = reference_fixed_point(dim, tau, SolveControls())
        for name in ("phi", "tau", "A", "w", "lw_norm"):
            assert np.array_equal(getattr(sol, name).values, getattr(expected, name).values), name
        assert trace.outer_iterates == outer
        assert trace.newton_residuals == newton


class TestOperatorCache:
    def test_cached_arrays_are_read_only(self, work_grid):
        operator = _helmholtz_operator(3, work_grid)
        assert _helmholtz_operator(3, work_grid) is operator
        for array in (operator.rows, operator.band, work_grid.derivative_matrix(1)):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0

    def test_dimension_switches_match_fresh_grids(self):
        shared = build_grid(2000, 1e3, 1.01)
        r = shared.nodes
        for dim in (DIM3, DIM4, DIM3):
            results = []
            for grid in (shared, RadialGrid(shared.nodes)):
                tau = conformal_seed(grid, 1.0, 1.5)
                lw = RadialProfile(grid, 0.1 * (1.0 + r * r) ** -1.0)
                pot = RadialProfile(grid, 1.0 / (1.0 + r * r))
                rhs = RadialProfile(grid, np.exp(-r))
                results.append(
                    (
                        solve_lichnerowicz(dim, tau, lw).values,
                        solve_radial_helmholtz(dim, pot, rhs).values,
                        _helmholtz_operator(dim.n, grid).band,
                    )
                )
            for got, fresh in zip(*results):
                assert np.array_equal(got, fresh)

    def test_singular_diagonal_raises_and_leaves_cache(self, work_grid):
        operator = _helmholtz_operator(3, work_grid)
        before = operator.band.copy()
        potential = np.zeros(len(work_grid))
        potential[len(work_grid) // 2] = np.inf
        with pytest.raises(SingularSystemError):
            _solve(operator.band_with_potential(potential), np.ones(len(work_grid)))
        assert np.array_equal(operator.band, before)


class TestLichnerowiczSolve:
    def manufactured_error(self, n_points):
        # phi* = 1 + (1+r^2)^{-1/2}/10 with tau, |LW| chosen so phi* is the
        # exact solution; the |LW|^2 bracket stays positive on this grid
        grid = build_grid(n_points, 150.0, 1.0)
        r = grid.nodes
        exact = 1.0 + 0.1 * (1.0 + r * r) ** -0.5
        lap = -0.3 * (1.0 + r * r) ** -2.5
        tau_sq = (1.0 + r * r) ** -1.5
        bracket = -12.0 * lap + tau_sq * exact**5
        assert np.all(bracket > 0)
        lw_sq = (2.0 / 3.0) * exact**7 * bracket
        tau = RadialProfile(grid, np.sqrt(tau_sq))
        lw = RadialProfile(grid, np.sqrt(lw_sq))
        phi = solve_lichnerowicz(DIM3, tau, lw)
        return float(np.max(np.abs(phi.values - exact)))

    def test_manufactured_recovery(self):
        assert self.manufactured_error(750) < 3e-5

    def test_scheme_order_at_least_three_and_a_half(self):
        coarse = self.manufactured_error(750)
        fine = self.manufactured_error(1500)
        assert fine < 1e-6
        assert math.log2(coarse / fine) > 3.5

    def test_flat_problem_returns_ones_bitwise(self, work_grid):
        zero = RadialProfile(work_grid, np.zeros(len(work_grid)))
        phi = solve_lichnerowicz(DIM3, zero, zero)
        assert np.all(phi.values == 1.0)

    def test_start_independence(self, work_grid):
        tau = conformal_seed(work_grid, 1.0, 1.5)
        zero = RadialProfile(work_grid, np.zeros(len(work_grid)))
        a = solve_lichnerowicz(DIM3, tau, zero)
        start = RadialProfile(work_grid, np.full(len(work_grid), 2.0))
        b = solve_lichnerowicz(DIM3, tau, zero, phi0=start)
        assert float(np.max(np.abs(a.values - b.values))) < 1e-9

    def test_nonpositive_start_rejected(self, work_grid):
        zero = RadialProfile(work_grid, np.zeros(len(work_grid)))
        start = RadialProfile(work_grid, np.zeros(len(work_grid)))
        with pytest.raises(InvalidArgumentError, match="positive"):
            solve_lichnerowicz(DIM3, zero, zero, phi0=start)


class TestSolveControls:
    def test_defaults(self):
        controls = SolveControls()
        assert controls.tol == 1e-10
        assert controls.damping == 0.7

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": 0.0},
            {"tol": -1e-3},
            {"max_outer": 0},
            {"max_newton": 0},
            {"damping": 0.0},
            {"damping": 1.5},
            {"continuation_steps": 0},
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
        assert trace.bounded
        assert trace.final_identity_residual < 1e-6
        assert np.all(sol.phi.values > 0)
        assert np.all(np.diff(sol.phi.values) >= -1e-13)

    def test_critical_seed_converges(self, work_grid):
        # transient iterates overshoot 1 by ~3e-5 before settling, so the
        # bounded flag records the excursion; the converged factor is <= 1
        sol, trace = fixed_point_solve(DIM3, conformal_seed(work_grid, 1.0, 2.0))
        assert trace.converged
        assert trace.final_identity_residual < 1e-6
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

    def test_iteration_budget_exhaustion_raises(self, work_grid):
        from vacuumdata import NoConvergenceError

        controls = SolveControls(tol=1e-14, max_outer=1, max_newton=40)
        with pytest.raises(NoConvergenceError):
            fixed_point_solve(DIM3, conformal_seed(work_grid, 1.0, 1.5), controls)
