"""Conformal-layer tests.

The master-identity checks compare three routes: the production map
(finite differences inside tau_from_phi), the same expression evaluated
with exact symbolic derivatives, and an algebraically rearranged form of
the identity.  Integral identities (A = r^n f - 2n r^n w, div W = f/2)
tie the three potentials together independently of how each is computed.
"""

from __future__ import annotations

import collections
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vacuumdata import (
    ConformalSolution,
    Dimension,
    EvaluationOutOfRangeError,
    InitialData,
    InvalidArgumentError,
    NegativeRadicandError,
    NotMonotoneError,
    ProfileParseError,
    RadialGrid,
    RadialProfile,
    SchemaError,
    assemble_initial_data,
    build_grid,
    build_solution,
    differentiate,
    divergence_source,
    lw_norm,
    momentum_potential,
    read_solution_csv,
    smooth_schwarzschild_phi,
    tau_from_phi,
    vector_potential,
    write_solution_csv,
)
from vacuumdata import conformal, radial
from vacuumdata.conformal import _lichnerowicz_rows, _read_csv_table, _write_csv_table

DIM3 = Dimension(3)


def rows_at(sol, lw=None):
    """The discrete Lichnerowicz rows at the solution, with |LW| replaced
    by ``lw`` if given."""
    lw = sol.lw_norm if lw is None else lw
    return _lichnerowicz_rows(sol.dim, sol.grid, sol.phi.values, sol.tau.values**2, lw.values**2)[0]


# the radial fields ``InitialData._fields_at`` interpolates, by name
FIELDS = ("phi", "dphi", "d2phi", "tau", "trace_free")


def scalar_fields(data, r, *names):
    """The named fields of the evaluator at one scalar radius, as floats."""
    return [float(v[0]) for v in data._fields_at(r, *names)]


@pytest.fixture(scope="module")
def work_grid():
    return build_grid(4000, 1e4, 1.01)


@pytest.fixture(scope="module")
def mass_like(work_grid):
    """Smooth positive nondecreasing factor with a 1 - 1/(2r) far field."""
    r = work_grid.nodes
    phi = RadialProfile(work_grid, 1.0 - 0.5 / np.sqrt(1.0 + r**2))
    dphi = 0.5 * r * (1.0 + r**2) ** -1.5
    d2phi = 0.5 * (1.0 + r**2) ** -1.5 - 1.5 * r**2 * (1.0 + r**2) ** -2.5
    return phi, dphi, d2phi


@pytest.fixture(scope="module")
def mass_like_solution(mass_like):
    phi, _, _ = mass_like
    return build_solution(DIM3, phi)


@pytest.fixture(scope="module")
def flat(work_grid):
    one = RadialProfile(work_grid, np.ones(len(work_grid)))
    return build_solution(DIM3, one)


@pytest.fixture(scope="module")
def data(mass_like_solution):
    return assemble_initial_data(mass_like_solution)


def exact_branch_tau(n, r, v, dphi, d2phi):
    """The generic-branch identity evaluated from exact derivatives."""
    nf = 2.0 * n / (n - 2)
    num = (2 * n - 1) * v * dphi + 0.5 * nf * r * dphi**2 + r * v * d2phi
    rad = dphi * ((n - 2) * v + r * dphi)
    out = np.empty_like(r)
    out[0] = math.sqrt(2 * n * nf * v[0] ** (1 - nf) * d2phi[0])
    out[1:] = v[1:] ** (-nf / 2) * np.abs(num[1:]) / np.sqrt(r[1:] * rad[1:])
    return out


def rearranged_tau(n, r, v, dphi, d2phi):
    """Equivalent identity written through (r^{n-1} phi')' and (phi^2)'."""
    nf = 2.0 * n / (n - 2)
    radial_flux = (n - 1) * r ** (n - 2) * dphi + r ** (n - 1) * d2phi
    sq = 2.0 * v * dphi
    num = 2 * nf * (r * v) * radial_flux + n * nf * r ** (n - 1) * sq + nf**2 * r**n * dphi**2
    den = 2.0 * np.sqrt(r**n * v**nf * (n * nf * r ** (n - 1) * sq + nf**2 * r**n * dphi**2))
    return np.abs(num[1:]) / den[1:]


class TestConformalSolutionValidation:
    def test_rejects_mixed_grids(self, work_grid):
        other = build_grid(64, 10.0, 1.0)
        z = np.zeros(len(work_grid))
        one = RadialProfile(work_grid, np.ones(len(work_grid)))
        zp = RadialProfile(work_grid, z)
        with pytest.raises(InvalidArgumentError, match="grid"):
            ConformalSolution(
                DIM3, one, RadialProfile(other, np.zeros(len(other))), zp, zp, zp
            )

    def test_rejects_nonpositive_factor(self, work_grid):
        vals = np.ones(len(work_grid))
        vals[5] = 0.0
        zp = RadialProfile(work_grid, np.zeros(len(work_grid)))
        with pytest.raises(InvalidArgumentError, match="positive"):
            ConformalSolution(DIM3, RadialProfile(work_grid, vals), zp, zp, zp, zp)


class TestFlatData:
    """phi == 1, tau == 0 must come out bitwise zero everywhere."""

    def test_tau_is_bitwise_zero(self, flat):
        assert not np.any(flat.tau.values)

    def test_potentials_are_bitwise_zero(self, flat):
        assert not np.any(flat.A.values)
        assert not np.any(flat.w.values)
        assert not np.any(flat.lw_norm.values)

    def test_residual_is_bitwise_zero(self, flat):
        assert not np.any(rows_at(flat))

    def test_evaluator_gives_exact_flat_data(self, flat):
        data = assemble_initial_data(flat)
        for x in ([0.3, -0.4, 1.2], [0.0, 0.0, 0.0], [flat.grid.r_max, 0.0, 0.0]):
            assert np.array_equal(data.metric(x), np.eye(3))
            assert not np.any(data.extrinsic_curvature(x))


class TestConstantMeanCurvature:
    def test_momentum_potential_vanishes_bitwise(self, work_grid):
        one = RadialProfile(work_grid, np.ones(len(work_grid)))
        tau = RadialProfile(work_grid, np.full(len(work_grid), 0.3))
        assert not np.any(momentum_potential(DIM3, one, tau).values)

    def test_residual_is_exactly_tau_squared(self, work_grid):
        # ((n-1)/n) tau^2 on every row but the Robin row, which phi == 1 solves
        t = 0.3
        one = RadialProfile(work_grid, np.ones(len(work_grid)))
        tau = RadialProfile(work_grid, np.full(len(work_grid), t))
        sol = build_solution(DIM3, one, tau)
        rows = rows_at(sol)
        assert np.array_equal(rows[:-1], np.full(len(work_grid) - 1, (2.0 / 3.0) * t**2))
        assert rows[-1] == 0.0


class TestMasterIdentity:
    def test_two_rearrangements_agree(self, work_grid, mass_like):
        phi, dphi, d2phi = mass_like
        r = work_grid.nodes
        a = exact_branch_tau(3, r, phi.values, dphi, d2phi)
        b = rearranged_tau(3, r, phi.values, dphi, d2phi)
        assert np.max(np.abs(a[1:] - b) / a[1:]) < 1e-14

    def test_two_rearrangements_agree_dim4(self, work_grid):
        r = work_grid.nodes
        v = 1.0 - 0.5 / (1.0 + r**2)
        dphi = r * (1.0 + r**2) ** -2.0
        d2phi = (1.0 + r**2) ** -2.0 - 4.0 * r**2 * (1.0 + r**2) ** -3.0
        a = exact_branch_tau(4, r, v, dphi, d2phi)
        b = rearranged_tau(4, r, v, dphi, d2phi)
        assert np.max(np.abs(a[1:] - b) / a[1:]) < 1e-14

    def test_matches_exact_derivative_route(self, work_grid, mass_like):
        phi, dphi, d2phi = mass_like
        r = work_grid.nodes
        expected = exact_branch_tau(3, r, phi.values, dphi, d2phi)
        got = tau_from_phi(DIM3, phi).values
        win = (r >= 0.1) & (r <= 100.0)
        assert np.max(np.abs(got[win] - expected[win]) / expected[win]) < 1e-7

    def test_matches_exact_derivative_route_dim4(self, work_grid):
        r = work_grid.nodes
        v = 1.0 - 0.5 / (1.0 + r**2)
        dphi = r * (1.0 + r**2) ** -2.0
        d2phi = (1.0 + r**2) ** -2.0 - 4.0 * r**2 * (1.0 + r**2) ** -3.0
        expected = exact_branch_tau(4, r, v, dphi, d2phi)
        got = tau_from_phi(Dimension(4), RadialProfile(work_grid, v)).values
        win = (r >= 0.1) & (r <= 100.0)
        assert np.max(np.abs(got[win] - expected[win]) / expected[win]) < 1e-6

    def test_origin_uses_plateau_branch(self, work_grid, mass_like):
        phi, _, _ = mass_like
        # sqrt(2 n N phi(0)^{1-N} phi''(0)) with phi(0) = phi''(0) = 1/2
        assert tau_from_phi(DIM3, phi).values[0] == pytest.approx(24.0, abs=1e-9)

    def test_schwarzschild_exterior_closed_form(self, work_grid):
        r = work_grid.nodes
        vals = np.empty(len(work_grid))
        ext = r >= 1.0
        vals[ext] = 1.0 - 0.5 / r[ext]
        vals[~ext] = 0.5 * np.exp(-0.5 * (1.0 - r[~ext] ** 2))
        tau = tau_from_phi(DIM3, RadialProfile(work_grid, vals)).values
        win = (r >= 2.0) & (r <= 100.0)
        exact = 3.0 * math.sqrt(0.5) * r[win] ** -1.5 * (1.0 - 0.5 / r[win]) ** -3.0
        assert np.max(np.abs(tau[win] - exact) / exact) < 1e-7

    @pytest.mark.parametrize("c", [2.0, 0.5])
    def test_scaling_equivariance(self, work_grid, mass_like, c):
        # phi_c(r) = phi(c r) must map to tau_c(r) = c tau(c r)
        phi, _, _ = mass_like
        base = tau_from_phi(DIM3, phi).values
        scaled_grid = RadialGrid(work_grid.nodes / c)
        scaled = tau_from_phi(DIM3, RadialProfile(scaled_grid, phi.values.copy()))
        assert np.max(np.abs(scaled.values - c * base) / (c * base)) < 1e-12

    def test_decreasing_factor_rejected(self, work_grid):
        phi = RadialProfile(work_grid, 1.0 + np.exp(-work_grid.nodes))
        for _ in range(2):
            with pytest.raises(NotMonotoneError):
                tau_from_phi(DIM3, phi)
        # a call that raises keeps nothing in phi's memo: the second one raises again
        assert ("tau", 3) not in phi._memo

    def test_tau_and_f_derived_once_per_profile(self, work_grid, mass_like):
        phi = RadialProfile(work_grid, mass_like[0].values)
        tau = tau_from_phi(DIM3, phi)
        assert tau_from_phi(DIM3, phi) is tau
        assert tau_from_phi(Dimension(4), phi) is not tau
        f = divergence_source(DIM3, phi, tau)
        assert divergence_source(DIM3, phi, tau) is f
        # tau is keyed by identity: an equal copy is another profile
        again = divergence_source(DIM3, phi, RadialProfile(work_grid, np.array(tau.values)))
        assert again is not f and np.array_equal(again.values, f.values)

    def test_negative_radicand_rejected(self):
        # below the monotonicity tolerance but above the branch threshold
        grid = build_grid(512, 10.0, 1.0)
        vals = 1.0 + 5e-10 * np.cos(grid.nodes)
        with pytest.raises(NegativeRadicandError):
            tau_from_phi(DIM3, RadialProfile(grid, vals))

    def test_nonpositive_factor_rejected(self, work_grid):
        vals = np.full(len(work_grid), -1.0)
        with pytest.raises(InvalidArgumentError):
            tau_from_phi(DIM3, RadialProfile(work_grid, vals))


class TestPotentials:
    def test_momentum_potential_quartic_oracle(self):
        # phi = 1, tau = -r: A(r) = -r^4/4
        grid = build_grid(641, 10.0, 1.0)
        one = RadialProfile(grid, np.ones(len(grid)))
        tau = RadialProfile(grid, -grid.nodes)
        got = momentum_potential(DIM3, one, tau).values
        exact = -grid.nodes**4 / 4.0
        assert np.max(np.abs(got - exact) / (1.0 + np.abs(exact))) < 1e-7

    def test_divergence_source_reduces_to_tau(self, work_grid):
        # phi = 1 and tau -> 0 at infinity give f = tau pointwise
        r = work_grid.nodes
        one = RadialProfile(work_grid, np.ones(len(work_grid)))
        tau = RadialProfile(work_grid, (1.0 + r**2) ** -0.75)
        f = divergence_source(DIM3, one, tau)
        assert np.max(np.abs(f.values - tau.values)) < 1e-9

    def test_vector_potential_origin_value(self, work_grid):
        # w(0) = f(0)/(2n) = tau(0)/6 = 1/6 for the seed above
        r = work_grid.nodes
        one = RadialProfile(work_grid, np.ones(len(work_grid)))
        tau = RadialProfile(work_grid, (1.0 + r**2) ** -0.75)
        w = vector_potential(DIM3, one, tau)
        assert w.values[0] == pytest.approx(1.0 / 6.0, abs=1e-10)

    def test_potential_identity(self, work_grid, mass_like_solution):
        # A = r^n f - 2 n r^n w links the three integral representations
        sol = mass_like_solution
        r = work_grid.nodes
        f = divergence_source(DIM3, sol.phi, sol.tau)
        other = r**3 * f.values - 6.0 * r**3 * sol.w.values
        scale = max(1.0, float(np.max(np.abs(sol.A.values))))
        assert np.max(np.abs(sol.A.values - other)) / scale < 1e-8

    def test_divergence_identity(self, work_grid, mass_like_solution):
        # n w + r w' = f/2 pointwise
        sol = mass_like_solution
        r = work_grid.nodes
        f = divergence_source(DIM3, sol.phi, sol.tau)
        dw = differentiate(sol.w, 1).values
        assert np.max(np.abs(3.0 * sol.w.values + r * dw - 0.5 * f.values)) < 1e-7

    def test_lw_norm_squares_back_to_potential(self, work_grid, mass_like_solution):
        sol = mass_like_solution
        r = work_grid.nodes[1:]
        lhs = 1.5 * sol.lw_norm.values[1:] ** 2 * r**6
        rhs = sol.A.values[1:] ** 2
        assert np.max(np.abs(lhs - rhs) / np.maximum(1.0, rhs)) < 1e-13

    def test_lw_norm_vanishes_at_origin(self, work_grid):
        A = RadialProfile(work_grid, work_grid.nodes**3)
        lw = lw_norm(DIM3, A)
        assert lw.values[0] == 0.0
        assert np.allclose(lw.values[1:], math.sqrt(2.0 / 3.0), rtol=1e-13)


class TestLichnerowiczResidual:
    """The rows scaled by n/(n-1) = 3/2."""

    def test_derived_solution_solves_reduced_equation(self, mass_like_solution):
        assert np.max(np.abs(1.5 * rows_at(mass_like_solution))) < 1e-8

    def test_wrong_lw_coefficient_is_detected(self, mass_like_solution):
        # |LW| off by the factor sqrt((n-1)/n) must leave an O(|LW|^2) residual
        sol = mass_like_solution
        wrong = RadialProfile(sol.grid, sol.lw_norm.values * math.sqrt(2.0 / 3.0))
        floor = 0.4 * np.max(sol.lw_norm.values**2 * sol.phi.values**-7.0)
        assert np.max(np.abs(1.5 * rows_at(sol, wrong))) > floor


class TestInitialDataEvaluator:
    def test_rejects_mixed_grids(self, mass_like_solution):
        sol = mass_like_solution
        other = build_grid(64, 10.0, 1.0)
        with pytest.raises(InvalidArgumentError, match="grid"):
            InitialData(DIM3, sol.phi, sol.tau, RadialProfile(other, np.zeros(len(other))))

    def test_metric_is_conformally_flat(self, data):
        x = np.array([1.2, -0.3, 2.0])
        r = float(np.linalg.norm(x))
        phi = 1.0 - 0.5 / math.sqrt(1.0 + r**2)
        g = data.metric(x)
        assert np.allclose(g, phi**4 * np.eye(3), rtol=1e-9, atol=0.0)
        assert np.array_equal(g, g.T)

    def test_mean_curvature_is_metric_trace(self, data, mass_like_solution):
        for x in ([0.5, 0.5, 0.5], [3.0, 0.0, 0.0], [0.0, -7.0, 24.0]):
            r = float(np.linalg.norm(x))
            phi, tau = scalar_fields(data, r, "phi", "tau")
            k = data.extrinsic_curvature(x)
            trace = phi**-4 * np.trace(k)
            assert trace == pytest.approx(tau, rel=1e-12)

    def test_trace_free_part_has_lw_norm(self, data, mass_like_solution):
        for x in ([0.5, 0.5, 0.5], [3.0, 0.0, 0.0], [0.0, -7.0, 24.0]):
            r = float(np.linalg.norm(x))
            phi, tau = scalar_fields(data, r, "phi", "tau")
            k = data.extrinsic_curvature(x)
            part = k - (tau / 3.0) * phi**4 * np.eye(3)
            norm = phi**-4 * math.sqrt(float(np.sum(part * part)))
            expected = phi**-6 * float(mass_like_solution.lw_norm.at(r))
            assert norm == pytest.approx(expected, rel=1e-8)

    def test_origin_curvature_is_pure_trace(self, data):
        k = data.extrinsic_curvature([0.0, 0.0, 0.0])
        assert np.array_equal(k, k[0, 0] * np.eye(3))

    def test_points_at_the_origin_leave_the_other_rows_bitwise(self, data):
        # a set with points at the origin takes the masked path, the same
        # set without them every row at once
        points = np.random.default_rng(3).normal(size=(40, 3)) * np.logspace(-3, 3, 40)[:, None]
        with_origin = np.insert(points, [0, 17, 40], 0.0, axis=0)
        at_origin = ~np.any(with_origin, axis=1)
        k = data.extrinsic_curvature(with_origin)
        assert np.array_equal(k[~at_origin].view(np.int64), data.extrinsic_curvature(points).view(np.int64))
        assert np.array_equal(k[at_origin], np.broadcast_to(k[0, 0, 0] * np.eye(3), (3, 3, 3)))

    @pytest.mark.parametrize("what", ["fields_at", "profile_at", "metric", "extrinsic_curvature"])
    @pytest.mark.parametrize("shape", ["one", "many"])
    def test_evaluation_past_r_max_raises(self, data, what, shape):
        # the far field is a clean power law here, and still nothing is extrapolated
        r = 2.0 * data.r_max
        if what in ("metric", "extrinsic_curvature"):
            arg = [0.0, 0.0, r] if shape == "one" else [[1.0, 0.0, 0.0], [0.0, 0.0, r]]
            call = getattr(data, what)
        else:
            arg = r if shape == "one" else [1.0, r]
            call = (lambda radii: data._fields_at(radii, *FIELDS)) if what == "fields_at" else data.tau.at
        with pytest.raises(EvaluationOutOfRangeError, match="^evaluation at r=20000 beyond r_max=10000$"):
            call(arg)

    @pytest.mark.parametrize("shape", ["scalar", "array"])
    def test_profiles_give_the_evaluator_fields(self, data, shape):
        # the documented route to radial values reads the evaluator's bits;
        # only phi, which the evaluator holds as phi - 1, may differ in its last bits
        radii = np.array([0.0, 0.37, 3.0, 12.5, 0.5 * data.r_max, data.r_max])
        for arg in list(radii) if shape == "scalar" else [radii]:
            dphi, d2phi, tau = data._fields_at(arg, "dphi", "d2phi", "tau")
            for profile, expected in ((differentiate(data.phi, 1), dphi), (differentiate(data.phi, 2), d2phi),
                                      (data.tau, tau)):
                assert np.array_equal(np.atleast_1d(profile.at(arg)).view(np.int64), expected.view(np.int64))
            (phi,) = data._fields_at(arg, "phi")
            assert np.allclose(data.phi.at(arg), phi, rtol=1e-15, atol=0.0)


BUNDLE_HEADER = "r,phi,dphi,tau,A,w,lw"
EDGE_VALUES = np.array([-0.0, 5e-324, -1e-300, 1e308, 0.1, 1.0, 1e4])


def reference_solution_csv(solution, path):
    """The bundle writer as it was before rows were formatted whole: one
    f-string per value, joined per row."""
    columns = (
        solution.grid.nodes,
        solution.phi.values,
        differentiate(solution.phi, 1).values,
        solution.tau.values,
        solution.A.values,
        solution.w.values,
        solution.lw_norm.values,
    )
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{BUNDLE_HEADER} # n={solution.dim.n}\n")
        for row in zip(*columns):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    return columns


@pytest.fixture(scope="module")
def edge_solution():
    """A 64-node solution whose columns cycle through EDGE_VALUES; phi
    takes the positive ones that its derivative does not overflow on."""
    grid = build_grid(64, 10.0, 1.0)
    npts = len(grid)
    positive = EDGE_VALUES[(EDGE_VALUES > 0) & (EDGE_VALUES < 1e300)]
    phi = RadialProfile(grid, np.resize(positive, npts))
    tau, A, w, lw = (RadialProfile(grid, np.resize(np.roll(EDGE_VALUES, k), npts)) for k in range(4))
    return ConformalSolution(DIM3, phi, tau, A, w, lw)


class TestSolutionBundleCsv:
    @pytest.mark.parametrize("which", ["mass_like_solution", "edge_solution"])
    def test_bytes_equal_per_value_reference(self, tmp_path, request, which):
        solution = request.getfixturevalue(which)
        write_solution_csv(solution, tmp_path / "bundle.csv")
        columns = reference_solution_csv(solution, tmp_path / "reference.csv")
        written = (tmp_path / "bundle.csv").read_bytes()
        assert written == (tmp_path / "reference.csv").read_bytes()
        assert written.count(b"\n") == len(solution.grid) + 1 and b"\r" not in written
        record, table = _read_csv_table(tmp_path / "bundle.csv", BUNDLE_HEADER)
        assert record == "n=3"
        for k, column in enumerate(columns):
            assert np.array_equal(table[:, k].view(np.int64), column.view(np.int64))

    def test_cached_radii_text_keeps_every_bundle_per_value(self, tmp_path, monkeypatch, mass_like_solution):
        monkeypatch.setattr(radial, "_OPERATORS", collections.OrderedDict())
        values = [getattr(mass_like_solution, name).values for name in ("phi", "tau", "A", "w", "lw_norm")]

        def on(grid, scale=1.0):
            scaled = (RadialProfile(grid, scale * v) for v in values[1:])
            return ConformalSolution(DIM3, RadialProfile(grid, values[0]), *scaled)

        def radii_text_of_a_per_value_bundle(solution):
            write_solution_csv(solution, tmp_path / "bundle.csv")
            reference_solution_csv(solution, tmp_path / "reference.csv")
            assert (tmp_path / "bundle.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
            return solution.grid._cache["g17_radii"]

        grid = RadialGrid(mass_like_solution.grid.nodes)
        text = radii_text_of_a_per_value_bundle(on(grid))
        assert radii_text_of_a_per_value_bundle(on(grid, -3.0)) is text  # a second bundle on the grid
        monkeypatch.setattr(radial, "_OPERATORS", collections.OrderedDict())
        assert radii_text_of_a_per_value_bundle(on(grid, -3.0)) is text  # the grid keeps its text
        assert radii_text_of_a_per_value_bundle(on(RadialGrid(grid.nodes))) is not text  # a new grid formats its own

    def test_roundtrip_is_bitwise(self, tmp_path, mass_like_solution):
        path = tmp_path / "bundle.csv"
        write_solution_csv(mass_like_solution, path)
        back = read_solution_csv(path, DIM3)
        assert np.array_equal(back.grid.nodes, mass_like_solution.grid.nodes)
        for name in ("phi", "tau", "A", "w", "lw_norm"):
            assert np.array_equal(
                getattr(back, name).values, getattr(mass_like_solution, name).values
            )

    @pytest.mark.parametrize("n", range(3, 8))
    def test_roundtrip_reads_the_recorded_dimension(self, tmp_path, n):
        dim = Dimension(n)
        written = build_solution(dim, smooth_schwarzschild_phi(dim, 1.0, build_grid(200, 50.0, 1.02)))
        path = tmp_path / "bundle.csv"
        write_solution_csv(written, path)
        assert path.read_text().split("\n", 1)[0] == f"{BUNDLE_HEADER} # n={n}"
        back = read_solution_csv(path, DIM3)
        assert back.dim.n == n
        for name in ("phi", "tau", "A", "w", "lw_norm"):
            assert np.array_equal(getattr(back, name).values.view(np.int64),
                                  getattr(written, name).values.view(np.int64))
        assert np.array_equal(back.grid.nodes.view(np.int64), written.grid.nodes.view(np.int64))

    def test_header_mismatch_rejected(self, tmp_path):
        # a wrong header, an empty file, and a header without data rows
        path = tmp_path / "bad.csv"
        for text in ("r,phi,tau,A,w,lw\n0,1,0,0,0,0\n", "", "r,phi,dphi,tau,A,w,lw\n"):
            path.write_text(text)
            with pytest.raises(SchemaError):
                read_solution_csv(path, DIM3)

    def test_short_row_rejected_with_line_number(self, tmp_path):
        # a row one field short, and a row with a non-numeric field
        path = tmp_path / "bad.csv"
        for row in ("1,1,0,0,0", "1,1,0,0,abc,0,0"):
            path.write_text(f"r,phi,dphi,tau,A,w,lw\n0,1,0,0,0,0,0\n{row}\n")
            with pytest.raises(ProfileParseError, match="line 3"):
                read_solution_csv(path, DIM3)



def per_row_csv_table(path, header, columns):
    """The table writer as it was before all rows went through one ``%``:
    the row format applied to each row in turn."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    rows = zip(*(column.tolist() for column in columns))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n" + "".join([row % values for values in rows]))


def assert_table_bytes_equal_per_row(directory, columns):
    header = ",".join(f"c{k}" for k in range(len(columns)))
    _write_csv_table(directory / "table.csv", header, columns)
    per_row_csv_table(directory / "reference.csv", header, columns)
    assert (directory / "table.csv").read_bytes() == (directory / "reference.csv").read_bytes()


class TestCsvTable:
    def test_special_values_match_per_row_writer(self, tmp_path):
        special = np.array([-0.0, 5e-324, 1e16, 1e17, 1e-5, 0.1, 3.0, -42.0, 1e22, 2.0**53])
        assert_table_bytes_equal_per_row(tmp_path, [np.roll(special, k) for k in range(7)])
        lines = (tmp_path / "table.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == [
            "-0", "4.9406564584124654e-324", "10000000000000000", "1e+17", "1.0000000000000001e-05",
            "0.10000000000000001", "3", "-42", "1e+22", "9007199254740992",
        ]

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 8)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_finite_columns_match_per_row_writer(self, tmp_path_factory, table):
        assert_table_bytes_equal_per_row(tmp_path_factory.mktemp("table"), list(table.T))


def per_value_g17(table):
    """The rows of ``table`` with each value formatted by its own ``%.17g``."""
    cols = table.shape[1]
    seps = [b","] * (cols - 1) + [b"\n"]
    return b"".join(b"%.17g" % v + seps[k % cols] for k, v in enumerate(table.ravel().tolist()))


def assert_g17_equals_per_value(values, cols=7):
    """Both the whole table and its last columns after the first column's
    cached slots (see ``_g17_column``) give the per-value text."""
    table = np.resize(np.asarray(values, dtype=float), (-(-len(values) // cols), cols))
    expected = per_value_g17(table)
    assert b"".join(conformal._g17_rows(table)) == expected
    assert b"".join(conformal._g17_rows(table[:, 1:], conformal._g17_column(table[:, 0]))) == expected


@pytest.fixture
def per_value_calls(monkeypatch):
    """Counts the values the formatter hands to Python's ``%``."""
    calls = []

    def counted(values):
        calls.append(values.copy())
        return percent_g17(values)

    percent_g17 = conformal._percent_g17
    monkeypatch.setattr(conformal, "_percent_g17", counted)
    return calls


class TestG17Formatter:
    def test_random_bits_match_per_value_percent(self):
        rng = np.random.default_rng(1971)
        values = rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64)
        values[:7] = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-308]
        assert np.count_nonzero(np.abs(values) < 2.2250738585072014e-308) > 100  # subnormals
        assert_g17_equals_per_value(values)

    @pytest.mark.parametrize("log10_error", [0.0, -0.9])
    def test_powers_of_ten_and_their_neighbours(self, log10_error, monkeypatch):
        # a double next to 10^k decides k against the exact power, also
        # when log10 errs low and its truncation falls one short of k
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda x: log10(x) + log10_error)
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        steps = 1.0 + np.arange(-4, 5) * 2.0**-52
        values = (powers[:, None] * steps).ravel()
        assert_g17_equals_per_value(np.concatenate([values, -values]))

    def test_exact_ties_round_half_even_through_percent(self, per_value_calls):
        assert b"".join(conformal._g17_rows(np.array([[2.0**-25]]))) == b"2.9802322387695312e-08\n"
        # odd m 2^-j: its exact decimal digits m 5^j are 18 and end in 5
        rng = np.random.default_rng(1990)
        ties = []
        for j in range(2, 26):
            low, high = -(-10**17 // 5**j), min(10**18 // 5**j, 2**53)
            for m in rng.integers(low, high, 20).tolist():
                m |= 1
                if len(str(m * 5**j)) == 18:
                    ties += [m * 2.0**-j, -m * 2.0**-j]
        assert len(ties) > 500
        per_value_calls.clear()
        assert_g17_equals_per_value(ties)
        passed = np.concatenate(per_value_calls)
        assert np.isin(ties, passed).all() and np.isin(passed, ties).all()

    def test_few_bundle_values_take_the_per_value_path(self, tmp_path, schwarzschild_solution, per_value_calls):
        write_solution_csv(schwarzschild_solution, tmp_path / "bundle.csv")
        values = 7 * len(schwarzschild_solution.grid)
        assert sum(len(v) for v in per_value_calls) < 1e-3 * values

    def test_failed_formatting_leaves_no_new_file_and_keeps_an_old_one(
            self, tmp_path, monkeypatch, mass_like_solution):
        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr(conformal, "_g17_rows", out_of_memory)
        new = tmp_path / "new.csv"
        with pytest.raises(MemoryError):
            write_solution_csv(mass_like_solution, new)
        assert not new.exists()
        old = tmp_path / "old.csv"
        old.write_bytes(b"r,phi,dphi,tau,A,w,lw\n1,1,0,0,0,0,0\n")
        with pytest.raises(MemoryError):
            write_solution_csv(mass_like_solution, old)
        assert old.read_bytes() == b"r,phi,dphi,tau,A,w,lw\n1,1,0,0,0,0,0\n"


@pytest.fixture(scope="module")
def read_back(mass_like_solution, tmp_path_factory):
    """The bundle read back onto a grid that builds its own operators from
    an empty operator cache, not the writer's."""
    path = tmp_path_factory.mktemp("bundle") / "bundle.csv"
    write_solution_csv(mass_like_solution, path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(radial, "_OPERATORS", collections.OrderedDict())
        return read_solution_csv(path, DIM3)


class TestReadBackEvaluation:
    """A bundle read back evaluates as the solution it was written from,
    bit for bit, everywhere on the grid."""

    @staticmethod
    def radii(r_max):
        # interior, a node's neighbourhood, r_max itself and roundoff past it
        return np.array([0.0, 0.37, 1.0, 12.5, 0.5 * r_max, r_max, r_max * (1.0 + 1e-13)])

    @pytest.mark.parametrize("name", FIELDS)
    @pytest.mark.parametrize("shape", ["scalar", "array"])
    def test_fields_equal_the_built_solution(self, mass_like_solution, read_back, name, shape):
        assert read_back.grid._cache is not mass_like_solution.grid._cache
        built, back = assemble_initial_data(mass_like_solution), assemble_initial_data(read_back)
        radii = self.radii(built.r_max)
        args = list(radii) if shape == "scalar" else [radii, radii.reshape(7, 1)]
        for arg in args:
            (got,), (expected,) = back._fields_at(arg, name), built._fields_at(arg, name)
            assert got.shape == expected.shape == np.atleast_1d(arg).shape
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("what", ["metric", "extrinsic_curvature"])
    @pytest.mark.parametrize("shape", ["one-point", "points"])
    def test_cartesian_equals_the_built_solution(self, mass_like_solution, read_back, what, shape):
        built, back = assemble_initial_data(mass_like_solution), assemble_initial_data(read_back)
        unit = np.array([2.0, -1.0, 2.0]) / 3.0
        points = self.radii(built.r_max)[:, None] * unit
        args = list(points) if shape == "one-point" else [points]
        for arg in args:
            got, expected = getattr(back, what)(arg), getattr(built, what)(arg)
            assert got.shape == expected.shape
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))


class TestTailsOnDemand:
    @pytest.mark.parametrize("source", ["built", "read-back"])
    def test_evaluation_fits_no_tail(self, mass_like_solution, read_back, source, monkeypatch):
        solution = mass_like_solution if source == "built" else read_back
        fits, polyfit = [], np.polyfit
        monkeypatch.setattr(np, "polyfit", lambda *a: fits.append(a) or polyfit(*a))
        data = assemble_initial_data(solution)
        for r in (0.5 * data.r_max, data.r_max):
            data._fields_at(r, *FIELDS)
            data.metric([r, 0.0, 0.0])
            data.extrinsic_curvature([[r, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(EvaluationOutOfRangeError):
            data._fields_at(2.0 * data.r_max, *FIELDS)
        assert fits == []

    def test_concurrent_first_evaluations_agree(self):
        # derivatives are filled in on first use; threads that race to
        # fill them on fresh profiles must all read the sequential result
        # bit for bit
        grid = build_grid(200, 100.0, 1.02)
        sol = build_solution(DIM3, RadialProfile(grid, 1.0 - 0.5 / np.sqrt(1.0 + grid.nodes**2)))
        points = np.array([0.25, 0.5, 1.0])[:, None] * grid.r_max * np.eye(3)[0]
        expected = assemble_initial_data(sol).extrinsic_curvature(points)
        expected_dphi = differentiate(RadialProfile(grid, sol.phi.values), 1).values
        rounds = [(assemble_initial_data(sol), RadialProfile(grid, sol.phi.values)) for _ in range(20)]
        failures = []

        def work():
            for data, phi in rounds:
                k = data.extrinsic_curvature(points)
                if not (np.array_equal(k, expected) and np.array_equal(differentiate(phi, 1).values, expected_dphi)):
                    failures.append(k)

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
        assert failures == []
