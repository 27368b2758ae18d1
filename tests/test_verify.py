"""Verification-layer tests.

Residual checks are exercised against data where the answer is known in
closed form: flat space (identically zero), constant mean curvature on a
flat metric, and the smoothed Schwarzschild family whose exterior is
exact.  Mass estimators are cross-checked against each other and against
the parameterized construction they measure.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
import scipy.special

from vacuumdata import (
    ConformalSolution,
    Dimension,
    InvalidArgumentError,
    NoTailError,
    RadialProfile,
    adm_mass_radial,
    adm_mass_surface,
    assemble_initial_data,
    build_grid,
    build_solution,
    check_solution,
    constraint_report,
    decay_exponents,
    default_sample_points,
    fixed_point_solve,
    hamiltonian_residual,
    momentum_residual,
    smooth_schwarzschild_phi,
    solve_lichnerowicz,
    tail_limit_check,
)
from vacuumdata import conformal, solver, verify
from vacuumdata.verify import sphere_area

DIM3 = Dimension(3)


@pytest.fixture(scope="module")
def work_grid():
    return build_grid(4000, 1e4, 1.01)


@pytest.fixture(scope="module")
def flat_data(work_grid):
    sol = build_solution(DIM3, RadialProfile(work_grid, np.ones(len(work_grid))))
    return sol, assemble_initial_data(sol)


@pytest.fixture(scope="module")
def mass_like_data(work_grid):
    r = work_grid.nodes
    phi = RadialProfile(work_grid, 1.0 - 0.5 / np.sqrt(1.0 + r * r))
    sol = build_solution(DIM3, phi)
    return sol, assemble_initial_data(sol)


@pytest.fixture(scope="module")
def schwarzschild(work_grid):
    sol = build_solution(DIM3, smooth_schwarzschild_phi(DIM3, 1.0, work_grid))
    return sol, assemble_initial_data(sol)


@pytest.fixture(scope="module")
def free_tau(work_grid):
    """The free-tau solution for tau = (1 + r^2)^{-3/4}, and its trace."""
    r = work_grid.nodes
    return fixed_point_solve(DIM3, RadialProfile(work_grid, (1.0 + r * r) ** -0.75))


@pytest.fixture(scope="module")
def sample_points():
    return default_sample_points(DIM3)


class TestSamplePoints:
    def test_deterministic(self):
        a = default_sample_points(DIM3)
        b = default_sample_points(DIM3)
        assert np.array_equal(a, b)
        assert a.shape == (64, 3)

    def test_radii_span_fixed_range(self):
        pts = default_sample_points(DIM3, count=16)
        radii = np.linalg.norm(pts, axis=1)
        assert radii[0] == pytest.approx(0.1)
        assert radii[-1] == pytest.approx(50.0)
        assert np.all(np.diff(radii) > 0)


class TestConstraintResiduals:
    def test_flat_data_is_bitwise_zero(self, flat_data, sample_points):
        _, data = flat_data
        assert np.all(hamiltonian_residual(data, sample_points) == 0.0)
        assert np.all(momentum_residual(data, sample_points) == 0.0)

    def test_constant_mean_curvature_momentum(self, work_grid, sample_points):
        t = 0.37
        ones = RadialProfile(work_grid, np.ones(len(work_grid)))
        tau = RadialProfile(work_grid, np.full(len(work_grid), t))
        data = assemble_initial_data(build_solution(DIM3, ones, tau))
        assert float(np.max(np.abs(momentum_residual(data, sample_points)))) < 1e-10

    def test_constant_mean_curvature_hamiltonian(self, work_grid, sample_points):
        # flat metric with k = (t/3) I: R = 0, so the residual must equal
        # (tr k)^2 - |k|^2 = 2 t^2 / 3 exactly
        t = 0.37
        ones = RadialProfile(work_grid, np.ones(len(work_grid)))
        tau = RadialProfile(work_grid, np.full(len(work_grid), t))
        data = assemble_initial_data(build_solution(DIM3, ones, tau))
        res = hamiltonian_residual(data, sample_points)
        assert float(np.max(np.abs(res - 2.0 * t * t / 3.0))) < 1e-14

    def test_derived_data_satisfies_both_constraints(self, mass_like_data, sample_points):
        _, data = mass_like_data
        assert float(np.max(np.abs(hamiltonian_residual(data, sample_points)))) < 1e-6
        assert float(np.max(np.abs(momentum_residual(data, sample_points)))) < 1e-5

    def test_schwarzschild_exterior_residuals_small(self, schwarzschild, sample_points):
        _, data = schwarzschild
        radii = np.linalg.norm(sample_points, axis=1)
        ext = radii > 2.0
        ham = hamiltonian_residual(data, sample_points[ext])
        mom = momentum_residual(data, sample_points[ext])
        assert float(np.max(np.abs(ham))) < 1e-8
        assert float(np.max(np.abs(mom))) < 1e-6

    def test_report_records_protocol(self, mass_like_data, sample_points):
        _, data = mass_like_data
        rep = constraint_report(data, sample_points[::8], h=2e-3)
        assert rep.stencil_h == 2e-3
        assert rep.convergence_order is None
        assert rep.hamiltonian_sup > 0
        assert rep.momentum_sup > 0

    @pytest.mark.parametrize("h,coarse_steps", [(1e-2, [1e-2]), (1e-3, [1e-3, 1e-2])])
    def test_order_study_reuses_coarse_momentum_at_its_step(
        self, mass_like_data, flat_data, sample_points, monkeypatch, h, coarse_steps
    ):
        """The order study runs the momentum residual at step 1e-2 on the
        coarse data and 5e-3 on the refined data; at h = 1e-2 the report's
        own coarse residual serves."""
        _, data = mass_like_data
        _, refined = flat_data
        calls = []
        original = verify.momentum_residual

        def counted(evaluator, points, step):
            calls.append((evaluator is data, step))
            return original(evaluator, points, step)

        monkeypatch.setattr(verify, "momentum_residual", counted)
        rep = constraint_report(data, sample_points[::8], h=h, refined=refined)
        assert calls == [(True, step) for step in coarse_steps] + [(False, 5e-3)]
        assert rep.stencil_h == h
        assert rep.momentum_sup == float(np.max(np.abs(original(data, sample_points[::8], h))))

    @pytest.mark.parametrize("scale", [1.0, 1e196])
    def test_step_at_or_above_r_max_rejected(self, mass_like_data, sample_points, scale):
        _, data = mass_like_data
        with pytest.raises(InvalidArgumentError, match="r_max"):
            constraint_report(data, sample_points[::8], h=scale * data.r_max)

    @pytest.mark.parametrize("check", [constraint_report, momentum_residual])
    @pytest.mark.parametrize("h", [0.0, -1e-3])
    def test_nonpositive_step_rejected(self, mass_like_data, sample_points, check, h):
        _, data = mass_like_data
        with pytest.raises(InvalidArgumentError, match="r_max"):
            check(data, sample_points[::8], h=h)


class TestRadialMass:
    def test_flat_mass_is_zero(self, flat_data):
        sol, _ = flat_data
        rep = adm_mass_radial(DIM3, sol.phi)
        assert rep.mass_standard == 0.0
        assert rep.mass_paper_radial == 0.0
        assert not rep.diverges

    def test_schwarzschild_standard_mass(self, schwarzschild):
        sol, _ = schwarzschild
        rep = adm_mass_radial(DIM3, sol.phi)
        assert rep.mass_standard == pytest.approx(-1.0, abs=1e-6)
        assert rep.extrapolated

    def test_convention_ratio_is_exact(self, schwarzschild):
        sol, _ = schwarzschild
        rep = adm_mass_radial(DIM3, sol.phi)
        assert rep.mass_paper_radial / rep.mass_standard == pytest.approx(0.5, rel=1e-12)

    def test_mass_scales_linearly(self, work_grid):
        rep = adm_mass_radial(
            DIM3, smooth_schwarzschild_phi(DIM3, 2.0, work_grid)
        )
        assert rep.mass_standard == pytest.approx(-2.0, abs=1e-5)

    def test_divergent_tail_detected(self, work_grid):
        r = work_grid.nodes
        slow = RadialProfile(work_grid, 1.0 - 0.1 * (1.0 + r * r) ** -0.3)
        rep = adm_mass_radial(DIM3, slow)
        assert rep.diverges
        assert rep.mass_standard == -math.inf
        assert rep.mass_paper_radial == -math.inf

    def test_oscillating_far_field_rejected(self, work_grid):
        osc = RadialProfile(work_grid, 1.0 + 1e-3 * np.cos(work_grid.nodes))
        with pytest.raises(NoTailError) as info:
            adm_mass_radial(DIM3, osc)
        assert str(info.value) == (
            "no power-law far field for the factor: profile vanishes or changes sign on the fit window"
        )

    @pytest.mark.parametrize("far_field,reason", [
        (lambda r: 1e-3 * np.where(r < 5e3, r**-1.0, 0.0), "profile vanishes or changes sign on the fit window"),
        (lambda r: 0.1 * np.exp(-r * r), "profile vanishes identically on the fit window"),
    ], ids=["vanishes-on-part", "vanishes-identically"])
    def test_no_tail_messages(self, work_grid, monkeypatch, far_field, reason):
        # the window and sign checks of a tail fit, without fitting one
        monkeypatch.setattr(np, "polyfit", None)
        phi = RadialProfile(work_grid, 1.0 + far_field(np.maximum(work_grid.nodes, 1.0)))
        with pytest.raises(NoTailError) as info:
            adm_mass_radial(DIM3, phi)
        assert str(info.value) == f"no power-law far field for the factor: {reason}"

    def test_fits_no_power_law(self, schwarzschild, monkeypatch):
        sol, _ = schwarzschild
        expected = adm_mass_radial(DIM3, sol.phi)
        monkeypatch.setattr(np, "polyfit", None)
        assert adm_mass_radial(DIM3, sol.phi) == expected


def reference_sphere_weights(n):
    """Weights of the Gauss-Jacobi product rule on S^{n-1} that the surface
    flux was once summed over.  Polar angle k carries the Jacobi weight
    (1-x^2)^{(n-3-k)/2} in x = cos; the azimuth is a 64-point rectangle
    rule.  The flux integrand is constant on each sphere, so the nodes
    do not enter."""
    count = 32 if n <= 4 else 12
    weights = []
    for k in range(n - 2):
        alpha = (n - 3 - k) / 2.0
        weights.append(scipy.special.roots_jacobi(count, alpha, alpha)[1])
    weights.append(np.full(64, 2.0 * math.pi / 64.0))
    product = np.ones(())
    for w in weights:
        product = np.multiply.outer(product, w)
    return product.reshape(-1)


class TestSurfaceMass:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_flux_matches_sphere_rule_reference(self, n):
        dim = Dimension(n)
        nf = float(dim.N)
        grid = build_grid(1000, 1e3, 1.01)
        data = assemble_initial_data(build_solution(dim, smooth_schwarzschild_phi(dim, 1.0, grid)))
        weights = reference_sphere_weights(n)
        for r in (50.0, 200.0, 800.0):
            phi = float(data.conformal_factor_at(r))
            dpsi = (nf - 2.0) * phi ** (nf - 3.0) * float(data.conformal_factor_derivative_at(r, 1))
            reference = float(np.sum(-(n - 1.0) * dpsi * weights)) * r ** (n - 1)
            flux = adm_mass_surface(data, (r,)).mass_standard * 2.0 * (n - 1.0) * sphere_area(n)
            assert flux == pytest.approx(reference, rel=1e-14, abs=0.0)

    def test_unit_sphere_areas(self):
        assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
        assert sphere_area(4) == pytest.approx(2.0 * math.pi**2, rel=1e-15)

    def test_schwarzschild_extrapolated_mass(self, schwarzschild):
        _, data = schwarzschild
        rep = adm_mass_surface(data, (1e3, 2e3, 4e3))
        assert rep.extrapolated
        assert rep.mass_standard == pytest.approx(-1.0, abs=1e-8)
        assert rep.mass_paper_surface / rep.mass_standard == pytest.approx(2.0, rel=1e-12)

    def test_single_radius_reports_raw_flux_value(self, schwarzschild):
        # without extrapolation the estimate carries the O(1/r) bias of
        # the finite sphere: -phi(r)^3 for this family
        _, data = schwarzschild
        rep = adm_mass_surface(data, (2500.0,))
        assert not rep.extrapolated
        phi = float(data.conformal_factor_at(2500.0))
        assert rep.mass_standard == pytest.approx(-(phi**3), rel=1e-8)

    def test_agrees_with_radial_estimator(self, mass_like_data):
        sol, data = mass_like_data
        radial = adm_mass_radial(DIM3, sol.phi)
        surface = adm_mass_surface(data, (1e3, 2e3, 4e3))
        assert surface.mass_standard == pytest.approx(radial.mass_standard, rel=1e-6)

    def test_empty_radii_rejected(self, schwarzschild):
        _, data = schwarzschild
        with pytest.raises(InvalidArgumentError):
            adm_mass_surface(data, ())

    @pytest.mark.parametrize("radii", [
        (100.0, 100.0, 200.0), (0.0, 100.0, 200.0), (100.0, 200.0, 200.0), (math.nan,), (math.inf,),
    ], ids=["repeated-first", "zero", "repeated-last", "nan", "inf"])
    def test_radii_must_be_finite_positive_and_distinct(self, schwarzschild, radii):
        _, data = schwarzschild
        with pytest.raises(InvalidArgumentError, match="finite, positive and distinct"):
            adm_mass_surface(data, radii)


class TestDecayExponents:
    def test_schwarzschild_exponents(self, schwarzschild):
        _, data = schwarzschild
        rep = decay_exponents(data)
        assert rep.metric_exponent == pytest.approx(1.0, abs=0.02)
        assert rep.k_exponent == pytest.approx(1.5, abs=0.02)
        assert rep.tau_exponent == pytest.approx(1.5, abs=0.02)

    @pytest.mark.parametrize("key", ["metric", "k", "tau"])
    @pytest.mark.parametrize("window", [(0.0, 10.0), (10.0, 5.0), (10.0, 2e4)])
    def test_bad_windows_rejected(self, schwarzschild, key, window):
        _, data = schwarzschild
        with pytest.raises(InvalidArgumentError, match="bad fit window"):
            decay_exponents(data, {key: window})

    def test_windows_recorded_and_respected(self, schwarzschild):
        _, data = schwarzschild
        win = (50.0, 5000.0)
        rep = decay_exponents(data, {"metric": win})
        assert rep.windows["metric"] == win
        assert rep.windows["tau"] != win


class TestTailLimit:
    def test_flat_limit_is_zero(self, flat_data):
        sol, _ = flat_data
        assert tail_limit_check(DIM3, sol.phi, 0.0, 1.5) == 0.0

    def test_schwarzschild_limit_matches_prediction(self, schwarzschild):
        sol, _ = schwarzschild
        c = 3.0 / math.sqrt(2.0)
        measured = tail_limit_check(DIM3, sol.phi, c, 1.5)
        predicted = (c * 1.0 / (2.0 * (3.0 - 1.5))) ** 2
        assert measured == pytest.approx(predicted, rel=1e-6)


class TestCheckSolution:
    def test_flat_solution_all_zero(self, flat_data):
        sol, _ = flat_data
        chk = check_solution(sol)
        assert chk.monotone
        assert chk.identity_residual == 0.0
        assert chk.lw_identity == 0.0
        assert chk.divw_identity == 0.0
        assert chk.notes == ()

    def test_schwarzschild_passes_battery(self, schwarzschild):
        sol, _ = schwarzschild
        chk = check_solution(sol)
        assert chk.monotone
        assert chk.identity_residual < 1e-12
        assert chk.lw_identity < 1e-12
        assert chk.divw_identity < 1e-6

    @pytest.mark.parametrize("case", ["schwarzschild", "free_tau"])
    def test_divergence_source_ends_at_tau(self, request, case):
        # the remainder of f's improper integral past r_max is -tau(r_max)
        sol = request.getfixturevalue(case)[0]
        f = conformal.divergence_source(DIM3, sol.phi, sol.tau)
        assert f.values[-1] == sol.tau.values[-1]

    @pytest.mark.parametrize("case", ["schwarzschild", "free_tau"])
    def test_memoised_fields_give_the_checks_of_copied_profiles(self, request, case):
        # build_solution leaves tau and f in phi's memo for check_solution;
        # on copies of the profiles every memo misses and both are derived again
        sol = request.getfixturevalue(case)[0]
        profiles = (sol.phi, sol.tau, sol.A, sol.w, sol.lw_norm)
        copied = ConformalSolution(DIM3, *(RadialProfile(sol.grid, np.array(p.values)) for p in profiles))
        assert not copied.phi._memo
        memoised, recomputed = check_solution(sol), check_solution(copied)
        for field in dataclasses.fields(memoised):
            # repr tells every float apart bitwise, -0.0 from 0.0 too
            assert repr(getattr(memoised, field.name)) == repr(getattr(recomputed, field.name)), field.name

    def test_solvers_and_checks_apply_one_rows_function(self, monkeypatch, work_grid, free_tau):
        rows = conformal._lichnerowicz_rows
        assert solver._lichnerowicz_rows is rows and not hasattr(verify, "_lichnerowicz_rows")
        calls = []

        def counted(*args):
            calls.append(args)
            return rows(*args)

        for module in (conformal, solver):
            monkeypatch.setattr(module, "_lichnerowicz_rows", counted)
        sol, trace = free_tau
        zero = RadialProfile(work_grid, np.zeros(len(work_grid)))
        _, refit = fixed_point_solve(DIM3, sol.tau)
        assert len(calls) == len(refit.newton_residuals) == len(trace.newton_residuals)
        calls.clear()
        solve_lichnerowicz(DIM3, sol.tau, zero)
        assert len(calls) >= 2
        calls.clear()
        check_solution(sol)
        assert calls == []

    def test_failures_are_recorded_not_raised(self, work_grid):
        r = work_grid.nodes
        decreasing = RadialProfile(work_grid, 1.0 + np.exp(-r))
        zero = RadialProfile(work_grid, np.zeros(len(work_grid)))
        sol = build_solution(DIM3, decreasing, zero)
        chk = check_solution(sol)
        assert not chk.monotone
        assert chk.identity_residual == math.inf
        assert any("identity" in note for note in chk.notes)
