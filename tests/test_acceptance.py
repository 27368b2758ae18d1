"""Acceptance battery: one test per headline guarantee.

Every tolerance below is part of the package contract.  The oracles are
closed forms (the smoothed Schwarzschild family, the flat solution) and
scaling laws of the seeded solver family; none of them are regression
values captured from this code.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from vacuumdata import (
    Dimension,
    RadialGrid,
    RadialProfile,
    adm_mass_radial,
    adm_mass_surface,
    assemble_initial_data,
    build_solution,
    check_solution,
    constraint_report,
    decay_exponents,
    default_sample_points,
    differentiate,
    fit_tail,
    fixed_point_solve,
    hamiltonian_residual,
    momentum_residual,
    tail_limit_check,
    tau_from_phi,
)
from vacuumdata.conformal import _lichnerowicz_rows

DIM3 = Dimension(3)

# unit direction with exact float components: 0.36 + 0.2304 + 0.4096 = 1
DIRECTION = np.array([0.6, 0.48, 0.64])


def g_norm_of_k(data, radius):
    x = DIRECTION * radius
    g = data.metric(x)
    k = data.extrinsic_curvature(x)
    ginv = np.linalg.inv(g)
    return math.sqrt(float(np.einsum("ik,jl,ij,kl->", ginv, ginv, k, k)))


def test_flat_input_produces_exact_vacuum_data(acceptance_grid):
    ones = RadialProfile(acceptance_grid, np.ones(len(acceptance_grid)))
    sol = build_solution(DIM3, ones)
    data = assemble_initial_data(sol)
    pts = default_sample_points(DIM3)
    assert float(np.max(np.abs(hamiltonian_residual(data, pts)))) < 1e-12
    assert float(np.max(np.abs(momentum_residual(data, pts)))) < 1e-12
    chk = check_solution(sol)
    assert chk.identity_residual < 1e-12
    assert chk.lw_identity < 1e-12
    assert chk.divw_identity < 1e-12
    rows, _ = _lichnerowicz_rows(DIM3, sol.grid, sol.phi.values, sol.tau.values**2, sol.lw_norm.values**2)
    assert not np.any(rows)
    x = DIRECTION * 7.0
    assert np.array_equal(data.metric(x), np.eye(3))
    assert not np.any(data.extrinsic_curvature(x))


def test_schwarzschild_smoothing_matches_closed_form_oracles(
    schwarzschild_solution, schwarzschild_data, schwarzschild_refined_data
):
    sol = schwarzschild_solution
    data = schwarzschild_data

    tail = fit_tail(sol.tau, window=(1e3, 1e4))
    assert tail.exponent == pytest.approx(1.5, abs=0.05)
    assert tail.coefficient == pytest.approx(3.0 / math.sqrt(2.0), rel=0.02)

    radial = adm_mass_radial(DIM3, sol.phi)
    surface = adm_mass_surface(data, (1e3, 2e3, 4e3))
    assert radial.mass_standard == pytest.approx(-1.0, rel=1e-2)
    assert surface.mass_standard == pytest.approx(-1.0, rel=1e-2)

    # 2x refinement of grid and stencil together; h = 1e-2 keeps the
    # coarse residual well above the rounding floor of the stencil
    pts = default_sample_points(DIM3)
    rep = constraint_report(data, pts, 1e-2, refined=schwarzschild_refined_data)
    assert rep.convergence_order is not None
    assert rep.convergence_order >= 2.0

    for radius in (2.0, 5.0, 10.0, 30.0, 100.0):
        ratio = g_norm_of_k(data, radius) / abs(data.tau.at(radius))
        assert ratio == pytest.approx(1.0, abs=1e-6)


def test_mean_curvature_rebuilds_from_factor_alone(schwarzschild_solution):
    sol = schwarzschild_solution
    again = tau_from_phi(DIM3, sol.phi)
    r = sol.phi.grid.nodes
    sel = (r >= 0.1) & (r <= 100.0)
    rel = np.abs(np.abs(again.values[sel]) - np.abs(sol.tau.values[sel]))
    rel = rel / np.abs(sol.tau.values[sel])
    assert float(np.max(rel)) < 1e-8


def test_seeded_solver_classifies_masses_by_decay_rate(solver_runs):
    sol, _ = solver_runs[1.5]
    rep = adm_mass_radial(DIM3, sol.phi)
    assert not rep.diverges
    assert rep.mass_standard == pytest.approx(-2.0 / 9.0, rel=0.02)

    sol, _ = solver_runs[2.0]
    rep = adm_mass_radial(DIM3, sol.phi)
    assert not rep.diverges
    assert abs(rep.mass_standard) < 1e-2

    sol, _ = solver_runs[1.3]
    rep = adm_mass_radial(DIM3, sol.phi)
    assert rep.diverges
    assert rep.mass_standard == -math.inf
    # the unbounded flux grows at the seed's own power: r^2 phi' follows
    # r^{3-2q} = r^{0.4}, about 2.5x per decade
    r = sol.phi.grid.nodes
    flux = r**2 * differentiate(sol.phi).values
    i = int(np.searchsorted(r, 1e3))
    assert flux[-1] / flux[i] == pytest.approx(10.0**0.4, rel=0.02)

    for q, (sol, trace) in solver_runs.items():
        assert trace.converged, f"q={q}"
        assert np.all(sol.phi.values > 0)
        chk = check_solution(sol)
        assert chk.monotone, f"q={q}"
        assert chk.identity_residual < 1e-6, f"q={q}"


def test_far_slope_obeys_squared_tail_law(schwarzschild_solution, solver_runs):
    c = 3.0 / math.sqrt(2.0)
    measured = tail_limit_check(DIM3, schwarzschild_solution.phi, c, 1.5)
    assert measured == pytest.approx((c / 3.0) ** 2, rel=0.02)
    assert (c / 3.0) ** 2 == pytest.approx(0.5, rel=1e-12)

    sol, _ = solver_runs[1.5]
    measured = tail_limit_check(DIM3, sol.phi, 1.0, 1.5)
    assert measured == pytest.approx(1.0 / 9.0, rel=0.02)


def test_decay_exponents_track_seed_rate(solver_data):
    for q in (1.5, 2.0):
        windows = None
        if q == 2.0:
            # the Robin row at r_max = 1e4 leaves a constant offset of
            # about 1.2e-9 in phi (this run's mass.standard is -1.35e-9),
            # which overtakes the r^{-2} field beyond r ~ 1e3, so fit
            # where the seeded rate dominates
            windows = {"metric": (100.0, 1e3)}
        rep = decay_exponents(solver_data[q], windows)
        assert rep.k_exponent == pytest.approx(q, abs=0.1)
        assert rep.metric_exponent == pytest.approx(2.0 * q - 2.0, abs=0.1)


def test_structural_properties_hold(
    acceptance_grid, schwarzschild_solution, solver_runs, manufactured_error
):
    # rescaling lengths by 1/c maps the family onto itself nodewise;
    # power-of-two c keeps the node arithmetic exact
    base, _ = solver_runs[2.0]
    for c in (0.5, 2.0):
        shrunk = RadialGrid(acceptance_grid.nodes / c)
        rc = shrunk.nodes
        seed_c = RadialProfile(shrunk, c * (1.0 + (c * rc) ** 2) ** -1.0)
        scaled, _ = fixed_point_solve(DIM3, seed_c)
        assert float(np.max(np.abs(scaled.phi.values - base.phi.values))) < 1e-9

    # manufactured solution recovered at scheme order by the free-tau solve
    for n in (3, 4):
        coarse, fine = manufactured_error(n, 1500), manufactured_error(n, 3000)
        assert fine < 1e-6, f"n={n}"
        assert math.log2(coarse / fine) > 3.5, f"n={n}"

    # the monotonicity check holds on every accepted solution and is
    # refused for a decreasing factor
    accepted = [schwarzschild_solution] + [sol for sol, _ in solver_runs.values()]
    for sol in accepted:
        chk = check_solution(sol)
        assert chk.monotone
        assert chk.monotone_min >= 0.0
    bad = RadialProfile(acceptance_grid, 1.0 + np.exp(-acceptance_grid.nodes))
    bad_sol = build_solution(DIM3, bad, RadialProfile(acceptance_grid, np.zeros(len(acceptance_grid))))
    assert not check_solution(bad_sol).monotone


def test_mass_conventions_stay_proportional(
    schwarzschild_solution, schwarzschild_data, solver_runs, solver_data
):
    # the near-zero-mass run is excluded: its convention ratios are 0/0
    cases = [
        (schwarzschild_solution, schwarzschild_data),
        (solver_runs[1.5][0], solver_data[1.5]),
    ]
    triples = []
    for sol, data in cases:
        radial = adm_mass_radial(DIM3, sol.phi)
        surface = adm_mass_surface(data, (1e3, 2e3, 4e3))
        triple = (radial.mass_standard, radial.mass_paper_radial, surface.mass_paper_surface)
        assert all(m < 0.0 for m in triple)
        triples.append(triple)
    first, second = triples
    for i, j in ((1, 0), (2, 0), (2, 1)):
        assert first[i] / first[j] == pytest.approx(second[i] / second[j], rel=1e-6)
