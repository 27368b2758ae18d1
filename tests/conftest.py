"""Session fixtures for the acceptance battery.

The solves and data assemblies here are the expensive artifacts shared
across the acceptance tests, and the manufactured solution is shared with
the solver tests; everything else builds its own inputs.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from vacuumdata import (
    Dimension,
    RadialProfile,
    assemble_initial_data,
    build_grid,
    build_solution,
    fixed_point_solve,
    smooth_schwarzschild_phi,
)

DIM3 = Dimension(3)


def power_seed(grid, c, q):
    r = grid.nodes
    return RadialProfile(grid, c * (1.0 + r * r) ** (-q / 2.0))


@pytest.fixture(scope="session")
def acceptance_grid():
    return build_grid(4000, 1.0e4, 1.01)


@pytest.fixture(scope="session")
def schwarzschild_solution(acceptance_grid):
    return build_solution(DIM3, smooth_schwarzschild_phi(DIM3, 1.0, acceptance_grid))


@pytest.fixture(scope="session")
def schwarzschild_data(schwarzschild_solution):
    return assemble_initial_data(schwarzschild_solution)


@pytest.fixture(scope="session")
def schwarzschild_refined_data():
    grid = build_grid(8000, 1.0e4, 1.01)
    return assemble_initial_data(
        build_solution(DIM3, smooth_schwarzschild_phi(DIM3, 1.0, grid))
    )


@pytest.fixture(scope="session")
def solver_runs(acceptance_grid):
    runs = {}
    for q in (1.3, 1.5, 2.0):
        runs[q] = fixed_point_solve(DIM3, power_seed(acceptance_grid, 1.0, q))
    return runs


@pytest.fixture(scope="session")
def solver_data(solver_runs):
    return {q: assemble_initial_data(sol) for q, (sol, _) in solver_runs.items()}


@pytest.fixture(scope="session")
def manufactured_error():
    """The function (n, points) -> max |phi - phi*| of fixed_point_solve on
    build_grid(points, 150, 1) for phi* = 1 - 0.1 (1 + r^2)^{-p}, p = (n-2)/2,
    seeded with the tau* that the master identity gives from the exact phi*'
    and phi*'': the plateau branch at r = 0, the generic one elsewhere (see
    ``tau_from_phi``).  Each error is computed once per session."""

    @functools.cache
    def error(n, points):
        dim = Dimension(n)
        nf = float(dim.N)
        p = (n - 2) / 2.0
        grid = build_grid(points, 150.0, 1.0)
        r = grid.nodes
        s = 1.0 + r * r
        phi = 1.0 - 0.1 * s**-p
        dphi = 0.2 * p * r * s ** (-p - 1.0)
        d2phi = 0.2 * p * s ** (-p - 2.0) * (s - 2.0 * (p + 1.0) * r * r)
        numerator = (2 * n - 1) * phi * dphi + 0.5 * nf * r * dphi**2 + r * phi * d2phi
        radicand = dphi * ((n - 2) * phi + r * dphi)
        tau = np.empty(len(grid))
        tau[0] = math.sqrt(2.0 * n * nf * phi[0] ** (1.0 - nf) * d2phi[0])
        tau[1:] = (phi ** (-0.5 * nf) * np.abs(numerator))[1:] / np.sqrt(r[1:] * radicand[1:])
        sol, _ = fixed_point_solve(dim, RadialProfile(grid, tau))
        return float(np.max(np.abs(sol.phi.values - phi)))

    return error
