"""The batched Cartesian evaluator and residuals against per-point code.

The reference functions below are the earlier point-by-point
implementations, kept verbatim apart from reading the evaluator's radial
fields one scalar radius at a time through ``field_at``.  The batched
code must reproduce them bit for bit: the residuals sit near their gates,
and finite differences amplify any last-bit drift in the evaluator.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vacuumdata import (
    Dimension,
    InvalidArgumentError,
    RadialProfile,
    assemble_initial_data,
    build_grid,
    build_solution,
    decay_exponents,
    default_sample_points,
    fixed_point_solve,
    hamiltonian_residual,
    momentum_residual,
    smooth_schwarzschild_phi,
)

# -- per-point reference ------------------------------------------------------


def field_at(data, name, r):
    """One named field of the evaluator at a scalar radius, as a float."""
    (values,) = data._fields_at(r, name)
    return float(values[0])


def scalar_extrinsic_curvature(data, x):
    x = np.asarray(x, dtype=float)
    n = data.dim.n
    r = float(np.linalg.norm(x))
    phi = field_at(data, "phi", r)
    psi = phi ** (float(data.dim.N) - 2.0)
    out = (field_at(data, "tau", r) / n) * psi * np.eye(n)
    if r > 0.0:
        unit = x / r
        out += (
            phi**-2.0
            * field_at(data, "trace_free", r)
            * (np.outer(unit, unit) - np.eye(n) / n)
        )
    return out


def scalar_hamiltonian_residual(data, points):
    n = data.dim.n
    nf = float(data.dim.N)
    out = np.empty(len(points))
    for i, x in enumerate(np.asarray(points, dtype=float)):
        r = float(np.linalg.norm(x))
        phi = field_at(data, "phi", r)
        psi = phi ** (nf - 2.0)
        k = scalar_extrinsic_curvature(data, x)
        tr_k = np.trace(k) / psi
        k_sq = float(np.sum(k * k)) / psi**2
        d1 = field_at(data, "dphi", r)
        d2 = field_at(data, "d2phi", r)
        lap = n * d2 if r == 0.0 else d2 + (n - 1) * d1 / r
        scalar = -(4.0 * (n - 1.0) / (n - 2.0)) * phi ** (1.0 - nf) * lap
        out[i] = scalar - k_sq + tr_k**2
    return out


def scalar_momentum_residual(data, points, h=1e-3):
    n = data.dim.n
    nf = float(data.dim.N)

    def p_tensor(x):
        k = scalar_extrinsic_curvature(data, x)
        return k - np.trace(k) * np.eye(n)

    eye = np.eye(n)
    out = np.empty(len(points))
    for i, x in enumerate(np.asarray(points, dtype=float)):
        r = float(np.linalg.norm(x))
        step = h * (1.0 + r)
        grad_p = np.empty((n, n, n))
        for a in range(n):
            e = np.zeros(n)
            e[a] = step
            grad_p[a] = (
                8.0 * (p_tensor(x + e) - p_tensor(x - e))
                - (p_tensor(x + 2 * e) - p_tensor(x - 2 * e))
            ) / (12.0 * step)
        phi = field_at(data, "phi", r)
        psi = phi ** (nf - 2.0)
        if r > 0.0:
            ell = (nf - 2.0) * field_at(data, "dphi", r) / phi * (x / r)
        else:
            ell = np.zeros(n)
        gamma = 0.5 * (
            np.einsum("a,cb->cab", ell, eye)
            + np.einsum("b,ca->cab", ell, eye)
            - np.einsum("c,ab->cab", ell, eye)
        )
        p = p_tensor(x)
        div = np.einsum("aaj->j", grad_p)
        div -= np.einsum("caa,cj->j", gamma, p)
        div -= np.einsum("caj,ac->j", gamma, p)
        out[i] = float(np.linalg.norm(div / psi))
    return out


def scalar_k_exponent(data):
    lo, hi = data.r_max / 10.0**1.5, data.r_max
    radii = np.logspace(math.log10(lo), math.log10(hi), 48)
    ray = np.zeros(data.dim.n)
    norms = np.empty(len(radii))
    for i, r in enumerate(radii):
        ray[0] = r
        k = scalar_extrinsic_curvature(data, ray)
        norms[i] = math.sqrt(float(np.sum(k * k)))
    return float(-np.polyfit(np.log(radii), np.log(norms), 1)[0])


# -- data ---------------------------------------------------------------------

# n -> (free-tau seed (c, q), grid r_max); n >= 4 uses r_max = 1e3, as
# `--grid-max 1e3` does, where the far-field tail fits stay well posed
CASES = {3: ((1.0, 1.5), 1e4), 4: ((1.0, 2.2), 1e3), 5: ((1.0, 2.8), 1e3)}


@pytest.fixture(scope="module", params=[(n, kind) for n in CASES for kind in ("schwarzschild", "free-tau")],
                ids=lambda p: f"n{p[0]}-{p[1]}")
def case_data(request):
    n, kind = request.param
    dim = Dimension(n)
    (c, q), r_max = CASES[n]
    grid = build_grid(2000, r_max, 1.01)
    if kind == "schwarzschild":
        sol = build_solution(dim, smooth_schwarzschild_phi(dim, 1.0, grid))
    else:
        r = grid.nodes
        sol, _ = fixed_point_solve(dim, RadialProfile(grid, c * (1.0 + r * r) ** (-q / 2.0)))
    return assemble_initial_data(sol)


def check_points(data):
    """Default samples and the origin."""
    return np.vstack([default_sample_points(data.dim), np.zeros((1, data.dim.n))])


# -- bitwise equality ---------------------------------------------------------


class TestBitwiseAgainstPointByPoint:
    def test_extrinsic_curvature(self, case_data):
        pts = check_points(case_data)
        batched = case_data.extrinsic_curvature(pts)
        expected = np.array([scalar_extrinsic_curvature(case_data, x) for x in pts])
        assert batched.shape == (len(pts), case_data.dim.n, case_data.dim.n)
        assert np.array_equal(batched, expected)

    def test_metric(self, case_data):
        pts = check_points(case_data)
        batched = case_data.metric(pts)
        for g, x in zip(batched, pts):
            assert np.array_equal(g, case_data.metric(x))

    def test_hamiltonian_residual(self, case_data):
        pts = check_points(case_data)
        assert np.array_equal(hamiltonian_residual(case_data, pts), scalar_hamiltonian_residual(case_data, pts))

    @pytest.mark.parametrize("h", [1e-3, 1e-2])
    def test_momentum_residual(self, case_data, h):
        pts = check_points(case_data)
        assert np.array_equal(momentum_residual(case_data, pts, h), scalar_momentum_residual(case_data, pts, h))

    def test_decay_k_exponent(self, case_data):
        assert decay_exponents(case_data).k_exponent == scalar_k_exponent(case_data)


class TestPointShapes:
    def test_single_point_drops_the_point_axis(self, schwarzschild3):
        x = np.array([1.2, -0.3, 2.0])
        assert schwarzschild3.extrinsic_curvature(x).shape == (3, 3)
        assert schwarzschild3.metric(x).shape == (3, 3)
        assert hamiltonian_residual(schwarzschild3, x).shape == ()
        assert momentum_residual(schwarzschild3, x) == momentum_residual(schwarzschild3, x[None])[0]

    @pytest.mark.parametrize(
        "bad",
        [
            np.ones(4),
            np.ones((5, 4)),
            np.ones((5, 2)),
            np.float64(1.0),
            np.array([[1.0, np.nan, 0.0]]),
            np.array([1.0, np.inf, 0.0]),
            np.ones((2, 4, 3)),
        ],
        ids=["4-vector", "M-by-4", "M-by-2", "scalar", "nan", "inf", "stacked"],
    )
    def test_rejects_bad_points(self, schwarzschild3, bad):
        for call in (
            schwarzschild3.metric,
            schwarzschild3.extrinsic_curvature,
            lambda x: hamiltonian_residual(schwarzschild3, x),
            lambda x: momentum_residual(schwarzschild3, x),
        ):
            with pytest.raises(InvalidArgumentError):
                call(bad)


@pytest.fixture(scope="module")
def schwarzschild3():
    dim = Dimension(3)
    grid = build_grid(2000, 1e4, 1.01)
    return assemble_initial_data(build_solution(dim, smooth_schwarzschild_phi(dim, 1.0, grid)))


@settings(max_examples=60, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 12), st.just(3)),
        # |x| <= 5e3 sqrt(3) stays inside r_max = 1e4
        elements=st.floats(-5e3, 5e3, allow_nan=False, allow_infinity=False),
    )
)
def test_batched_curvature_equals_per_row_call(schwarzschild3, pts):
    batched = schwarzschild3.extrinsic_curvature(pts)
    for k, x in zip(batched, pts):
        assert np.array_equal(k, schwarzschild3.extrinsic_curvature(x))
        assert np.array_equal(k, scalar_extrinsic_curvature(schwarzschild3, x))
