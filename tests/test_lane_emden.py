"""Polytrope profile tests against closed forms and a fixed-step oracle."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from stellar_match import NonTerminationError
from stellar_match import lane_emden as le

SQRT6 = math.sqrt(6.0)

# Frozen from a tolerance-tightening ladder (rtol 1e-12 vs 1e-13 agree to
# ~1e-11) and the independent fixed-step oracle below.
XI1_N15 = 3.6537537362191
MU1_N15 = 2.7140551200641


def rk4_oracle(n, h=2e-5):
    """Independent fixed-step RK4 with linear interpolation of the zero."""
    def f2(xi, y):
        th, dth = y
        src = (1.0 if th > 0 else 0.0) if n == 0 else max(th, 0.0) ** n
        return np.array([dth, -src - 2.0 * dth / xi])

    xi = 1e-4
    y = np.array([1.0 - xi**2 / 6.0 + n * xi**4 / 120.0,
                  -xi / 3.0 + n * xi**3 / 30.0])
    while y[0] > 0.0:
        k1 = f2(xi, y)
        k2 = f2(xi + h / 2, y + h / 2 * k1)
        k3 = f2(xi + h / 2, y + h / 2 * k2)
        k4 = f2(xi + h, y + h * k3)
        y_new = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if y_new[0] <= 0.0:
            frac = y[0] / (y[0] - y_new[0])
            xi1 = xi + frac * h
            dth = y[1] + frac * (y_new[1] - y[1])
            return xi1, -xi1**2 * dth
        xi, y = xi + h, y_new
    raise RuntimeError("no zero found")


def test_n0_closed_form():
    sol = le.solve(0.0)
    assert sol.xi1 == pytest.approx(SQRT6, abs=1e-10)
    # The source (theta v 0)^0 drops from 1 to 0 at xi1.  The step to the
    # surface is redone to end there, so none of its stages sees the drop,
    # and the quadratic profile gives mu1 = 2 sqrt 6 to roundoff.
    assert sol.mu1 == pytest.approx(2.0 * SQRT6, rel=1e-13)
    xi = np.linspace(0.0, sol.xi1, 101)
    assert np.max(np.abs(sol.theta_at(xi) - (1.0 - xi**2 / 6.0))) < 1e-10


def test_n1_closed_form():
    sol = le.solve(1.0)
    assert sol.xi1 == pytest.approx(math.pi, abs=1e-8)
    assert sol.mu1 == pytest.approx(math.pi, abs=1e-8)
    assert sol.theta_at(math.pi / 2) == pytest.approx(2.0 / math.pi, abs=1e-9)
    xi = np.linspace(1e-3, sol.xi1 * 0.999, 200)
    assert np.max(np.abs(sol.theta_at(xi) - np.sin(xi) / xi)) < 1e-9


def test_n15_frozen_and_oracle():
    sol = le.solve(1.5)
    assert sol.xi1 == pytest.approx(XI1_N15, abs=1e-9)
    assert sol.mu1 == pytest.approx(MU1_N15, abs=1e-9)
    xi1_o, mu1_o = rk4_oracle(1.5)
    assert sol.xi1 == pytest.approx(xi1_o, abs=5e-6)
    assert sol.mu1 == pytest.approx(mu1_o, abs=5e-6)


def test_tolerance_refinement_agreement():
    a = le.solve(2.0, rtol=1e-10, atol=1e-12)
    b = le.solve(2.0, rtol=1e-12, atol=1e-14)
    assert abs(a.xi1 - b.xi1) < 1e-8
    assert abs(a.mu1 - b.mu1) < 1e-8


def test_xi1_monotone_in_n():
    xi1s = [le.solve(n, rtol=1e-9, atol=1e-11).xi1
            for n in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 4.5)]
    assert all(b > a for a, b in zip(xi1s, xi1s[1:]))


def test_mass_integral_identity():
    # int_0^xi1 theta^n xi^2 dxi equals mu1 by the equation
    for n in (0.5, 1.0, 1.5, 3.0):
        sol = le.solve(n)
        mass, _ = quad(lambda x: le._source(float(sol.theta_at(x)), n) * x**2,
                       0.0, sol.xi1, epsabs=1e-13, epsrel=1e-12, limit=200)
        assert mass == pytest.approx(sol.mu1, rel=1e-8)


def test_vacuum_continuation_matches_potential():
    # past xi1 theta is the vacuum solution mu1 (1/xi - 1/xi1), to roundoff
    # on the scale mu1/xi1 at any distance, as a scalar and as an array
    for n in (0.0, 1.0, 1.5, 3.0, 4.5):
        sol = le.solve(n)
        xi = sol.xi1 * np.array([1.0 + 1e-12, 1.05, 1.3, 2.0, 10.0, 1e3, 1e8])
        expect = sol.mu1 * (1.0 / xi - 1.0 / sol.xi1)
        roundoff = 4.0 * np.finfo(float).eps * sol.mu1 / sol.xi1
        assert np.max(np.abs(sol.theta.at(xi) - expect)) <= roundoff
        for x, want in zip(xi, expect):
            assert abs(sol.theta.at(x) - want) <= roundoff


def test_surface_slope_negative_and_theta_monotone():
    sol = le.solve(3.0)
    assert sol.mu1 > 0.0
    xi = np.linspace(0.0, sol.xi1, 400)
    theta = sol.theta_at(xi)
    assert np.all(np.diff(theta) < 0.0)
    assert np.all(theta[:-1] > 0.0)


def test_domain_errors():
    sol = le.solve(1.0)
    with pytest.raises(ValueError):
        sol.theta_at(-0.1)
    with pytest.raises(ValueError):
        sol.theta_at(sol.xi1 * 1.01)
    with pytest.raises(ValueError):
        le.solve(-0.5)
    with pytest.raises(NonTerminationError):
        le.solve(5.0)
    with pytest.raises(NonTerminationError):
        le.solve(6.2)


def test_runtime_budget():
    import time
    t0 = time.perf_counter()
    le.solve(1.0)
    le.solve(0.0)
    assert time.perf_counter() - t0 < 1.0
