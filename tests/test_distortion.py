"""Rotational distortion: radial responses, surface curve, level surfaces."""

import functools
import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq
from scipy.optimize.elementwise import find_root
from scipy.special import spherical_jn

from stellar_match import distortion, lane_emden, roots
from stellar_match.distortion import (
    DistortionSolution,
    boundary_radius,
    compute_a2,
    dimensional_scale,
    legendre_p2,
    level_surface,
    solve_distortion,
    surface_curve,
)
from stellar_match.eos import EosSpec
from stellar_match.errors import NonTerminationError, StellarMatchError


@pytest.fixture(scope="module")
def dist_n1():
    return solve_distortion(1.0)


@pytest.fixture(scope="module")
def dist_n15():
    return solve_distortion(1.5)


@pytest.fixture(scope="module")
def dist_n2():
    return solve_distortion(2.0)


@pytest.fixture(scope="module")
def dist_n3():
    return solve_distortion(3.0)


# -- Legendre --------------------------------------------------------------


def test_legendre_p2_values():
    assert legendre_p2(1.0) == 1.0
    assert legendre_p2(-1.0) == 1.0
    assert legendre_p2(0.0) == -0.5
    integral, _ = quad(legendre_p2, -1.0, 1.0)
    assert integral == pytest.approx(0.0, abs=1e-14)


def test_legendre_p2_domain():
    with pytest.raises(ValueError):
        legendre_p2(1.5)


# -- radial responses ------------------------------------------------------


def test_h0_closed_form_n1(dist_n1):
    # For n = 1 the spherical response is 1 - sin(xi)/xi.
    xi = np.linspace(1e-3, dist_n1.base.xi1, 400)
    exact = 1.0 - np.sin(xi) / xi
    assert np.max(np.abs(dist_n1.h0.at(xi) - exact)) < 1e-10


def test_h0_surface_value_n1(dist_n1):
    assert dist_n1.h0.at(dist_n1.base.xi1) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("fixture", ["dist_n1", "dist_n15", "dist_n3"])
def test_h0_center_series(fixture, request):
    dist = request.getfixturevalue(fixture)
    xi = 1e-3
    assert dist.h0.at(xi) / xi**2 == pytest.approx(1.0 / 6.0, rel=1e-5)
    assert dist.h0.at(0.0) == 0.0
    assert dist.h0.d_at(0.0) == 0.0


def test_psi2_closed_form_n1(dist_n1):
    # For n = 1 the quadrupolar response is 15 j2(xi) in the unit-xi^2
    # normalization, since j2 -> xi^2/15 at the center.
    xi = np.linspace(1e-3, dist_n1.base.xi1, 400)
    exact = 15.0 * spherical_jn(2, xi)
    assert np.max(np.abs(dist_n1.psi2.at(xi) - exact)) < 1e-9


@pytest.mark.parametrize("fixture", ["dist_n1", "dist_n15", "dist_n3"])
def test_psi2_center_normalization(fixture, request):
    dist = request.getfixturevalue(fixture)
    xi = 1e-3
    assert dist.psi2.at(xi) / xi**2 == pytest.approx(1.0, rel=1e-5)


@pytest.mark.parametrize("fixture", ["dist_n1", "dist_n15", "dist_n3"])
def test_coupled_theta_matches_lane_emden(fixture, request):
    # theta integrated alongside the responses reproduces the profile
    # integrated alone
    base = request.getfixturevalue(fixture).base
    alone = lane_emden.solve(base.n)
    xi = np.linspace(lane_emden.XI_START, min(base.xi1, alone.xi1), 400)
    assert np.max(np.abs(base.theta_at(xi) - alone.theta_at(xi))) < 1e-10


def test_n1_surface_is_pi():
    # n = 1: theta = sin(xi)/xi, so xi1 = pi and mu1 = pi
    base = solve_distortion(1.0).base
    assert abs(base.xi1 - math.pi) <= 1e-13
    assert abs(base.mu1 - math.pi) <= 1e-13


def test_no_finite_surface_is_refused():
    with pytest.raises(NonTerminationError) as refused:
        solve_distortion(5.0)
    assert refused.value.label == "no-finite-zero"


def _psi2_form_reference(base):
    """(h0, h0', psi2, psi2') at xi1 and A2 from scipy's DOP853 on the
    psi2 form of the responses, tightly, from the series at xi = 1e-5."""
    n = base.n

    def rhs(xi, y):
        theta, dtheta, h, dh, p, dp = y
        t = max(theta, 0.0)
        coef = n * t ** (n - 1.0)
        return [dtheta, -(t**n) - 2.0 * dtheta / xi, dh,
                1.0 - coef * h - 2.0 * dh / xi, dp,
                (6.0 / xi**2 - coef) * p - 2.0 * dp / xi]

    x = 1e-5
    y0 = [1.0 - x**2 / 6.0 + n * x**4 / 120.0, -x / 3.0 + n * x**3 / 30.0,
          x**2 / 6.0 - n * x**4 / 120.0, x / 3.0 - n * x**3 / 30.0,
          x**2 * (1.0 - n * x**2 / 14.0), 2.0 * x - 4.0 * n * x**3 / 14.0]
    sol = solve_ivp(rhs, (x, base.xi1), y0, method="DOP853", rtol=2.3e-14, atol=1e-30)
    h0, dh0, psi2, dpsi2 = sol.y[2:, -1]
    a2 = -(5.0 / 6.0) * base.xi1**2 / (3.0 * psi2 + base.xi1 * dpsi2)
    return h0, dh0, psi2, dpsi2, a2


@pytest.mark.parametrize("fixture", ["dist_n15", "dist_n2", "dist_n3"])
def test_q_form_matches_psi2_form_reference(fixture, request):
    # psi2 = xi^2 q read off the integrated q agrees with a tight psi2-form
    # integration at the surface, and so does A2
    dist = request.getfixturevalue(fixture)
    got = (dist.h0.surface_value, dist.h0.surface_slope,
           dist.psi2.surface_value, dist.psi2.surface_slope, dist.a2)
    for g, want in zip(got, _psi2_form_reference(dist.base)):
        assert abs(g - want) <= 1e-11 * abs(want)


@pytest.mark.parametrize("n", [1.0, 1.5, 2.0, 3.0])
def test_response_integration_steps(n, monkeypatch):
    # q is regular at the center, so the steps there are not held to a
    # few percent of xi as psi2's 6/xi^2 pole holds them.  The base profile
    # and the responses come from one solve, which costs fewer right-hand
    # side evaluations than the base profile and the responses each solved
    # on its own (measured 1493, 2249, 1865 and 1805 against 2083, 3055,
    # 2263 and 2647)
    solved = []
    real_solve = lane_emden.ode.solve

    def counted(*args, **kwargs):
        sol = real_solve(*args, **kwargs)
        solved.append(sol)
        return sol

    monkeypatch.setattr(lane_emden.ode, "solve", counted)
    solve_distortion(n)
    [sol] = solved
    nfev = {1.0: 1600, 1.5: 2400, 2.0: 2000, 3.0: 1930}[n]
    assert len(sol.t) - 1 <= 160 and sol.nfev <= nfev


def test_radial_domain_guard(dist_n1):
    with pytest.raises(ValueError):
        dist_n1.h0.at(-0.1)
    with pytest.raises(ValueError):
        dist_n1.psi2.d_at(np.array([1.0, -0.1]))


def test_responses_read_the_coupled_dense_output_once(dist_n15, monkeypatch):
    # one evaluation of the shared dense output gives both responses, with
    # the bits each reads alone: center series, dense rows and vacuum terms
    xi = np.array([0.0, 5e-5, 0.5, 2.0, dist_n15.base.xi1, 4.0, 9.0])
    h0, psi2 = dist_n15.h0.at(xi), dist_n15.psi2.at(xi)
    scalar = dist_n15.h0.at(2.0), dist_n15.psi2.at(2.0)
    dense, calls = dist_n15.h0._dense, []

    def counted(t):
        calls.append(1)
        return dense(t)

    for sol in (dist_n15.h0, dist_n15.psi2):
        monkeypatch.setattr(sol, "_dense", counted)
    got = dist_n15.responses(xi)
    assert len(calls) == 1
    np.testing.assert_array_equal(got, [h0, psi2])
    assert dist_n15.responses(2.0) == list(scalar)
    assert len(calls) == 2


def test_distorted_reads_the_dense_output_once(dist_n15, monkeypatch):
    # Theta = theta + b (h0 + A2 psi2 P2) reads theta, h0 and psi2 with one
    # evaluation of the one dense output, with the bits each reads alone
    xi = np.array([0.0, 5e-5, 0.5, 2.0, dist_n15.base.xi1, 4.0, 9.0])
    p2, b = legendre_p2(0.3), 1e-2
    theta, h0, psi2 = (dist_n15.base.theta.at(xi), dist_n15.h0.at(xi),
                       dist_n15.psi2.at(xi))
    dense, calls = dist_n15.h0._dense, []

    def counted(t):
        calls.append(1)
        return dense(t)

    for sol in (dist_n15.base.theta, dist_n15.h0, dist_n15.psi2):
        assert sol._dense is dense
        monkeypatch.setattr(sol, "_dense", counted)
    np.testing.assert_array_equal(dist_n15.distorted(xi, b, p2),
                                  theta + b * (h0 + dist_n15.a2 * psi2 * p2))
    assert len(calls) == 1


@pytest.mark.parametrize("fixture", ["dist_n1", "dist_n15", "dist_n2", "dist_n3"])
def test_vacuum_responses_continuous_at_surface(fixture, request):
    # one ulp past xi1 the closed forms give the dense output's value and
    # slope at xi1 to roundoff
    dist = request.getfixturevalue(fixture)
    past = np.nextafter(dist.base.xi1, np.inf)
    for sol in (dist.h0, dist.psi2):
        for got, want in ((sol.at(past), sol.surface_value),
                          (sol.d_at(past), sol.surface_slope)):
            assert abs(got - want) <= 1e-14 * max(1.0, abs(want))


def test_vacuum_responses_closed_form_n1(dist_n1):
    # n = 1: h0 = 1 - sin(xi)/xi and psi2 = 15 j2(xi) inside give
    # h0 = xi^2/6 + 2 - pi^2/2 + (pi^3/3 - pi)/xi and
    # psi2 = 3 xi^2/pi^2 + (45 pi - 3 pi^3)/xi^3 outside
    pi = math.pi
    xi = np.linspace(pi, 4.0 * pi, 200)[1:]
    h0 = xi**2 / 6.0 + 2.0 - pi**2 / 2.0 + (pi**3 / 3.0 - pi) / xi
    dh0 = xi / 3.0 - (pi**3 / 3.0 - pi) / xi**2
    psi2 = 3.0 * xi**2 / pi**2 + (45.0 * pi - 3.0 * pi**3) / xi**3
    dpsi2 = 6.0 * xi / pi**2 - 3.0 * (45.0 * pi - 3.0 * pi**3) / xi**4
    for got, want in ((dist_n1.h0.at(xi), h0), (dist_n1.h0.d_at(xi), dh0),
                      (dist_n1.psi2.at(xi), psi2), (dist_n1.psi2.d_at(xi), dpsi2)):
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-9


@pytest.mark.parametrize("which", ["h0", "psi2"])
def test_ode_residuals_below_threshold(dist_n15, which):
    # Residual of (1/xi^2)(xi^2 f')' + coef f = rhs computed by five-point
    # differencing of xi^2 f' sampled from the dense solution.
    # Margins keep the stencil away from the surface, where theta^(n-1)
    # has square-root-singular derivatives for this n, and away from the
    # 1/xi^2 amplification at the center.
    dist = dist_n15
    base = dist.base
    sol = getattr(dist, which)
    h = 4e-3
    xi = np.linspace(0.3, base.xi1 - 0.3, 200)
    stencil = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h
    weights = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
    nodes = xi[:, None] + stencil
    g = nodes**2 * sol.d_at(nodes.ravel()).reshape(nodes.shape)
    div = (g @ weights) / xi**2
    theta = np.clip(base.theta_at(xi), 0.0, None)
    coef = base.n * theta ** (base.n - 1.0)
    if which == "h0":
        resid = div + coef * sol.at(xi) - 1.0
    else:
        resid = div + (coef - 6.0 / xi**2) * sol.at(xi)
    assert np.max(np.abs(resid)) < 1e-8


# -- quadrupole amplitude --------------------------------------------------


def test_a2_closed_form_n1(dist_n1):
    # 3 psi2(pi) + pi psi2'(pi) = 15 pi j1(pi) = 15, so A2 = -pi^2/18.
    assert dist_n1.a2 == pytest.approx(-math.pi**2 / 18.0, abs=1e-10)


@pytest.mark.parametrize("fixture", ["dist_n1", "dist_n15", "dist_n3"])
def test_a2_negative_psi2_positive(fixture, request):
    dist = request.getfixturevalue(fixture)
    assert dist.a2 < 0.0
    assert dist.psi2.surface_value > 0.0


def test_a2_normalization_covariance(dist_n1):
    # Scaling psi2 by lambda scales A2 by 1/lambda; the product is fixed.
    class Scaled:
        def __init__(self, psi2, lam):
            self.surface_value = lam * psi2.surface_value
            self.surface_slope = lam * psi2.surface_slope

    lam = 2.0
    a2_scaled = compute_a2(dist_n1.base, Scaled(dist_n1.psi2, lam))
    assert a2_scaled == pytest.approx(dist_n1.a2 / lam, rel=1e-14)
    xi = np.linspace(0.5, 3.0, 7)
    product = dist_n1.a2 * dist_n1.psi2.at(xi)
    product_scaled = a2_scaled * lam * dist_n1.psi2.at(xi)
    assert np.max(np.abs(product - product_scaled)) < 1e-12


@pytest.mark.parametrize("fixture", ["dist_n1", "dist_n15", "dist_n2", "dist_n3"])
def test_a2_cancels_the_growing_quadrupole(fixture, request):
    # A2 d = -1/6 for the growing exterior term d xi^2 of psi2, so past xi1
    # b (h0 + A2 psi2 P2) grows as the centrifugal term b xi^2 (1 - zeta^2)/4
    dist = request.getfixturevalue(fixture)
    d = {p: c for c, p in dist.psi2.vacuum}[2]
    assert abs(dist.a2 * d + 1.0 / 6.0) <= 1e-15


def test_a2_degenerate_matching_rejected(dist_n1):
    class Degenerate:
        surface_value = 1.0
        surface_slope = -3.0 / dist_n1.base.xi1

    with pytest.raises(StellarMatchError):
        compute_a2(dist_n1.base, Degenerate())


def test_low_index_rejected():
    # below the range where theta^(n-1) stays finite
    with pytest.raises(ValueError):
        solve_distortion(0.5)


# -- surface curve ---------------------------------------------------------


def test_surface_coefficients_n1(dist_n1):
    sc = surface_curve(dist_n1, 1e-3)
    assert sc.c0 == pytest.approx(math.pi, abs=1e-10)
    assert sc.c1 == pytest.approx(2.25 * math.pi, abs=1e-8)
    assert sc.c2 == pytest.approx(3.75 * math.pi, abs=1e-8)


@pytest.mark.parametrize("fixture", ["dist_n1", "dist_n15", "dist_n3"])
def test_surface_c2_positive(fixture, request):
    dist = request.getfixturevalue(fixture)
    assert surface_curve(dist, 1e-3).c2 > 0.0


def test_surface_quadratic_regrouping_is_exact(dist_n15):
    sc = surface_curve(dist_n15, 2e-3)
    model = sc.c0 + (sc.c1 - sc.c2 * sc.zeta**2) * sc.b
    assert np.max(np.abs(sc.values - model)) < 1e-14


def _symmetric_grid(half_points):
    half = np.linspace(0.0, 1.0, half_points)
    return np.concatenate([-half[::-1], half[1:]])


def test_surface_even_and_equatorial_bulge(dist_n15):
    # On a bitwise-symmetric grid the evenness in zeta is exact.
    b = 1e-3
    sc = surface_curve(dist_n15, b, zeta=_symmetric_grid(101))
    assert np.max(np.abs(sc.values - sc.values[::-1])) == 0.0
    bulge = sc.values[len(sc.zeta) // 2] - sc.values[0]
    gain = dist_n15.base.xi1**2 / dist_n15.base.mu1
    expected = 1.5 * abs(dist_n15.a2) * dist_n15.psi2.surface_value * gain * b
    assert bulge == pytest.approx(expected, rel=1e-12)
    assert bulge > 0.0


def test_surface_no_rotation(dist_n1):
    sc = surface_curve(dist_n1, 0.0)
    assert np.all(sc.values == dist_n1.base.xi1)


def test_surface_rejects_negative_b(dist_n1):
    with pytest.raises(ValueError):
        surface_curve(dist_n1, -1e-3)


# -- distorted profile -----------------------------------------------------


def test_theta_distorted_limits(dist_n15):
    base = dist_n15.base
    p2 = legendre_p2(0.3)
    assert dist_n15.distorted(0.0, 1e-3, p2) == pytest.approx(1.0, abs=1e-12)
    xi = 1.7
    assert dist_n15.distorted(xi, 0.0, p2) == pytest.approx(
        float(base.theta_at(xi)), abs=1e-14
    )


def test_theta_vanishes_at_distorted_boundary(dist_n15):
    # Xi1 is built so that Theta at the boundary cancels to first order;
    # the remainder must shrink like b^2.
    residuals = {}
    for b in (1e-2, 1e-3):
        vals = [
            abs(dist_n15.distorted(float(boundary_radius(dist_n15, b, z)), b,
                                   legendre_p2(z)))
            for z in (-1.0, -0.4, 0.0, 0.6, 1.0)
        ]
        residuals[b] = max(vals)
        assert residuals[b] < 30.0 * b**2
    assert residuals[1e-2] / residuals[1e-3] == pytest.approx(100.0, rel=0.3)


# -- level surfaces --------------------------------------------------------


def test_level_surface_spherical_when_static(dist_n15):
    ls = level_surface(dist_n15, 0.0, 0.4, zeta=np.linspace(-1, 1, 9))
    target = brentq(
        lambda x: float(dist_n15.base.theta_at(x)) - 0.4, 1e-6, dist_n15.base.xi1
    )
    assert np.max(np.abs(ls.xi_star - target)) < 1e-12


def test_level_surface_matches_first_order_expansion(dist_n1):
    b = 1e-3
    ls = level_surface(dist_n1, b, 0.5, zeta=np.linspace(-1, 1, 21))
    base = dist_n1.base
    xi_hat = brentq(lambda x: float(base.theta_at(x)) - 0.5, 1e-6, base.xi1)
    h0, psi2 = dist_n1.responses(xi_hat)
    field = h0 + dist_n1.a2 * psi2 * legendre_p2(ls.zeta)
    pred = xi_hat - b * field / float(base.dtheta_at(xi_hat))
    assert np.max(np.abs(ls.xi_star - pred)) < 10.0 * b**2


def test_level_surface_even_and_bounded(dist_n15):
    b = 2e-3
    ls = level_surface(dist_n15, b, 0.3, zeta=_symmetric_grid(8))
    assert np.max(np.abs(ls.xi_star - ls.xi_star[::-1])) == 0.0
    for z, x in zip(ls.zeta, ls.xi_star):
        assert 0.0 < x < float(boundary_radius(dist_n15, b, z))


def _brentq_level(dist, b, theta_star, zeta):
    """Scalar reference: one brentq root of the distorted profile per
    zeta, on [0, Xi1(zeta)]."""
    roots = []
    for z in zeta:
        limit = float(boundary_radius(dist, b, z))
        roots.append(
            brentq(
                lambda x, z=z: dist.distorted(x, b, legendre_p2(z)) - theta_star,
                0.0,
                limit,
                xtol=1e-13,
                rtol=4e-15,
            )
        )
    return np.array(roots)


@pytest.mark.parametrize("fixture", ["dist_n1", "dist_n15", "dist_n2", "dist_n3"])
def test_level_surface_matches_scalar_brentq(fixture, request):
    # at n = 3 the b = 1e-2 bulge reaches xi1 + 2.34, on the vacuum forms
    dist = request.getfixturevalue(fixture)
    b = 1e-2
    zeta = np.linspace(-1.0, 1.0, 201)
    for theta_star in (0.2, 0.5, 0.8):
        ls = level_surface(dist, b, theta_star, zeta=zeta)
        ref = _brentq_level(dist, b, theta_star, zeta)
        assert np.max(np.abs(ls.xi_star - ref)) < 1e-12


@pytest.mark.parametrize("fixture", ["dist_n1", "dist_n15", "dist_n2"])
def test_level_surface_roots_match_scipy_find_root(fixture, request, monkeypatch):
    # the port takes find_root's iterates on level_surface's own brackets
    dist = request.getfixturevalue(fixture)
    solved = []

    def checked(f, a, b, args=(), **tolerances):
        got = roots.chandrupatla(f, a, b, args, **tolerances)
        want = find_root(f, (a, b), args=args,
                         tolerances=dict(tolerances, fatol=0.0, frtol=0.0))
        np.testing.assert_array_equal(got.x, want.x)
        np.testing.assert_array_equal(got.status, want.status)
        np.testing.assert_array_equal(got.nit, want.nit)
        solved.append(got)
        return got

    monkeypatch.setattr(distortion, "chandrupatla", checked)
    for theta_star in (0.2, 0.5, 0.8):
        level_surface(dist, 1e-2, theta_star)
    assert len(solved) == 3


def test_level_surface_evaluates_only_inside_the_root_search(dist_n15, monkeypatch):
    # the bracket ends are checked by the root search itself, and the
    # bracket end (boundary_radius) reads the stored surface values: every
    # read of the distorted profile Theta is one the search makes, one per
    # call
    reads, objective_calls = [], []
    real_distorted = dist_n15.distorted

    def distorted(*args):
        reads.append(1)
        return real_distorted(*args)

    def counted(f, a, b, args=(), **tolerances):
        def objective(*fargs):
            objective_calls.append(1)
            return f(*fargs)

        return roots.chandrupatla(objective, a, b, args, **tolerances)

    monkeypatch.setattr(dist_n15, "distorted", distorted)
    monkeypatch.setattr(distortion, "chandrupatla", counted)
    level_surface(dist_n15, 1e-2, 0.5)
    assert objective_calls and len(reads) == len(objective_calls)


@pytest.mark.parametrize("fixture", ["dist_n1", "dist_n15", "dist_n2", "dist_n3"])
def test_level_surfaces_in_one_call_match_single_levels(fixture, request):
    # each (level, zeta) bracket iterates on its own, so the levels solved
    # together have the bits each has alone
    dist = request.getfixturevalue(fixture)
    zeta = np.linspace(-1.0, 1.0, 201)
    levels = (0.2, 0.5, 0.8)
    together = level_surface(dist, 1e-2, levels, zeta=zeta)
    assert [ls.theta_star for ls in together] == list(levels)
    for ls, theta_star in zip(together, levels):
        alone = level_surface(dist, 1e-2, theta_star, zeta=zeta)
        np.testing.assert_array_equal(ls.zeta, alone.zeta)
        np.testing.assert_array_equal(ls.xi_star, alone.xi_star)


def test_level_surfaces_in_one_call_fail_as_the_first_failing_level():
    # at n = 4 the b = 1e-2 boundary leaves the levels unbracketed near the
    # poles; the error is the first level's, at its first failing zeta
    dist = solve_distortion(4.0)
    with pytest.raises(StellarMatchError) as alone:
        level_surface(dist, 1e-2, 0.2)
    with pytest.raises(StellarMatchError) as together:
        level_surface(dist, 1e-2, (0.2, 0.5, 0.8))
    message = "level 0.2 not bracketed on [0, 24.631] at zeta = -0.89"
    assert str(alone.value) == str(together.value) == message


def test_level_surfaces_sequence_guards(dist_n15):
    assert level_surface(dist_n15, 1e-3, []) == []
    with pytest.raises(ValueError):
        level_surface(dist_n15, 1e-3, (0.5, 0.99999))


def test_level_surface_unconverged_root_is_labelled(dist_n15, monkeypatch):
    monkeypatch.setattr(distortion, "chandrupatla",
                        functools.partial(roots.chandrupatla, maxiter=3))
    with pytest.raises(StellarMatchError, match=r"root search failed \(status -2\)"):
        level_surface(dist_n15, 1e-2, 0.5)


def test_level_surface_unbracketed_is_labelled(dist_n3):
    # At n = 3 the b = 1e-2 bulge reaches xi1 + 2.34, and the first-order
    # Theta on the boundary Xi1(zeta), the bracket end, is up to 0.11, not
    # 0; a level this close to the surface stays below Theta there and
    # must fail with the package error.
    with pytest.raises(StellarMatchError, match="not bracketed"):
        level_surface(dist_n3, 1e-2, 0.05)


def test_level_surface_margin_guard(dist_n15):
    with pytest.raises(ValueError):
        level_surface(dist_n15, 1e-3, 0.99999)
    with pytest.raises(ValueError):
        level_surface(dist_n15, 1e-3, 1e-6)


# -- scale and exports -----------------------------------------------------


def test_dimensional_scale_matches_eos():
    eos = EosSpec(gamma=5.0 / 3.0)
    rho = 0.37
    assert dimensional_scale(rho, 1.0, 5.0 / 3.0) == pytest.approx(
        eos.length_scale(rho), rel=1e-14
    )
    with pytest.raises(ValueError):
        dimensional_scale(-1.0, 1.0, 2.0)


def test_profile_and_describe(dist_n1):
    prof = dist_n1.profile(points=50)
    assert prof["xi"].shape == (50,)
    assert prof["h0"][0] == 0.0 and prof["psi2"][0] == 0.0
    sc = surface_curve(dist_n1, 1e-3, zeta=np.linspace(-1, 1, 5))
    rows = sc.as_rows()
    assert len(rows) == 5 and rows[0][0] == -1.0
