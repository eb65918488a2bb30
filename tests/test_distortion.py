"""Rotational distortion: radial responses, surface curve, level surfaces."""

import functools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.optimize.elementwise import find_root
from scipy.special import spherical_jn

from stellar_match import distortion, lane_emden, roots
from stellar_match.distortion import (
    DistortionSolution,
    boundary_radius,
    compute_a2,
    dimensional_scale,
    integrate_responses,
    legendre_p2,
    level_surface,
    solve_distortion,
    surface_curve,
    theta_distorted,
)
from stellar_match.eos import EosSpec
from stellar_match.errors import StellarMatchError


@pytest.fixture(scope="module")
def dist_n1():
    return solve_distortion(lane_emden.solve(1.0))


@pytest.fixture(scope="module")
def dist_n15():
    return solve_distortion(lane_emden.solve(1.5))


@pytest.fixture(scope="module")
def dist_n2():
    return solve_distortion(lane_emden.solve(2.0))


@pytest.fixture(scope="module")
def dist_n3():
    return solve_distortion(lane_emden.solve(3.0))


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
    # theta integrated alongside the responses reproduces the base profile.
    base = request.getfixturevalue(fixture).base
    xi = np.linspace(base.xi_start, base.xi1, 400)
    theta = integrate_responses(base)(xi)[0]
    assert np.max(np.abs(theta - base.theta_at(xi))) < 1e-10


def test_radial_domain_guard(dist_n1):
    with pytest.raises(ValueError):
        dist_n1.h0.at(-0.1)
    with pytest.raises(ValueError):
        dist_n1.h0.at(dist_n1.base.xi1 + 1.0)


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


def test_a2_degenerate_matching_rejected(dist_n1):
    class Degenerate:
        surface_value = 1.0
        surface_slope = -3.0 / dist_n1.base.xi1

    with pytest.raises(StellarMatchError):
        compute_a2(dist_n1.base, Degenerate())


def test_low_index_rejected():
    base = lane_emden.solve(1.0)
    base.n = 0.5  # below the range where theta^(n-1) stays finite
    with pytest.raises(ValueError):
        solve_distortion(base)


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
    assert not sc.first_order_advisory


def test_surface_advisory_flag(dist_n1):
    assert surface_curve(dist_n1, 0.1).first_order_advisory
    assert not surface_curve(dist_n1, 0.01).first_order_advisory


def test_surface_rejects_negative_b(dist_n1):
    with pytest.raises(ValueError):
        surface_curve(dist_n1, -1e-3)


# -- distorted profile -----------------------------------------------------


def test_theta_distorted_limits(dist_n15):
    base = dist_n15.base
    assert theta_distorted(dist_n15, 0.0, 0.3, 1e-3) == pytest.approx(1.0, abs=1e-12)
    xi = 1.7
    assert theta_distorted(dist_n15, xi, 0.3, 0.0) == pytest.approx(
        float(base.theta_at(xi)), abs=1e-14
    )
    with pytest.raises(ValueError):
        theta_distorted(dist_n15, base.xi1 + 1.0, 0.3, 1e-3)


def test_theta_vanishes_at_distorted_boundary(dist_n15):
    # Xi1 is built so that Theta at the boundary cancels to first order;
    # the remainder must shrink like b^2.
    residuals = {}
    for b in (1e-2, 1e-3):
        vals = [
            abs(theta_distorted(dist_n15, float(boundary_radius(dist_n15, b, z)), z, b))
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
    pred = xi_hat - b * np.array(
        [dist_n1.distortion_field(xi_hat, z) for z in ls.zeta]
    ) / float(base.dtheta_at(xi_hat))
    assert np.max(np.abs(ls.xi_star - pred)) < 10.0 * b**2


def test_level_surface_even_and_bounded(dist_n15):
    b = 2e-3
    ls = level_surface(dist_n15, b, 0.3, zeta=_symmetric_grid(8))
    assert np.max(np.abs(ls.xi_star - ls.xi_star[::-1])) == 0.0
    for z, x in zip(ls.zeta, ls.xi_star):
        assert 0.0 < x < float(boundary_radius(dist_n15, b, z))


def _brentq_level(dist, b, theta_star, zeta):
    """Scalar reference: one brentq root of theta_distorted per zeta."""
    roots = []
    for z in zeta:
        limit = float(boundary_radius(dist, b, z))
        roots.append(
            brentq(
                lambda x, z=z: theta_distorted(dist, x, z, b) - theta_star,
                0.0,
                limit,
                xtol=1e-13,
                rtol=4e-15,
            )
        )
    return np.array(roots)


@pytest.mark.parametrize("fixture", ["dist_n1", "dist_n15", "dist_n2"])
def test_level_surface_matches_scalar_brentq(fixture, request):
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
    # the bracket ends are checked by the root search itself: past the one
    # evaluation that places the bracket end (boundary_radius), every
    # evaluation of h0 is one the search makes
    at_calls, objective_calls = [], []
    real_at = dist_n15.h0.at

    def at(xi):
        at_calls.append(1)
        return real_at(xi)

    def counted(f, a, b, args=(), **tolerances):
        def objective(*fargs):
            objective_calls.append(1)
            return f(*fargs)

        return roots.chandrupatla(objective, a, b, args, **tolerances)

    monkeypatch.setattr(dist_n15.h0, "at", at)
    monkeypatch.setattr(distortion, "chandrupatla", counted)
    level_surface(dist_n15, 1e-2, 0.5)
    assert objective_calls and len(at_calls) == 1 + len(objective_calls)


def test_level_surface_unconverged_root_is_labelled(dist_n15, monkeypatch):
    monkeypatch.setattr(distortion, "chandrupatla",
                        functools.partial(roots.chandrupatla, maxiter=3))
    with pytest.raises(StellarMatchError, match=r"root search failed \(status -2\)"):
        level_surface(dist_n15, 1e-2, 0.5)


def test_level_surface_unbracketed_is_labelled(dist_n3):
    # At n = 3 the b = 1e-2 bulge reaches past the responses' Taylor range,
    # so the bracket is capped there; a level this close to the surface
    # stays below Theta at the cap and must fail with the package error.
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
    info = dist_n1.describe()
    assert info["xi1"] == pytest.approx(math.pi, abs=1e-10)
    sc = surface_curve(dist_n1, 1e-3, zeta=np.linspace(-1, 1, 5))
    rows = sc.as_rows()
    assert len(rows) == 5 and rows[0][0] == -1.0
