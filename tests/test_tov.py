"""Tests for two-direction hydrostatic shooting, the inward four-case
classification, and the surface matching of the metric coefficients."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from stellar_match.eos import EosSpec
from stellar_match.errors import (AdmissibilityError, EosValidityError,
                                  ShootFailureError)
from stellar_match import tov

# first zero and mass integral of the n = 1.5 profile, frozen from the
# independently cross-checked values in test_lane_emden
XI1_N15 = 3.6537537362191
MU1_N15 = 2.7140551200641

G53 = 5.0 / 3.0


def eos_newt(gamma=G53):
    return EosSpec(gamma)


def eos_rel(gamma=G53, c=1.0):
    return EosSpec(gamma, c_light=c)


# -- right-hand side anchors -----------------------------------------------

def test_rhs_relativistic_anchor():
    # gamma=2, c=1: rho=1 has P=1 and w = 2 ln 2
    eos = eos_rel(gamma=2.0)
    w = 2.0 * math.log(2.0)
    dm, dw = tov.tov_rhs(eos, 1.0, 0.1, w)
    assert dm == pytest.approx(4.0 * math.pi, rel=1e-12)
    assert dw == pytest.approx(-(0.1 + 4.0 * math.pi) / 0.8, rel=1e-12)


def test_rhs_newtonian_anchor():
    # gamma=5/3: u(rho=1) = A*gamma/(gamma-1) = 2.5
    eos = eos_newt()
    dm, dw = tov.tov_rhs(eos, 2.0, 1.0, 2.5)
    assert dm == pytest.approx(16.0 * math.pi, rel=1e-12)
    assert dw == pytest.approx(-0.25, rel=1e-12)


def test_rhs_vacuum_continuation():
    eos = eos_rel()
    dm, dw = tov.tov_rhs(eos, 2.0, 0.5, -0.3)
    assert dm == 0.0
    assert dw == pytest.approx(-0.5 / (4.0 * (1.0 - 0.5)), rel=1e-12)
    dm_n, dw_n = tov.tov_rhs(eos_newt(), 2.0, 0.5, 0.0)
    assert dm_n == 0.0 and dw_n == pytest.approx(-0.125)


def test_pressure_gradient_sign():
    eos = eos_newt()
    assert tov.pressure_gradient(eos, 2.0, 1.0, 2.5) < 0.0


# -- series starts ---------------------------------------------------------

def test_center_start_mass_term():
    eos = eos_newt()
    p_c = 1e-3
    rho_c = eos.density_of_pressure(p_c)
    r0, m0, w0 = tov.center_start(eos, p_c, r0=1e-3)
    assert r0 == 1e-3
    assert m0 == pytest.approx(4.0 * math.pi / 3.0 * rho_c * 1e-9, rel=1e-14)
    assert 0.0 < w0 < eos.enthalpy_of_pressure(p_c)


def test_center_start_quadratic_dip():
    # the pressure deficit at r0 is quadratic: halving r0 quarters it
    eos = eos_rel()
    p_c = 1e-3
    u_c = eos.enthalpy_of_pressure(p_c)
    _, _, w_a = tov.center_start(eos, p_c, r0=1e-3)
    _, _, w_b = tov.center_start(eos, p_c, r0=5e-4)
    assert (u_c - w_a) / (u_c - w_b) == pytest.approx(4.0, rel=1e-2)


def test_surface_gravity_anchor():
    # R=1, M=0.2, c=1: g_s = M / (R^2 (1 - 2M/R)) = 1/3
    assert tov.surface_gravity(eos_rel(), 1.0, 0.2) \
        == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert tov.surface_gravity(eos_newt(), 1.0, 0.2) \
        == pytest.approx(0.2, rel=1e-14)


def test_surface_start_values():
    r, m, w = tov.surface_start(eos_rel(), 1.0, 0.2, 1e-3)
    assert r == pytest.approx(0.999)
    assert m == 0.2
    assert w == pytest.approx(1e-3 / 3.0, rel=1e-12)


# -- outward shots ---------------------------------------------------------

def test_forward_gamma2_newtonian_closed_form():
    # n=1 polytrope with A=1, rho_c=1: R = sqrt(pi/2), M = sqrt(2 pi)
    surface, traj = tov.shoot_from_center(eos_newt(gamma=2.0), 1.0)
    assert surface.radius == pytest.approx(math.sqrt(math.pi / 2.0),
                                           rel=1e-10)
    assert surface.mass == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-8)
    assert surface.g_surface == pytest.approx(
        surface.mass / surface.radius**2, rel=1e-12)
    assert surface.compactness == 0.0
    assert traj.exit == tov.EXIT_SURFACE


def test_forward_scale_invariance():
    # R/a and M/(4 pi rho_c a^3) are density-independent
    eos = eos_newt()
    for rho_c in (0.1, 10.0):
        p_c = rho_c**G53
        surface, _ = tov.shoot_from_center(eos, p_c)
        a = eos.length_scale(rho_c)
        assert surface.radius / a == pytest.approx(XI1_N15, rel=1e-8)
        assert surface.mass / (4.0 * math.pi * rho_c * a**3) \
            == pytest.approx(MU1_N15, rel=1e-8)


def test_forward_start_offset_insensitive():
    eos = eos_rel()
    s1, _ = tov.shoot_from_center(eos, 1e-3,
                                  tov.ShootConfig(r0_factor=1e-6))
    s2, _ = tov.shoot_from_center(eos, 1e-3,
                                  tov.ShootConfig(r0_factor=4e-6))
    assert s1.radius == pytest.approx(s2.radius, rel=1e-8)
    assert s1.mass == pytest.approx(s2.mass, rel=1e-8)


def test_weak_field_limit():
    # relativistic corrections scale with the compactness
    diffs = []
    for p_c in (1e-6, 1e-8):
        s_n, _ = tov.shoot_from_center(eos_newt(), p_c)
        s_r, _ = tov.shoot_from_center(eos_rel(), p_c)
        diffs.append((abs(s_r.radius / s_n.radius - 1.0),
                      abs(s_r.mass / s_n.mass - 1.0)))
    assert diffs[0][0] < 2e-2 and diffs[0][1] < 5e-2
    assert diffs[1][0] < 3e-3 and diffs[1][1] < 1e-2
    assert diffs[1][1] < diffs[0][1] / 3.0


def test_forward_range_guard():
    with pytest.raises(ShootFailureError) as err:
        tov.shoot_from_center(eos_newt(), 1e-3,
                              tov.ShootConfig(r_max_factor=1.0))
    assert err.value.label == tov.EXIT_R_MAX
    assert err.value.trajectory is not None


def test_nonrelativistic_consistency_large_c():
    # c = 1e4 forward shot lands on the scaled incompressible-limit values
    eos = eos_rel(c=1e4)
    rho_c = 1e-3
    surface, _ = tov.shoot_from_center(eos, rho_c**G53)
    a = eos.length_scale(rho_c)
    assert surface.radius == pytest.approx(a * XI1_N15, rel=1e-6)
    assert surface.mass == pytest.approx(
        4.0 * math.pi * rho_c * a**3 * MU1_N15, rel=1e-6)


# -- round trips and the four cases ----------------------------------------

def test_round_trip_recovers_central_pressure():
    eos = eos_rel()
    p_c = 1e-3
    surface, _ = tov.shoot_from_center(eos, p_c)
    cls, traj = tov.shoot_from_boundary(eos, surface.radius, surface.mass)
    assert cls.case == tov.CASE11
    assert cls.exit == tov.EXIT_CENTER_FLOOR
    assert abs(cls.p_center / p_c - 1.0) < 1e-6
    assert abs(cls.m_exit) <= 1e-5 * surface.mass
    assert traj.direction == "inward"


def test_round_trip_stiff_relativistic():
    eos = eos_rel(gamma=2.0)
    p_c = 1e-2
    surface, _ = tov.shoot_from_center(eos, p_c)
    assert surface.compactness > 0.2
    cls, _ = tov.shoot_from_boundary(eos, surface.radius, surface.mass)
    assert cls.case == tov.CASE11
    assert abs(cls.p_center / p_c - 1.0) < 1e-7


def test_off_curve_boundary_data_fails():
    eos = eos_rel()
    surface, _ = tov.shoot_from_center(eos, 1e-3)
    heavy, _ = tov.shoot_from_boundary(eos, surface.radius,
                                       1.1 * surface.mass)
    assert heavy.case == tov.CASE01
    assert heavy.exit == tov.EXIT_SLOPE_STALL
    assert heavy.r_minus is not None and heavy.r_minus > 0.0
    light, _ = tov.shoot_from_boundary(eos, surface.radius,
                                       0.9 * surface.mass)
    assert light.case == tov.CASE00
    assert light.exit == tov.EXIT_PRESSURE_CEILING
    assert math.isinf(light.p_exit)
    assert light.r_minus > light.diagnostics["r_floor"]
    for fac in (1.01, 0.99):
        cls, _ = tov.shoot_from_boundary(eos, surface.radius,
                                         fac * surface.mass)
        assert cls.case in (tov.CASE00, tov.CASE01)


def test_case10_refinement_ladder():
    # point-mass-like data: the blow-up estimate sinks below the floor
    cls, _ = tov.shoot_from_boundary(eos_newt(), 1.0, 1e-12)
    assert cls.case == tov.CASE10
    radii = cls.diagnostics["refinement_radii"]
    assert len(radii) == 3
    assert radii[0] > radii[1] > radii[2]
    assert radii[2] <= cls.diagnostics["r_floor"]


def test_case00_estimates_stay_above_floor():
    cls, _ = tov.shoot_from_boundary(eos_newt(), 1.0, 1e-3)
    assert cls.case == tov.CASE00
    radii = cls.diagnostics["refinement_radii"]
    assert all(r > cls.diagnostics["r_floor"] for r in radii)


def test_center_massive_exit_outside_taxonomy():
    thr = tov.ClassifyThresholds(p_ceiling_factor=1e30)
    cls, _ = tov.shoot_from_boundary(eos_newt(), 1.0, 1e-3, thresholds=thr)
    assert cls.case is None
    assert cls.exit == tov.EXIT_CENTER_MASSIVE
    assert abs(cls.m_exit) > cls.diagnostics["m_floor"]


def test_inadmissible_boundary_data():
    eos = eos_rel()
    for bad in ((-1.0, 0.1), (1.0, 0.0), (1.0, 0.5), (1.0, 0.6)):
        with pytest.raises(AdmissibilityError):
            tov.shoot_from_boundary(eos, *bad)
    assert not tov.admissible(1.0, 0.5, 1.0)
    assert tov.admissible(1.0, 0.5)  # Newtonian mode has no horizon bound


def test_near_horizon_start_beyond_validity():
    # compactness so close to 1 that the start state exceeds the capped
    # pressure ceiling
    eos = eos_rel()
    with pytest.raises((EosValidityError, AdmissibilityError)):
        tov.shoot_from_boundary(eos, 1.0, 0.5 * (1.0 - 1e-9))


# -- trajectory invariants -------------------------------------------------

def test_pressure_monotone_along_outward_shot():
    eos = eos_rel()
    surface, traj = tov.shoot_from_center(eos, 1e-3)
    sample = np.linspace(traj.r[0], 0.999 * surface.radius, 50)
    for r in sample:
        m, w = traj.state_at(r)
        assert tov.pressure_gradient(eos, r, m, w) < 0.0


def test_mass_function_derivative_identity():
    eos = eos_rel()
    surface, traj = tov.shoot_from_center(eos, 1e-3)
    delta = 1e-5 * surface.radius
    for r in np.linspace(0.2, 0.8, 5) * surface.radius:
        m_hi, _ = traj.state_at(r + delta)
        m_lo, _ = traj.state_at(r - delta)
        _, w = traj.state_at(r)
        rho = eos.density_of_enthalpy(w)
        fd = (m_hi - m_lo) / (2.0 * delta)
        assert fd == pytest.approx(4.0 * math.pi * r**2 * rho, rel=1e-6)


def test_trajectory_rows_layout():
    eos = eos_rel()
    surface, traj = tov.shoot_from_center(eos, 1e-3)
    rows = traj.as_rows()
    assert rows.shape == (traj.r.size, 7)
    assert np.all(np.isfinite(rows))
    assert np.all(np.diff(rows[:, 0]) > 0.0)
    assert np.all(rows[:, 4] > -1e-12)  # h column
    f_surface = 0.5 * math.log(1.0 - surface.compactness)
    assert rows[-1, 5] == pytest.approx(f_surface, abs=1e-10)
    nonrel_rows = tov.shoot_from_center(eos_newt(), 1e-3)[1].as_rows()
    assert np.all(np.isnan(nonrel_rows[:, 5]))  # no metric without c


def test_domain_checks_pass_on_accepted_steps():
    eos = eos_rel()
    _, traj = tov.shoot_from_center(eos, 1e-3)
    traj.check_domain()
    surface, _ = tov.shoot_from_center(eos, 1e-3)
    _, inward = tov.shoot_from_boundary(eos, surface.radius, surface.mass)
    inward.check_domain()


def test_lambda_eos_rhs_does_no_root_finding(monkeypatch):
    # Every right-hand side call reads the density off the EOS's h -> ln rho
    # table; a brentq call made from inside one fails the shot.
    import stellar_match.eos as eos_module

    eos = EosSpec(2.0, c_light=1.0, lambda_coeffs=(0.2, -0.1))
    depth = [0]
    real_rhs, real_brentq = tov.tov_rhs, eos_module.brentq

    def rhs(*args):
        depth[0] += 1
        try:
            return real_rhs(*args)
        finally:
            depth[0] -= 1

    def brentq(*args, **kwargs):
        if depth[0]:
            raise AssertionError("brentq called inside a right-hand side")
        return real_brentq(*args, **kwargs)

    monkeypatch.setattr(tov, "tov_rhs", rhs)
    monkeypatch.setattr(eos_module, "brentq", brentq)
    surface, _ = tov.shoot_from_center(eos, 2.5e-3)
    cls, _ = tov.shoot_from_boundary(eos, surface.radius, surface.mass)
    assert cls.case == tov.CASE11
    assert cls.p_center == pytest.approx(2.5e-3, rel=1e-6)


# -- metric coefficients and junction --------------------------------------

def _vacuum_trajectory(eos):
    sol = solve_ivp(lambda r, y: tov.tov_rhs(eos, r, y[0], y[1]),
                    (0.5, 2.0), [0.0, 0.0], dense_output=True,
                    rtol=1e-10, atol=1e-14)
    return tov.TovTrajectory(eos, "outward", sol, tov.EXIT_SURFACE,
                             f_const=0.0)


def test_metric_vacuum_is_flat():
    traj = _vacuum_trajectory(eos_rel())
    coeffs = tov.metric_coefficients(traj, 1.5, 0.0)
    assert np.allclose(coeffs.F, 0.0, atol=1e-14)
    assert np.allclose(coeffs.H, 0.0, atol=1e-14)
    report = tov.junction_check(coeffs, order=2)
    assert report["passed"]


def test_metric_rejects_nonrelativistic():
    _, traj = tov.shoot_from_center(eos_newt(), 1e-3)
    with pytest.raises(ValueError):
        tov.metric_coefficients(traj, 1.0, 0.1)


def test_metric_grid_invariant():
    eos = eos_rel()
    surface, traj = tov.shoot_from_center(eos, 1e-4)
    coeffs = tov.metric_coefficients(traj, surface.radius, surface.mass)
    m_g, _ = traj.dense(coeffs.r)
    lhs = np.exp(-2.0 * coeffs.H)
    rhs = 1.0 - 2.0 * m_g / coeffs.r
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_junction_gamma53():
    eos = eos_rel()
    surface, traj = tov.shoot_from_center(eos, 1e-4)
    coeffs = tov.metric_coefficients(traj, surface.radius, surface.mass)
    phi = 1.0 - surface.compactness
    assert coeffs.interior[0][0] == pytest.approx(phi, rel=1e-12)
    report = tov.junction_check(coeffs, order=2)
    assert report["passed"]
    assert report["orders"][0]["e2F_scaled_gap"] < 1e-12
    assert report["orders"][0]["e2H_scaled_gap"] < 1e-12
    assert report["orders"][1]["e2F_scaled_gap"] < 1e-6
    assert report["orders"][1]["e2H_scaled_gap"] < 1e-5
    assert report["orders"][2]["e2F_scaled_gap"] < 1e-5
    assert report["orders"][2]["e2H_scaled_gap"] < 1e-5
