"""Tests for two-direction hydrostatic shooting, the inward four-case
classification, and the surface matching of the metric coefficients."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from stellar_match.eos import EosSpec
from stellar_match.errors import (AdmissibilityError, EosValidityError,
                                  ShootFailureError, StellarMatchError)
from stellar_match import ode, tov

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


def test_newtonian_limit_is_exact():
    # At c = inf every 1/c^2 term is an IEEE zero, so the one set of
    # relativistic formulas reduces to the Newtonian ones bit for bit.
    eos = eos_newt()
    assert eos.w_unit == 1.0 and eos_rel(c=2.0).w_unit == 4.0
    for r in (0.5, 1.0, 3.0):
        for m in (0.0, 0.1, 2.0):
            assert tov.surface_gravity(eos, r, m) == m / r**2
            for w in (0.0, 0.3, 2.5):
                rho, p = eos._fluid_of_w(w)
                assert tov._dw_dr(eos, r, m, p) == -m / r**2
                assert tov.pressure_gradient(eos, r, m, w) == rho * (-m / r**2)


def test_newtonian_shots_carry_no_metric():
    eos = eos_newt()
    surface, traj = tov.shoot_from_center(eos, 1e-3)
    _, inward = tov.shoot_from_boundary(eos, surface.radius, surface.mass)
    assert surface.compactness == 0.0
    for t in (traj, inward):
        assert t.f_const == 0.0
        F, H = t.metric_exponents()
        assert np.all(np.isnan(F)) and np.all(np.isnan(H))


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


# -- outward shots as lockstep lanes -----------------------------------------


@pytest.fixture
def lanes_solves(monkeypatch):
    """Every ode.solve_lanes result."""
    results = []
    real = ode.solve_lanes

    def record(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(ode, "solve_lanes", record)
    return results


def _scalar_outcome(eos, p_center, config=None):
    """shoot_from_center as (SurfaceData or failure label, accepted steps)."""
    try:
        surface, traj = tov.shoot_from_center(eos, p_center, config)
    except ShootFailureError as exc:
        return exc.label, len(exc.trajectory.r) - 1
    except EosValidityError:
        return tov.LABEL_EOS_VALIDITY, None
    return surface, len(traj.r) - 1


def _assert_lanes_match_scalar_shots(eos, p_centers, solves, config=None,
                                     mass_rtol=1e-12):
    got = tov.shoot_from_centers(eos, p_centers, config)
    [lanes] = solves
    started = 0
    for p_center, outcome in zip(p_centers, got):
        want, steps = _scalar_outcome(eos, p_center, config)
        if steps is not None:
            assert lanes.steps[started] == steps
            started += 1
        if isinstance(want, str):
            assert outcome == want
            continue
        assert outcome.radius == pytest.approx(want.radius, rel=1e-12)
        assert outcome.mass == pytest.approx(want.mass, rel=mass_rtol)
        assert outcome.compactness == pytest.approx(want.compactness,
                                                    rel=mass_rtol)
        assert outcome.g_surface == pytest.approx(want.g_surface,
                                                  rel=mass_rtol)
    assert started == lanes.steps.size
    return got


def test_lanes_match_scalar_shots_rel53(lanes_solves):
    eos = eos_rel()
    p_centers = np.geomspace(1e-6, 1e-2, 12).tolist()
    p_centers.insert(5, 2.0 * eos.p_valid_max)
    got = _assert_lanes_match_scalar_shots(eos, p_centers, lanes_solves)
    assert got[5] == tov.LABEL_EOS_VALIDITY


def test_lanes_match_scalar_shots_lambda_eos(lanes_solves):
    # At gamma = 2 rho falls linearly to 0 at the surface, so the step that
    # crosses it integrates through a jump of m''.  Where that step falls
    # sets M to about 1e-11: moving rtol by 1e-14 relative moves the scalar
    # M by up to 6.6e-12 here.  numpy's exp and powers differ from the math
    # module's by an ulp at times, so lanes and scalar shots agree on M to
    # the solve's rtol, and on R to 1e-12.
    eos = EosSpec(2.0, c_light=1.0, lambda_coeffs=(0.2, -0.1))
    p_centers = np.geomspace(1e-4, 3e-3, 8).tolist()
    p_centers.insert(3, 2.0 * eos.p_valid_max)
    got = _assert_lanes_match_scalar_shots(eos, p_centers, lanes_solves,
                                           mass_rtol=1e-10)
    assert got[3] == tov.LABEL_EOS_VALIDITY


def test_lanes_label_the_range_guard(lanes_solves):
    eos = eos_rel()
    got = _assert_lanes_match_scalar_shots(
        eos, [1e-4, 2.0 * eos.p_valid_max, 1e-3], lanes_solves,
        tov.ShootConfig(r_max_factor=1.0))
    assert got == [tov.EXIT_R_MAX, tov.LABEL_EOS_VALIDITY, tov.EXIT_R_MAX]


def test_lanes_raise_the_scalar_integrator_failure(monkeypatch):
    # w' = w^2 blows up at r0 + 1/w0: at r = 15.8 for P_c = 1e-3, at 5.0
    # for 1e-2.  The c = inf gamma = 2 EOS keeps rho and P finite as w
    # grows, and the first lane in input order raises.
    monkeypatch.setattr(tov, "tov_rhs", lambda eos, r, m, w: (0.0, w * w))
    monkeypatch.setattr(tov, "_lanes_rhs",
                        lambda eos, r, y: np.array((0.0 * r, y[1] * y[1])))
    eos = EosSpec(2.0)
    with pytest.raises(StellarMatchError, match=r"at r = 15\.8") as scalar:
        tov.shoot_from_center(eos, 1e-3)
    with pytest.raises(StellarMatchError) as lanes:
        tov.shoot_from_centers(eos, [1e-3, 1e-2])
    assert str(lanes.value) == str(scalar.value)


def test_lanes_check_the_domain_of_every_accepted_state(monkeypatch):
    eos = eos_rel()
    seen = []
    real = tov._domain_faults

    def record(eos, r, m, w):
        seen.append(np.array(r, dtype=float))
        return real(eos, r, m, w)

    monkeypatch.setattr(tov, "_domain_faults", record)
    [surface] = tov.shoot_from_centers(eos, [1e-4])
    states = np.concatenate(seen)
    # a lane whose step was rejected shows its last state again
    states = states[np.concatenate(([True], np.diff(states) != 0))]
    _, traj = tov.shoot_from_center(eos, 1e-4)
    # the same states; the step ends themselves part by up to about 1e-9,
    # as those of ode.solve and scipy's RK45 do (see test_ode)
    np.testing.assert_allclose(states, traj.r, rtol=1e-8)
    assert states[-1] == surface.radius  # the event root


def test_lanes_raise_the_scalar_domain_error(monkeypatch):
    def faults(eos, r, m, w):
        return r > 0.5, np.zeros(np.shape(r), dtype=bool)

    monkeypatch.setattr(tov, "_domain_faults", faults)
    eos = eos_rel()
    with pytest.raises(StellarMatchError, match="metric factor") as scalar:
        tov.shoot_from_center(eos, 1e-4)
    with pytest.raises(StellarMatchError) as lanes:
        tov.shoot_from_centers(eos, [1e-4, 1e-3])
    assert str(lanes.value) == str(scalar.value)
    # a shot that fails on a guard is not checked, as in the scalar path
    assert tov.shoot_from_centers(eos, [1e-4], tov.ShootConfig(
        r_max_factor=1.0)) == [tov.EXIT_R_MAX]


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


def test_junction_gamma2_reports_order2_as_not_required():
    # drho/dr = c^2 w'/(2A) != 0 at a gamma = 2 surface, so e^{2H}'' jumps
    # there: the order-2 gap is reported, but only orders 0 and 1 decide
    surface, traj = tov.shoot_from_center(eos_rel(gamma=2.0), 1e-4)
    coeffs = tov.metric_coefficients(traj, surface.radius, surface.mass)
    assert coeffs.required_order == 1
    report = tov.junction_check(coeffs, order=2)
    assert report["passed"]
    assert [report["orders"][k]["required"] for k in (0, 1, 2)] == [
        True, True, False]
    order2 = report["orders"][2]
    assert not order2["passed"] and order2["tolerance"] == 1e-5
    assert order2["e2H_scaled_gap"] == pytest.approx(0.405, abs=5e-4)


@pytest.mark.parametrize("gamma", [1.5, G53, 2.0])
def test_junction_first_order_from_the_equations(gamma):
    # The interior slopes come from the hydrostatic equations at the surface
    # state, so they meet the exterior ones to roundoff.  (Order 2 is not
    # asserted at gamma = 2, where drho/dr does not vanish at the surface.)
    surface, traj = tov.shoot_from_center(eos_rel(gamma=gamma), 1e-4)
    coeffs = tov.metric_coefficients(traj, surface.radius, surface.mass)
    report = tov.junction_check(coeffs, order=1)
    assert report["passed"]
    assert report["orders"][1]["e2F_scaled_gap"] <= 1e-12
    assert report["orders"][1]["e2H_scaled_gap"] <= 1e-12
