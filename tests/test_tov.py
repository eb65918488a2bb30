"""Tests for two-direction hydrostatic shooting, the inward four-case
classification, and the surface matching of the metric coefficients."""

import math

import numpy as np
import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)
from scipy.integrate import solve_ivp

from stellar_match.eos import EosSpec
from stellar_match.errors import (AdmissibilityError, EosValidityError,
                                  ShootFailureError, StellarMatchError)
from stellar_match import ode, tov
from stellar_match.matching import LANES_MIN

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


@pytest.mark.parametrize("eos", [eos_newt(), eos_rel(),
                                 EosSpec(gamma=2.0, A=1.0, c_light=1.0,
                                         lambda_coeffs=(0.2, -0.1))])
def test_pressure_gradient_float_path_matches_lanes(eos):
    # a float state, as the slope-stall event passes it, takes plain float
    # arithmetic and gives the lanes' bits, metric floor and vacuum included
    r = np.array([1e-3, 0.7, 2.0, 2.0, 5.0])
    m = np.array([1e-12, 0.05, 0.3, 1.5, 0.4])
    w = np.array([0.2, 0.01, 1e-4, 0.05, -0.1])
    lanes = tov.pressure_gradient(eos, r, m, w)
    for j in range(r.size):
        got = tov.pressure_gradient(eos, float(r[j]), float(m[j]), float(w[j]))
        assert type(got) is float
        assert got == lanes[j]


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


@pytest.fixture
def solve_count(monkeypatch):
    """The number of tov._solve calls made so far (a one-item list)."""
    count = [0]
    real = tov._solve

    def counted(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(tov, "_solve", counted)
    return count


def test_case10_refinement_ladder(solve_count):
    # point-mass-like data at c = inf: the pressure ceiling ends rung 0,
    # and a Newtonian blow-up can only be at the center, so the verdict is
    # case10 from that one solve
    cls, _ = tov.shoot_from_boundary(eos_newt(), 1.0, 1e-12)
    assert (cls.case, cls.exit) == (tov.CASE10, tov.EXIT_PRESSURE_CEILING)
    assert solve_count[0] == 1
    assert cls.diagnostics["refinement_radii"] == [cls.r_minus]


def test_case00_estimates_stay_above_floor(solve_count):
    # Newtonian (1, 1e-3): rung 0's estimate lies far above the floor, yet
    # at c = inf it marks a center blow-up, case10 from one solve
    cls, _ = tov.shoot_from_boundary(eos_newt(), 1.0, 1e-3)
    assert cls.case == tov.CASE10
    assert solve_count[0] == 1
    assert cls.r_minus > 100.0 * cls.diagnostics["r_floor"]
    # at gamma = 5/3, c = 1 the ceiling of (1, 1e-4) is limited by p_ref;
    # the cap solve's estimate stays above the floor, so case00
    solve_count[0] = 0
    cls, _ = tov.shoot_from_boundary(eos_rel(), 1.0, 1e-4)
    assert cls.case == tov.CASE00
    assert cls.diagnostics["ceiling_limited_by"] == "p_ref"
    assert solve_count[0] == 2
    radii = cls.diagnostics["refinement_radii"]
    assert radii[-1] == cls.r_minus < radii[0]
    assert all(r > cls.diagnostics["r_floor"] for r in radii)


def test_cap_pinned_ceiling_decides_on_rung_0(solve_count):
    # 20% inside a P_c = 1e-3 star at gamma = 5/3, c = 1: the ceiling is
    # the EOS cap from rung 0 on, so rung 0's blow-up radius decides
    eos = eos_rel()
    surface, _ = tov.shoot_from_center(eos, 1e-3)
    solve_count[0] = 0
    cls, _ = tov.shoot_from_boundary(eos, 0.8 * surface.radius, surface.mass)
    assert cls.case == tov.CASE00
    assert cls.diagnostics["ceiling_limited_by"] == "eos_validity"
    assert solve_count[0] == 1
    assert cls.diagnostics["refinement_radii"] == [cls.r_minus]


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(gamma=st.sampled_from([G53, 2.0]), radius=st.floats(0.5, 2.0),
       log_mass=st.floats(-12.0, 1.0))
@example(gamma=G53, radius=1.0, log_mass=-3.0)
def test_no_case00_at_c_inf(solve_count, gamma, radius, log_mass):
    # At c = inf, P stays finite at every r > 0 along an inward shot, so a
    # pressure-ceiling exit is a center blow-up: case10, from rung 0 alone.
    solve_count[0] = 0
    cls, _ = tov.shoot_from_boundary(eos_newt(gamma), radius, 10.0**log_mass)
    assert cls.case != tov.CASE00
    if cls.exit == tov.EXIT_PRESSURE_CEILING:
        assert cls.case == tov.CASE10
        assert solve_count[0] == 1


@settings(max_examples=12, deadline=None)
@given(radius=st.floats(0.5, 2.0), log_compactness=st.floats(-8.0, -0.5))
@example(radius=1.0, log_compactness=math.log10(2e-5))
def test_cap_solve_is_rung_0_under_the_cap(radius, log_compactness):
    # gamma = 5/3, c = 1: whenever a rung 0 under the EOS cap itself
    # (p_ceiling_factor 1e30) ends at that ceiling, the default shot ends
    # on the same blow-up radius, bit for bit, and the same case, whether
    # its own rung 0 already ran under the cap or the cap solve followed.
    eos = eos_rel()
    mass = 0.5 * radius * 10.0**log_compactness
    capped, _ = tov.shoot_from_boundary(
        eos, radius, mass, tov.ShootConfig(p_ceiling_factor=1e30))
    if capped.exit != tov.EXIT_PRESSURE_CEILING:
        return
    cls, _ = tov.shoot_from_boundary(eos, radius, mass)
    assert cls.diagnostics["refinement_radii"][-1] == capped.r_exit
    assert (cls.case, cls.exit, cls.r_minus) == (
        capped.case, capped.exit, capped.r_exit)


def test_center_massive_exit_outside_taxonomy():
    cfg = tov.ShootConfig(p_ceiling_factor=1e30)
    cls, _ = tov.shoot_from_boundary(eos_newt(), 1.0, 1e-3, config=cfg)
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
    for bad in ((math.inf, 0.1), (math.nan, 0.1), (1.0, math.inf), (1.0, math.nan)):
        assert not tov.admissible(*bad)
        with pytest.raises(AdmissibilityError):
            tov.shoot_from_boundary(eos_newt(), *bad)


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


def test_events_hold_a_horizon_only_for_a_finite_c():
    # at c = inf the metric factor is 1 and the horizon event cannot fire,
    # so no shot builds it; a solve no event stopped still reads as the
    # range guard
    for eos, horizon in ((eos_newt(), 0), (eos_rel(), 1)):
        assert len(tov._outward_events(eos)) == 1 + horizon
        for with_center in (True, False):
            events, labels = tov._inward_events(eos, with_center)
            assert len(events) == len(labels) == 3 + with_center + horizon
            assert labels.count(tov.EXIT_HORIZON) == horizon
    assert tov._OUTWARD_EXITS[-1] == tov.EXIT_R_MAX


# rho falls linearly to 0 at a gamma = 2 surface, so a step across it would
# integrate through the jump of m'' into the vacuum branch, and M would
# follow where that step falls.  The step to the surface is redone to end
# there.
GAMMA2_EOS = [EosSpec(2.0, c_light=1.0), EosSpec(2.0),
              EosSpec(2.0, c_light=1.0, lambda_coeffs=(0.2, -0.1))]
GAMMA2_P_CENTERS = np.geomspace(1e-4, 3e-3, 9).tolist()


@pytest.mark.parametrize("eos", GAMMA2_EOS, ids=["c1", "c_inf", "lambda"])
def test_gamma2_mass_does_not_follow_the_step_grid(eos):
    nudged = tov.ShootConfig(rtol=1e-10 * (1.0 + 1e-14))
    for p_center in GAMMA2_P_CENTERS:
        surface, _ = tov.shoot_from_center(eos, p_center)
        moved, _ = tov.shoot_from_center(eos, p_center, nudged)
        assert moved.mass == pytest.approx(surface.mass, rel=1e-13)


@pytest.mark.parametrize("eos", GAMMA2_EOS, ids=["c1", "c_inf", "lambda"])
def test_gamma2_lanes_and_scalar_shots_agree_on_the_mass(eos):
    lanes = tov.shoot_from_centers(eos, GAMMA2_P_CENTERS)
    for p_center, lane in zip(GAMMA2_P_CENTERS, lanes):
        surface, _ = tov.shoot_from_center(eos, p_center)
        assert lane.mass == pytest.approx(surface.mass, rel=1e-13)


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
    # a central pressure that is not finite and positive starts no lane
    lanes_solves.clear()
    got = _assert_lanes_match_scalar_shots(
        eos, [math.nan, 1e-4, 0.0, math.inf, -1e-4], lanes_solves)
    assert [got[i] for i in (0, 2, 3, 4)] == [tov.LABEL_EOS_VALIDITY] * 4


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
    # as those of ode.solve and scipy's DOP853 do (see test_ode)
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


# -- inward shots as lockstep lanes ------------------------------------------


def _inward_batch(eos, inadmissible):
    """Boundary data whose inward shots end in every way a sweep sees:
    case00, case01 and on-curve case11 around two stars, the point-mass
    case10 (1, 1e-12), (1, 1e-3) (case00 at c = 1, case10 at c = inf,
    where no shot is case00), a start beyond the EOS validity
    cap (relativistic only; a Newtonian polytrope has none) and
    inadmissible data."""
    batch = []
    for p_center in (1e-4, 1e-3):
        surface, _ = tov.shoot_from_center(eos, p_center)
        for fr, fm in ((1.0, 1.0), (0.8, 1.0), (1.0, 0.7), (1.0, 1.05),
                       (1.1, 1.0), (1.3, 0.7)):
            batch.append((fr * surface.radius, fm * surface.mass))
    batch += [(1.0, 1e-12), (1.0, 1e-3), (1.0, 0.5 * (1.0 - 1e-9)),
              inadmissible]
    return batch


def _scalar_inward(eos, radius, mass, config=None):
    """shoot_from_boundary's classification, or the error it raises."""
    try:
        return tov.shoot_from_boundary(eos, radius, mass, config)[0]
    except StellarMatchError as exc:
        return exc


@pytest.mark.parametrize("eos, inadmissible", [
    (eos_rel(), (1.0, 0.6)),
    (eos_newt(), (1.0, 0.0)),
])
def test_boundary_lanes_match_scalar_shots(monkeypatch, lanes_solves, eos,
                                           inadmissible):
    batch = _inward_batch(eos, inadmissible)
    assert len(batch) >= 16  # matching.LANES_MIN
    got = tov.shoot_from_boundaries(eos, *zip(*batch))
    [lanes] = lanes_solves

    solves = []
    real = ode.solve

    def record(*args):
        solves.append(real(*args))
        return solves[-1]

    monkeypatch.setattr(ode, "solve", record)
    lane = 0
    kinds = set()
    for (radius, mass), outcome in zip(batch, got):
        solves.clear()
        want = _scalar_inward(eos, radius, mass)
        if solves:  # a shot that started: its rung 0 was lane `lane`
            assert lanes.steps[lane] == len(solves[0].t) - 1
            lane += 1
        if isinstance(want, StellarMatchError):
            assert type(outcome) is type(want)
            assert str(outcome) == str(want)
            kinds.add(type(want).__name__)
            continue
        assert (outcome.case, outcome.exit) == (want.case, want.exit)
        kinds.add(want.case)
        assert len(outcome.diagnostics["refinement_radii"]) == len(
            want.diagnostics["refinement_radii"])
        assert outcome.r_exit == pytest.approx(want.r_exit, rel=1e-11)
        if want.case == tov.CASE11:
            assert outcome.p_center == pytest.approx(want.p_center,
                                                     rel=1e-11)
    assert lane == lanes.steps.size
    assert {tov.CASE01, tov.CASE10, tov.CASE11, "AdmissibilityError"} <= kinds
    # at c = inf a pressure-ceiling exit is always case10
    assert (tov.CASE00 in kinds) == (not eos.nonrelativistic)
    assert ("EosValidityError" in kinds) == (not eos.nonrelativistic)


def test_boundary_lanes_judge_a_ladder_on_its_last_rung(monkeypatch,
                                                         solve_count):
    # Every state a lane shows is a domain fault, and no state of a scalar
    # solve is.  A shot that ends on rung 0 then fails the domain check;
    # one that runs the cap solve is judged on that solve's trajectory, as
    # the scalar shot is, and classifies as that shot does.  (1, 1e-6),
    # (1, 1e-5) and (1, 1e-4) have ceilings limited by p_ref.
    eos = eos_rel()
    batch = _inward_batch(eos, (1.0, 0.6)) + [
        (1.0, 1e-6), (1.0, 1e-5), (1.0, 1e-4)]
    want = []
    for radius, mass in batch:
        solve_count[0] = 0
        want.append((_scalar_inward(eos, radius, mass), solve_count[0]))
    in_lanes = [False]
    real = ode.solve_lanes

    def solve_lanes(*args):
        in_lanes[0] = True
        try:
            return real(*args)
        finally:
            in_lanes[0] = False

    def faults(eos, r, m, w):
        return (np.full(np.shape(r), in_lanes[0]),
                np.zeros(np.shape(r), dtype=bool))

    monkeypatch.setattr(ode, "solve_lanes", solve_lanes)
    monkeypatch.setattr(tov, "_domain_faults", faults)
    got = tov.shoot_from_boundaries(eos, *zip(*batch))
    cap_solves = 0
    for outcome, (scalar, n_solves) in zip(got, want):
        if isinstance(scalar, StellarMatchError):
            assert type(outcome) is type(scalar)
        elif n_solves == 2:
            cap_solves += 1
            assert (outcome.case, outcome.exit) == (scalar.case, scalar.exit)
        else:
            assert n_solves == 1
            assert isinstance(outcome, StellarMatchError)
            assert str(outcome) == "metric factor nonpositive at an " \
                                   "accepted step"
    assert cap_solves >= 4


_BATCH_EOS = {
    "gamma 5/3, c = 1": (eos_rel(), (1.0, 0.6)),
    "gamma 2, c = inf": (eos_newt(gamma=2.0), (1.0, 0.0)),
    "lambda (0.2, -0.1)": (EosSpec(2.0, c_light=1.0,
                                   lambda_coeffs=(0.2, -0.1)), (1.0, 0.6)),
}


@pytest.fixture(scope="module", params=sorted(_BATCH_EOS))
def batch_pool(request):
    """(eos, central pressures, boundary data, their outcomes shot as one
    batch each): a central pressure the EOS cannot start from, and inward
    shots ending in every way _inward_batch gives, plus three more."""
    eos, inadmissible = _BATCH_EOS[request.param]
    p_centers = np.geomspace(1e-5, 1e-2, 19).tolist()
    if not eos.nonrelativistic:
        p_centers.insert(7, 2.0 * eos.p_valid_max)
    boundaries = _inward_batch(eos, inadmissible) + [
        (1.0, 1e-5), (1.0, 1e-4), (2.0, 1e-3)]
    return (eos, p_centers, boundaries,
            tov.shoot_from_centers(eos, p_centers),
            tov.shoot_from_boundaries(eos, *zip(*boundaries)))


@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_lanes_do_not_depend_on_their_batch_mates(batch_pool, data):
    # Each lane of a batch of LANES_MIN or more gives the outcome it gives
    # in the whole pool's batch, bit for bit (the repr of a float is
    # exact), whatever its batch mates and its place among them: the
    # scan's planned refinement shoots speculative midpoints on that
    # premise.
    eos, p_centers, boundaries, centers_want, boundaries_want = batch_pool
    for shoot, pool, want in (
            (lambda batch: tov.shoot_from_centers(eos, batch), p_centers,
             centers_want),
            (lambda batch: tov.shoot_from_boundaries(eos, *zip(*batch)),
             boundaries, boundaries_want)):
        order = data.draw(st.permutations(range(len(pool))))
        order = order[:data.draw(st.integers(LANES_MIN, len(pool)))]
        got = shoot([pool[k] for k in order])
        assert [repr(outcome) for outcome in got] == [
            repr(want[k]) for k in order]


@pytest.mark.parametrize("dr_factor, r_floor_factor", [
    (1e-6, 2.0), (1e-6, 1.0 - 1e-6), (0.5, 0.5)])
def test_boundary_shots_refuse_a_start_inside_the_floor(
        monkeypatch, lanes_solves, dr_factor, r_floor_factor):
    # r_floor_factor + dr_factor >= 1 puts every start R - dr at or inside
    # r_floor, where the center-floor event cannot fire.  Such a config
    # cannot be built, so neither path runs a shot, whatever the data.
    solves = []
    monkeypatch.setattr(ode, "solve", lambda *args: solves.append(args))
    with pytest.raises(ValueError, match="radius floor"):
        tov.ShootConfig(dr_factor=dr_factor, r_floor_factor=r_floor_factor)
    assert solves == [] and lanes_solves == []


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
