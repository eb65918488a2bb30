"""Tests for two-direction hydrostatic shooting, the inward four-case
classification, and the surface matching of the metric coefficients."""

import math

import numpy as np
import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

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
    m0, w0 = tov._center_series(eos, p_c, rho_c, 1e-3)
    assert m0 == pytest.approx(4.0 * math.pi / 3.0 * rho_c * 1e-9, rel=1e-14)
    assert 0.0 < w0 < eos.enthalpy_of_pressure(p_c)


def test_center_start_quadratic_dip():
    # the pressure deficit at r0 is quadratic: halving r0 quarters it
    eos = eos_rel()
    p_c = 1e-3
    rho_c = eos.density_of_pressure(p_c)
    u_c = eos.enthalpy_of_pressure(p_c)
    _, w_a = tov._center_series(eos, p_c, rho_c, 1e-3)
    _, w_b = tov._center_series(eos, p_c, rho_c, 5e-4)
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
    assert heavy.r_exit is not None and heavy.r_exit > 0.0
    light, _ = tov.shoot_from_boundary(eos, surface.radius,
                                       0.9 * surface.mass)
    assert light.case == tov.CASE00
    assert light.exit == tov.EXIT_PRESSURE_CEILING
    # the pressure at the exit, which is the EOS cap
    assert light.p_exit == eos.pressure_of_enthalpy(light.w_exit)
    assert light.p_exit == pytest.approx(light.diagnostics["ceiling"],
                                         rel=1e-9)
    assert light.r_exit > light.diagnostics["r_floor"]
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


def _assert_center_blow_up(cls):
    """case10 at the center floor, reached with its mass: at c = inf
    dw/dr = -m/r^2, so P rises like m/r all the way to r = 0."""
    assert (cls.case, cls.exit) == (tov.CASE10, tov.EXIT_CENTER_FLOOR)
    assert cls.r_exit == cls.diagnostics["r_floor"]
    assert cls.m_exit > cls.diagnostics["m_floor"]
    assert "ceiling" not in cls.diagnostics


def test_case10_refinement_ladder(solve_count):
    # point-mass-like data at c = inf: no ceiling stops the one solve, and
    # a Newtonian blow-up can only be at the center, so the verdict is
    # case10 at the center floor
    cls, _ = tov.shoot_from_boundary(eos_newt(), 1.0, 1e-12)
    _assert_center_blow_up(cls)
    assert solve_count[0] == 1


def test_case00_estimates_stay_above_floor(solve_count):
    # Newtonian (1, 1e-3): at c = inf P stays finite down to the floor,
    # and the mass there marks a center blow-up, case10 from one solve
    cls, _ = tov.shoot_from_boundary(eos_newt(), 1.0, 1e-3)
    _assert_center_blow_up(cls)
    assert solve_count[0] == 1
    # at gamma = 5/3, c = 1 the one solve runs under the EOS cap, and
    # (1, 1e-4) reaches it above the floor, so case00
    solve_count[0] = 0
    eos = eos_rel()
    cls, _ = tov.shoot_from_boundary(eos, 1.0, 1e-4)
    assert cls.case == tov.CASE00
    assert solve_count[0] == 1
    assert cls.diagnostics["ceiling"] == 0.999 * eos.p_valid_max
    assert cls.r_exit > cls.diagnostics["r_floor"]


def test_cap_pinned_ceiling_decides_on_rung_0(solve_count):
    # 20% inside a P_c = 1e-3 star at gamma = 5/3, c = 1: the one solve
    # ends at the EOS cap above the floor, so its blow-up radius decides
    eos = eos_rel()
    surface, _ = tov.shoot_from_center(eos, 1e-3)
    solve_count[0] = 0
    cls, _ = tov.shoot_from_boundary(eos, 0.8 * surface.radius, surface.mass)
    assert cls.case == tov.CASE00
    assert cls.diagnostics["ceiling"] == 0.999 * eos.p_valid_max
    assert solve_count[0] == 1
    assert cls.r_exit > cls.diagnostics["r_floor"]


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(gamma=st.sampled_from([G53, 2.0]), radius=st.floats(0.5, 2.0),
       log_mass=st.floats(-12.0, 1.0))
@example(gamma=G53, radius=1.0, log_mass=-3.0)
def test_no_case00_at_c_inf(solve_count, gamma, radius, log_mass):
    # At c = inf, P stays finite at every r > 0 along an inward shot, and
    # there is no ceiling: a blow-up shows as the center floor reached with
    # positive mass, case10, from one solve.
    solve_count[0] = 0
    cls, _ = tov.shoot_from_boundary(eos_newt(gamma), radius, 10.0**log_mass)
    assert cls.case != tov.CASE00
    assert cls.exit != tov.EXIT_PRESSURE_CEILING
    assert solve_count[0] == 1
    if cls.case == tov.CASE10:
        _assert_center_blow_up(cls)


@settings(max_examples=10, deadline=None)
@given(gamma=st.sampled_from([G53, 2.0]),
       data=st.lists(st.tuples(st.floats(0.3, 3.0),
                               st.floats(-12.0, math.log10(0.3))),
                     min_size=1, max_size=6))
def test_c_inf_reads_a_blow_up_off_the_center_floor(gamma, data):
    # At c = inf no shot stops at a pressure ceiling, and a center-floor
    # exit with m above the mass floor is case10, never
    # center_floor_massive.  Lanes take no ceiling either, and give the
    # scalar shots' verdicts.
    eos = eos_newt(gamma)
    radii = [radius for radius, _ in data]
    masses = [0.5 * radius * 10.0**log_c for radius, log_c in data]
    lanes = tov.shoot_from_boundaries(eos, radii, masses)
    for radius, mass, lane in zip(radii, masses, lanes):
        want = _scalar_inward(eos, radius, mass)
        for cls in (want, lane):
            assert cls.exit != tov.EXIT_PRESSURE_CEILING
            assert not (cls.exit == tov.EXIT_CENTER_MASSIVE
                        and cls.m_exit > cls.diagnostics["m_floor"])
        assert (lane.case, lane.exit) == (want.case, want.exit)
        assert lane.r_exit == pytest.approx(want.r_exit, rel=1e-11)


def test_a_near_case11_shot_ends_at_the_center_floor():
    # This near-case11 shot at gamma = 5/3, c = 1 once tried a step below
    # r_floor, where the singular mode m/r drove a trial stage to
    # w ~ 1e20.  r_floor is now its span bound, and both configs still
    # read a regular center there.
    for cfg in (tov.ShootConfig(), tov.ShootConfig(dr_factor=1e-7)):
        cls, _ = tov.shoot_from_boundary(eos_rel(), 2.1944351886319136,
                                         0.30835285128143747, cfg)
        assert (cls.case, cls.exit) == (tov.CASE11, tov.EXIT_CENTER_FLOOR)


# EOSes of a finite c, where the pressure ceiling is the EOS cap
FINITE_C_EOS = {
    "gamma 5/3, c = 1": eos_rel(),
    "gamma 2, c = 1": eos_rel(gamma=2.0),
    "lambda (0.2, -0.1)": EosSpec(2.0, c_light=1.0,
                                  lambda_coeffs=(0.2, -0.1)),
}


def _inward_rhs_radii(monkeypatch):
    """(floats, lanes): lists that collect the radius of every scalar and
    every lane right-hand side call."""
    floats, lanes = [], []
    real_rhs, real_lanes = tov.tov_rhs, tov._lanes_rhs

    def rhs(eos, r, m, w):
        floats.append(r)
        return real_rhs(eos, r, m, w)

    def lanes_rhs(eos, r, y):
        lanes.extend(r.tolist())
        return real_lanes(eos, r, y)

    monkeypatch.setattr(tov, "tov_rhs", rhs)
    monkeypatch.setattr(tov, "_lanes_rhs", lanes_rhs)
    return floats, lanes


@pytest.mark.parametrize("eos, mass, want", [
    (eos_rel(), None, (tov.CASE11, tov.EXIT_CENTER_FLOOR)),
    (eos_newt(), 1e-3, (tov.CASE10, tov.EXIT_CENTER_FLOOR)),
    (eos_rel(), 1e-7, (None, tov.EXIT_CENTER_MASSIVE)),
], ids=["case11", "case10", "massive"])
def test_no_inward_rhs_call_sees_a_radius_below_the_floor(monkeypatch, eos,
                                                          mass, want):
    # r_floor is the inward solve's span bound, so no stage of a shot that
    # reaches the center floor evaluates the right-hand side below it, on
    # floats or on lanes; the last step ends on the floor exactly.  A
    # stage at t + h of the last step rounds within an ulp of its start t,
    # far above r_floor, hence the 1e-12 (the span once ran to
    # 0.01 r_floor).
    radius = 1.0
    if mass is None:  # on the curve
        surface, _ = tov.shoot_from_center(eos, 1e-3)
        radius, mass = surface.radius, surface.mass
    floats, lanes = _inward_rhs_radii(monkeypatch)
    cls, _ = tov.shoot_from_boundary(eos, radius, mass)
    [lane] = tov.shoot_from_boundaries(eos, [radius], [mass])
    r_floor = tov.ShootConfig().r_floor_factor * radius
    for got, radii in ((cls, floats), (lane, lanes)):
        assert (got.case, got.exit) == want
        assert got.r_exit == got.diagnostics["r_floor"] == r_floor
        assert min(radii) == pytest.approx(r_floor, rel=1e-12)


def test_center_massive_exit_outside_taxonomy():
    # At a finite c the pressure ceiling is the EOS cap, and light data,
    # 2M/R = 2e-7, would reach it only below r_floor: the solve ends at
    # its span bound r_floor with the mass, outside the taxonomy.
    for eos in FINITE_C_EOS.values():
        cls, _ = tov.shoot_from_boundary(eos, 1.0, 1e-7)
        assert cls.case is None
        assert cls.exit == tov.EXIT_CENTER_MASSIVE
        assert cls.r_exit == cls.diagnostics["r_floor"]
        assert abs(cls.m_exit) > cls.diagnostics["m_floor"]


# one-decade changes of the tov settings that gate or integrate a shot
SETTING_CHANGES = [(key, factor) for key in (
    "rtol", "r_floor_factor", "m_floor_factor", "slope_floor_factor",
    "dr_factor") for factor in (10.0, 0.1)]
STABILITY_EOS = {
    "gamma 5/3, c = 1": eos_rel(),
    "gamma 2, c = inf": eos_newt(gamma=2.0),
    "lambda (0.2, -0.1)": EosSpec(2.0, c_light=1.0,
                                  lambda_coeffs=(0.2, -0.1)),
}


def _deciding_ratio(cls):
    """The margin a verdict rests on: |m_exit|/m_floor at the center
    floor, r_exit/r_floor at a stall or a ceiling; None for other exits
    and errors."""
    if isinstance(cls, StellarMatchError):
        return None
    if cls.exit in (tov.EXIT_CENTER_FLOOR, tov.EXIT_CENTER_MASSIVE):
        return abs(cls.m_exit) / cls.diagnostics["m_floor"]
    if cls.exit in (tov.EXIT_SLOPE_STALL, tov.EXIT_PRESSURE_CEILING):
        return cls.r_exit / cls.diagnostics["r_floor"]
    return None


def _verdict(cls):
    if isinstance(cls, StellarMatchError):
        return type(cls).__name__
    return cls.case, cls.exit


def test_verdicts_do_not_hinge_on_a_setting():
    # Claim 1 rests on verdicts, so none may move under a one-decade change
    # of one tov setting.  Draws: an EOS; on-curve data (a forward shot
    # from P_c log-uniform on [1e-6, 1e-2], half of them moved off by a
    # relative 1e-6 to 1e-1 in M) or off-curve data (R on [0.3, 3], 2M/R
    # log-uniform on [1e-5, 0.5]); one setting change.  A draw is exempt
    # only if its verdict moved while a shot's deciding ratio lay within a
    # decade of 1, where a decade's change of that gate decides; the
    # exemptions are counted.
    rng = np.random.default_rng(18)
    names = sorted(STABILITY_EOS)
    draws, exempt = 40, []
    for _ in range(draws):
        eos = STABILITY_EOS[names[rng.integers(len(names))]]
        if rng.random() < 0.5:
            surface, _ = tov.shoot_from_center(eos, 10.0**rng.uniform(-6, -2))
            radius, mass = surface.radius, surface.mass
            if rng.random() < 0.5:
                mass *= 1.0 + rng.choice([-1.0, 1.0]) * 10.0**rng.uniform(
                    -6.0, -1.0)
        else:
            radius = rng.uniform(0.3, 3.0)
            mass = 0.5 * radius * 10.0**rng.uniform(-5.0, math.log10(0.5))
        key, factor = SETTING_CHANGES[rng.integers(len(SETTING_CHANGES))]
        changed = tov.ShootConfig(
            **{key: getattr(tov.ShootConfig(), key) * factor})
        want = _scalar_inward(eos, radius, mass)
        got = _scalar_inward(eos, radius, mass, changed)
        if _verdict(got) == _verdict(want):
            continue
        ratios = [r for r in map(_deciding_ratio, (want, got))
                  if r is not None]
        assert any(0.1 <= r <= 10.0 for r in ratios), (
            radius, mass, key, factor, _verdict(want), _verdict(got))
        exempt.append((key, factor, _verdict(want), _verdict(got)))
    assert len(exempt) <= draws // 10, exempt


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


def test_extreme_boundary_data_are_inadmissible():
    # p_ref = M^2/R^4 or the slope floor p_ref/R overflows, or R**4 does
    # and p_ref reads 0, at these (R, M): both paths refuse the data, and a
    # lane's refusal leaves its batch mates alone
    eos = eos_newt(gamma=2.0)
    extreme = [(1e-150, 0.1), (1e-110, 1e-111), (1e100, 1e99)]
    for radius, mass in extreme:
        with pytest.raises(AdmissibilityError, match="p_ref"):
            tov.shoot_from_boundary(eos, radius, mass)
    *refused, shot = tov.shoot_from_boundaries(
        eos, *zip(*extreme, (1.0, 1e-3)))
    for exc in refused:
        assert isinstance(exc, AdmissibilityError) and "p_ref" in str(exc)
    assert (shot.case, shot.exit) == (tov.CASE10, tov.EXIT_CENTER_FLOOR)


def test_p_ref_keeps_its_digits_where_a_power_underflows():
    # R**4 is zero at R = 1e-100 and subnormal at R = 1e-80, and M**2 is
    # subnormal at M = 1e-160: there p_ref = M^2/R^4 is computed as
    # (M/R/R)^2, so (1e-100, 1e-101) reads a verdict, with p_ref = 1e198,
    # instead of a refusal as p_ref = inf
    eos = eos_newt(gamma=2.0)
    for cls in (tov.shoot_from_boundary(eos, 1e-100, 1e-101)[0],
                *tov.shoot_from_boundaries(eos, [1e-100], [1e-101])):
        assert (cls.case, cls.exit) == (tov.CASE10, tov.EXIT_CENTER_FLOOR)
        assert cls.diagnostics["p_ref"] == pytest.approx(1e198, rel=1e-15)
    for radius, mass in ((1e-80, 1e-81), (1e-70, 1e-160)):
        start = tov._inward_start(eos, radius, mass, tov.ShootConfig(), None)
        assert start.diagnostics["p_ref"] == (mass / radius / radius)**2


@settings(max_examples=60, deadline=None)
@given(log_r=st.floats(-70.0, 70.0), log_c=st.floats(-12.0, math.log10(0.3)))
def test_p_ref_keeps_the_float_powers_bits(log_r, log_c):
    # where neither power underflows, p_ref is M**2/R**4 bit for bit, so
    # every slope floor and trajectory of ordinary data is unchanged
    radius = 10.0**log_r
    mass = 0.5 * radius * 10.0**log_c
    start = tov._inward_start(eos_newt(gamma=2.0), radius, mass,
                              tov.ShootConfig(), None)
    assert start.diagnostics["p_ref"] == mass**2 / radius**4


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
    # so no shot builds it, and there is no EOS cap, so no inward shot
    # builds a pressure ceiling; a solve no event stopped still reads as
    # the range guard
    for eos, finite_c in ((eos_newt(), 0), (eos_rel(), 1)):
        assert len(tov._outward_events(eos)) == 1 + finite_c
        w_ceiling = tov._w_ceiling(eos)
        assert (w_ceiling is None) == (not finite_c)
        events, labels = tov._inward_events(eos, w_ceiling)
        # the center floor is the span bound, not an event: a solve no
        # event stopped (-1) reached it
        assert len(events) == 2 + 2 * finite_c
        assert len(labels) == len(events) + 1
        assert labels[-1] == tov.EXIT_CENTER_FLOOR
        assert labels.count(tov.EXIT_HORIZON) == finite_c
        assert labels.count(tov.EXIT_PRESSURE_CEILING) == finite_c
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
    (1, 1e-12) (case10 at c = inf, center_floor_massive at c = 1), (1, 1e-3)
    (case00 at c = 1, case10 at c = inf, where there is no ceiling), a start
    beyond the EOS validity cap (relativistic only; a Newtonian polytrope
    has none) and inadmissible data."""
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
        if solves:  # a shot that started: its one solve was lane `lane`
            assert lanes.steps[lane] == len(solves[0].t) - 1
            lane += 1
        if isinstance(want, StellarMatchError):
            assert type(outcome) is type(want)
            assert str(outcome) == str(want)
            kinds.add(type(want).__name__)
            continue
        assert (outcome.case, outcome.exit) == (want.case, want.exit)
        kinds.update((want.case, want.exit))
        assert outcome.r_exit == pytest.approx(want.r_exit, rel=1e-11)
        if want.case == tov.CASE11:
            assert outcome.p_center == pytest.approx(want.p_center,
                                                     rel=1e-11)
    assert lane == lanes.steps.size
    assert {tov.CASE01, tov.CASE11, "AdmissibilityError"} <= kinds
    # at c = inf there is no ceiling, and a center-floor exit with mass is
    # case10; at c = 1 a ceiling exit lies above the floor, and the point
    # mass reaches the floor with its mass
    assert (tov.EXIT_PRESSURE_CEILING in kinds) == (not eos.nonrelativistic)
    assert (tov.CASE00 in kinds) == (not eos.nonrelativistic)
    assert (tov.CASE10 in kinds) == eos.nonrelativistic
    assert (tov.EXIT_CENTER_MASSIVE in kinds) == (not eos.nonrelativistic)
    assert ("EosValidityError" in kinds) == (not eos.nonrelativistic)


def test_boundary_lanes_judge_a_ladder_on_its_last_rung(monkeypatch):
    # Every state a lane shows is a domain fault, and no state of a scalar
    # solve is.  Every shot is one solve, run as a lane, so every shot
    # that starts fails the domain check, and one that cannot start keeps
    # the error the scalar shot raises.
    eos = eos_rel()
    batch = _inward_batch(eos, (1.0, 0.6))
    want = [_scalar_inward(eos, radius, mass) for radius, mass in batch]
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
    started = 0
    for outcome, scalar in zip(got, want):
        if isinstance(scalar, StellarMatchError):
            assert (type(outcome), str(outcome)) == (type(scalar),
                                                     str(scalar))
        else:
            started += 1
            assert isinstance(outcome, StellarMatchError)
            assert str(outcome) == "metric factor nonpositive at an " \
                                   "accepted step"
    assert started >= 12


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
    # r_floor, the inward solve's span bound, so the span would be empty or
    # point outward.  Such a config cannot be built, so neither path runs a
    # shot, whatever the data.
    solves = []
    monkeypatch.setattr(ode, "solve", lambda *args: solves.append(args))
    with pytest.raises(ValueError, match="radius floor"):
        tov.ShootConfig(dr_factor=dr_factor, r_floor_factor=r_floor_factor)
    assert solves == [] and lanes_solves == []


# -- the n = 1 Newtonian inward problem in closed form -----------------------
#
# At c = inf and gamma 2 (n = 1, A = 1) the inward equations du/dr = -m/r^2
# and dm/dr = 2 pi r^2 u are linear, with u = w = 2 rho.  From u(R) = 0 and
# m(R) = M they give, with k = sqrt(2 pi),
#   u(r) = M sin(k(R - r))/(kRr),
#   m(r) = M [sin(k(R - r)) + kr cos(k(R - r))]/(kR)
# (the n = 1 Lane-Emden solution sin(xi)/xi).  m(0) = M sin(kR)/(kR), so
# the center is regular only on the line R = sqrt(pi/2), where kR = pi and
# P_c = (M/(2R))^2.  Inside it (R < sqrt(pi/2)) m stays positive down to
# r = 0: case10.  Outside it u vanishes at r = R - sqrt(pi/2), where the
# pressure gradient stalls: case01.

K_N1 = math.sqrt(2.0 * math.pi)
R_N1 = math.sqrt(math.pi / 2.0)
# Measured largest errors over the shots below, floats and lanes: m to
# 2.0e-11 M and u to 5.5e-11 (max|u| + M/r); allowed with about 5x
# headroom.  An error dm in m feeds u through du/dr = -m/r^2 as dm/r,
# which near the floor outgrows max|u| on the curve, hence the M/r term.
N1_M_TOL = 1e-10
N1_U_TOL = 3e-10
N1_SHOTS = [(0.3, 0.06), (0.6, 3e-4), (1.0, 5e-13), (1.2, 0.03),
            (R_N1, 5e-4), (R_N1, 0.2), (R_N1 * (1.0 - 3e-6), 5e-3),
            (R_N1 * (1.0 + 3e-7), 5e-3), (1.4, 7e-4), (2.5, 0.125)]


def _n1_inward(r, radius, mass):
    """(u, m) of the exact inward solution from (R, M), at radii r."""
    phase = K_N1 * (radius - r)
    u = mass * np.sin(phase) / (K_N1 * radius * r)
    m = mass * (np.sin(phase) + K_N1 * r * np.cos(phase)) / (K_N1 * radius)
    return u, m


def _assert_n1_states(radius, mass, r, m, w):
    u_exact, m_exact = _n1_inward(r, radius, mass)
    u_max = np.max(np.abs(u_exact))
    assert np.all(np.abs(m - m_exact) <= N1_M_TOL * mass)
    assert np.all(np.abs(w - u_exact) <= N1_U_TOL * (u_max + mass / r))


def test_n1_inward_trajectories_are_exact(monkeypatch):
    # on the curve, just inside and outside the case11 band, and far off
    # it on both sides, every accepted state of a scalar shot and of a
    # lane sits on the closed form
    eos = eos_newt(gamma=2.0)
    for radius, mass in N1_SHOTS:
        _, traj = tov.shoot_from_boundary(eos, radius, mass)
        _assert_n1_states(radius, mass, traj.r, traj.m, traj.w)

    states = []
    real = tov._fault_observer

    def observer(eos, lanes):
        faults, observe = real(eos, lanes)

        def record(index, r, y):
            states.append((np.array(index), np.array(r), np.array(y)))
            observe(index, r, y)

        return faults, record

    monkeypatch.setattr(tov, "_fault_observer", observer)
    tov.shoot_from_boundaries(eos, *zip(*N1_SHOTS))
    for lane, (radius, mass) in enumerate(N1_SHOTS):
        r, y = zip(*[(r[index == lane], y[:, index == lane])
                     for index, r, y in states])
        r, y = np.concatenate(r), np.concatenate(y, axis=1)
        assert r.size > 10
        _assert_n1_states(radius, mass, r, y[0], y[1])


# Just outside the band u vanishes so close to r_floor, and so steeply,
# that a step can pass the slope floor's thin shell and stop on u = 0
# instead: vacuum re-entry, outside the taxonomy.  Seen up to 131 r_floor
# past the curve; allowed up to this many r_floor.
N1_VACUUM_REACH = 1e3


def _n1_verdicts(radius, mass, cfg):
    """The (case, exit) pairs the closed form allows under the floors of
    cfg, or None within a relative 1e-3 of an edge of the case11 band.  The
    band is -m_floor_factor < R/sqrt(pi/2) - 1 < r_floor_factor: inside it
    m at r_floor is within the mass floor, and u does not vanish above
    r_floor."""
    r_floor = cfg.r_floor_factor * radius
    # u's first zero inward of R is at R - sqrt(pi/2)
    d_ratio = (radius - R_N1) / r_floor
    if abs(d_ratio - 1.0) < 1e-3:
        return None
    if d_ratio > N1_VACUUM_REACH:
        return {(tov.CASE01, tov.EXIT_SLOPE_STALL)}
    if d_ratio > 1.0:
        return {(tov.CASE01, tov.EXIT_SLOPE_STALL), (None, tov.EXIT_VACUUM)}
    m_ratio = _n1_inward(r_floor, radius, mass)[1] / (cfg.m_floor_factor
                                                        * mass)
    if abs(m_ratio - 1.0) < 1e-3:
        return None
    if m_ratio > 1.0:
        return {(tov.CASE10, tov.EXIT_CENTER_FLOOR)}
    return {(tov.CASE11, tov.EXIT_CENTER_FLOOR)}


def _n1_stall_radius(radius, mass, slope_floor):
    """Where |dP/dr| = (u/2)|m|/r^2 of the closed form falls to
    slope_floor, above r = R - sqrt(pi/2), where u vanishes."""
    def excess(r):
        u, m = _n1_inward(r, radius, mass)
        return 0.5 * u * abs(m) / r**2 - slope_floor

    zero = radius - R_N1
    return brentq(excess, zero, zero + 0.01 * R_N1, xtol=1e-300, rtol=1e-15)


NEAR_N1 = st.builds(lambda sign, log_eps: R_N1 * (1.0 + sign * 10.0**log_eps),
                    st.sampled_from([-1.0, 1.0]), st.floats(-8.0, -3.0))


@settings(max_examples=10, deadline=None)
@given(data=st.lists(st.tuples(st.one_of(st.floats(0.3, 3.0), NEAR_N1),
                               st.floats(-12.0, math.log10(0.3))),
                     min_size=1, max_size=6))
@example(data=[(R_N1 * (1.0 - 5e-6), -2.0), (R_N1 * (1.0 + 5e-7), -2.0),
               (R_N1 * (1.0 - 2e-5), -2.0), (R_N1 * (1.0 + 2e-6), -2.0)])
def test_n1_inward_verdicts_follow_the_closed_form(data):
    # R < sqrt(pi/2) is case10 and R > sqrt(pi/2) is case01, except in the
    # case11 band the floors give (and the vacuum re-entries just past it),
    # on floats and on lanes alike.  case10's m_exit is m(r_floor); case01
    # stops where the closed form's slope falls to the slope floor,
    # measured to 2.1e-10 relative 0.01 R or more past the curve.  Nearer
    # it the stall radius is small, and u's error of about dm/r moves it
    # further (1.2e-9 relative at 0.004 R), so it is not checked there.
    eos = eos_newt(gamma=2.0)
    cfg = tov.ShootConfig()
    radii = [radius for radius, _ in data]
    masses = [0.5 * radius * 10.0**log_c for radius, log_c in data]
    lanes = tov.shoot_from_boundaries(eos, radii, masses)
    for radius, mass, lane in zip(radii, masses, lanes):
        scalar, _ = tov.shoot_from_boundary(eos, radius, mass)
        want = _n1_verdicts(radius, mass, cfg)
        for cls in (scalar, lane):
            if want is not None:
                assert (cls.case, cls.exit) in want, (radius, mass)
            if cls.case == tov.CASE10:
                m_exact = _n1_inward(cls.r_exit, radius, mass)[1]
                assert abs(cls.m_exit - m_exact) <= N1_M_TOL * mass
            if cls.case == tov.CASE01 and radius - R_N1 >= 0.01 * radius:
                stall = _n1_stall_radius(radius, mass,
                                         cls.diagnostics["slope_floor"])
                assert cls.r_exit == pytest.approx(stall, rel=1e-9)


@pytest.mark.parametrize("mass", [1e-9, 1e-3, 0.1, 0.5])
def test_n1_case11_p_center_is_exact(mass):
    # On R = sqrt(pi/2) the center is regular with P_c = rho_c^2 =
    # (M/(2R))^2.  Measured to 7.7e-9 relative; allowed 3e-8.
    eos = eos_newt(gamma=2.0)
    want = (mass / (2.0 * R_N1))**2
    scalar, _ = tov.shoot_from_boundary(eos, R_N1, mass)
    [lane] = tov.shoot_from_boundaries(eos, [R_N1], [mass])
    for cls in (scalar, lane):
        assert cls.case == tov.CASE11
        assert cls.p_center == pytest.approx(want, rel=3e-8)


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
