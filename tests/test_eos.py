"""Equation-of-state unit and property tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stellar_match import EosSpec, EosValidityError
from stellar_match.eos import PolytropeIndex


def test_pressure_trivial_polytrope():
    eos = EosSpec(gamma=2.0, A=1.0)
    assert eos.pressure_of_density(2.0) == pytest.approx(4.0, abs=1e-15)
    assert eos.pressure_of_density(0.0) == 0.0


def test_pressure_with_correction_term():
    # Lam(x) = 0.5 x at x = A rho^(gamma-1)/c^2 = 1/100.
    eos = EosSpec(gamma=5.0 / 3.0, A=1.0, c_light=10.0, lambda_coeffs=(0.5,))
    assert eos.pressure_of_density(1.0) == pytest.approx(1.005, abs=1e-15)


def test_sound_speed_polytrope():
    eos = EosSpec(gamma=2.0, A=1.0)
    assert eos.sound_speed_sq(0.1) == pytest.approx(0.2, rel=1e-14)
    assert eos.sound_speed_sq(0.0) == 0.0


def test_sound_speed_causality_flag():
    eos = EosSpec(gamma=2.0, A=1.0, c_light=1.0)
    assert eos.sound_speed_sq(0.6) == pytest.approx(1.2, rel=1e-14)
    assert not eos.valid_at(0.6)
    assert eos.valid_at(0.4)
    assert eos.rho_valid_max == pytest.approx(0.5, rel=1e-9)
    assert eos.validity_binding == "causal"


def test_validity_gate_on_conversions():
    eos = EosSpec(gamma=2.0, A=1.0, c_light=1.0)
    with pytest.raises(EosValidityError):
        eos.pressure_of_density(0.7)
    with pytest.raises(EosValidityError):
        eos.density_of_pressure(10.0)


def test_requested_range_error():
    eos = EosSpec(gamma=2.0, A=1.0, c_light=1.0)
    assert eos.requested_range_error(0.4) is None
    assert isinstance(eos.requested_range_error(0.8), EosValidityError)


def test_gamma_warning_flag_not_error():
    assert EosSpec(gamma=2.5).gamma_warning
    assert EosSpec(gamma=1.1).gamma_warning
    assert not EosSpec(gamma=1.5).gamma_warning


def test_polytrope_index():
    idx = PolytropeIndex.from_gamma(2.0)
    assert idx.n == pytest.approx(1.0, abs=1e-14)
    idx = PolytropeIndex.from_gamma(5.0 / 3.0)
    assert idx.n * (idx.gamma - 1.0) == pytest.approx(1.0, abs=1e-14)
    assert PolytropeIndex.from_n(1.5).gamma == pytest.approx(5.0 / 3.0)
    with pytest.raises(ValueError):
        PolytropeIndex.from_gamma(1.0)


def test_enthalpy_nonrel_closed_form():
    # u = A g/(g-1) rho^(g-1); gamma=2, A=1, P=4 -> rho=2 -> u=4.
    eos = EosSpec(gamma=2.0, A=1.0)
    assert eos.enthalpy_of_pressure(4.0) == pytest.approx(4.0, rel=1e-12)
    assert eos.enthalpy_of_pressure(0.0) == 0.0


def test_density_of_enthalpy_nonrel():
    eos = EosSpec(gamma=1.4, A=1.0)
    assert eos.density_of_enthalpy(3.5) == pytest.approx(1.0, rel=1e-12)
    assert eos.density_of_enthalpy(0.0) == 0.0
    assert eos.density_of_enthalpy(-1.0) == 0.0


def test_enthalpy_quadrature_against_composite_rule():
    # Independent oracle: composite midpoint rule in the substituted variable
    # s = P'^((g-1)/g) with a million panels, using its own vectorized Newton
    # inversion of the pressure law (no package root finder involved).
    gamma, A, c = 5.0 / 3.0, 1.0, 10.0
    eos = EosSpec(gamma=gamma, A=A, c_light=c, lambda_coeffs=(0.3, -0.05))
    p = 0.8
    q = gamma / (gamma - 1.0)
    n_panel = 1_000_000
    ds = p ** (1.0 / q) / n_panel
    s = (np.arange(n_panel) + 0.5) * ds
    pp = s ** q
    rho = (pp / A) ** (1.0 / gamma)
    for _ in range(50):
        x = A * rho ** (gamma - 1.0) / c**2
        f = A * rho ** gamma * (1.0 + 0.3 * x - 0.05 * x**2) - pp
        df = A * rho ** (gamma - 1.0) * (gamma * (1.0 + 0.3 * x - 0.05 * x**2)
                                         + (gamma - 1.0) * x * (0.3 - 0.1 * x))
        step = f / df
        rho = rho - step
        if np.max(np.abs(step / rho)) < 1e-15:
            break
    integrand = q * s ** (q - 1.0) / (rho * c**2 + pp)
    oracle = integrand.sum() * ds
    assert eos.enthalpy_of_pressure(p) == pytest.approx(oracle, rel=1e-9)


def test_enthalpy_c_limit():
    # c^2 h(P; c) -> u(P): first-order convergence in 1/c^2.
    gamma, A, p = 5.0 / 3.0, 1.0, 2.0
    u = EosSpec(gamma=gamma, A=A).enthalpy_of_pressure(p)
    errs = []
    for c in (1e2, 1e3, 1e4):
        h = EosSpec(gamma=gamma, A=A, c_light=c).enthalpy_of_pressure(p)
        errs.append(abs(c**2 * h - u) / u)
    assert errs[0] / errs[1] == pytest.approx(100.0, rel=0.3)
    assert errs[1] / errs[2] == pytest.approx(100.0, rel=0.3)
    assert errs[2] < 1e-7


def test_round_trips_across_validity_range():
    # rho -> P -> rho and P -> h -> P on a 200-point log grid.
    cases = [
        EosSpec(gamma=5.0 / 3.0, A=1.0),
        EosSpec(gamma=2.0, A=0.5, c_light=1.0),
        EosSpec(gamma=1.4, A=2.0, c_light=10.0, lambda_coeffs=(0.2,)),
    ]
    for eos in cases:
        hi = 1e3 if math.isinf(eos.rho_valid_max) else 0.99 * eos.rho_valid_max
        grid = np.logspace(math.log10(hi) - 8, math.log10(hi), 200)
        for rho in grid:
            p = eos.pressure_of_density(rho)
            assert eos.density_of_pressure(p) == pytest.approx(rho, rel=1e-10)
        for rho in grid[::20]:
            p = eos.pressure_of_density(rho)
            h = eos.enthalpy_of_pressure(p)
            assert eos.pressure_of_enthalpy(h) == pytest.approx(p, rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(log_rho=st.floats(-6.0, 2.0),
       gamma=st.floats(1.25, 1.95),
       a_const=st.floats(0.1, 5.0))
def test_monotone_and_roundtrip_property(log_rho, gamma, a_const):
    eos = EosSpec(gamma=gamma, A=a_const)
    rho = 10.0 ** log_rho
    p = eos.pressure_of_density(rho)
    p2 = eos.pressure_of_density(rho * 1.01)
    assert p2 > p > 0.0
    assert eos.density_of_pressure(p) == pytest.approx(rho, rel=1e-10)
    u = eos.enthalpy_of_pressure(p)
    assert u > 0.0
    assert eos.density_of_enthalpy(u) == pytest.approx(rho, rel=1e-10)


# -- h -> ln rho table of the lambda-corrected EOS --------------------------


def lambda_eos():
    return EosSpec(gamma=2.0, A=1.0, c_light=1.0, lambda_coeffs=(0.2, -0.1))


def test_lambda_round_trips_across_the_table():
    # From the closed-form seed at 1e-16 rho_valid_max up to the bound,
    # then h just below the table's end h_hi.
    eos = lambda_eos()
    _sol, _h_lo, h_hi, _t_hi, _slope = eos._ln_rho_table
    for rho in np.geomspace(1e-16 * eos.rho_valid_max, eos.rho_valid_max, 65):
        p = eos.pressure_of_density(rho)
        h = eos.enthalpy_of_pressure(p)
        assert eos.density_of_enthalpy(h) == pytest.approx(rho, rel=1e-10)
        assert eos.pressure_of_enthalpy(h) == pytest.approx(p, rel=1e-10)
    for h in h_hi * (1.0 - np.array([1e-6, 1e-9, 1e-12])):
        p = eos.pressure_of_enthalpy(h)
        assert eos.enthalpy_of_pressure(p) == pytest.approx(h, rel=1e-10)


def test_ln_rho_of_h_is_smooth_where_the_table_ends():
    # h_lo joins the closed-form seed, h_hi the linear saturation.  Compare
    # values across each end, and second-order one-sided slopes from below
    # and from above.
    eos = lambda_eos()
    _sol, h_lo, h_hi, _t_hi, _slope = eos._ln_rho_table

    def ln_rho(h):
        return math.log(eos._rho_of_w_unchecked(h))

    for h_end in (h_lo, h_hi):
        eps = 1e-12 * h_end
        assert ln_rho(h_end - eps) == pytest.approx(ln_rho(h_end + eps), abs=1e-10)
        d = 1e-4 * h_end
        below = (3.0 * ln_rho(h_end) - 4.0 * ln_rho(h_end - d)
                 + ln_rho(h_end - 2.0 * d)) / (2.0 * d)
        above = (-3.0 * ln_rho(h_end) + 4.0 * ln_rho(h_end + d)
                 - ln_rho(h_end + 2.0 * d)) / (2.0 * d)
        assert below == pytest.approx(above, rel=1e-6)


@pytest.mark.parametrize("gamma, c, coeffs", [
    (2.0, 1.0, (0.2, -0.1)),
    (5.0 / 3.0, 10.0, (0.3, -0.05)),
])
def test_lambda_conversions_are_inverse_to_roundoff(gamma, c, coeffs):
    # h(P) inverts the same h -> ln rho map that density_of_enthalpy
    # reads: rho -> h -> rho from below the closed-form seed to the
    # bound, and h -> P -> h from below h_lo to just short of h_hi.
    eos = EosSpec(gamma=gamma, A=1.0, c_light=c, lambda_coeffs=coeffs)
    _sol, h_lo, h_hi, _t_hi, _slope = eos._ln_rho_table
    for rho in np.geomspace(1e-18 * eos.rho_valid_max, eos.rho_valid_max, 97):
        h = eos.enthalpy_of_pressure(eos.pressure_of_density(rho))
        assert eos.density_of_enthalpy(h) == pytest.approx(rho, rel=1e-13)
    hs = np.concatenate([np.geomspace(1e-2 * h_lo, h_hi, 97),
                         h_hi * (1.0 - np.array([1e-6, 1e-9, 1e-12]))])
    for h in hs:
        p = eos.pressure_of_enthalpy(h)
        assert eos.enthalpy_of_pressure(p) == pytest.approx(h, rel=1e-13)


def test_saturation_past_the_table_stays_finite():
    # At a monotone bound (dP/drho -> 0) the table's end slope d ln rho/dh
    # is huge; trial RK stages past h_hi must still see a finite rho and P,
    # on the scalar and the array path alike.
    eos = EosSpec(gamma=2.0, A=1.0, c_light=1.0, lambda_coeffs=(-0.5,))
    assert eos.validity_binding == "monotone"
    _sol, _h_lo, h_hi, _t_hi, _slope = eos._ln_rho_table
    w = h_hi * np.array([1.0 + 1e-9, 1.01, 2.0, 1e3])
    rho_array, p_array = eos._fluid_of_w(w)
    for k, w_k in enumerate(w):
        rho, p = eos._fluid_of_w(float(w_k))
        assert isinstance(rho, float) and isinstance(p, float)
        assert math.isfinite(rho) and math.isfinite(p)
        assert rho_array[k] == pytest.approx(rho, rel=1e-15)
        assert p_array[k] == pytest.approx(p, rel=1e-15)
    assert np.all(np.diff(rho_array) >= 0.0)


@pytest.mark.parametrize("gamma, c", [
    (5.0 / 3.0, 1.0), (2.0, 1.0), (1.5, 3.0), (5.0 / 3.0, math.inf),
])
def test_closed_form_density_scalar_and_array_agree(gamma, c):
    # A right-hand side reads the float branch (math.expm1, float **), the
    # trajectory tables the array branch (np.expm1, np.power).  They agree
    # to 2 ulp, except that rho = y^n turns an ulp of y = expm1(..) into n
    # ulp of rho, which matters for n = 1/(gamma - 1) > 1.
    eos = EosSpec(gamma=gamma, A=1.0, c_light=c)
    ulps = max(2.0, eos.index.n + 1.0)
    rho_top = eos.rho_valid_max if math.isfinite(eos.rho_valid_max) else 1e3
    w_top = eos.enthalpy_of_pressure(eos.pressure_of_density(rho_top))
    w = np.geomspace(1e-12, w_top, 2001)
    array = eos._rho_of_w_array(w)
    scalar = np.array([eos._rho_of_w_unchecked(float(x)) for x in w])
    assert np.all(np.abs(scalar - array) <= ulps * np.spacing(array))


def test_newtonian_enthalpy_identity():
    # u = A g/(g-1) rho^(g-1) for the pure polytrope.
    for gamma in (1.3, 1.5, 5.0 / 3.0, 2.0):
        eos = EosSpec(gamma=gamma, A=0.7)
        for rho in (1e-4, 0.1, 3.0):
            u = eos.enthalpy_of_pressure(eos.pressure_of_density(rho))
            expect = 0.7 * gamma / (gamma - 1.0) * rho ** (gamma - 1.0)
            assert u == pytest.approx(expect, rel=1e-12)


def test_length_scale_gamma2_is_density_free():
    eos = EosSpec(gamma=2.0, A=1.0)
    a1 = eos.length_scale(0.1)
    a2 = eos.length_scale(10.0)
    assert a1 == pytest.approx(a2, rel=1e-14)
    assert a1 == pytest.approx(math.sqrt(1.0 / (2.0 * math.pi)), rel=1e-14)


def test_bad_parameters_raise():
    with pytest.raises(ValueError):
        EosSpec(gamma=0.9)
    with pytest.raises(ValueError):
        EosSpec(gamma=1.5, A=-1.0)
    with pytest.raises(ValueError):
        EosSpec(gamma=1.5, c_light=0.0)
    with pytest.raises(EosValidityError):
        EosSpec(gamma=1.5).pressure_of_density(-1.0)


def test_lambda_table_slope_is_finite_past_the_bound():
    # Trial stages of the table's solve overshoot ln rho_valid_max, by far
    # enough for exp((gamma - 1) ln rho) to overflow; past the bound the
    # slope keeps its value there, as ln rho continues linearly.
    eos = EosSpec(2.0, c_light=1.0, lambda_coeffs=(0.2, -0.1))
    t_hi = math.log(eos.rho_valid_max)
    for t in (t_hi + 1.0, t_hi + 1e3):
        assert eos._dln_rho_dh(t) == eos._dln_rho_dh(t_hi)
    assert math.isfinite(eos._dln_rho_dh(t_hi))
    _sol, h_lo, h_hi, _t_end, slope = eos._ln_rho_table
    assert 0.0 < h_lo < h_hi and math.isfinite(slope)
