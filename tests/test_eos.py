"""Equation-of-state unit and property tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stellar_match import EosSpec, EosValidityError
from stellar_match.eos import _SATURATION_SPAN


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


@pytest.mark.parametrize("lam", [(-0.5,), (0.2, -0.1), ()])
def test_rho_valid_max_is_the_last_valid_density(lam):
    # the bound is on the valid side, one float below the first invalid one
    eos = EosSpec(gamma=2.0, A=1.0, c_light=1.0, lambda_coeffs=lam)
    assert eos.valid_at(eos.rho_valid_max)
    assert not eos.valid_at(math.nextafter(eos.rho_valid_max, math.inf))


def test_validity_gate_on_conversions():
    eos = EosSpec(gamma=2.0, A=1.0, c_light=1.0)
    with pytest.raises(EosValidityError):
        eos.pressure_of_density(0.7)
    with pytest.raises(EosValidityError):
        eos.density_of_pressure(10.0)


def test_validity_gate_raises_alike_on_floats_and_arrays():
    # a float takes plain comparisons, an array numpy's: the same verdict
    # and the same message
    eos = EosSpec(gamma=2.0, A=1.0, c_light=1.0)
    for rho in (-1.0, 0.0, 0.3, 0.7, 1e300, math.inf, math.nan):
        outcomes = []
        for value in (rho, np.array([rho])):
            try:
                eos._require_valid_rho(value)
                outcomes.append(None)
            except EosValidityError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], rho
    assert EosSpec(gamma=2.0)._require_valid_rho(1e300) is None


def test_closed_form_float_map_reads_an_overflow_as_inf():
    # a trial stage far past the cap overflows expm1 or a power, in both
    # modes: the float map gives inf, as numpy does on lanes, instead of
    # raising OverflowError, and the array map gives inf without a warning
    # (which this suite turns into an error).  Both give the same (rho, P),
    # rho to the closed form's ulp.
    eos = EosSpec(gamma=5.0 / 3.0, A=1.0, c_light=1.0)
    assert eos._fluid(1e20) == (math.inf, math.inf)
    with np.errstate(over="ignore"):
        assert eos._rho_of_w_array(np.array([1e20]))[0] == math.inf
    for gamma in (4.0 / 3.0, 5.0 / 3.0, 2.0):
        for c in (1.0, math.inf):
            eos = EosSpec(gamma=gamma, A=1.0, c_light=c)
            for w in (1e20, 1e100, 1e200, 1e300):
                rho, p = eos._fluid(w)
                rho_a, p_a = eos._fluid_of_w(np.array([w]))
                assert rho == pytest.approx(float(rho_a[0]), rel=1e-15)
                assert p == pytest.approx(float(p_a[0]), rel=1e-15)
            assert eos._fluid(1e300)[1] == math.inf


def test_requested_range_error():
    eos = EosSpec(gamma=2.0, A=1.0, c_light=1.0)
    assert eos.requested_range_error(0.4) is None
    assert isinstance(eos.requested_range_error(0.8), EosValidityError)


def test_gamma_warning_flag_not_error():
    assert EosSpec(gamma=2.5).gamma_warning
    assert EosSpec(gamma=1.1).gamma_warning
    assert not EosSpec(gamma=1.5).gamma_warning


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
        return math.log(eos._fluid(float(h))[0])

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


@pytest.mark.parametrize("gamma, coeffs, bound", [
    (2.0, (0.2, -0.1), 9.4e-13),
    (5.0 / 3.0, (0.2, -0.1), 9.9e-13),
    (2.0, (0.5,), 9.5e-13),
    (1.5, (0.1, 0.05), 1.1e-12),
])
def test_lambda_table_matches_an_independent_solve(gamma, coeffs, bound):
    # The reference solves ln h as a function of ln rho with solve_ivp,
    # from the table's seed, as d = ln h - (gamma - 1) ln rho: d is O(1)
    # and nearly constant, so rtol acts on it and not on ln h, which
    # reaches -37 at the seed.  (A quadrature of dh/d ln rho agrees with it
    # to the digits below.)  Each bound is the error that the same table
    # solved in h itself, at rtol = atol = 1e-13, shows against this
    # reference: the table in ln h must be no less accurate.
    from scipy.integrate import solve_ivp

    eos = EosSpec(gamma=gamma, A=1.0, c_light=1.0, lambda_coeffs=coeffs)
    _sol, h_lo, _h_hi, _t_end, _slope = eos._ln_rho_table
    t_lo = math.log(eos.rho_valid_max * 1e-16)
    t_hi = math.log(eos.rho_valid_max)
    lam = np.polynomial.Polynomial((0.0,) + coeffs)
    dlam = lam.deriv()
    g1 = gamma - 1.0

    def dd_dt(t, d):
        x = math.exp(g1 * t)
        lam_x, dlam_x = lam(x), dlam(x)
        dh_dt = x * (gamma * (1.0 + lam_x) + g1 * x * dlam_x) \
            / (1.0 + x * (1.0 + lam_x))
        return [dh_dt / math.exp(d[0] + g1 * t) - g1]

    ref = solve_ivp(dd_dt, (t_lo, t_hi), [math.log(h_lo) - g1 * t_lo],
                    method="DOP853", rtol=2.3e-14, atol=1e-16,
                    dense_output=True)
    t = np.linspace(t_lo + 0.5, t_hi - 1e-3, 3000)
    h = np.exp(ref.sol(t)[0] + g1 * t)
    assert np.max(np.abs(np.log(eos._rho_of_w_array(h)) - t)) < bound


@pytest.mark.parametrize("gamma, coeffs", [
    (2.0, (0.2, -0.1)), (5.0 / 3.0, (0.2, -0.1)), (1.5, (0.1, 0.05)),
    (2.0, (-0.5,)),
])
def test_float_map_reads_the_table_and_the_pressure_law(gamma, coeffs):
    # _fluid reads the table's step coefficients itself; it must give the
    # bits of a float lookup of the dense output at ln w and of
    # _pressure_raw, on every branch but the closed form's (A != 1, so
    # that a regrouped product shows).
    eos = EosSpec(gamma=gamma, A=0.7, c_light=1.0, lambda_coeffs=coeffs)
    sol, h_lo, h_hi, t_end, slope = eos._ln_rho_table
    rng = np.random.default_rng(0)
    w = np.concatenate([[0.0, -1.0, h_hi, h_hi * 1e3],
                        np.exp(rng.uniform(math.log(h_lo), math.log(h_hi),
                                           2000)),
                        h_hi * (1.0 + rng.uniform(0.0, 1.0, 50))])
    for x in w.tolist():
        rho, p = eos._fluid(x)
        if x <= 0.0:
            want = 0.0
        elif x >= h_hi:
            want = math.exp(min(t_end + (x - h_hi) * slope,
                                t_end + _SATURATION_SPAN))
        else:
            want = math.exp(sol(math.log(x))[0])
        assert (rho, p) == (want, eos._pressure_raw(want))


@pytest.mark.parametrize("gamma, coeffs", [
    (2.0, (0.2, -0.1)), (5.0 / 3.0, (0.2, -0.1)), (2.0, (-0.5,)),
])
def test_array_density_equals_the_float_map_off_the_closed_form(gamma,
                                                                 coeffs):
    # Lanes read _rho_of_w_array, a scalar solve _fluid: on the vacuum,
    # table and saturation branches the two give the same bits (the closed
    # form's ulp is the next test's).
    eos = EosSpec(gamma=gamma, A=1.0, c_light=1.0, lambda_coeffs=coeffs)
    _sol, h_lo, h_hi, _t_end, _slope = eos._ln_rho_table
    rng = np.random.default_rng(1)
    w = np.concatenate([[-1.0, 0.0, h_hi], -rng.uniform(0.0, 1.0, 50),
                        np.exp(rng.uniform(math.log(h_lo), math.log(h_hi),
                                           20000)),
                        h_hi * (1.0 + rng.exponential(1.0, 200))])
    w = w[(w <= 0.0) | (w > h_lo)]
    want = np.array([eos._fluid(x)[0] for x in w.tolist()])
    assert np.array_equal(eos._rho_of_w_array(w), want)


@pytest.mark.parametrize("gamma, c", [
    (5.0 / 3.0, 1.0), (2.0, 1.0), (1.5, 3.0), (5.0 / 3.0, math.inf),
])
def test_closed_form_density_scalar_and_array_agree(gamma, c):
    # A right-hand side reads the float branch (math.expm1, float **), the
    # trajectory tables the array branch (np.expm1, np.power).  They agree
    # to 2 ulp, except that rho = y^n turns an ulp of y = expm1(..) into n
    # ulp of rho, which matters for n = 1/(gamma - 1) > 1.
    eos = EosSpec(gamma=gamma, A=1.0, c_light=c)
    ulps = max(2.0, 1.0 / (gamma - 1.0) + 1.0)
    rho_top = eos.rho_valid_max if math.isfinite(eos.rho_valid_max) else 1e3
    w_top = eos.enthalpy_of_pressure(eos.pressure_of_density(rho_top))
    w = np.geomspace(1e-12, w_top, 2001)
    array = eos._rho_of_w_array(w)
    scalar = np.array([eos._fluid(float(x))[0] for x in w])
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
