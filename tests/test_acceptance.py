"""End-to-end acceptance checks for the package.

Nine numbered criteria, one test each.  Every test prints a single
PASS/FAIL line with the measured quantities, so running

    pytest -s tests/test_acceptance.py

reads as a checklist.  Tolerances are stated inline; the heavyweight
sweep (criterion 4) dominates the runtime.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import spherical_jn

from stellar_match import lane_emden
from stellar_match.distortion import solve_distortion, surface_curve
from stellar_match.eos import EosSpec
from stellar_match.matching import (LogGrid, SweepSampler, ae_failure_sweep,
                                    scan_components)
from stellar_match.reports import canonical_json
from stellar_match.surface_fit import (SLOPE_TARGET, SLOPE_TOLERANCE,
                                       fit_ellipsoid, fit_ladder,
                                       stratification_report)
from stellar_match.tov import (junction_check, metric_coefficients,
                               pressure_gradient, shoot_from_boundary,
                               shoot_from_center)

GAMMA_53 = 5.0 / 3.0


def _verdict(num, label, ok, detail):
    print("criterion %d [%s] %s: %s"
          % (num, "PASS" if ok else "FAIL", label, detail))
    assert ok, "criterion %d (%s) failed: %s" % (num, label, detail)


@pytest.fixture(scope="module")
def rel53():
    return EosSpec(gamma=GAMMA_53, A=1.0, c_light=1.0)


@pytest.fixture(scope="module")
def curves53(rel53):
    return scan_components(rel53, LogGrid(1e-6, 1e-2, per_decade=4.0))


@pytest.fixture(scope="module")
def dist_n1():
    return solve_distortion(1.0)


def test_criterion_1_lane_emden_oracles():
    t0 = time.perf_counter()
    sol1 = lane_emden.solve(1.0)
    sol0 = lane_emden.solve(0.0)
    elapsed = time.perf_counter() - t0
    err_xi1 = abs(sol1.xi1 - math.pi)
    err_mu1 = abs(sol1.mu1 - math.pi)
    err_xi0 = abs(sol0.xi1 - math.sqrt(6.0))
    ok = (err_xi1 < 1e-8 and err_mu1 < 1e-8 and err_xi0 < 1e-10
          and elapsed < 1.0)
    _verdict(1, "lane-emden oracles", ok,
             "|xi1(1)-pi|=%.1e |mu1(1)-pi|=%.1e |xi1(0)-sqrt6|=%.1e "
             "runtime=%.2fs (tol 1e-8/1e-8/1e-10, <1s)"
             % (err_xi1, err_mu1, err_xi0, elapsed))


def test_criterion_2_distortion_closed_forms(dist_n1):
    xi = np.linspace(0.0, dist_n1.base.xi1, 400)
    # sin(xi)/xi via sinc handles the center point.
    h0_err = np.max(np.abs(dist_n1.h0.at(xi) - (1.0 - np.sinc(xi / np.pi))))
    psi2_err = np.max(np.abs(dist_n1.psi2.at(xi) - 15.0 * spherical_jn(2, xi)))
    a2_err = abs(dist_n1.a2 - (-math.pi**2 / 18.0))
    signs_ok = True
    for n in (1.0, 1.5, 3.0):
        d = dist_n1 if n == 1.0 else solve_distortion(n)
        c2 = surface_curve(d, 1e-3).c2
        signs_ok = signs_ok and d.a2 < 0.0 and d.psi2.surface_value > 0.0 \
            and c2 > 0.0
    ok = h0_err < 1e-8 and psi2_err < 1e-8 and a2_err < 1e-8 and signs_ok
    _verdict(2, "distortion closed forms", ok,
             "max|h0-(1-sin xi/xi)|=%.1e max|psi2-15j2|=%.1e "
             "|A2+pi^2/18|=%.1e signs(n=1,1.5,3)=%s (tol 1e-8)"
             % (h0_err, psi2_err, a2_err, signs_ok))


def test_criterion_3_tov_round_trip(rel53):
    t0 = time.perf_counter()
    worst = 0.0
    all_case11 = True
    for p_o in np.geomspace(1e-6, 1e-2, 20):
        surface, _ = shoot_from_center(rel53, p_o)
        cls, _ = shoot_from_boundary(rel53, surface.radius, surface.mass)
        all_case11 = all_case11 and cls.case == "case11"
        if cls.p_center is not None:
            worst = max(worst, abs(cls.p_center - p_o) / p_o)
        else:
            worst = math.inf
    elapsed = time.perf_counter() - t0
    ok = all_case11 and worst < 1e-5 and elapsed < 30.0
    _verdict(3, "tov round trip", ok,
             "20 shots, all case11=%s, worst |dP|/P=%.1e, runtime=%.1fs "
             "(tol 1e-5, <30s)" % (all_case11, worst, elapsed))


def test_criterion_4_ae_failure_sweep(rel53, curves53):
    t0 = time.perf_counter()
    far = SweepSampler(kind="random", seed=20260823, min_distance=1e-2)
    rep_a = ae_failure_sweep(rel53, curves53, sampler=far, count=1000)
    rep_b = ae_failure_sweep(rel53, curves53, sampler=far, count=1000)
    far_case11 = rep_a.summary["cases"].get("case11", 0)
    min_dist = min(s["distance"] for s in rep_a.samples)
    byte_identical = rep_a.summary_json() == rep_b.summary_json()

    on = SweepSampler(kind="on-curve", seed=11)
    rep_on = ae_failure_sweep(rel53, curves53, sampler=on, count=100)
    on_case11 = rep_on.summary["cases"].get("case11", 0)
    elapsed = time.perf_counter() - t0
    ok = (far_case11 == 0 and min_dist > 1e-2
          and rep_a.summary["count"] == 1000
          and on_case11 == 100 and byte_identical and elapsed < 600.0)
    _verdict(4, "a.e.-failure sweep", ok,
             "1000 far samples (min scaled distance %.3f): %d case11; "
             "100 on-curve: %d case11; byte-identical rerun=%s; "
             "runtime=%.0fs (<600s)"
             % (min_dist, far_case11, on_case11, byte_identical, elapsed))


def test_criterion_5_nonrelativistic_consistency():
    worst = 0.0
    for gamma in (1.5, GAMMA_53, 2.0):
        eos = EosSpec(gamma=gamma, A=1.0, c_light=1e4)
        p_o = 1.0
        rho_o = eos.density_of_pressure(p_o)
        a = eos.length_scale(rho_o)
        base = lane_emden.solve(1.0 / (gamma - 1.0))
        surface, _ = shoot_from_center(eos, p_o)
        err_r = abs(surface.radius - a * base.xi1) / (a * base.xi1)
        m_pred = 4.0 * math.pi * rho_o * a**3 * base.mu1
        err_m = abs(surface.mass - m_pred) / m_pred
        worst = max(worst, err_r, err_m)
    ok = worst < 1e-4
    _verdict(5, "nonrelativistic consistency", ok,
             "c=1e4, gamma in {3/2, 5/3, 2}: worst (R, M) error vs "
             "(a xi1, 4 pi rho_O a^3 mu1) = %.1e (tol 1e-4)" % worst)


def test_criterion_6_junction_check(rel53):
    surface, traj = shoot_from_center(rel53, 1e-4)
    coeffs = metric_coefficients(traj, surface.radius, surface.mass)
    report = junction_check(coeffs, order=2)
    gaps = {k: max(report["orders"][k]["e2F_scaled_gap"],
                   report["orders"][k]["e2H_scaled_gap"]) for k in (0, 1, 2)}
    ok = (report["passed"] and gaps[0] < 1e-12
          and gaps[1] < 1e-5 and gaps[2] < 1e-5)
    _verdict(6, "junction check", ok,
             "gamma=5/3 star: scaled gaps of e^{2F}, e^{2H} at the surface "
             "order0=%.1e order1=%.1e order2=%.1e "
             "(tol 1e-12 / 1e-5 / 1e-5)" % (gaps[0], gaps[1], gaps[2]))


def test_criterion_7_ellipsoid_residual_scaling(dist_n1):
    # The same ladder fits and scaling that the surface command reports.
    rep = fit_ladder(dist_n1, np.geomspace(1e-4, 1e-2, 5)).scaling
    zeta = np.linspace(-1.0, 1.0, 301)
    exact = 3.0 / np.sqrt(1.0 - 0.4 * zeta**2)
    fit = fit_ellipsoid(np.column_stack([zeta, exact]))
    rel_floor = fit.rms_residual / fit.a0
    ok = rep.slope_in_range and not rep.degenerate and rel_floor < 1e-12
    _verdict(7, "ellipsoid residual scaling", ok,
             "slope=%.4f (target %g +- %g), exact-ellipsoid relative "
             "rms=%.1e (roundoff, tol 1e-12)"
             % (rep.slope, SLOPE_TARGET, SLOPE_TOLERANCE, rel_floor))


def test_criterion_8_stratification(dist_n1):
    levels = (0.2, 0.5, 0.8)
    floor_rel = 1e-12        # roundoff floor of a single best-fit ellipsoid
    rotating = stratification_report(dist_n1, 1e-2, levels)
    control = stratification_report(dist_n1, 0.0, levels)
    worst_rotating = max(fit.relative_rms for _, fit in rotating)
    worst_control = max(fit.relative_rms for _, fit in control)
    ok = worst_rotating > 10.0 * floor_rel and worst_control < floor_rel
    _verdict(8, "stratification", ok,
             "n=1, b=1e-2, levels %s: worst relative rms %.1e "
             "(needs >%.0e); b=0 control %.1e (needs <1e-12)"
             % (levels, worst_rotating, 10.0 * floor_rel, worst_control))


def _domain_and_slope(eos, rows, boundary=None):
    """Stored rows inside the hydrostatic domain have dP/dr < 0 and any
    rows outside it form the terminal tail that triggered the exit.  An
    inward trajectory's first row is left out only where it is exactly its
    boundary data `boundary` = (R, M): P = 0, m = M and r = R to an ulp."""
    arr = np.asarray(rows, dtype=float)
    if boundary is not None:
        radius, mass = boundary
        r0, m0, p0 = arr[0, :3]
        if p0 == 0.0 and m0 == mass and abs(r0 - radius) <= math.ulp(radius):
            arr = arr[1:]
    r, m, p = arr[:, 0], arr[:, 1], arr[:, 2]
    csq = eos.c_light**2
    in_d = ((r > 0.0) & (p > 0.0) & (m + 4.0 * np.pi * r**3 * p / csq > 0.0)
            & (1.0 - 2.0 * m / (csq * r) > 0.0))
    idx = np.where(~in_d)[0]
    tail_only = len(idx) == 0 or (idx[0] + len(idx) == len(arr)
                                  and bool(np.all(np.diff(idx) == 1)))
    grads = [pressure_gradient(eos, row[0], row[1], row[4])
             for row in arr[in_d]]
    return tail_only, bool(np.all(np.asarray(grads) < 0.0))


def test_criterion_9_invariant_suites(rel53, curves53):
    # EOS round trips, pressure <-> density and pressure <-> enthalpy.
    worst_rt = 0.0
    for eos in (rel53, EosSpec(gamma=2.0, c_light=1.0),
                EosSpec(gamma=1.5),
                EosSpec(gamma=2.0, c_light=1.0, lambda_coeffs=(0.2, -0.1))):
        rho_hi = 0.9 * eos.rho_valid_max if math.isfinite(
            eos.rho_valid_max) else 1e3
        rho = np.geomspace(1e-6, rho_hi, 40)
        back = np.array([eos.density_of_pressure(eos.pressure_of_density(x))
                         for x in rho])
        worst_rt = max(worst_rt, float(np.max(np.abs(back - rho) / rho)))
        for x in rho[::8]:
            p = eos.pressure_of_density(x)
            p_back = eos.pressure_of_enthalpy(eos.enthalpy_of_pressure(p))
            worst_rt = max(worst_rt, abs(p_back - p) / p)

    # Pressure decreases inside the domain along every trajectory, and
    # domain exits terminate the run instead of being integrated through.
    surface, fwd = shoot_from_center(rel53, 1e-3)
    _, inward = shoot_from_boundary(rel53, surface.radius, surface.mass)
    _, offcurve = shoot_from_boundary(rel53, surface.radius * 1.1,
                                      surface.mass)
    checks = [_domain_and_slope(rel53, t.as_rows(), boundary)
              for t, boundary in (
                  (fwd, None),
                  (inward, (surface.radius, surface.mass)),
                  (offcurve, (surface.radius * 1.1, surface.mass)))]
    domain = all(tail for tail, _ in checks)
    monotone = all(neg for _, neg in checks)
    fwd_p = np.asarray(fwd.as_rows(), dtype=float)[:, 2]
    monotone = monotone and bool(np.all(np.diff(fwd_p) < 0.0))

    # A rerun of the same seeded sweep reproduces the summary byte for byte.
    sampler = SweepSampler(kind="random", seed=5, min_distance=1e-2)
    first = ae_failure_sweep(rel53, curves53, sampler=sampler, count=24)
    rerun = ae_failure_sweep(rel53, curves53, sampler=sampler, count=24)
    deterministic = first.summary_json() == rerun.summary_json()
    assert canonical_json(first.summary) == first.summary_json()

    ok = worst_rt < 1e-10 and monotone and domain and deterministic
    _verdict(9, "invariant suites", ok,
             "eos round trips worst=%.1e (tol 1e-10), dP/dr<0 inside the "
             "domain=%s, domain exits terminal=%s, sweep "
             "determinism=%s (suite runtime bound: see the pytest total)"
             % (worst_rt, monotone, domain, deterministic))
