"""Ellipsoid fitting, residual scaling in b, and level stratification."""

import math

import numpy as np
import pytest

from stellar_match import lane_emden
from stellar_match.distortion import solve_distortion, surface_curve
from stellar_match.errors import FitConvergenceError
from stellar_match.surface_fit import (
    EllipsoidFit,
    _linregress,
    fit_ellipsoid,
    residual_scaling,
    scaling_from_pairs,
    stratification_report,
)


@pytest.fixture(scope="module")
def dist_n1():
    return solve_distortion(lane_emden.solve(1.0))


def ellipsoid_samples(a0, a1, points=41):
    zeta = np.linspace(-1.0, 1.0, points)
    return np.column_stack([zeta, a0 / np.sqrt(1.0 + a1 * zeta**2)])


# -- fitting ---------------------------------------------------------------


def test_fit_sphere_exact():
    fit = fit_ellipsoid(ellipsoid_samples(2.0, 0.0))
    assert fit.a0 == 2.0
    assert fit.a1 == 0.0
    assert fit.rms_residual == 0.0
    assert fit.converged


def test_fit_recovers_exact_model():
    fit = fit_ellipsoid(ellipsoid_samples(3.0, 0.5))
    assert fit.a0 == pytest.approx(3.0, abs=1e-12)
    assert fit.a1 == pytest.approx(0.5, abs=1e-12)
    assert fit.rms_residual < 1e-12
    assert fit.max_residual < 1e-12


def test_fit_recovers_polar_bulge():
    # a1 < 0 is allowed as long as 1 + a1 stays positive.
    fit = fit_ellipsoid(ellipsoid_samples(1.5, -0.6))
    assert fit.a0 == pytest.approx(1.5, abs=1e-12)
    assert fit.a1 == pytest.approx(-0.6, abs=1e-12)


def test_fit_converges_from_coarse_guess():
    # Strong flattening: the two-point initial guess is imperfect but the
    # damped iteration still lands on the generating parameters.
    fit = fit_ellipsoid(ellipsoid_samples(2.0, 8.0, points=31))
    assert fit.a1 == pytest.approx(8.0, rel=1e-10)
    assert fit.converged


def test_fit_handles_noisy_samples():
    rng = np.random.default_rng(2)
    samples = ellipsoid_samples(2.0, 0.3, points=101)
    samples[:, 1] += 1e-4 * rng.standard_normal(101)
    fit = fit_ellipsoid(samples)
    assert fit.a0 == pytest.approx(2.0, abs=1e-3)
    assert fit.a1 == pytest.approx(0.3, abs=1e-2)
    assert 0.0 < fit.rms_residual < 3e-4


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit_ellipsoid([(0.0, 1.0), (0.5, 1.0)])
    with pytest.raises(ValueError):
        fit_ellipsoid([(0.0, 1.0), (0.5, -1.0), (1.0, 1.0)])
    with pytest.raises(ValueError):
        fit_ellipsoid([(0.0, 1.0), (1.5, 1.0), (1.0, 1.0)])


def test_fit_rejects_non_finite_samples():
    for bad in ([(0.0, 1.0), (0.5, math.nan), (1.0, 1.0)],
                [(0.0, 1.0), (0.5, math.inf), (1.0, 1.0)],
                [(0.0, 1.0), (math.nan, 1.0), (1.0, 1.0)],
                [(0.0, 1.0), (-math.inf, 1.0), (1.0, 1.0)]):
        with pytest.raises(ValueError, match="finite"):
            fit_ellipsoid(bad)


def test_fit_without_stationary_point_raises():
    # The polar radius grows so fast that the sum of squares keeps falling
    # as 1 + a1 shrinks to zero: no admissible ellipsoid is a minimum.
    with pytest.raises(FitConvergenceError, match="no stationary point"):
        fit_ellipsoid([(0.0, 1.0), (0.5, 2.0), (0.9, 50.0)])


@pytest.mark.parametrize("n", [1.0, 1.5, 2.0])
def test_fit_reproducible_under_radius_scaling(n):
    # a1 is a root of the reduced gradient, fixed to about eps over its
    # slope, so scaling the radii by 1 + O(1e-13) leaves it in place.
    curve = surface_curve(solve_distortion(lane_emden.solve(n)), 1e-2)
    ref = fit_ellipsoid(np.column_stack([curve.zeta, curve.values]))
    for factor in (1.0 - 1e-13, 1.0 + 1e-13, 1.0 + 3e-13, 1.0 + 1e-12):
        fit = fit_ellipsoid(np.column_stack([curve.zeta, factor * curve.values]))
        assert abs(fit.a1 - ref.a1) <= 1e-12 * abs(ref.a1)


def test_fit_optimality_under_perturbation():
    curve_samples = ellipsoid_samples(2.0, 0.3, points=51)
    rng = np.random.default_rng(4)
    curve_samples[:, 1] += 1e-3 * rng.standard_normal(51)
    fit = fit_ellipsoid(curve_samples)
    zeta, r = curve_samples[:, 0], curve_samples[:, 1]

    def ssr(a0, a1):
        e = r - a0 / np.sqrt(1.0 + a1 * zeta**2)
        return float(e @ e)

    best = ssr(fit.a0, fit.a1)
    for da0, da1 in ((1e-6, 0), (-1e-6, 0), (0, 1e-6), (0, -1e-6)):
        assert ssr(fit.a0 + da0, fit.a1 + da1) >= best - 1e-15


def test_fit_scale_covariance():
    base_samples = ellipsoid_samples(2.0, 0.3, points=51)
    base_samples[:, 1] += 1e-4 * np.sin(9.0 * base_samples[:, 0])
    lam = 3.7
    scaled = base_samples.copy()
    scaled[:, 1] *= lam
    fit_a = fit_ellipsoid(base_samples)
    fit_b = fit_ellipsoid(scaled)
    assert fit_b.a0 == pytest.approx(lam * fit_a.a0, rel=1e-10)
    assert fit_b.a1 == pytest.approx(fit_a.a1, abs=1e-10)
    assert fit_b.rms_residual == pytest.approx(lam * fit_a.rms_residual, rel=1e-8)


def test_fit_depends_only_on_even_part():
    rng = np.random.default_rng(6)
    zeta = rng.uniform(-1.0, 1.0, 25)
    r = 1.8 / np.sqrt(1.0 + 0.4 * zeta**2) + 1e-4 * np.cos(5.0 * zeta**2)
    plain = fit_ellipsoid(np.column_stack([zeta, r]))
    mirrored = fit_ellipsoid(
        np.column_stack([np.concatenate([zeta, -zeta]), np.concatenate([r, r])])
    )
    assert mirrored.a0 == pytest.approx(plain.a0, abs=1e-12)
    assert mirrored.a1 == pytest.approx(plain.a1, abs=1e-12)


# -- scaling law -----------------------------------------------------------


def test_surface_residual_is_second_order(dist_n1):
    # First order in b is matched by an ellipsoid; the miss grows as b^2.
    rms = {}
    for b in (1e-3, 1e-2):
        curve = surface_curve(dist_n1, b)
        fit = fit_ellipsoid(np.column_stack([curve.zeta, curve.values]))
        rms[b] = fit.rms_residual
        assert fit.rms_residual > 0.0
    assert rms[1e-2] / rms[1e-3] == pytest.approx(100.0, rel=0.3)


def test_residual_scaling_slope_two(dist_n1):
    report = residual_scaling(dist_n1, np.geomspace(1e-4, 1e-2, 5))
    assert not report.degenerate
    assert report.slope == pytest.approx(2.0, abs=0.1)
    assert report.slope_half_width < 0.05
    assert math.isfinite(report.intercept)
    b_seq = [p[0] for p in report.pairs]
    assert b_seq == sorted(b_seq)


def test_residual_scaling_preconditions(dist_n1):
    with pytest.raises(ValueError):
        residual_scaling(dist_n1, [1e-4, 1e-3, 1e-2])  # too few
    with pytest.raises(ValueError):
        residual_scaling(dist_n1, [1e-4, 1e-3, 1e-3, 1e-2])  # not increasing
    with pytest.raises(ValueError):
        residual_scaling(dist_n1, [1e-3, 2e-3, 5e-3, 1e-2])  # span too small
    with pytest.raises(ValueError):
        residual_scaling(dist_n1, [1e-3, 1e-2, 5e-2, 1e-1])  # beyond range


def test_scaling_flags_exact_ellipsoids():
    # Residuals pinned at roundoff carry no slope information.
    pairs = []
    for b in np.geomspace(1e-4, 1e-2, 5):
        fit = fit_ellipsoid(ellipsoid_samples(math.pi * (1.0 + b), b))
        pairs.append((b, fit.rms_residual))
    report = scaling_from_pairs(pairs, roundoff_scale=math.pi)
    assert report.degenerate
    assert math.isfinite(report.slope)


def test_scaling_from_pairs_validation():
    with pytest.raises(ValueError):
        scaling_from_pairs([(1e-3, 1.0), (1e-2, 2.0)])
    with pytest.raises(ValueError):
        scaling_from_pairs([(1e-3, 1.0), (1e-3, 2.0), (1e-2, 3.0)])


@pytest.mark.parametrize("pair", [(1e-2, math.nan), (1e-2, math.inf), (math.nan, 3.0)])
def test_scaling_from_pairs_rejects_non_finite(pair):
    with pytest.raises(ValueError, match="finite"):
        scaling_from_pairs([(1e-4, 1.0), (1e-3, 2.0), pair])


def test_linregress_matches_scipy_bit_for_bit():
    from scipy import stats

    rng = np.random.default_rng(20261018)
    x4 = np.log([1e-4, 1e-3, 1e-2, 5e-2])
    cases = [
        (x4, np.log([1e-9, 1e-7, 1e-5, 3e-4])),
        (x4, 2.0 * x4 + 1.0),  # exact line: r rounds past 1 and is clipped
        (x4, np.full(4, math.log(1e-300))),  # constant y: r is NaN
        (x4[:2], np.array([1.0, 3.0])),  # n = 2: no standard error
    ]
    for n in (3, 4, 5, 8, 13):
        for _ in range(40):
            x = np.sort(rng.uniform(-12.0, -2.0, n))
            cases.append((x, rng.uniform(1.5, 2.5) * x + rng.normal(0.0, 0.1, n)))
    for x, y in cases:
        ref = stats.linregress(x, y)
        np.testing.assert_array_equal(_linregress(x, y),
                                      (ref.slope, ref.intercept, ref.stderr))


# -- stratification --------------------------------------------------------


def test_stratification_static_levels_are_spheres(dist_n1):
    rows = stratification_report(dist_n1, 0.0, [0.2, 0.5, 0.8])
    assert [theta for theta, _ in rows] == [0.2, 0.5, 0.8]
    for _, fit in rows:
        assert fit.relative_rms < 1e-12
        assert abs(fit.a1) < 1e-10


def test_stratification_rotating_levels_not_all_ellipsoids(dist_n1):
    rows = stratification_report(dist_n1, 1e-2, [0.2, 0.5, 0.8])
    rel = [fit.relative_rms for _, fit in rows]
    assert max(rel) > 1e-8
    for _, fit in rows:
        assert fit.converged
    # The level shapes differ: flattening varies through the body.
    a1 = [fit.a1 for _, fit in rows]
    assert max(a1) - min(a1) > 1e-3


def test_fit_report_fields(dist_n1):
    curve = surface_curve(dist_n1, 1e-3)
    fit = fit_ellipsoid(np.column_stack([curve.zeta, curve.values]))
    info = fit.describe()
    assert set(info) == {
        "a0",
        "a1",
        "rms_residual",
        "max_residual",
        "relative_rms",
        "converged",
        "iterations",
    }
    assert isinstance(fit, EllipsoidFit)
    assert info["relative_rms"] == pytest.approx(fit.rms_residual / fit.a0)
