"""Ellipsoid fits to distorted surfaces and the residual scaling law.

An axisymmetric ellipsoid cut along zeta = cos(polar angle) has radius
r = a0 / sqrt(1 + a1 zeta^2).  The distorted boundary of a slowly
rotating polytrope is instead quadratic in zeta^2 only through first
order in the rotation parameter b, so the best ellipsoid misses it by a
zeta^4 term of size O(b^2).  "The surface is not an ellipsoid" is
operationalized here as that scaling law: rms residual proportional to
b^2 (log-log slope 2), rather than as a pointwise statement, because an
ellipsoid with a1 = O(b) does match the surface to first order.

Nothing in these fits claims an impossibility proof; the reports carry
numbers only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distortion import level_surface, surface_curve
from .errors import FitConvergenceError

STEP_TOL = 1e-12
GRAD_TOL = 1e-14
# All rms values below roundoff_scale times this mark a degenerate scaling.
DEGENERATE_RMS_FACTOR = 1e-12
ZETA_GRID_POINTS = 201


@dataclass(frozen=True)
class EllipsoidFit:
    """Damped Gauss-Newton fit of r = a0 / sqrt(1 + a1 zeta^2)."""

    a0: float
    a1: float
    rms_residual: float
    max_residual: float
    converged: bool
    iterations: int

    @property
    def relative_rms(self):
        """rms residual normalized by the fitted equatorial radius."""
        return self.rms_residual / self.a0

    def describe(self):
        return {
            "a0": self.a0,
            "a1": self.a1,
            "rms_residual": self.rms_residual,
            "max_residual": self.max_residual,
            "relative_rms": self.relative_rms,
            "converged": self.converged,
            "iterations": self.iterations,
        }


def _validate_samples(samples):
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 3:
        raise ValueError("need at least 3 samples of (zeta, r)")
    zeta, r = arr[:, 0], arr[:, 1]
    if np.any(np.abs(zeta) > 1.0 + 1e-12):
        raise ValueError("zeta samples must lie in [-1, 1]")
    if np.any(r <= 0.0):
        raise ValueError("radius samples must be positive")
    return zeta, r


def _initial_guess(zeta, r):
    # Equatorial sample anchors a0; the most polar sample sets a1 through
    # the two-point ratio (r_eq / r_pole)^2 = 1 + a1 zeta_pole^2.
    z2 = zeta**2
    a0 = float(r[np.argmin(z2)])
    k = int(np.argmax(z2))
    if z2[k] < 1e-12:
        return a0, 0.0
    a1 = ((a0 / float(r[k])) ** 2 - 1.0) / float(z2[k])
    return a0, max(a1, -1.0 + 1e-9)


def fit_ellipsoid(samples, max_iter=60):
    """Least-squares ellipsoid through (zeta, r) samples.

    Damped Gauss-Newton with the analytic Jacobian; steps are halved
    until the sum of squares does not increase and 1 + a1 zeta^2 stays
    positive on all of [-1, 1].  Convergence means relative step below
    1e-12 or gradient norm below 1e-14.
    """
    zeta, r = _validate_samples(samples)
    z2 = zeta**2
    a = np.array(_initial_guess(zeta, r))

    def admissible_params(p):
        return 1.0 + min(p[1], 0.0) > 0.0

    def residual(p):
        return r - p[0] / np.sqrt(1.0 + p[1] * z2)

    converged = False
    iterations = 0
    e = residual(a)
    for iterations in range(1, max_iter + 1):
        q = 1.0 + a[1] * z2
        rt = np.sqrt(q)
        jac = np.column_stack([1.0 / rt, -0.5 * a[0] * z2 / (q * rt)])
        grad = jac.T @ e
        if np.max(np.abs(grad)) < GRAD_TOL:
            converged = True
            break
        delta = np.linalg.lstsq(jac, e, rcond=None)[0]
        ssr = float(e @ e)
        step = 1.0
        while step > 1e-16:
            cand = a + step * delta
            if admissible_params(cand):
                e_cand = residual(cand)
                if float(e_cand @ e_cand) <= ssr:
                    break
            step *= 0.5
        else:
            # No decrease at any damping: already at the floor.
            converged = True
            break
        rel_step = np.linalg.norm(step * delta) / max(np.linalg.norm(a), 1e-300)
        a = cand
        e = e_cand
        if rel_step < STEP_TOL:
            converged = True
            break
    if not converged:
        raise FitConvergenceError(
            "ellipsoid fit did not converge in %d iterations" % max_iter
        )
    return EllipsoidFit(
        a0=float(a[0]),
        a1=float(a[1]),
        rms_residual=float(np.sqrt(np.mean(e**2))),
        max_residual=float(np.max(np.abs(e))),
        converged=converged,
        iterations=iterations,
    )


@dataclass(frozen=True)
class ScalingReport:
    """Log-log regression of fit residual against rotation parameter."""

    pairs: tuple
    slope: float
    intercept: float
    slope_half_width: float
    degenerate: bool

    def describe(self):
        return {
            "pairs": [list(p) for p in self.pairs],
            "slope": self.slope,
            "intercept": self.intercept,
            "slope_half_width": self.slope_half_width,
            "degenerate": self.degenerate,
        }


def scaling_from_pairs(pairs, roundoff_scale=1.0):
    """Regress log rms on log b.  All residuals at the roundoff floor make
    the slope meaningless; that case is flagged, not raised."""
    pairs = [(float(b), float(rms)) for b, rms in pairs]
    if len(pairs) < 3:
        raise ValueError("need at least 3 (b, rms) pairs for a slope")
    b = np.array([p[0] for p in pairs])
    rms = np.array([p[1] for p in pairs])
    if np.any(np.diff(b) <= 0.0):
        raise ValueError("b values must be strictly increasing")
    degenerate = bool(np.all(rms < DEGENERATE_RMS_FACTOR * roundoff_scale))
    slope, intercept, stderr = _linregress(np.log(b), np.log(np.maximum(rms, 1e-300)))
    return ScalingReport(
        pairs=tuple(pairs),
        slope=float(slope),
        intercept=float(intercept),
        slope_half_width=2.0 * float(stderr),
        degenerate=degenerate,
    )


def _linregress(x, y):
    """(slope, intercept, slope standard error) of the least-squares line,
    with the arithmetic of scipy.stats.linregress, whose import would cost
    every command about 0.5 s of start-up."""
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = math.nan if ssxym == 0 else 0.0
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    slope = ssxym / ssxm
    intercept = np.mean(y) - slope * np.mean(x)
    df = len(x) - 2
    stderr = np.sqrt((1 - r**2) * ssym / ssxm / df) if df else 0.0
    return slope, intercept, stderr


def scaling_ladder_problem(b_values):
    """Why a b ladder cannot carry the residual scaling, or None if it can.

    The regression needs at least 4 strictly increasing b values spanning
    two or more decades, all within the first-order range 0 < b <= 0.05.
    """
    b_values = [float(b) for b in b_values]
    if len(b_values) < 4:
        return "need at least 4 rotation parameters"
    if any(np.diff(b_values) <= 0.0):
        return "b values must be strictly increasing"
    if b_values[0] <= 0.0:
        return "b values must be positive"
    if b_values[-1] > 0.05:
        return "b values beyond 0.05 leave the first-order range"
    if b_values[-1] / b_values[0] < 100.0 * (1.0 - 1e-12):
        return "b values must span at least two decades"
    return None


def residual_scaling(dist, b_values, zeta=None, max_iter=60):
    """Ellipsoid-residual scaling of the distorted surface.

    Fits the boundary curve at each rotation parameter and regresses the
    rms residuals; the non-ellipsoidal quadrupole leaves a slope of 2.
    Raises ValueError for a ladder that ``scaling_ladder_problem`` rejects.
    """
    problem = scaling_ladder_problem(b_values)
    if problem is not None:
        raise ValueError(problem)
    if zeta is None:
        zeta = np.linspace(-1.0, 1.0, ZETA_GRID_POINTS)
    pairs = []
    for b in b_values:
        curve = surface_curve(dist, b, zeta)
        fit = fit_ellipsoid(np.column_stack([curve.zeta, curve.values]), max_iter)
        pairs.append((b, fit.rms_residual))
    return scaling_from_pairs(pairs, roundoff_scale=dist.base.xi1)


def stratification_report(dist, b, levels, zeta=None, margin=1e-3, max_iter=60):
    """Ellipsoid fits of the level surfaces at the given profile levels.

    Level shapes vary with the level because the distortion-to-gradient
    ratio is not constant through the body, so not all of them can be
    ellipsoids at once; the per-level residuals quantify that.  A single
    surface fitting well is consistent with this report: no impossibility
    is asserted for any one level alone.
    """
    if zeta is None:
        zeta = np.linspace(-1.0, 1.0, ZETA_GRID_POINTS)
    report = []
    for theta_star in levels:
        ls = level_surface(dist, b, theta_star, zeta=zeta, margin=margin)
        fit = fit_ellipsoid(np.column_stack([ls.zeta, ls.xi_star]), max_iter)
        report.append((float(theta_star), fit))
    return report
