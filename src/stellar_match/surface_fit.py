"""Ellipsoid fits to distorted surfaces and the residual scaling law.

An axisymmetric ellipsoid cut along zeta = cos(polar angle) has radius
r = a0 / sqrt(1 + a1 zeta^2).  The distorted boundary of a slowly
rotating polytrope is instead quadratic in zeta^2 only through first
order in the rotation parameter b, so the best ellipsoid misses it by a
zeta^4 term of size O(b^2).  "The surface is not an ellipsoid" is
operationalized here as that scaling law: rms residual proportional to
b^2 (log-log slope 2), rather than as a pointwise statement, because an
ellipsoid with a1 = O(b) does match the surface to first order.

Each fit is a variable projection (Golub & Pereyra 1973): a0 is linear
given a1, so the least-squares ellipsoid is one bracketed root of the
reduced gradient in a1, which fixes a1 to about eps over its slope rather
than to the sqrt(eps) width of a flat minimum.

Nothing in these fits claims an impossibility proof; the reports carry
numbers only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distortion import (FIRST_ORDER_ADVISORY_B, LEVEL_MARGIN, ZETA_GRID_POINTS,
                         level_surface, surface_curve)
from .errors import FitConvergenceError
from .roots import brentq

# The fit's bracket search runs in s = ln(1 + a1): its first step, and the
# largest |s| it tries (axis ratios sqrt(1 + a1) up to e^15 either way).
FIRST_STEP = 1e-3
S_LIMIT = 30.0
# All rms values below roundoff_scale times this mark a degenerate scaling.
DEGENERATE_RMS_FACTOR = 1e-12


@dataclass(frozen=True)
class EllipsoidFit:
    """Least-squares fit of r = a0 / sqrt(1 + a1 zeta^2).  ``converged`` is
    always True (a failed fit raises); ``iterations`` counts evaluations of
    the reduced gradient."""

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
    if not np.all(np.isfinite(arr)):
        raise ValueError("zeta and radius samples must be finite")
    zeta, r = arr[:, 0], arr[:, 1]
    if np.any(np.abs(zeta) > 1.0 + 1e-12):
        raise ValueError("zeta samples must lie in [-1, 1]")
    if np.any(r <= 0.0):
        raise ValueError("radius samples must be positive")
    return zeta, r


def _initial_s(zeta, r):
    """ln(1 + a1) through the equatorial and the most polar sample,
    (r_eq / r_pole)^2 = 1 + a1 zeta_pole^2, kept within S_LIMIT."""
    z2 = zeta**2
    k = int(np.argmax(z2))
    if z2[k] < 1e-12:
        return 0.0
    a1 = ((float(r[np.argmin(z2)]) / float(r[k])) ** 2 - 1.0) / float(z2[k])
    return min(math.log1p(max(a1, -1.0 + 1e-9)), S_LIMIT)


def fit_ellipsoid(samples):
    """Least-squares ellipsoid through (zeta, r) samples by variable
    projection (Golub & Pereyra 1973, SIAM J. Numer. Anal. 10, 413).

    For fixed a1 the best a0 is linear, a0 = (r.g)/(g.g) with
    g = (1 + a1 zeta^2)^(-1/2), so the sum of squares depends on a1 alone
    and falls with a1 where F = (r.g')(g.g) - (r.g)(g.g') is positive
    (g' = dg/da1 = -zeta^2 g^3 / 2).  From the two-point guess, doubling
    steps in s = ln(1 + a1) go downhill until F changes sign, and one
    brentq solves F = 0 on that bracket.  In s, 1 + a1 zeta^2 stays
    positive on all of [-1, 1].  Raises FitConvergenceError when the sum of
    squares still falls at |s| = S_LIMIT.
    """
    zeta, r = _validate_samples(samples)
    z2 = zeta**2
    calls = 0

    def shape(s):
        return 1.0 / np.sqrt(1.0 + math.expm1(s) * z2)

    def gradient(s):
        nonlocal calls
        calls += 1
        g = shape(s)
        dg = -0.5 * z2 * g**3
        return (r @ dg) * (g @ g) - (r @ g) * (g @ dg)

    s = _initial_s(zeta, r)
    f = gradient(s)
    step = math.copysign(FIRST_STEP, f)
    while f != 0.0:
        s_next = min(max(s + step, -S_LIMIT), S_LIMIT)
        if s_next == s:
            raise FitConvergenceError(
                "ellipsoid fit: the sum of squares still falls at a1 = %.6g; "
                "no stationary point with 1 + a1 > 0" % math.expm1(s))
        f_next = gradient(s_next)
        if np.sign(f_next) != np.sign(f):
            s = brentq(gradient, min(s, s_next), max(s, s_next),
                       xtol=np.finfo(float).eps)
            break
        s, f, step = s_next, f_next, 2.0 * step
    g = shape(s)
    a0 = float(r @ g) / float(g @ g)
    e = r - a0 * g
    return EllipsoidFit(
        a0=a0,
        a1=math.expm1(s),
        rms_residual=float(np.sqrt(np.mean(e**2))),
        max_residual=float(np.max(np.abs(e))),
        converged=True,
        iterations=calls,
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
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(rms))):
        raise ValueError("(b, rms) pairs must be finite")
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
    two or more decades, all within the first-order range
    0 < b <= FIRST_ORDER_ADVISORY_B.
    """
    b_values = [float(b) for b in b_values]
    if len(b_values) < 4:
        return "need at least 4 rotation parameters"
    if any(np.diff(b_values) <= 0.0):
        return "b values must be strictly increasing"
    if b_values[0] <= 0.0:
        return "b values must be positive"
    if b_values[-1] > FIRST_ORDER_ADVISORY_B:
        return "b values beyond %g leave the first-order range" % FIRST_ORDER_ADVISORY_B
    if b_values[-1] / b_values[0] < 100.0 * (1.0 - 1e-12):
        return "b values must span at least two decades"
    return None


def residual_scaling(dist, b_values, zeta=None):
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
        fit = fit_ellipsoid(np.column_stack([curve.zeta, curve.values]))
        pairs.append((b, fit.rms_residual))
    return scaling_from_pairs(pairs, roundoff_scale=dist.base.xi1)


def stratification_report(dist, b, levels, zeta=None, margin=LEVEL_MARGIN):
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
        fit = fit_ellipsoid(np.column_stack([ls.zeta, ls.xi_star]))
        report.append((float(theta_star), fit))
    return report
