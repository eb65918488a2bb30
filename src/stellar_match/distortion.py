"""First-order rotational distortion of a polytrope.

A slowly rotating polytrope with rotation parameter b = Omega^2 / (4 pi G
rho_O) keeps a Lane-Emden profile to first order, corrected by two radial
functions: a spherical response h0 and a quadrupolar response psi2,

    (1/xi^2) (xi^2 h0')'   + n theta^(n-1) h0            = 1,
    (1/xi^2) (xi^2 psi2')' + (n theta^(n-1) - 6/xi^2) psi2 = 0,

with regular centers h0 = xi^2/6 + O(xi^4) and psi2 = xi^2 (1 + O(xi^2)).
Matching the quadrupole to a decaying exterior harmonic fixes the
amplitude A2 = -(5/6) xi1^2 / (3 psi2(xi1) + xi1 psi2'(xi1)), which is
negative while psi2(xi1) stays positive for the polytropic range handled
here.  The distorted profile and its boundary are then

    Theta(xi, zeta)  = theta(xi) + b [h0(xi) + A2 psi2(xi) P2(zeta)],
    Xi1(zeta)        = xi1 + (xi1^2 / mu1) [h0(xi1) + A2 psi2(xi1) P2(zeta)] b,

an even curve in zeta = cos(angle from the rotation axis) that bulges at
the equator.  Everything here is first order in b; quadratic remainders
are out of scope.

theta, h0 and psi2 are integrated together as one system from the series
start, as in Chandrasekhar 1933 (MNRAS 93, 390), in one solve that
`lane_emden._solve_to_surface` stops at the first zero of theta: the base
profile (rows 0-1), h0 (rows 2-3) and psi2 (rows 4-5) are read off its one
dense output.  The quadrupole is integrated as Chandrasekhar factors it,
psi2 = xi^2 q with q'' + (6/xi) q' + n theta^(n-1) q = 0 and q(0) = 1:
q is regular at the center, where the 6/xi^2 pole of the psi2 equation
would hold the step size to a few percent of xi, so the state is
(theta, theta', h0, h0', q, q') and psi2 = xi^2 q, psi2' = 2 xi q + xi^2 q'
are read off it (`RadialProfile` with power 2).  Past xi1,
where the equatorial bulge reaches, all three are their vacuum solutions
in closed form, each matched in value and slope at xi1 (`RadialProfile`):
theta = mu1 (1/xi - 1/xi1), h0 = xi^2/6 + c1 + c2/xi and
psi2 = d xi^2 + e xi^-3.  Since A2 d = -1/6, b [h0 + A2 psi2 P2] there is
the centrifugal term b xi^2 (1 - zeta^2)/4 plus decaying monopole and
quadrupole terms: the star's first-order exterior potential.  Theta is
formed from one evaluation of the dense output for theta, h0 and psi2
(`DistortionSolution.distorted`).  Level surfaces Theta = theta_star are
solved for every level and every zeta at once, one bracket per
(level, zeta), with Chandrupatla's bracketing method (Adv. Eng. Softw. 28,
145, 1997), as `roots.chandrupatla`; each bracket iterates on its own, so
a level solved with others has the bits it has alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StellarMatchError
from .lane_emden import (ATOL, RTOL, XI_START, RadialProfile, _solve_to_surface,
                         _theta_series, evaluate)
from .roots import chandrupatla

# Above this rotation parameter the first-order truncation is advisory
# only; surface_fit is the one reader of this bound.
FIRST_ORDER_ADVISORY_B = 0.05
# Smallest polytropic index handled: below it theta^(n-1) diverges at xi1.
N_MIN = 1.0
# Default zeta samples of a boundary or level curve on [-1, 1].
ZETA_GRID_POINTS = 201
# Default distance a level theta_star keeps from 0 and 1.
LEVEL_MARGIN = 1e-3


def legendre_p2(zeta):
    """Second Legendre polynomial, (3 zeta^2 - 1) / 2, on [-1, 1]."""
    zeta = np.asarray(zeta, dtype=float)
    if np.any(np.abs(zeta) > 1.0 + 1e-12):
        raise ValueError("zeta must lie in [-1, 1]")
    out = 0.5 * (3.0 * zeta**2 - 1.0)
    return float(out) if out.ndim == 0 else out


def _h0_series(xi, n):
    """Regular center of h0: xi^2/6 - n xi^4/120 and its derivative."""
    return xi**2 / 6.0 - n * xi**4 / 120.0, xi / 3.0 - n * xi**3 / 30.0


def _q_series(xi, n):
    """Regular center of q = psi2 / xi^2, normalized to psi2's unit xi^2
    leading coefficient: 1 - n xi^2/14 and its derivative."""
    return 1.0 - n * xi**2 / 14.0, -n * xi / 7.0


def _h0_vacuum(xi1, f1, df1):
    """h0 = xi^2/6 + c1 + c2/xi, which solves (1/xi^2)(xi^2 h0')' = 1 with
    no density term, matched to h0 and h0' at xi1, as terms."""
    c2 = xi1**2 * (xi1 / 3.0 - df1)
    return ((1.0 / 6.0, 2), (f1 - xi1**2 / 6.0 - c2 / xi1, 0), (c2, -1))


def _psi2_vacuum(xi1, f1, df1):
    """psi2 = d xi^2 + e xi^-3, the two exterior quadrupole harmonics,
    matched to psi2 and psi2' at xi1, as terms.  d is the growing part that
    A2 d = -1/6 turns into the centrifugal term."""
    d = (3.0 * f1 + xi1 * df1) / (5.0 * xi1**2)
    e = xi1**3 * (2.0 * f1 - xi1 * df1) / 5.0
    return ((d, 2), (e, -3))


def compute_a2(base, psi2):
    """Quadrupole amplitude from decaying exterior matching:
    A2 = -(5/6) xi1^2 / (3 psi2(xi1) + xi1 psi2'(xi1))."""
    denom = 3.0 * psi2.surface_value + base.xi1 * psi2.surface_slope
    if abs(denom) < 1e-12 * max(1.0, abs(psi2.surface_value)):
        raise StellarMatchError(
            "degenerate exterior matching: 3 psi2 + xi1 psi2' vanishes at the surface"
        )
    return -(5.0 / 6.0) * base.xi1**2 / denom


@dataclass
class DistortionSolution:
    """First-order distortion of one Lane-Emden base solution."""

    base: object
    h0: RadialProfile
    psi2: RadialProfile
    a2: float

    def responses(self, xi):
        """[h0(xi), psi2(xi)], from one evaluation of the dense output."""
        return evaluate((self.h0, self.psi2), xi)

    def distorted(self, xi, b, p2):
        """Theta = theta + b (h0 + A2 psi2 P2) at xi, with P2 given as p2,
        from one evaluation of the dense output."""
        theta, h0, psi2 = evaluate((self.base.theta, self.h0, self.psi2), xi)
        return theta + b * (h0 + self.a2 * psi2 * p2)

    def profile(self, points=500):
        """Arrays (xi, h0, psi2) on [0, xi1] for export."""
        xi = np.linspace(0.0, self.base.xi1, points)
        h0, psi2 = self.responses(xi)
        return {"xi": xi, "h0": h0, "psi2": psi2}


def solve_distortion(n):
    """Solve theta and both radial responses in one integration to the
    first zero of theta, and fix the quadrupole amplitude.  n < N_MIN
    raises ValueError, n >= 5 NonTerminationError."""
    n = float(n)
    if n < N_MIN:
        raise ValueError(
            "surface coefficient theta^(n-1) diverges for n < 1; "
            "polytropic index out of the supported range"
        )

    def rhs(xi, y):
        theta, dtheta, h, dh, q, dq = y
        t = theta if theta > 0.0 else 0.0
        coef = n * t ** (n - 1.0)
        return [dtheta, -(t**n) - 2.0 * dtheta / xi,
                dh, 1.0 - coef * h - 2.0 * dh / xi,
                dq, -coef * q - 6.0 * dq / xi]

    y0 = [*_theta_series(XI_START, n), *_h0_series(XI_START, n),
          *_q_series(XI_START, n)]
    base = _solve_to_surface(n, rhs, y0, RTOL, ATOL)
    h0 = RadialProfile(base, 2, _h0_series, _h0_vacuum)
    psi2 = RadialProfile(base, 4, _q_series, _psi2_vacuum, power=2)
    return DistortionSolution(base=base, h0=h0, psi2=psi2,
                              a2=compute_a2(base, psi2))


@dataclass
class SurfaceCurve:
    """Distorted boundary Xi1(zeta) with its quadratic regrouping
    Xi1 = c0 + (c1 - c2 zeta^2) b."""

    b: float
    zeta: np.ndarray
    values: np.ndarray
    c0: float
    c1: float
    c2: float

    def as_rows(self):
        return list(zip(self.zeta.tolist(), self.values.tolist()))


def surface_curve(dist, b, zeta=None):
    """Distorted surface Xi1(zeta) = xi1 + (xi1^2/mu1) field(xi1, zeta) b.

    Also reports the quadratic coefficients c0 = xi1,
    c1 = (xi1^2/mu1)(h0(xi1) - A2 psi2(xi1)/2) and
    c2 = -(3/2)(xi1^2/mu1) A2 psi2(xi1), which regroup the same formula;
    c2 > 0 because A2 < 0 and psi2(xi1) > 0.  Raises StellarMatchError
    where the first-order boundary is not positive at every zeta, which a
    large enough b does at high n.
    """
    if b < 0.0:
        raise ValueError("rotation parameter b must be nonnegative")
    if zeta is None:
        zeta = np.linspace(-1.0, 1.0, ZETA_GRID_POINTS)
    zeta = np.asarray(zeta, dtype=float)
    base = dist.base
    gain = base.xi1**2 / base.mu1
    values = boundary_radius(dist, b, zeta)
    if not np.all(values > 0.0):
        raise StellarMatchError(
            "first-order boundary is not positive at b = %g, n = %g: "
            "min Xi1 = %.6g; b is beyond the first-order range of this index"
            % (b, base.n, np.min(values))
        )
    c0 = base.xi1
    c1 = gain * (dist.h0.surface_value - dist.a2 * dist.psi2.surface_value / 2.0)
    c2 = -1.5 * gain * dist.a2 * dist.psi2.surface_value
    return SurfaceCurve(
        b=float(b),
        zeta=zeta,
        values=values,
        c0=c0,
        c1=c1,
        c2=c2,
    )


def boundary_radius(dist, b, zeta):
    """Xi1 at a single zeta (or array), without building a SurfaceCurve.
    The field at xi1 is read off the responses' stored surface values."""
    base = dist.base
    field = dist.h0.surface_value \
        + dist.a2 * dist.psi2.surface_value * legendre_p2(zeta)
    return base.xi1 + base.xi1**2 / base.mu1 * field * b


@dataclass
class LevelSurface:
    """Curve xi*(zeta) where the distorted profile equals theta_star."""

    theta_star: float
    zeta: np.ndarray
    xi_star: np.ndarray


def level_surface(dist, b, theta_star, zeta=None, margin=LEVEL_MARGIN):
    """Level sets Theta(xi, zeta) = theta_star, one bracketed root per
    level and zeta: a LevelSurface for a float theta_star, else a list of
    them, one per level in order.

    All (level, zeta) pairs are solved at once by Chandrupatla's method
    (roots.chandrupatla, xatol 1e-13, xrtol 4e-15) on the brackets
    [0, Xi1(zeta)], shaped (levels, zeta), which reach past xi1 into the
    equatorial bulge.  Every level must keep ``margin`` away from both the
    center value 1 and the surface value 0 so each bracket straddles it.
    A failed search raises for the first failing level, at its first
    failing zeta.
    """
    levels = np.asarray(theta_star, dtype=float)
    if not np.all((margin <= levels) & (levels <= 1.0 - margin)):
        raise ValueError("theta_star must lie in [margin, 1 - margin]")
    if zeta is None:
        zeta = np.linspace(-1.0, 1.0, ZETA_GRID_POINTS)
    zeta = np.asarray(zeta, dtype=float)
    p2 = legendre_p2(zeta)
    hi = boundary_radius(dist, b, zeta)

    def objective(xi, p2, level):
        return dist.distorted(xi, b, p2) - level

    # objective(0) = 1 - level >= margin > 0, so a bracket without a sign
    # change (status -1) means the level lies beyond hi
    res = chandrupatla(objective, 0.0, hi, args=(p2, levels[..., None]),
                       xatol=1e-13, xrtol=4e-15)
    # one row per level, in the shape of zeta
    xi_star, status = (np.reshape(v, (-1,) + zeta.shape) for v in (res.x, res.status))
    for level, row in zip(levels.ravel(), status):
        if np.any(row == -1):
            k = int(np.argmax(row == -1))
            raise StellarMatchError(
                "level %g not bracketed on [0, %.6g] at zeta = %g" % (level, hi[k], zeta[k])
            )
        if np.any(row):
            k = int(np.argmax(row != 0))
            raise StellarMatchError(
                "level %g root search failed (status %d) at zeta = %g"
                % (level, row[k], zeta[k])
            )
    surfaces = [LevelSurface(theta_star=float(level), zeta=zeta, xi_star=row)
                for level, row in zip(levels.ravel(), xi_star)]
    return surfaces[0] if levels.ndim == 0 else surfaces


def dimensional_scale(rho_o, a_const, gamma, grav=1.0):
    """Length unit a = sqrt(A gamma rho_O^(gamma-2) / (4 pi G (gamma-1)))
    relating xi to physical radius for given surface density and EOS."""
    if rho_o <= 0.0 or a_const <= 0.0 or grav <= 0.0 or gamma <= 1.0:
        raise ValueError("scale needs rho_o, A, G > 0 and gamma > 1")
    return math.sqrt(
        a_const * gamma * rho_o ** (gamma - 2.0) / (4.0 * math.pi * grav * (gamma - 1.0))
    )
