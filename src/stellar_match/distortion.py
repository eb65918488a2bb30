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

theta, h0 and psi2 are integrated together as one system
(theta, theta', h0, h0', psi2, psi2') from the series start, as in
Chandrasekhar 1933 (MNRAS 93, 390), so the right-hand side never looks up
the base profile; like the base profile, it runs on `ode.solve`.  A level
surface Theta = theta_star is solved for every zeta at once with
Chandrupatla's bracketing method (Adv. Eng. Softw. 28, 145, 1997), as
`roots.chandrupatla`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ode
from .errors import StellarMatchError
from .lane_emden import _series_dtheta, _series_theta
from .roots import chandrupatla

# Above this rotation parameter the first-order truncation is advisory only.
FIRST_ORDER_ADVISORY_B = 0.05
# Smallest polytropic index handled: below it theta^(n-1) diverges at xi1.
N_MIN = 1.0
# Default zeta samples of a boundary or level curve on [-1, 1].
ZETA_GRID_POINTS = 201
# Default distance a level theta_star keeps from 0 and 1.
LEVEL_MARGIN = 1e-3
# Radial evaluations may overshoot xi1 by at most this much (Taylor range).
EXTENSION_SPAN = 0.5


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


def _psi2_series(xi, n):
    """Regular center of psi2, normalized to unit xi^2 leading coefficient:
    xi^2 (1 - n xi^2/14) and its derivative."""
    return xi**2 * (1.0 - n * xi**2 / 14.0), 2.0 * xi - 4.0 * n * xi**3 / 14.0


class RadialSolution:
    """One radial response on [0, xi1]: series core, dense middle, and a
    short linear Taylor extension past the surface for evaluating inside
    the rotational bulge.  ``dense`` is the coupled dense output; the
    response and its derivative are its rows ``row`` and ``row + 1``."""

    def __init__(self, base, dense, row, series):
        self.base = base
        self.xi1 = base.xi1
        self._dense = dense
        self._row = row
        self._xi_start = base.xi_start
        self._series = series
        surf = dense(self.xi1)
        self._f1, self._df1 = float(surf[row]), float(surf[row + 1])

    def _eval(self, xi, component):
        xi = np.asarray(xi, dtype=float)
        scalar = xi.ndim == 0
        xi = np.atleast_1d(xi)
        if np.any(xi < 0.0) or np.any(xi > self.xi1 + EXTENSION_SPAN):
            raise ValueError("xi outside [0, xi1 + extension span]")
        out = np.empty_like(xi)
        core = xi < self._xi_start
        beyond = xi > self.xi1
        mid = ~core & ~beyond
        if np.any(core):
            out[core] = self._series(xi[core], self.base.n)[component]
        if np.any(mid):
            out[mid] = self._dense(xi[mid])[self._row + component]
        if np.any(beyond):
            s = xi[beyond] - self.xi1
            if component == 0:
                out[beyond] = self._f1 + self._df1 * s
            else:
                out[beyond] = self._df1
        return float(out[0]) if scalar else out

    def at(self, xi):
        return self._eval(xi, 0)

    def d_at(self, xi):
        return self._eval(xi, 1)

    @property
    def surface_value(self):
        return self._f1

    @property
    def surface_slope(self):
        return self._df1


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
    h0: RadialSolution
    psi2: RadialSolution
    a2: float

    def distortion_field(self, xi, zeta):
        """Combined response h0(xi) + A2 psi2(xi) P2(zeta)."""
        return self.h0.at(xi) + self.a2 * self.psi2.at(xi) * legendre_p2(zeta)

    def profile(self, points=500):
        """Arrays (xi, h0, psi2) on [0, xi1] for export."""
        xi = np.linspace(0.0, self.base.xi1, points)
        return {"xi": xi, "h0": self.h0.at(xi), "psi2": self.psi2.at(xi)}

    def describe(self):
        return {
            "n": self.base.n,
            "xi1": self.base.xi1,
            "mu1": self.base.mu1,
            "a2": self.a2,
            "h0_surface": self.h0.surface_value,
            "psi2_surface": self.psi2.surface_value,
        }


def integrate_responses(base, rtol=1e-12, atol=1e-14):
    """Dense output of (theta, theta', h0, h0', psi2, psi2') on
    [xi_start, xi1], integrated as one system from the series start; its
    theta reproduces base.theta_at to the integration tolerance."""
    n = base.n

    def rhs(xi, y):
        theta, dtheta, h, dh, p, dp = y
        t = theta if theta > 0.0 else 0.0
        coef = n * t ** (n - 1.0)
        return [
            dtheta,
            -(t**n) - 2.0 * dtheta / xi,
            dh,
            1.0 - coef * h - 2.0 * dh / xi,
            dp,
            (6.0 / xi**2 - coef) * p - 2.0 * dp / xi,
        ]

    xi_s = base.xi_start
    y0 = [
        _series_theta(xi_s, n),
        _series_dtheta(xi_s, n),
        *_h0_series(xi_s, n),
        *_psi2_series(xi_s, n),
    ]
    sol = ode.solve(rhs, (xi_s, base.xi1), y0, rtol, atol)
    if not sol.success:
        raise StellarMatchError("radial response integration failed: %s" % sol.message)
    return sol.sol


def solve_distortion(base, rtol=1e-12, atol=1e-14):
    """Solve both radial responses in one integration with theta and fix
    the quadrupole amplitude."""
    if base.n < N_MIN:
        raise ValueError(
            "surface coefficient theta^(n-1) diverges for n < 1; "
            "polytropic index out of the supported range"
        )
    dense = integrate_responses(base, rtol=rtol, atol=atol)
    h0 = RadialSolution(base, dense, 2, _h0_series)
    psi2 = RadialSolution(base, dense, 4, _psi2_series)
    a2 = compute_a2(base, psi2)
    return DistortionSolution(base=base, h0=h0, psi2=psi2, a2=a2)


@dataclass
class SurfaceCurve:
    """Distorted boundary Xi1(zeta) with its quadratic regrouping
    Xi1 = c0 + (c1 - c2 zeta^2) b.  ``first_order_advisory`` flags
    rotation parameters where the truncation is no longer trustworthy."""

    b: float
    zeta: np.ndarray
    values: np.ndarray
    c0: float
    c1: float
    c2: float
    first_order_advisory: bool = False

    def as_rows(self):
        return list(zip(self.zeta.tolist(), self.values.tolist()))

    def describe(self):
        return {
            "b": self.b,
            "c0": self.c0,
            "c1": self.c1,
            "c2": self.c2,
            "first_order_advisory": self.first_order_advisory,
            "n_zeta": int(len(self.zeta)),
        }


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
        first_order_advisory=b > FIRST_ORDER_ADVISORY_B,
    )


def boundary_radius(dist, b, zeta):
    """Xi1 at a single zeta (or array), without building a SurfaceCurve."""
    base = dist.base
    return base.xi1 + base.xi1**2 / base.mu1 * dist.distortion_field(base.xi1, zeta) * b


def theta_distorted(dist, xi, zeta, b):
    """Distorted profile Theta = theta(xi) + b field(xi, zeta) for
    0 <= xi <= Xi1(zeta).  Past the spherical surface xi1 (inside the
    bulge) theta continues on its vacuum branch."""
    if b < 0.0:
        raise ValueError("rotation parameter b must be nonnegative")
    limit = boundary_radius(dist, b, zeta)
    if xi < 0.0 or xi > limit * (1.0 + 1e-12):
        raise ValueError("xi outside [0, Xi1(zeta)]")
    theta = dist.base.theta_extended(xi) if xi > dist.base.xi1 else dist.base.theta_at(xi)
    return float(theta) + b * dist.distortion_field(xi, zeta)


@dataclass
class LevelSurface:
    """Curve xi*(zeta) where the distorted profile equals theta_star."""

    theta_star: float
    zeta: np.ndarray
    xi_star: np.ndarray

    def as_rows(self):
        return list(zip(self.zeta.tolist(), self.xi_star.tolist()))


def level_surface(dist, b, theta_star, zeta=None, margin=LEVEL_MARGIN):
    """Level set Theta(xi, zeta) = theta_star, one bracketed root per zeta.

    All zeta are solved at once by Chandrupatla's method
    (roots.chandrupatla, xatol 1e-13, xrtol 4e-15) on the brackets
    [0, min(Xi1(zeta), xi1 + EXTENSION_SPAN)]; the cap keeps the bracket
    inside the radial responses' Taylor range when the bulge is large.
    theta_star must keep ``margin`` away from both the center value 1 and
    the surface value 0 so each bracket straddles the level.
    """
    if not (margin <= theta_star <= 1.0 - margin):
        raise ValueError("theta_star must lie in [margin, 1 - margin]")
    if zeta is None:
        zeta = np.linspace(-1.0, 1.0, ZETA_GRID_POINTS)
    zeta = np.asarray(zeta, dtype=float)
    base = dist.base
    p2 = legendre_p2(zeta)
    hi = np.minimum(boundary_radius(dist, b, zeta), base.xi1 + EXTENSION_SPAN)

    def objective(xi, p2):
        field = dist.h0.at(xi) + dist.a2 * dist.psi2.at(xi) * p2
        return base.theta_extended(xi) + b * field - theta_star

    # objective(0) = 1 - theta_star >= margin > 0, so a bracket without a
    # sign change (status -1) means the level lies beyond hi
    res = chandrupatla(objective, 0.0, hi, args=(p2,), xatol=1e-13, xrtol=4e-15)
    unbracketed = res.status == -1
    if np.any(unbracketed):
        k = int(np.argmax(unbracketed))
        raise StellarMatchError(
            "level %g not bracketed on [0, %.6g] at zeta = %g" % (theta_star, hi[k], zeta[k])
        )
    if np.any(res.status):
        k = int(np.argmax(res.status != 0))
        raise StellarMatchError(
            "level %g root search failed (status %d) at zeta = %g"
            % (theta_star, res.status[k], zeta[k])
        )
    return LevelSurface(theta_star=float(theta_star), zeta=zeta, xi_star=res.x)


def dimensional_scale(rho_o, a_const, gamma, grav=1.0):
    """Length unit a = sqrt(A gamma rho_O^(gamma-2) / (4 pi G (gamma-1)))
    relating xi to physical radius for given surface density and EOS."""
    if rho_o <= 0.0 or a_const <= 0.0 or grav <= 0.0 or gamma <= 1.0:
        raise ValueError("scale needs rho_o, A, G > 0 and gamma > 1")
    return math.sqrt(
        a_const * gamma * rho_o ** (gamma - 2.0) / (4.0 * math.pi * grav * (gamma - 1.0))
    )
