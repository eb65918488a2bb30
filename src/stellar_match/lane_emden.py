"""Classic polytrope profile: theta'' + (2/xi) theta' + theta^n = 0.

Solved with theta(0) = 1, theta'(0) = 0 via a series start at a small offset
(the origin is a removable singularity of the radial Laplacian).  The first
zero xi1 gives the surface, mu1 = -xi1^2 theta'(xi1) the mass integral.

The profile is integrated with `ode.solve`, the package's DOP853
integrator, and the surface is its terminal event: the step to it is redone
to end at xi1, so theta'(xi1), and mu1 with it, come from a step none of
whose stages sees the vacuum branch (mu1 = 2 sqrt 6 to roundoff at n = 0).
The right-hand side uses (theta v 0)^n, so trial stages past the zero see
the vacuum equation.  Past xi1 theta is that equation's solution in closed
form, the point mass's potential mu1 (1/xi - 1/xi1): the distorted surface
of a slowly rotating body pokes outside xi1 on the equator.

`_solve_to_surface` is the one search for the surface: `solve` runs it on
theta alone, `distortion.solve_distortion` on theta and the rotational
responses.  `RadialProfile` is a piecewise function read off its dense
output: the center series, the dense rows up to xi1 (optionally of
f / xi^power, as for the quadrupole response), and a vacuum solution
matched in value and slope there.  `evaluate` reads several profiles of
one dense output with one evaluation of it.
"""

from __future__ import annotations

import numpy as np

from . import ode
from .errors import NonTerminationError

# Series start, surface-search guard and default tolerances.
XI_START = 1e-4
XI_MAX = 1e4
RTOL = 1e-12
ATOL = 1e-14
# theta has a finite first zero only for n below N_MAX
N_MAX = 5.0


def _source(theta, n):
    """(theta v 0)^n of a float, with (theta v 0)^0 = 1 only inside."""
    return theta**n if theta > 0.0 else 0.0


def _theta_series(xi, n):
    """Regular center of theta: 1 - xi^2/6 + n xi^4/120 and its derivative."""
    return 1.0 - xi**2 / 6.0 + n * xi**4 / 120.0, -xi / 3.0 + n * xi**3 / 30.0


def _theta_vacuum(xi1, _f1, df1):
    """theta = mu1 (1/xi - 1/xi1) with mu1 = -xi1^2 theta'(xi1), as terms."""
    mu1 = -xi1**2 * df1
    return ((-mu1 / xi1, 0), (mu1, -1))


class RadialProfile:
    """A radial function f and its slope f' on [0, inf) for the polytrope
    ``base`` (its n, xi1 and dense output), read as f = xi^power g up to
    xi1: below XI_START g and g' are the regular center ``series(xi, n)``,
    up to xi1 rows ``row`` and ``row + 1`` of ``base.dense``.  Past
    xi1 f is the vacuum solution matched to f(xi1) and f'(xi1), a sum of
    powers, f = sum c xi^p over the (c, p) terms of
    ``vacuum(xi1, f1, df1)``, kept as the ``vacuum`` attribute.  With
    power 0, g is f itself."""

    def __init__(self, base, row, series, vacuum, power=0):
        self.xi1 = base.xi1
        self._n = base.n
        self._dense = base.dense
        self._row = row
        self._series = series
        self._power = power
        surf = self._dense(self.xi1)[row:row + 2]
        self.surface_value = float(_scaled(surf, self.xi1, power, 0))
        self.surface_slope = float(_scaled(surf, self.xi1, power, 1))
        self.vacuum = vacuum(self.xi1, self.surface_value, self.surface_slope)

    def at(self, xi):
        return evaluate((self,), xi)[0]

    def d_at(self, xi):
        return evaluate((self,), xi, 1)[0]


def _scaled(g, xi, power, component):
    """f (component 0) or f' (component 1) of f = xi^power g from the pair
    (g, g'): xi^power g and power xi^(power-1) g + xi^power g'."""
    if not power:
        return g[component]
    if component == 0:
        return xi**power * g[0]
    return power * xi ** (power - 1) * g[0] + xi**power * g[1]


def evaluate(profiles, xi, component=0):
    """Values (component 0) or slopes (component 1) at xi of RadialProfiles
    of one base polytrope that read one dense output, in a list, one entry
    per profile: a float for a float xi, else an array.  The dense output
    is evaluated once for all of them."""
    first = profiles[0]
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 0
    xi = np.atleast_1d(xi)
    if np.any(xi < 0.0):
        raise ValueError("xi must be nonnegative")
    core = xi < XI_START
    beyond = xi > first.xi1
    mid = ~core & ~beyond
    inner, central, s = xi[core], xi[mid], xi[beyond]
    rows = first._dense(central) if central.size else None
    outs = []
    for profile in profiles:
        out = np.empty_like(xi)
        if inner.size:
            out[core] = _scaled(profile._series(inner, profile._n), inner,
                                profile._power, component)
        if rows is not None:
            out[mid] = _scaled(rows[profile._row:profile._row + 2], central,
                               profile._power, component)
        if s.size:
            if component == 0:
                out[beyond] = sum(c * s**p for c, p in profile.vacuum)
            else:
                out[beyond] = sum(c * p * s ** (p - 1)
                                  for c, p in profile.vacuum)
        outs.append(float(out[0]) if scalar else out)
    return outs


class LaneEmdenSolution:
    """Profile with located surface: ``theta``, the RadialProfile of rows
    0-1 of ``dense``.  theta_at/dtheta_at evaluate it on [0, xi1];
    theta.at also past xi1, on the vacuum solution."""

    def __init__(self, n, xi1, dense):
        self.n = float(n)
        self.xi1 = float(xi1)
        self.dense = dense
        self.theta = RadialProfile(self, 0, _theta_series, _theta_vacuum)
        self.mu1 = -self.xi1**2 * self.theta.surface_slope

    def _inside(self, xi):
        if np.any(np.asarray(xi) > self.xi1 * (1.0 + 1e-12)):
            raise ValueError("xi outside [0, %.6g]" % self.xi1)

    def theta_at(self, xi):
        """theta on [0, xi1]."""
        self._inside(xi)
        return self.theta.at(xi)

    def dtheta_at(self, xi):
        """theta' on [0, xi1]."""
        self._inside(xi)
        return self.theta.d_at(xi)


def _solve_to_surface(n, rhs, y0, rtol, atol):
    """The LaneEmdenSolution of rhs, integrated from the series state y0
    at XI_START to the first zero of its row 0, theta.  Raises
    NonTerminationError for n >= 5 (no finite zero) without integrating,
    for an integrator failure, and for no zero below XI_MAX."""
    if n >= N_MAX:
        raise NonTerminationError(
            "no-finite-zero", "theta has no zero for n >= 5 (n = %g)" % n)

    def surface(_xi, y):
        return y[0]
    surface.direction = -1

    sol = ode.solve(rhs, (XI_START, XI_MAX), y0, rtol, atol, [surface])
    if not sol.success:
        raise NonTerminationError("integrator-failure", sol.message)
    if sol.event != 0:
        raise NonTerminationError(
            "no-zero-within-guard",
            "no surface located below xi = %g (n = %g)" % (XI_MAX, n))
    return LaneEmdenSolution(n, sol.t[-1], sol.sol)


def solve(n, rtol=RTOL, atol=ATOL):
    """Integrate theta alone to its first zero.

    n = 0 is accepted (closed form 1 - xi^2/6); n >= 5 has no finite zero
    and raises NonTerminationError without integrating; n < 0 raises
    ValueError.
    """
    n = float(n)
    if n < 0.0:
        raise ValueError("polytropic index must be >= 0, got %r" % n)

    def rhs(xi, y):
        theta, dtheta = y
        return [dtheta, -_source(theta, n) - 2.0 * dtheta / xi]

    return _solve_to_surface(n, rhs, list(_theta_series(XI_START, n)),
                             rtol, atol)
