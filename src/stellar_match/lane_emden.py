"""Classic polytrope profile: theta'' + (2/xi) theta' + theta^n = 0.

Solved with theta(0) = 1, theta'(0) = 0 via a series start at a small offset
(the origin is a removable singularity of the radial Laplacian).  The first
zero xi1 gives the surface, mu1 = -xi1^2 theta'(xi1) the mass integral.

The right-hand side uses (theta v 0)^n, so past the zero the integration
continues as the vacuum solution; a short guarded continuation beyond xi1 is
kept internally because the distorted surface of a slowly rotating body pokes
outside xi1 on the equator.  Both stretches are integrated with `ode.solve`,
the package's DOP853 integrator, and the surface is its terminal event: the
step to it is redone to end at xi1, so theta'(xi1), and mu1 with it, come
from a step none of whose stages sees the vacuum branch (mu1 = 2 sqrt 6 to
roundoff at n = 0).
"""

from __future__ import annotations

import numpy as np

from . import ode
from .errors import NonTerminationError

XI_START_DEFAULT = 1e-4
XI_MAX_DEFAULT = 1e4
EXTEND_FACTOR_DEFAULT = 1.35


def _source(theta, n):
    """(theta v 0)^n of a float, with (theta v 0)^0 = 1 only inside."""
    return theta**n if theta > 0.0 else 0.0


def _series_theta(xi, n):
    return 1.0 - xi**2 / 6.0 + n * xi**4 / 120.0


def _series_dtheta(xi, n):
    return -xi / 3.0 + n * xi**3 / 30.0


class LaneEmdenSolution:
    """Profile with located surface.  Evaluate through theta_at/dtheta_at on
    [0, xi1]; the guarded continuation past xi1 is internal."""

    def __init__(self, n, xi1, mu1, dense_in, dense_ext, xi_start, xi_extended):
        self.n = float(n)
        self.xi1 = float(xi1)
        self.mu1 = float(mu1)
        self.xi_start = float(xi_start)
        self.xi_extended = float(xi_extended)
        self._dense_in = dense_in
        self._dense_ext = dense_ext

    @property
    def theta1_prime(self):
        return -self.mu1 / self.xi1**2

    def _eval(self, xi, component, limit):
        xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
        if np.any(xi_arr < 0.0) or np.any(xi_arr > limit * (1.0 + 1e-12)):
            raise ValueError("xi outside [0, %.6g]" % limit)
        out = np.empty_like(xi_arr)
        series = xi_arr < self.xi_start
        if component == 0:
            out[series] = _series_theta(xi_arr[series], self.n)
        else:
            out[series] = _series_dtheta(xi_arr[series], self.n)
        inner = (~series) & (xi_arr <= self.xi1)
        if inner.any():
            out[inner] = self._dense_in(xi_arr[inner])[component]
        outer = xi_arr > self.xi1
        if outer.any():
            out[outer] = self._dense_ext(xi_arr[outer])[component]
        return out[0] if np.ndim(xi) == 0 else out

    def theta_at(self, xi):
        """theta on [0, xi1]."""
        return self._eval(xi, 0, self.xi1)

    def dtheta_at(self, xi):
        """theta' on [0, xi1]."""
        return self._eval(xi, 1, self.xi1)

    def theta_extended(self, xi):
        """theta on [0, xi_extended], continuing the guarded equation past
        the zero (vacuum branch, theta < 0)."""
        return self._eval(xi, 0, self.xi_extended)

    def profile(self, points=500):
        """Arrays (xi, theta, dtheta) spanning [0, xi1] for export."""
        xi = np.linspace(0.0, self.xi1, points)
        return {"xi": xi, "theta": self.theta_at(xi),
                "dtheta": self.dtheta_at(xi)}


def solve(n, rtol=1e-12, atol=1e-14, xi_start=XI_START_DEFAULT,
          xi_max=XI_MAX_DEFAULT, extend_factor=EXTEND_FACTOR_DEFAULT):
    """Integrate to the first zero and a short guarded stretch beyond it.

    n = 0 is accepted (closed form 1 - xi^2/6); n >= 5 has no finite zero
    and raises NonTerminationError without integrating; n < 0 raises
    ValueError.
    """
    n = float(n)
    if n < 0.0:
        raise ValueError("polytropic index must be >= 0, got %r" % n)
    if n >= 5.0:
        raise NonTerminationError(
            "no-finite-zero", "theta has no zero for n >= 5 (n = %g)" % n)

    def rhs(xi, y):
        theta, dtheta = y
        return [dtheta, -_source(theta, n) - 2.0 * dtheta / xi]

    def surface(_xi, y):
        return y[0]
    surface.direction = -1

    y0 = [_series_theta(xi_start, n), _series_dtheta(xi_start, n)]
    sol = ode.solve(rhs, (xi_start, xi_max), y0, rtol, atol, [surface])
    if not sol.success:
        raise NonTerminationError("integrator-failure", sol.message)
    if sol.event != 0:
        raise NonTerminationError(
            "no-zero-within-guard",
            "no surface located below xi = %g (n = %g)" % (xi_max, n))
    xi1 = float(sol.t[-1])
    dtheta1 = sol.sol(xi1)[1]
    mu1 = -xi1**2 * dtheta1

    # vacuum continuation for the distorted-surface work
    xi_ext = extend_factor * xi1
    sol_ext = ode.solve(rhs, (xi1, xi_ext), [0.0, dtheta1], rtol, atol)
    if not sol_ext.success:
        raise NonTerminationError("integrator-failure", sol_ext.message)

    return LaneEmdenSolution(n=n, xi1=xi1, mu1=mu1, dense_in=sol.sol,
                             dense_ext=sol_ext.sol, xi_start=xi_start,
                             xi_extended=xi_ext)
