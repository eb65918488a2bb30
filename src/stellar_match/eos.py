"""Barotropic equation of state with a truncated relativistic correction series.

The pressure law is

    P(rho) = A * rho**gamma * (1 + Lam(x)),    x = A * rho**(gamma-1) / c**2,

where Lam is a polynomial with Lam(0) = 0, stored as coefficients
(lam_1, lam_2, ...).  Setting c = inf (the nonrelativistic mode) kills the
correction and leaves the pure polytrope P = A * rho**gamma.

The EOS is usable where P > 0 and 0 < dP/drho < c**2.  With a truncated
correction series that holds only on a bounded density interval; the upper
endpoint is located at construction time and reported as a diagnostic
(`rho_valid_max`), and state conversions refuse densities beyond it.

Enthalpy conventions.  In relativistic mode the integration variable is the
dimensionless  h(P) = int_0^P dP' / (rho c^2 + P'),  in nonrelativistic mode
the specific enthalpy  u(P) = int_0^P dP' / rho.  Both are strictly increasing
in P, vanish at P = 0, and c^2 h -> u as c -> inf.

Density from enthalpy.  The pure polytrope inverts h or u in closed form.
With Lam != 0 the first lookup builds a table of ln rho as a function of h:
one ODE solve of  d ln rho/dh = (rho c^2 + P) / (rho dP/drho)  (the
enthalpy-as-variable form of Lindblom 1992, ApJ 398, 569), seeded by the
closed form at 1e-16 rho_valid_max and stopped by an event at the validity
bound.  Every later lookup, including each call from a TOV right-hand side,
is one evaluation of its dense output; below the seed the closed form is
used, past the bound ln rho continues linearly with the ODE's end slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from .errors import EosValidityError

# Soft bounds on the adiabatic exponent; outside them the constructor only
# raises a flag, it does not refuse to build the EOS.
GAMMA_SOFT_MIN = 1.2
GAMMA_SOFT_MAX = 2.0

_VALIDITY_PROBE_X_MIN = 1e-10
_VALIDITY_PROBE_X_MAX = 1e6
_VALIDITY_PROBE_POINTS = 481
# rtol and atol of the h -> ln rho table (atol is in ln rho).
_TABLE_TOL = 1e-13
_LN2 = math.log(2.0)
_LOG_RHO_FLOOR = math.log(1e-300)


@dataclass(frozen=True)
class PolytropeIndex:
    """Pair (gamma, n) with n = 1/(gamma - 1)."""

    gamma: float
    n: float

    @classmethod
    def from_gamma(cls, gamma: float) -> "PolytropeIndex":
        if gamma <= 1.0:
            raise ValueError("gamma must exceed 1")
        return cls(gamma=float(gamma), n=1.0 / (gamma - 1.0))

    @classmethod
    def from_n(cls, n: float) -> "PolytropeIndex":
        if n <= 0.0:
            raise ValueError("polytropic index must be positive")
        return cls(gamma=1.0 + 1.0 / n, n=float(n))


class EosSpec:
    """Equation of state P = A rho^gamma (1 + Lam(A rho^(gamma-1)/c^2)).

    Parameters
    ----------
    gamma : adiabatic exponent, > 1.  Values outside (6/5, 2) set
        `gamma_warning` instead of raising.
    A : pressure constant, > 0.
    c_light : speed of light; math.inf selects the nonrelativistic mode.
    lambda_coeffs : coefficients (lam_1, lam_2, ...) of the correction
        polynomial; empty means Lam == 0.
    rho_assert_max : if given, the constructor verifies the validity
        inequalities on (0, rho_assert_max] and raises when they fail there.
    """

    def __init__(self, gamma, A=1.0, c_light=math.inf, lambda_coeffs=(),
                 rho_assert_max=None):
        if not gamma > 1.0:
            raise ValueError("gamma must exceed 1, got %r" % (gamma,))
        if not A > 0.0:
            raise ValueError("A must be positive, got %r" % (A,))
        if not c_light > 0.0:
            raise ValueError("c_light must be positive, got %r" % (c_light,))
        self.gamma = float(gamma)
        self.A = float(A)
        self.c_light = float(c_light)
        self.lambda_coeffs = tuple(float(l) for l in lambda_coeffs)
        self.gamma_warning = not (GAMMA_SOFT_MIN < self.gamma < GAMMA_SOFT_MAX)
        self.index = PolytropeIndex.from_gamma(self.gamma)

        self.rho_valid_max, self.validity_binding, self.validity_probe_capped \
            = self._locate_validity_bound()
        if rho_assert_max is not None:
            if rho_assert_max > self.rho_valid_max * (1.0 + 1e-12):
                raise EosValidityError(
                    "EOS inequalities fail inside the requested range: "
                    "valid up to rho = %.6g (%s), requested %.6g"
                    % (self.rho_valid_max, self.validity_binding,
                       rho_assert_max))

    # -- basic structure ---------------------------------------------------

    @property
    def nonrelativistic(self):
        return math.isinf(self.c_light)

    @property
    def pure_polytrope(self):
        """True when the correction series is absent or inert (c = inf)."""
        return self.nonrelativistic or not self.lambda_coeffs

    def _x_of_rho(self, rho):
        if self.nonrelativistic:
            return np.zeros_like(np.asarray(rho, dtype=float))
        return self.A * np.power(rho, self.gamma - 1.0) / self.c_light**2

    def _lam(self, x):
        out = np.zeros_like(np.asarray(x, dtype=float))
        for k, lam_k in enumerate(self.lambda_coeffs, start=1):
            out = out + lam_k * np.power(x, k)
        return out

    def _lam_prime(self, x):
        out = np.zeros_like(np.asarray(x, dtype=float))
        for k, lam_k in enumerate(self.lambda_coeffs, start=1):
            out = out + k * lam_k * np.power(x, k - 1)
        return out

    # -- validity ----------------------------------------------------------

    def _inequality_margins(self, rho):
        """(P, dP/drho, c^2 - dP/drho) at rho; all must be positive."""
        p = self._pressure_raw(rho)
        csq = self.sound_speed_sq(rho)
        return p, csq, self.c_light**2 - csq

    def _locate_validity_bound(self):
        if self.nonrelativistic:
            return math.inf, "none", False
        x_grid = np.logspace(math.log10(_VALIDITY_PROBE_X_MIN),
                             math.log10(_VALIDITY_PROBE_X_MAX),
                             _VALIDITY_PROBE_POINTS)
        rho_grid = (x_grid * self.c_light**2 / self.A) ** (1.0 / (self.gamma - 1.0))
        margins = np.vstack(self._inequality_margins(rho_grid))
        bad = np.any(margins <= 0.0, axis=0)
        if not bad.any():
            return float(rho_grid[-1]), "none", True
        first_bad = int(np.argmax(bad))
        names = ("positive-pressure", "monotone", "causal")
        which = names[int(np.argmin(margins[:, first_bad]))]
        if first_bad == 0:
            return 0.0, which, False
        lo, hi = rho_grid[first_bad - 1], rho_grid[first_bad]

        # Bisect in log-rho on the worst-margin sign change.
        def worst_margin(t):
            p, csq, gap = self._inequality_margins(math.exp(t))
            return float(min(p, csq, gap))

        t_star = brentq(worst_margin, math.log(lo), math.log(hi), xtol=1e-13)
        return float(math.exp(t_star)), which, False

    def valid_at(self, rho):
        """Assumption inequalities hold at this density."""
        if rho < 0.0:
            return False
        if rho == 0.0:
            return True
        p, csq, gap = self._inequality_margins(float(rho))
        return bool(p > 0.0 and csq > 0.0 and gap > 0.0)

    def _require_valid_rho(self, rho):
        r = np.asarray(rho, dtype=float)
        if np.any(r < 0.0):
            raise EosValidityError("negative density")
        if np.any(r > self.rho_valid_max * (1.0 + 1e-9)):
            raise EosValidityError(
                "density %.6g beyond validity bound %.6g (%s inequality)"
                % (float(np.max(r)), self.rho_valid_max, self.validity_binding))

    # -- state conversions -------------------------------------------------

    def _pressure_raw(self, rho):
        rho = np.asarray(rho, dtype=float)
        base = self.A * np.power(rho, self.gamma)
        if self.pure_polytrope:
            return base
        return base * (1.0 + self._lam(self._x_of_rho(rho)))

    def pressure_of_density(self, rho):
        """P(rho); scalar in, scalar out (arrays pass through elementwise)."""
        self._require_valid_rho(rho)
        out = self._pressure_raw(rho)
        return float(out) if np.isscalar(rho) or np.ndim(rho) == 0 else out

    def sound_speed_sq(self, rho):
        """dP/drho.  Purely diagnostic: no validity gate, so it can be used
        to *find* the validity bound."""
        rho = np.asarray(rho, dtype=float)
        lead = self.A * self.gamma * np.power(rho, self.gamma - 1.0)
        if self.pure_polytrope:
            out = lead
        else:
            x = self._x_of_rho(rho)
            out = self.A * np.power(rho, self.gamma - 1.0) * (
                self.gamma * (1.0 + self._lam(x))
                + (self.gamma - 1.0) * x * self._lam_prime(x))
        return float(out) if np.ndim(rho) == 0 else out

    def density_of_pressure(self, p):
        """Inverse of pressure_of_density on the validity range."""
        if p < 0.0:
            raise EosValidityError("negative pressure")
        if p == 0.0:
            return 0.0
        guess = (p / self.A) ** (1.0 / self.gamma)
        if self.pure_polytrope:
            self._require_valid_rho(guess)
            return guess
        p_max = float(self._pressure_raw(self.rho_valid_max))
        if p > p_max * (1.0 + 1e-9):
            raise EosValidityError(
                "pressure %.6g beyond validity bound %.6g" % (p, p_max))
        if p >= p_max:
            return self.rho_valid_max
        # Bracket and solve in log-rho, so the bracket tolerance is relative
        # and the bracket signs are those of the points brentq evaluates
        # (exp(log(rho)) need not round back to rho).
        def excess(t):
            return float(self._pressure_raw(math.exp(t))) - p

        t_lo = t_hi = math.log(guess)
        t_max = math.log(self.rho_valid_max)
        while excess(t_lo) > 0.0 and t_lo > _LOG_RHO_FLOOR:
            t_lo -= _LN2
        while excess(t_hi) < 0.0 and t_hi < t_max:
            t_hi = min(t_hi + _LN2, t_max)
        t = brentq(excess, t_lo, t_hi, xtol=1e-14, maxiter=200)
        return float(math.exp(t))

    # -- enthalpy ----------------------------------------------------------

    def _enthalpy_closed(self, rho):
        """Closed form for Lam == 0 (both modes)."""
        g = self.gamma
        if self.nonrelativistic:
            return self.A * g / (g - 1.0) * np.power(rho, g - 1.0)
        return g / (g - 1.0) * np.log1p(
            self.A * np.power(rho, g - 1.0) / self.c_light**2)

    def _density_of_enthalpy_closed(self, w):
        g = self.gamma
        if self.nonrelativistic:
            return (w * (g - 1.0) / (self.A * g)) ** (1.0 / (g - 1.0))
        y = np.expm1((g - 1.0) * w / g) * self.c_light**2 / self.A
        return y ** (1.0 / (g - 1.0))

    @cached_property
    def _ln_rho_table(self):
        """Dense h -> ln rho map for Lam != 0, built on first use: one ODE
        solve in h,

            d ln rho / dh = (rho c^2 + P) / (rho dP/drho),

        from the closed-form seed at rho_lo = 1e-16 rho_valid_max up to
        ln rho_valid_max, where a terminal event gives h_hi.  The table is
        only built for Lam != 0, which forces a finite c.  Holds
        (dense output, h_lo, h_hi, ln rho at h_hi, d ln rho/dh at h_hi)."""
        rho_lo = self.rho_valid_max * 1e-16
        t_lo, t_hi = math.log(rho_lo), math.log(self.rho_valid_max)
        g, coeffs = self.gamma, self.lambda_coeffs
        x_scale = self.A / self.c_light**2

        def dt_dh(_h, t):
            # The same ratio in x = A rho^(g-1)/c^2, where P/rho = c^2 x (1 +
            # Lam) and dP/drho = c^2 x (g (1 + Lam) + (g-1) x Lam'), summed on
            # floats: the array forms of P and dP/drho cost 16x more per call.
            x = x_scale * math.exp((g - 1.0) * t[0])
            lam = sum(l_k * x**k for k, l_k in enumerate(coeffs, start=1))
            dlam = sum(k * l_k * x**(k - 1)
                       for k, l_k in enumerate(coeffs, start=1))
            return [(1.0 + x * (1.0 + lam))
                    / (x * (g * (1.0 + lam) + (g - 1.0) * x * dlam))]

        def at_bound(_h, t):
            return t[0] - t_hi

        at_bound.terminal = True
        # Below rho_lo the correction is negligible; seed with the closed
        # form.  On the valid range dh/d ln rho = rho dP/drho / (rho c^2 + P)
        # is below 1, so the bound lies within t_hi - t_lo of h_lo.
        h_lo = float(self._enthalpy_closed(rho_lo))
        sol = solve_ivp(dt_dh, (h_lo, h_lo + (t_hi - t_lo)), [t_lo],
                        method="RK45", rtol=_TABLE_TOL, atol=_TABLE_TOL,
                        dense_output=True, events=at_bound)
        h_hi, t_end = float(sol.t[-1]), float(sol.y[0, -1])
        slope = dt_dh(h_hi, [t_end])[0]
        # At a monotone bound dP/drho -> 0, so d ln rho/dh diverges and the
        # steps collapse just short of t_hi.  The h still missing there is
        # at most (t_hi - t_end) / slope; the table must reach the bound to
        # within its tolerance in h.
        if not t_hi - t_end <= _TABLE_TOL * h_hi * slope:
            raise EosValidityError("enthalpy table stops short of the "
                                   "validity bound: " + sol.message)
        return sol.sol, h_lo, h_hi, t_end, slope

    def _rho_of_w_unchecked(self, w):
        """Density from the enthalpy variable, with vacuum continuation
        (w <= 0 -> 0) and saturation past the validity bound, where ln rho
        continues linearly with the end slope of the table.  Used by
        integrator right-hand sides; the public ops add the validity gate."""
        if w <= 0.0:
            return 0.0
        if self.pure_polytrope:
            return float(self._density_of_enthalpy_closed(w))
        sol, h_lo, h_hi, t_hi, slope = self._ln_rho_table
        if w <= h_lo:
            return float(self._density_of_enthalpy_closed(w))
        if w >= h_hi:
            return math.exp(t_hi + (w - h_hi) * slope)
        return math.exp(sol(w)[0])

    def _rho_of_w_array(self, w):
        """_rho_of_w_unchecked over an array of w, branch by branch."""
        w = np.asarray(w, dtype=float)
        rho = np.zeros_like(w)
        closed = w > 0.0
        if not self.pure_polytrope:
            sol, h_lo, h_hi, t_hi, slope = self._ln_rho_table
            table = (w > h_lo) & (w < h_hi)
            saturated = w >= h_hi
            closed &= w <= h_lo
            if table.any():  # the dense output refuses an empty array
                rho[table] = np.exp(sol(w[table])[0])
            rho[saturated] = np.exp(t_hi + (w[saturated] - h_hi) * slope)
        rho[closed] = self._density_of_enthalpy_closed(w[closed])
        return rho

    def enthalpy_of_pressure(self, p):
        """h(P) (relativistic) or u(P) (nonrelativistic mode).

        The general case is an adaptive quadrature in the substituted
        variable s = P'^((gamma-1)/gamma), which removes the P'^(-1/gamma)
        endpoint singularity of 1/rho(P')."""
        if p < 0.0:
            raise EosValidityError("negative pressure")
        if p == 0.0:
            return 0.0
        if self.pure_polytrope:
            rho = self.density_of_pressure(p)
            return float(self._enthalpy_closed(rho))
        self.density_of_pressure(p)  # validity gate
        q = self.gamma / (self.gamma - 1.0)

        def integrand(s):
            pp = s ** q
            rho = self.density_of_pressure(pp)
            if self.nonrelativistic:
                denom = rho
            else:
                denom = rho * self.c_light**2 + pp
            return q * s ** (q - 1.0) / denom

        s_max = p ** (1.0 / q)
        val, _err = quad(integrand, 0.0, s_max, epsabs=0.0, epsrel=1e-12,
                         limit=200)
        return float(val)

    def density_of_enthalpy(self, w):
        """Inverse of enthalpy_of_pressure composed with the pressure law;
        w <= 0 returns 0 (vacuum)."""
        if w <= 0.0:
            return 0.0
        rho = self._rho_of_w_unchecked(w)
        self._require_valid_rho(rho)
        return rho

    def pressure_of_enthalpy(self, w):
        if w <= 0.0:
            return 0.0
        return self.pressure_of_density(self.density_of_enthalpy(w))

    # -- derived scales ----------------------------------------------------

    def length_scale(self, rho_center):
        """Polytrope length a = sqrt(A gamma / (4 pi G (gamma-1)))
        * rho_c^(-(2-gamma)/2), with G = 1."""
        g = self.gamma
        return math.sqrt(self.A * g / (4.0 * math.pi * (g - 1.0))) \
            * rho_center ** (-(2.0 - g) / 2.0)

    def describe(self):
        """JSON-ready summary used by reports and the CLI."""
        return {
            "gamma": self.gamma,
            "a_const": self.A,
            "c_light": "inf" if self.nonrelativistic else self.c_light,
            "lambda_coeffs": list(self.lambda_coeffs),
            "gamma_warning": self.gamma_warning,
            "rho_valid_max": ("inf" if math.isinf(self.rho_valid_max)
                              else self.rho_valid_max),
            "validity_binding": self.validity_binding,
            "validity_probe_capped": self.validity_probe_capped,
        }
