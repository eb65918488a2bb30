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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

        self._h_dense = None  # lazy rho -> h map for the general case
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
        lo, hi = guess, guess
        while self._pressure_raw(lo) > p and lo > 1e-300:
            lo *= 0.5
        while self._pressure_raw(hi) < p and hi < self.rho_valid_max:
            hi = min(hi * 2.0, self.rho_valid_max)
        # Solve in log-rho so the bracket tolerance is relative.
        t = brentq(lambda tt: float(self._pressure_raw(math.exp(tt))) - p,
                   math.log(lo), math.log(hi), xtol=1e-14, maxiter=200)
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

    def _build_h_dense(self):
        """Dense rho -> h map for Lam != 0: one stiff-free ODE solve in
        t = ln rho, reused by every later conversion."""
        rho_hi = self.rho_valid_max
        rho_lo = rho_hi * 1e-16
        t_lo, t_hi = math.log(rho_lo), math.log(rho_hi)

        def dh_dt(t, _h):
            # dh/d(ln rho) = rho dP/drho / (rho c^2 + P); the table is only
            # built for Lam != 0, which forces a finite c.
            rho = math.exp(t)
            p = float(self._pressure_raw(rho))
            csq = float(self.sound_speed_sq(rho))
            return [rho * csq / (rho * self.c_light**2 + p)]

        # Below rho_lo the correction is negligible; seed with the closed form.
        h0 = float(self._enthalpy_closed(rho_lo))
        sol = solve_ivp(dh_dt, (t_lo, t_hi), [h0], method="RK45",
                        rtol=1e-13, atol=h0 * 1e-10, dense_output=True)
        if not sol.success:
            raise EosValidityError("enthalpy table construction failed: "
                                   + sol.message)
        self._h_dense = (sol.sol, t_lo, t_hi, h0,
                         float(sol.sol(t_hi)[0]))

    def _rho_of_w_unchecked(self, w):
        """Density from the enthalpy variable, with vacuum continuation
        (w <= 0 -> 0) and smooth saturation past the validity bound.  Used by
        integrator right-hand sides; the public ops add the validity gate."""
        if w <= 0.0:
            return 0.0
        if self.pure_polytrope:
            return float(self._density_of_enthalpy_closed(w))
        if self._h_dense is None:
            self._build_h_dense()
        sol, t_lo, t_hi, h_lo, h_hi = self._h_dense
        if w <= h_lo:
            return float(self._density_of_enthalpy_closed(w))
        if w >= h_hi:
            slope = (h_hi - float(sol(t_hi - 1e-9)[0])) / 1e-9
            return float(math.exp(t_hi + (w - h_hi) / slope))
        t = brentq(lambda tt: float(sol(tt)[0]) - w, t_lo, t_hi,
                   xtol=1e-14, maxiter=200)
        return float(math.exp(t))

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
