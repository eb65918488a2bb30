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
in P, vanish at P = 0, and c^2 h -> u as c -> inf.  `w_unit` is the unit of
the variable, c^2 for h and 1 for u, so that one set of hydrostatic formulas
in `tov` serves both modes.

Density from enthalpy.  The pure polytrope inverts h or u in closed form.
With Lam != 0 the first lookup builds a table of ln rho as a function of
s = ln h: one ODE solve of  d ln rho/ds = h (rho c^2 + P) / (rho dP/drho)
(the enthalpy-as-variable form of Lindblom 1992, ApJ 398, 569, in ln h)
with the float DOP853 integrator of `ode`, seeded by the closed form at
1e-16 rho_valid_max and stopped by an event at the validity bound.  The
slope tends to 1/(gamma - 1) at low density, so about 60 steps span the
16 decades of h.  Past the bound and below the seed the right-hand side
keeps its value at that end, so trial stages that overshoot get a finite
slope.  Lookups below the seed use the closed form; past the bound ln rho
continues linearly in h with the table's end slope, up to a cap that keeps
rho and P finite.  h(P) inverts the same map: the closed form below the
seed, the linear continuation past the bound, and one bracketed root in s
on the dense output in between, so h -> P -> h round trips to roundoff.

Every float read of (rho, P), each call from a TOV right-hand side
included, goes through one closure per EOS, `_fluid`, built on first use.
It holds the four branches (vacuum, closed form, table, saturation) and
the coefficients of every table step, so a table read is a bisection over
the steps and a Horner sum of the step's 7th-order interpolant at ln w,
with the operations of a float lookup of the dense output.  The array
path, `_rho_of_w_array`, reads the same branches with numpy masks; on the
table and saturation branches it takes the math module's log and exp
element by element, so lanes and scalar solves read the same densities.
One Horner sum gives Lam and Lam' for a float or an array, and the
pressure law is written in plain arithmetic.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import cached_property

import numpy as np

from . import ode
from .errors import EosValidityError
from .roots import brentq

# Soft bounds on the adiabatic exponent; outside them the constructor only
# raises a flag, it does not refuse to build the EOS.
GAMMA_SOFT_MIN = 1.2
GAMMA_SOFT_MAX = 2.0

_VALIDITY_PROBE_X_MIN = 1e-10
_VALIDITY_PROBE_X_MAX = 1e6
_VALIDITY_PROBE_POINTS = 481
# rtol and atol of the ln h -> ln rho table (atol is in ln rho).  The rtol
# is the integrator's floor, 100 eps.
_TABLE_RTOL = 100 * ode.EPS
_TABLE_ATOL = 3e-15
# The table must end within this fraction of h_hi of the validity bound.
_TABLE_REACH = 1e-13
# The table starts at this fraction of rho_valid_max, in closed form.
_TABLE_SEED = 1e-16
# Past the table's end, ln rho grows linearly for at most this much, which
# keeps rho and P finite where trial RK stages overshoot the bound.
_SATURATION_SPAN = 30.0
_LN2 = math.log(2.0)
_LOG_RHO_FLOOR = math.log(1e-300)


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
    """

    def __init__(self, gamma, A=1.0, c_light=math.inf, lambda_coeffs=()):
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
        self.nonrelativistic = math.isinf(self.c_light)
        # Unit of the enthalpy variable w: c^2 for h, 1 for u = lim c^2 h.
        self.w_unit = 1.0 if self.nonrelativistic else self.c_light**2
        # True when the correction series is absent or inert (c = inf).
        self.pure_polytrope = self.nonrelativistic or not self.lambda_coeffs

        self.rho_valid_max, self.validity_binding, self.validity_probe_capped \
            = self._locate_validity_bound()
        self.p_valid_max = self._pressure_raw(self.rho_valid_max)

    # -- basic structure ---------------------------------------------------

    def _series(self, x):
        """(Lam(x), Lam'(x)) by one Horner sum; x a float or an array."""
        lam = dlam = 0.0
        for coeff in reversed((0.0,) + self.lambda_coeffs):
            dlam = dlam * x + lam
            lam = lam * x + coeff
        return lam, dlam

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

        # Bisect in log-rho on the worst-margin sign change.  The root may
        # land on either side of the bound, so keep the largest valid and
        # the smallest invalid density the search evaluates, then halve the
        # floats between them (about ten times) down to the last valid one.
        ends = [float(lo), float(hi)]

        def worst_margin(t):
            rho = math.exp(t)
            margin = min(self._inequality_margins(rho))
            if margin > 0.0:
                ends[0] = max(ends[0], rho)
            else:
                ends[1] = min(ends[1], rho)
            return margin

        brentq(worst_margin, math.log(lo), math.log(hi), xtol=1e-13)
        good, bad = ends
        while True:
            mid = good + 0.5 * (bad - good)
            if mid in (good, bad):
                return good, which, False
            if self.valid_at(mid):
                good = mid
            else:
                bad = mid

    def valid_at(self, rho):
        """Assumption inequalities hold at this density."""
        if rho < 0.0:
            return False
        if rho == 0.0:
            return True
        return min(self._inequality_margins(float(rho))) > 0.0

    def requested_range_error(self, rho_max):
        """The EosValidityError for a requested range (0, rho_max] that
        leaves the valid region, or None when the EOS covers it."""
        if rho_max <= self.rho_valid_max * (1.0 + 1e-12):
            return None
        return EosValidityError(
            "EOS inequalities fail inside the requested range: valid up to "
            "rho = %.6g (%s), requested %.6g"
            % (self.rho_valid_max, self.validity_binding, rho_max))

    def _require_valid_rho(self, rho):
        bound = self.rho_valid_max * (1.0 + 1e-9)
        if isinstance(rho, float):  # the common case: two plain comparisons
            negative, beyond = rho < 0.0, rho > bound
        else:
            r = np.asarray(rho, dtype=float)
            negative, beyond = np.any(r < 0.0), np.any(r > bound)
        if negative:
            raise EosValidityError("negative density")
        if beyond:
            raise EosValidityError(
                "density %.6g beyond validity bound %.6g (%s inequality)"
                % (float(np.max(rho)), self.rho_valid_max,
                   self.validity_binding))

    # -- state conversions -------------------------------------------------

    def _pressure_raw(self, rho):
        """P(rho) without the validity gate; a float or an array of rho."""
        p = self.A * rho ** self.gamma
        if self.pure_polytrope:
            return p
        lam, _dlam = self._series(self.A * rho ** (self.gamma - 1.0)
                                  / self.c_light**2)
        return p * (1.0 + lam)

    def _fluid_of_w(self, w):
        """(rho, P) at the enthalpy variable w (a float or an array),
        unchecked, as a right-hand side reads them: vacuum (0, 0) for
        w <= 0, saturation past the validity bound, and inf where the
        closed form overflows, without a warning, as `_fluid` reads it.  A
        float goes to `_fluid`."""
        if isinstance(w, np.ndarray):
            with np.errstate(over="ignore"):
                rho = self._rho_of_w_array(w)
                return rho, self._pressure_raw(rho)
        return self._fluid(float(w))

    def pressure_of_density(self, rho):
        """P(rho); scalar in, scalar out (arrays pass through elementwise)."""
        self._require_valid_rho(rho)
        if np.ndim(rho) == 0:
            return self._pressure_raw(float(rho))
        return self._pressure_raw(np.asarray(rho, dtype=float))

    def sound_speed_sq(self, rho):
        """dP/drho; a float or an array of rho.  Purely diagnostic: no
        validity gate, so it can be used to *find* the validity bound."""
        lead = self.A * rho ** (self.gamma - 1.0)
        if self.pure_polytrope:
            return self.gamma * lead
        x = lead / self.c_light**2
        lam, dlam = self._series(x)
        return lead * (self.gamma * (1.0 + lam)
                       + (self.gamma - 1.0) * x * dlam)

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
        if p > self.p_valid_max * (1.0 + 1e-9):
            raise EosValidityError("pressure %.6g beyond validity bound %.6g"
                                   % (p, self.p_valid_max))
        if p >= self.p_valid_max:
            return self.rho_valid_max
        # Bracket and solve in log-rho, so the bracket tolerance is relative
        # and the bracket signs are those of the points brentq evaluates
        # (exp(log(rho)) need not round back to rho).
        def excess(t):
            return self._pressure_raw(math.exp(t)) - p

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
        """Inverse of _enthalpy_closed on an array of w."""
        g = self.gamma
        if self.nonrelativistic:
            return (w * (g - 1.0) / (self.A * g)) ** (1.0 / (g - 1.0))
        y = np.expm1((g - 1.0) * w / g) * self.c_light**2 / self.A
        return y ** (1.0 / (g - 1.0))

    @cached_property
    def _ln_rho_table(self):
        """Dense ln h -> ln rho map for Lam != 0, built on first use: one
        ODE solve in s = ln h,

            d ln rho / ds = h (rho c^2 + P) / (rho dP/drho),

        from the closed-form seed at rho_lo = 1e-16 rho_valid_max up to
        ln rho_valid_max, where a terminal event gives ln h_hi.  At low
        density the slope tends to 1/(gamma - 1), so the steps need not
        follow the decades that h spans.  The table is only built for
        Lam != 0, which forces a finite c.  Holds (dense output in s, h_lo,
        h_hi, ln rho at h_hi, d ln rho/dh at h_hi)."""
        rho_lo = self.rho_valid_max * _TABLE_SEED
        t_lo, t_hi = math.log(rho_lo), math.log(self.rho_valid_max)

        def dt_ds(s, t):
            return [math.exp(s) * self._dln_rho_dh(t[0])]

        def at_bound(_s, t):
            return t[0] - t_hi

        # Below rho_lo the correction is negligible; seed with the closed
        # form.  On the valid range dh/d ln rho = rho dP/drho / (rho c^2 + P)
        # is below 1, so the bound lies within t_hi - t_lo of h_lo.
        h_lo = float(self._enthalpy_closed(rho_lo))
        s_span = (math.log(h_lo), math.log(h_lo + (t_hi - t_lo)))
        sol = ode.solve(dt_ds, s_span, [t_lo], _TABLE_RTOL, _TABLE_ATOL,
                        [at_bound])
        h_hi, t_end = math.exp(sol.t[-1]), float(sol.y[0, -1])
        slope = self._dln_rho_dh(t_end)
        # At a monotone bound dP/drho -> 0, so d ln rho/dh diverges and the
        # steps collapse just short of t_hi.  The h still missing there is
        # at most (t_hi - t_end) / slope; the table must reach the bound to
        # within _TABLE_REACH h_hi.
        if not t_hi - t_end <= _TABLE_REACH * h_hi * slope:
            raise EosValidityError("enthalpy table stops short of the "
                                   "validity bound: " + sol.message)
        return sol.sol, h_lo, h_hi, t_end, slope

    def _dln_rho_dh(self, t):
        """d ln rho/dh at ln rho = t, the table's slope before the factor
        h = dh/ds.  Past ln rho_valid_max it keeps its value there, as
        ln rho continues linearly past the table's end, so a trial stage
        that overshoots the bound gets a finite value.  Below the table's
        seed it keeps its value there too: where a monotone bound makes the
        slope at the bound huge, a trial stage can swing far below the
        table, and x = 0 would divide by zero."""
        g = self.gamma
        t = min(max(t, math.log(self.rho_valid_max * _TABLE_SEED)),
                math.log(self.rho_valid_max))
        # The same ratio in x = A rho^(g-1)/c^2, where P/rho = c^2 x (1 +
        # Lam) and dP/drho = c^2 x (g (1 + Lam) + (g-1) x Lam').
        x = self.A / self.c_light**2 * math.exp((g - 1.0) * t)
        lam, dlam = self._series(x)
        return (1.0 + x * (1.0 + lam)) \
            / (x * (g * (1.0 + lam) + (g - 1.0) * x * dlam))

    @cached_property
    def _fluid(self):
        """The float map w -> (rho, P), unchecked, built on first use: the
        one float path of every right-hand side.  Vacuum (0, 0) for w <= 0;
        for a pure polytrope, or below the table's h_lo, the closed form;
        past its h_hi ln rho continues linearly with the table's end slope,
        up to _SATURATION_SPAN; in between, ln rho is the table's step
        interpolant at ln w, read through the coefficients of every step,
        computed here once.  It makes the operations of `_pressure_raw`,
        of the closed form (math.expm1 and float powers) and of a float
        lookup of the dense output, in their order."""
        g, a, csq = self.gamma, self.A, self.c_light**2
        gm1 = g - 1.0
        inv = 1.0 / gm1
        if self.pure_polytrope:
            if self.nonrelativistic:
                ag = a * g

                def closed(w):
                    return (w * gm1 / ag) ** inv
            else:
                def closed(w):
                    return (math.expm1(gm1 * w / g) * csq / a) ** inv

            def fluid(w):
                if w <= 0.0:
                    return 0.0, 0.0
                rho = math.inf
                try:
                    rho = closed(w)
                    return rho, a * rho ** g
                except OverflowError:
                    # a trial stage far past the cap: inf where the float
                    # operation overflows, as numpy reads it on lanes, so
                    # the step is rejected instead of raising
                    return rho, math.inf
            return fluid

        sol, h_lo, h_hi, t_hi, slope = self._ln_rho_table
        keys, coeffs = sol.pieces()  # a forward solve: the keys are s
        last = len(coeffs) - 1
        t_cap = t_hi + _SATURATION_SPAN
        series = tuple(reversed((0.0,) + self.lambda_coeffs))
        horner = ode._horner

        def fluid(w):
            if w <= 0.0:
                return 0.0, 0.0
            if w <= h_lo:
                rho = (math.expm1(gm1 * w / g) * csq / a) ** inv
            elif w >= h_hi:
                rho = math.exp(min(t_hi + (w - h_hi) * slope, t_cap))
            else:
                s = math.log(w)
                i = bisect_left(keys, s) - 1
                if i < 0:
                    i = 0
                elif i > last:
                    i = last
                s_old, h, ((t_old, rows),) = coeffs[i]
                rho = math.exp(horner(t_old, rows, (s - s_old) / h))
            x = a * rho ** gm1 / csq
            lam = 0.0
            for coeff in series:
                lam = lam * x + coeff
            return rho, a * rho ** g * (1.0 + lam)
        return fluid

    def _rho_of_w_array(self, w):
        """The density of `_fluid` over an array of w, branch by branch.
        The table and saturation branches take math.log and math.exp
        element by element, so they give `_fluid`'s bits; the closed form
        runs on numpy, whose expm1 and powers differ from the math
        module's by an ulp at most, which the power 1/(gamma - 1) scales
        to about n + 1 ulp of rho.  A pure polytrope has one branch, the
        closed form, which gives exactly 0 at w = 0, so it runs on
        max(w, 0) without masks."""
        w = np.asarray(w, dtype=float)
        if self.pure_polytrope:
            return self._density_of_enthalpy_closed(np.maximum(w, 0.0))
        rho = np.zeros_like(w)
        sol, h_lo, h_hi, t_hi, slope = self._ln_rho_table
        table = (w > h_lo) & (w < h_hi)
        saturated = w >= h_hi
        closed = (w > 0.0) & (w <= h_lo)
        if table.any():  # the dense output refuses an empty array
            s = np.array([math.log(v) for v in w[table].tolist()])
            rho[table] = [math.exp(t) for t in sol(s)[0].tolist()]
        rho[saturated] = [math.exp(t) for t in np.minimum(
            t_hi + (w[saturated] - h_hi) * slope,
            t_hi + _SATURATION_SPAN).tolist()]
        rho[closed] = self._density_of_enthalpy_closed(w[closed])
        return rho

    def enthalpy_of_pressure(self, p):
        """h(P) (relativistic) or u(P) (nonrelativistic mode); the inverse
        of the density of `_fluid` composed with the pressure law."""
        if p < 0.0:
            raise EosValidityError("negative pressure")
        if p == 0.0:
            return 0.0
        rho = self.density_of_pressure(p)  # also the validity gate
        h = float(self._enthalpy_closed(rho))
        if self.pure_polytrope:
            return h
        sol, h_lo, h_hi, t_hi, slope = self._ln_rho_table
        if h <= h_lo:
            return h
        t = math.log(rho)
        if t >= t_hi:
            return h_hi + (t - t_hi) / slope
        # An absolute tolerance in s = ln h is a relative one in h.
        return math.exp(brentq(lambda s: sol(s)[0] - t, sol.t_min, sol.t_max,
                               xtol=ode.EPS, maxiter=200))

    def density_of_enthalpy(self, w):
        """Inverse of enthalpy_of_pressure composed with the pressure law;
        w <= 0 returns 0 (vacuum)."""
        if w <= 0.0:
            return 0.0
        rho = self._fluid(float(w))[0]
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
