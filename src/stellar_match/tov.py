"""Hydrostatic structure shot both ways, with the inward four-case taxonomy.

State is (m, w) against radius, where w is the enthalpy variable of the EOS:
h = int dP/(rho c^2 + P) in relativistic mode, u = int dP/rho when c = inf.
The pressure equation in this variable,

    dw/dr = -(m + 4 pi r^3 P/c^2) / (c^2 r^2 (1 - 2 m/(c^2 r)))     (G = 1)
    dw/dr = -m / r^2                                                (c = inf)

is regular at the surface, so (m, w) = (M, 0) is a usable starting point for
inward shots, unlike (m, P) = (M, 0) which is an equilibrium of the
pressure-form right-hand side.

Outward shots start from a central pressure with a series start at r0 and end
on the w = 0 event (the surface) or a guard.  Inward shots start from
boundary data (R, M) just inside the surface and end in one of four ways:

    case00  blow-up radius estimate stays above r_floor, P explodes
    case01  |dP/dr| stalls at positive radius with P finite
    case10  blow-up radius estimates shrink below r_floor under refinement
    case11  the center floor is reached with m below the mass floor
            (the regular-center success)

Exits through the metric degeneracy 1 - 2m/(c^2 r) -> 0 or through w -> 0
are reported as labeled exits outside the taxonomy.

Every shot is one or more solves with `ode.solve`, a Dormand-Prince 5(4)
integrator in plain float arithmetic that follows scipy's RK45 step rules,
events and dense output, so its trajectories agree with scipy's RK45 to
roundoff.  A solve whose steps collapse raises StellarMatchError naming
the radius where they did.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ode
from .errors import (AdmissibilityError, EosValidityError, ShootFailureError,
                     StellarMatchError)

# exit labels
EXIT_SURFACE = "surface"
EXIT_R_MAX = "r_max_guard"
EXIT_HORIZON = "horizon"
EXIT_PRESSURE_CEILING = "pressure_ceiling"
EXIT_SLOPE_STALL = "slope_stall"
EXIT_CENTER_FLOOR = "center_floor"
EXIT_CENTER_MASSIVE = "center_floor_massive"
EXIT_VACUUM = "vacuum_reentry"

CASE00 = "case00"
CASE01 = "case01"
CASE10 = "case10"
CASE11 = "case11"

_METRIC_FLOOR = 1e-14
# Margin kept from the metric degeneracy 1 - 2m/(c^2 r) = 0 by the horizon
# events.
HORIZON_MARGIN = 1e-10


@dataclass
class ShootConfig:
    """Integration knobs shared by both directions."""

    rtol: float = 1e-10
    atol_factor: float = 1e-12      # abs tol = atol_factor * natural scale
    r0_factor: float = 1e-6         # center offset in units of the length scale
    dr_factor: float = 1e-6         # surface offset in units of R
    r_max_factor: float = 1e3       # outward guard in units of the length scale


@dataclass
class ClassifyThresholds:
    """Gates for the inward four-case classification.

    Pressure gates scale with p_ref = M^2/R^4, the G = 1 pressure scale
    of the boundary data.  The pressure ceiling is additionally capped
    just below the EOS validity bound, since a truncated correction series
    cannot be followed to arbitrary pressure.
    """

    r_floor_factor: float = 1e-6
    m_floor_factor: float = 1e-5
    p_ceiling_factor: float = 1e6
    slope_floor_factor: float = 1e-8
    refinements: int = 2


class TovTrajectory:
    """Accepted integration steps plus the dense interpolant.

    Columns r, m and w are stored; P and rho are recovered through the EOS
    on demand.  f_const is the additive constant fixing the time metric
    coefficient, F = f_const - w (relativistic runs only)."""

    def __init__(self, eos, direction, sol, exit_label, f_const=None):
        self.eos = eos
        self.direction = direction
        self.exit = exit_label
        self.dense = sol.sol
        self.r = np.asarray(sol.t, dtype=float)
        self.m = np.asarray(sol.y[0], dtype=float)
        self.w = np.asarray(sol.y[1], dtype=float)
        self.f_const = f_const

    def state_at(self, r):
        m, w = self.dense(r)
        return float(m), float(w)

    def pressure_density(self):
        rho, p = self.eos._fluid_of_w(self.w)
        return p, rho

    def metric_exponents(self):
        """(F, H) samples along the stored grid; NaN for nonrelativistic
        runs where the metric language does not apply."""
        if self.eos.nonrelativistic or self.f_const is None:
            nan = np.full_like(self.r, math.nan)
            return nan, nan
        csq = self.eos.c_light**2
        H = -0.5 * np.log(1.0 - 2.0 * self.m / (csq * self.r))
        F = self.f_const - self.w
        return F, H

    def as_rows(self):
        """Rows for CSV export with columns (r, m, P, rho, h, F, H)."""
        p, rho = self.pressure_density()
        F, H = self.metric_exponents()
        return np.column_stack([self.r, self.m, p, rho, self.w, F, H])

    def check_domain(self):
        """Accepted-step domain bookkeeping: metric factor positive and
        rho + P/c^2 nonnegative everywhere.  Raises on violation."""
        if not self.eos.nonrelativistic:
            csq = self.eos.c_light**2
            if np.any(1.0 - 2.0 * self.m / (csq * self.r) <= 0.0):
                raise StellarMatchError("metric factor nonpositive at an "
                                        "accepted step")
        p, rho = self.pressure_density()
        if np.any(rho + p < 0.0):
            raise StellarMatchError("energy condition violated at an "
                                    "accepted step")


@dataclass(frozen=True)
class SurfaceData:
    """Boundary data of a completed star."""

    radius: float
    mass: float
    g_surface: float
    compactness: float  # 2M/(c^2 R); 0 in nonrelativistic mode


@dataclass
class ShootClassification:
    """Outcome of an inward shot.  `case` is None for exits outside the
    four-case taxonomy (the exit label then tells which guard ended it)."""

    case: str | None
    exit: str
    r_exit: float
    m_exit: float
    w_exit: float
    p_exit: float
    p_center: float | None = None
    r_minus: float | None = None
    p_minus: float | None = None
    diagnostics: dict = field(default_factory=dict)


def admissible(radius, mass, c_light=math.inf):
    """R > 0, M > 0 and (finite c) 1 - 2M/(c^2 R) > 0."""
    if not (radius > 0.0 and mass > 0.0):
        return False
    if math.isinf(c_light):
        return True
    return 1.0 - 2.0 * mass / (c_light**2 * radius) > 0.0


def _dw_dr(eos, r, m, p):
    """dw/dr at radius r, mass m and pressure p."""
    if eos.nonrelativistic:
        return -m / r**2
    csq = eos.c_light**2
    metric = 1.0 - 2.0 * m / (csq * r)
    if metric < _METRIC_FLOOR:
        metric = _METRIC_FLOOR  # trial steps only; the horizon event stops first
    return -(m + 4.0 * math.pi * r**3 * p / csq) / (csq * r**2 * metric)


def tov_rhs(eos, r, m, w):
    """(dm/dr, dw/dr) for the enthalpy-variable system; vacuum (w <= 0)
    continues smoothly with rho = P = 0."""
    rho, p = eos._fluid_of_w(w)
    return 4.0 * math.pi * r**2 * rho, _dw_dr(eos, r, m, p)


def pressure_gradient(eos, r, m, w):
    """dP/dr recovered from the enthalpy form: dP/dw = rho (c = inf) or
    rho c^2 + P."""
    rho, p = eos._fluid_of_w(w)
    dp_dw = rho if eos.nonrelativistic else rho * eos.c_light**2 + p
    return dp_dw * _dw_dr(eos, r, m, p)


def center_start(eos, p_center, r0=None, r0_factor=1e-6):
    """Series start just off the center: m = (4 pi/3) rho_c r0^3 and the
    quadratic pressure dip converted to the enthalpy variable."""
    rho_c = eos.density_of_pressure(p_center)
    if rho_c <= 0.0:
        raise ValueError("central pressure must be positive")
    a = eos.length_scale(rho_c)
    if r0 is None:
        r0 = r0_factor * a
    m0 = 4.0 * math.pi / 3.0 * rho_c * r0**3
    if eos.nonrelativistic:
        p0 = p_center - 2.0 * math.pi / 3.0 * rho_c**2 * r0**2
    else:
        csq = eos.c_light**2
        p0 = p_center - 2.0 * math.pi / 3.0 * (rho_c + p_center / csq) \
            * (rho_c + 3.0 * p_center / csq) * r0**2
    w0 = eos.enthalpy_of_pressure(p0)
    return r0, m0, w0


def surface_gravity(eos, radius, mass):
    """Gradient of the enthalpy variable at the surface, |dw/dr|(R)."""
    if eos.nonrelativistic:
        return mass / radius**2
    csq = eos.c_light**2
    return mass / (csq * radius**2 * (1.0 - 2.0 * mass / (csq * radius)))


def surface_start(eos, radius, mass, dr):
    """Desingularized inward start at r = R - dr: w grows linearly off the
    surface with slope g_s, m unchanged to leading order."""
    g_s = surface_gravity(eos, radius, mass)
    return radius - dr, mass, g_s * dr


def _terminal(event, direction):
    """Mark an event function of ode.solve terminal, firing on crossings
    in `direction`."""
    event.terminal = True
    event.direction = direction
    return event


def _horizon_event(csq):
    """Stops a shot where 1 - 2m/(c^2 r) falls to HORIZON_MARGIN."""
    return _terminal(
        lambda r, y: 1.0 - 2.0 * y[0] / (csq * r) - HORIZON_MARGIN, -1)


def _solve(eos, r_span, y0, events, rtol, atol):
    def rhs(r, y):
        return tov_rhs(eos, r, y[0], y[1])

    sol = ode.solve(rhs, r_span, y0, rtol, atol, events)
    if not sol.success:
        raise StellarMatchError("integrator failure at r = %.17g: %s"
                                % (sol.t[-1], sol.message))
    return sol


def shoot_from_center(eos, p_center, config=None):
    """Outward shot.  Returns (SurfaceData, TovTrajectory) on the surface
    event; raises ShootFailureError with the partial trajectory on the
    range guard or horizon exits."""
    cfg = config or ShootConfig()
    rho_c = eos.density_of_pressure(p_center)
    a = eos.length_scale(rho_c)
    r0, m0, w0 = center_start(eos, p_center, r0_factor=cfg.r0_factor)
    m_scale = 4.0 * math.pi * rho_c * a**3
    atol = [cfg.atol_factor * m_scale, cfg.atol_factor * w0]

    events = [_terminal(lambda r, y: y[1], -1)]  # the surface, w = 0
    if not eos.nonrelativistic:
        events.append(_horizon_event(eos.c_light**2))

    sol = _solve(eos, (r0, cfg.r_max_factor * a), [m0, w0], events,
                 cfg.rtol, atol)

    if sol.t_events[0].size:
        radius = float(sol.t_events[0][0])
        mass = float(sol.y_events[0][0][0])
        if eos.nonrelativistic:
            compactness = 0.0
        else:
            compactness = 2.0 * mass / (eos.c_light**2 * radius)
        f_const = None if eos.nonrelativistic \
            else 0.5 * math.log(1.0 - compactness)
        traj = TovTrajectory(eos, "outward", sol, EXIT_SURFACE,
                             f_const=f_const)
        traj.check_domain()
        surface = SurfaceData(radius=radius, mass=mass,
                              g_surface=surface_gravity(eos, radius, mass),
                              compactness=compactness)
        return surface, traj

    if len(sol.t_events) > 1 and sol.t_events[1].size:
        traj = TovTrajectory(eos, "outward", sol, EXIT_HORIZON)
        raise ShootFailureError(EXIT_HORIZON,
                                "metric factor reached the horizon margin",
                                trajectory=traj)
    traj = TovTrajectory(eos, "outward", sol, EXIT_R_MAX)
    raise ShootFailureError(EXIT_R_MAX,
                            "no surface below r = %g" % (cfg.r_max_factor * a),
                            trajectory=traj)


def _inward_events(eos, w_ceiling, slope_floor, r_floor, with_center):
    """Terminal events for an inward run, with their labels in order.

    Refinement runs drop the center-floor stop (with_center=False) so a
    ceiling crossing sinking below r_floor can still fire."""
    def slope_excess(r, y):
        return abs(pressure_gradient(eos, r, y[0], y[1])) - slope_floor

    events = [
        _terminal(lambda r, y: y[1] - w_ceiling, 1),
        # fire only on falling crossings, so the slope rising through the
        # floor just inside the surface is ignored
        _terminal(slope_excess, -1),
        _terminal(lambda r, y: y[1], -1),  # vacuum re-entry, w = 0
    ]
    labels = [EXIT_PRESSURE_CEILING, EXIT_SLOPE_STALL, EXIT_VACUUM]

    if with_center:
        events.append(_terminal(lambda r, y: r - r_floor, -1))
        labels.append(EXIT_CENTER_FLOOR)

    if not eos.nonrelativistic:
        events.append(_horizon_event(eos.c_light**2))
        labels.append(EXIT_HORIZON)
    return events, labels


def shoot_from_boundary(eos, radius, mass, config=None, thresholds=None):
    """Inward shot from admissible boundary data; returns
    (ShootClassification, TovTrajectory)."""
    cfg = config or ShootConfig()
    thr = thresholds or ClassifyThresholds()
    if not admissible(radius, mass, eos.c_light):
        raise AdmissibilityError(
            "(R, M) = (%g, %g) inadmissible for c = %g"
            % (radius, mass, eos.c_light))
    if not eos.nonrelativistic:
        start_metric = 1.0 - 2.0 * mass / (eos.c_light**2 * radius)
        if start_metric <= 2.0 * HORIZON_MARGIN:
            raise AdmissibilityError("boundary data starts inside the "
                                     "horizon margin")

    p_ref = mass**2 / radius**4
    ceiling_nominal = thr.p_ceiling_factor * p_ref
    p_cap = 0.999 * eos.p_valid_max
    ceiling = min(ceiling_nominal, p_cap)
    limited_by = "eos_validity" if ceiling < ceiling_nominal else "p_ref"
    slope_floor = thr.slope_floor_factor * p_ref / radius
    r_floor = thr.r_floor_factor * radius
    m_floor = thr.m_floor_factor * mass

    dr = cfg.dr_factor * radius
    r_start, m_start, w_start = surface_start(eos, radius, mass, dr)
    atol = [cfg.atol_factor * mass, cfg.atol_factor * w_start]
    w_cap = eos.enthalpy_of_pressure(ceiling)
    if w_start >= w_cap:
        raise EosValidityError(
            "surface start enthalpy %g already beyond the pressure ceiling; "
            "the EOS cannot represent the fluid at this boundary" % w_start)

    diagnostics = {
        "p_ref": p_ref, "ceiling": ceiling, "ceiling_limited_by": limited_by,
        "slope_floor": slope_floor, "r_floor": r_floor, "m_floor": m_floor,
        "refinement_radii": [],
    }

    span_end = 0.01 * r_floor

    def run(ceiling_p, rtol, with_center, prev_w_ceiling):
        w_ceiling = eos.enthalpy_of_pressure(min(ceiling_p, p_cap))
        events, labels = _inward_events(eos, w_ceiling, slope_floor, r_floor,
                                        with_center)
        sol = _solve(eos, (r_start, span_end), [m_start, w_start], events,
                     rtol, atol)
        return sol, _interpret_inward(sol, labels, r_floor,
                                      prev_w_ceiling), w_ceiling

    f_const = None
    if not eos.nonrelativistic:
        f_const = 0.5 * math.log(1.0 - 2.0 * mass
                                 / (eos.c_light**2 * radius))

    # refinement ladder for the blow-up radius: raise the ceiling (within
    # the EOS cap) and tighten rtol, watching whether the estimate sinks
    # below the radius floor
    sol, (label, detail), w_ceil = run(ceiling, cfg.rtol, True, None)
    level = 0
    while label == EXIT_PRESSURE_CEILING and level < thr.refinements:
        diagnostics["refinement_radii"].append(detail["r_exit"])
        level += 1
        sol, (label, detail), w_ceil = run(
            min(ceiling * 100.0 ** level, p_cap),
            max(cfg.rtol * 0.01 ** level, 1e-13), False, w_ceil)
    if label == EXIT_PRESSURE_CEILING:
        diagnostics["refinement_radii"].append(detail["r_exit"])

    traj = TovTrajectory(eos, "inward", sol, label, f_const=f_const)
    cls = _classify(label, detail, eos, r_floor, m_floor, diagnostics)
    traj.exit = cls.exit
    traj.check_domain()
    return cls, traj


def _interpret_inward(sol, labels, r_floor, prev_w_ceiling):
    """Map the terminating event of an inward solve to a label and exit
    state.  Non-ceiling events below the radius floor (possible only on
    refinement runs) are folded back into the center-floor reading at
    r_floor, as is a run that reaches the span end (0.01 r_floor) with the
    pressure back under the previous ceiling."""
    def center_floor_reading():
        m_f, w_f = (float(v) for v in sol.sol(r_floor))
        return EXIT_CENTER_FLOOR, {"r_exit": r_floor, "m_exit": m_f,
                                   "w_exit": w_f}

    for idx, label in enumerate(labels):
        if not sol.t_events[idx].size:
            continue
        r_e = float(sol.t_events[idx][0])
        m_e, w_e = (float(v) for v in sol.y_events[idx][0])
        if label != EXIT_PRESSURE_CEILING and r_e < r_floor:
            return center_floor_reading()
        return label, {"r_exit": r_e, "m_exit": m_e, "w_exit": w_e}

    # span end reached: still above the previous ceiling means the crossing
    # moved below the span, an upper bound on the blow-up radius
    w_end = float(sol.y[1][-1])
    if prev_w_ceiling is not None and w_end >= prev_w_ceiling:
        return EXIT_PRESSURE_CEILING, {"r_exit": float(sol.t[-1]),
                                       "m_exit": float(sol.y[0][-1]),
                                       "w_exit": w_end}
    return center_floor_reading()


def _classify(label, detail, eos, r_floor, m_floor, diagnostics):
    r_e, m_e, w_e = detail["r_exit"], detail["m_exit"], detail["w_exit"]
    p_e = eos.pressure_of_enthalpy(w_e) if w_e > 0.0 else 0.0

    if label == EXIT_PRESSURE_CEILING:
        radii = diagnostics["refinement_radii"] or [r_e]
        # the most refined estimate decides: below the floor means the
        # blow-up hugs the center
        case = CASE10 if radii[-1] <= r_floor else CASE00
        return ShootClassification(
            case=case, exit=EXIT_PRESSURE_CEILING, r_exit=r_e, m_exit=m_e,
            w_exit=w_e, p_exit=math.inf, r_minus=radii[-1],
            diagnostics={**diagnostics, "p_at_exit": p_e})

    if label == EXIT_SLOPE_STALL:
        return ShootClassification(
            case=CASE01, exit=EXIT_SLOPE_STALL, r_exit=r_e, m_exit=m_e,
            w_exit=w_e, p_exit=p_e, r_minus=r_e, p_minus=p_e,
            diagnostics=diagnostics)

    if label == EXIT_CENTER_FLOOR:
        if abs(m_e) <= m_floor:
            # regular center: strip the known singular mode m_res/(c^2 r)
            # before reading off the central pressure, since raw w(r_floor)
            # amplifies the (R, M) error by ~R/r_floor
            rho_e = eos._rho_of_w_unchecked(w_e)
            m_res = m_e - 4.0 * math.pi / 3.0 * rho_e * r_e**3
            csq = 1.0 if eos.nonrelativistic else eos.c_light**2
            w_center = w_e - m_res / (csq * r_e)
            p_center = eos.pressure_of_enthalpy(max(w_center, 0.0))
            return ShootClassification(
                case=CASE11, exit=EXIT_CENTER_FLOOR, r_exit=r_e, m_exit=m_e,
                w_exit=w_e, p_exit=p_e, p_center=p_center,
                diagnostics=diagnostics)
        return ShootClassification(
            case=None, exit=EXIT_CENTER_MASSIVE, r_exit=r_e, m_exit=m_e,
            w_exit=w_e, p_exit=p_e, diagnostics=diagnostics)

    # horizon or vacuum re-entry: outside the taxonomy
    return ShootClassification(
        case=None, exit=label, r_exit=r_e, m_exit=m_e, w_exit=w_e,
        p_exit=p_e, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# metric coefficients and the junction check


@dataclass
class MetricCoeffs:
    """Samples of F, H on an interior grid plus one-sided data for
    e^{2F}, e^{2H} at the surface from both sides of the matching."""

    r: np.ndarray
    F: np.ndarray
    H: np.ndarray
    e2F: np.ndarray
    e2H: np.ndarray
    radius: float
    mass: float
    c_light: float
    fd_delta: float
    interior: dict      # order -> (e2F_k, e2H_k) one-sided at r = R-
    exterior: dict      # order -> (e2F_k, e2H_k) closed form at r = R+


def _fd_first(f, x0, delta):
    """4th-order one-sided first derivative from samples at x0 - i*delta."""
    u = [f(x0 - i * delta) for i in range(5)]
    return (25.0 / 12.0 * u[0] - 4.0 * u[1] + 3.0 * u[2]
            - 4.0 / 3.0 * u[3] + 0.25 * u[4]) / delta


def _interior_second_derivatives(eos, radius, m_s, w_s):
    """One-sided second derivatives of e^{2F}, e^{2H} at the surface by
    differentiating the interior expressions through the hydrostatic
    equations.

    Finite differences are not an option here: rho ~ (R-r)^{1/(gamma-1)}
    near the surface puts a fractional power into m(r), and for gamma < 2
    a second-derivative stencil on it has an O(sqrt(delta)) bias with an
    O(1) coefficient.  The equations give the one-sided limits directly
    from the surface state."""
    csq = eos.c_light**2
    r = radius
    rho, p = eos._fluid_of_w(w_s)
    dm = 4.0 * math.pi * r**2 * rho
    dw = _dw_dr(eos, r, m_s, p)
    dp = (rho * csq + p) * dw
    if rho > 0.0:
        drho = dp / float(eos.sound_speed_sq(rho))
    elif eos.gamma == 2.0:
        # dP/drho ~ 2 A rho: the ratio dP'/(dP/drho) stays finite
        drho = csq * dw / (2.0 * eos.A)
    else:
        drho = 0.0
    d2m = 8.0 * math.pi * r * rho + 4.0 * math.pi * r**2 * drho

    phi = 1.0 - 2.0 * m_s / (csq * r)
    dphi = -2.0 * dm / (csq * r) + 2.0 * m_s / (csq * r**2)
    d2phi = -2.0 * d2m / (csq * r) + 4.0 * dm / (csq * r**2) \
        - 4.0 * m_s / (csq * r**3)
    d2_e2H = -d2phi / phi**2 + 2.0 * dphi**2 / phi**3

    n_num = m_s + 4.0 * math.pi * r**3 * p / csq
    dn = dm + 4.0 * math.pi / csq * (3.0 * r**2 * p + r**3 * dp)
    d_den = csq * r**2 - 2.0 * m_s * r
    dd = 2.0 * csq * r - 2.0 * (dm * r + m_s)
    d2w = -(dn * d_den - n_num * dd) / d_den**2
    e2F_s = phi * math.exp(-2.0 * max(w_s, 0.0))
    d2_e2F = (4.0 * dw**2 - 2.0 * d2w) * e2F_s
    return d2_e2F, d2_e2H


def metric_coefficients(trajectory, radius, mass, grid_points=401,
                        fd_delta_factor=3e-4):
    """Interior metric coefficients of a relativistic trajectory with
    surface (R, M), plus one-sided surface data on both sides.

    Order-1 interior derivatives come from one-sided finite differences on
    the dense output; order-2 from derivative substitution (see
    _interior_second_derivatives).  The vacuum case M = 0 gives
    F = H = 0 identically."""
    eos = trajectory.eos
    if eos.nonrelativistic:
        raise ValueError("metric coefficients need a finite c")
    csq = eos.c_light**2
    if mass > 0.0 and not admissible(radius, mass, eos.c_light):
        raise AdmissibilityError("surface data inadmissible")

    r_lo = float(min(trajectory.r[0], trajectory.r[-1]))
    r_hi = float(max(trajectory.r[0], trajectory.r[-1]))
    grid = np.linspace(r_lo, r_hi, grid_points)
    m_g, w_g = trajectory.dense(grid)
    H = -0.5 * np.log(1.0 - 2.0 * m_g / (csq * grid))
    f_const = 0.5 * math.log(1.0 - 2.0 * mass / (csq * radius))
    F = f_const - w_g

    delta = fd_delta_factor * radius

    def e2F_of_r(r):
        _m, w = trajectory.dense(r)
        return math.exp(2.0 * (f_const - float(w)))

    def e2H_of_r(r):
        m, _w = trajectory.dense(r)
        return 1.0 / (1.0 - 2.0 * float(m) / (csq * r))

    m_s, w_s = trajectory.state_at(radius)
    F2, H2 = _interior_second_derivatives(eos, radius, m_s, w_s)
    interior = {
        0: (e2F_of_r(radius), e2H_of_r(radius)),
        1: (_fd_first(e2F_of_r, radius, delta),
            _fd_first(e2H_of_r, radius, delta)),
        2: (F2, H2),
    }

    phi = 1.0 - 2.0 * mass / (csq * radius)
    dphi = 2.0 * mass / (csq * radius**2)
    d2phi = -4.0 * mass / (csq * radius**3)
    ext = {
        0: (phi, 1.0 / phi),
        1: (dphi, -dphi / phi**2),
        2: (d2phi, -d2phi / phi**2 + 2.0 * dphi**2 / phi**3),
    }
    return MetricCoeffs(r=grid, F=F, H=H, e2F=np.exp(2.0 * F),
                        e2H=np.exp(2.0 * H), radius=radius, mass=mass,
                        c_light=eos.c_light, fd_delta=delta,
                        interior=interior, exterior=ext)


def junction_check(coeffs, order=2):
    """Scaled one-sided gaps of e^{2F}, e^{2H} and derivatives at the
    surface.  Order 0 must agree to roundoff; orders 1-2 to 1e-5 scaled."""
    tols = {0: 1e-12, 1: 1e-5, 2: 1e-5}
    report = {"radius": coeffs.radius, "mass": coeffs.mass, "orders": {}}
    ok = True
    for k in range(order + 1):
        fi, hi = coeffs.interior[k]
        fe, he = coeffs.exterior[k]
        scale = max(abs(fe), abs(he), 1.0 / coeffs.radius**k)
        gap_f = abs(fi - fe) / scale
        gap_h = abs(hi - he) / scale
        passed = gap_f < tols[k] and gap_h < tols[k]
        ok = ok and passed
        report["orders"][k] = {
            "e2F_interior": fi, "e2F_exterior": fe, "e2F_scaled_gap": gap_f,
            "e2H_interior": hi, "e2H_exterior": he, "e2H_scaled_gap": gap_h,
            "tolerance": tols[k], "passed": passed,
        }
    report["passed"] = ok
    return report
