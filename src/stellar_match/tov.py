"""Hydrostatic structure shot both ways, with the inward four-case taxonomy.

State is (m, w) against radius, where w is the enthalpy variable of the EOS:
h = int dP/(rho c^2 + P) in relativistic mode, u = int dP/rho when c = inf.
One set of formulas serves both modes.  With w_unit the unit of w
(EosSpec.w_unit: c^2 for h, 1 for u = lim c^2 h),

    dw/dr = -(m + 4 pi r^3 P/c^2) / (w_unit r^2 (1 - 2 m/(c^2 r)))    (G = 1)

and dP/dw = w_unit (rho + P/c^2).  At c = inf every 1/c^2 term is an exact
IEEE zero (x/inf = 0): the same lines give dw/dr = -m/r^2 and dP/dw = rho
bit for bit, the compactness and F's constant are 0, and the shots carry no
horizon event, which could not fire.  Only the metric itself needs a finite
c: a c = inf trajectory has NaN F and H columns, and metric_coefficients
refuses it.

The pressure equation in w is regular at the surface, so (m, w) = (M, 0) is
a usable starting point for inward shots, unlike (m, P) = (M, 0) which is
an equilibrium of the pressure-form right-hand side.

Outward shots start from a central pressure with a series start at r0 and end
on the w = 0 event (the surface) or a guard.  Inward shots start from
boundary data (R, M) just inside the surface and end in one of four ways:

    case00  P reaches the EOS cap above r_floor (finite c only)
    case01  |dP/dr| stalls at positive radius with P finite
    case10  the center floor is reached with m above the mass floor at
            c = inf, where P then rises like m/r all the way to r = 0
    case11  the center floor is reached with |m| within the mass floor
            (the regular-center success)

An inward shot is one solve whose span ends at the center floor r_floor,
read off the event that stopped it (the floor, where none did) and the
mass at its exit; no setting enters the rule.  Events stop it at the
slope stall, at vacuum re-entry and at a finite c at the EOS cap, just
below the validity bound.  A cap exit lies above r_floor, so it is
case00, and data whose pressure would blow up only below r_floor reach
the center floor with their mass: center_floor_massive.  At c = inf
there is no cap and no ceiling: dw/dr = -m/r^2 with m <= M, so P stays
finite at every r > 0, and a center-floor exit with m above the mass
floor is case10.

Exits through the metric degeneracy 1 - 2m/(c^2 r) -> 0 or through w -> 0
are reported as labeled exits outside the taxonomy.  One frozen ShootConfig
holds every setting of a shot, and refuses (ValueError) to be built with
values that would put an inward start inside the radius floor.

Every shot is one solve with `ode.solve`, an 8th-order integrator in
plain float arithmetic that follows scipy's DOP853 step rules and dense
output, and redoes the step that crosses an event's root to end there; the
surface and the other exits are such events, so no stage of a shot's last
step reaches past its exit.  The range guard and the center floor are span
bounds, which no stage passes.  A solve whose steps collapse raises
StellarMatchError naming the radius where they did.

`shoot_from_centers` runs many outward shots as the lanes of one
`ode.solve_lanes` call: each lane takes the steps of its scalar shot, and
the right-hand side and events evaluate on arrays of lanes.  It returns
boundary data or failure labels only, with no trajectories; the domain
checks run on every accepted lane state.  `shoot_from_boundaries` does the
same for many inward shots, each lane with its own slope and radius
floors, and returns each shot's classification or the error it raised.
On both paths a shot is read off the index of the event that stopped it,
-1 where it reached its span bound.  Lanes pay from
about a dozen outward and about twenty inward shots on (matching.LANES_MIN
picks the batches that use them).
"""

from __future__ import annotations

import math
import sys
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
# Outward exits by the index of the event (_outward_events) that stopped the
# solve; a solve that no event stopped (-1) ran into the range guard.  At
# c = inf there is no horizon event, and index -1 still names the guard.
_OUTWARD_EXITS = (EXIT_SURFACE, EXIT_HORIZON, EXIT_R_MAX)
# Failure label for a central pressure outside the EOS validity range.
LABEL_EOS_VALIDITY = "eos_validity"

CASE00 = "case00"
CASE01 = "case01"
CASE10 = "case10"
CASE11 = "case11"

_METRIC_FLOOR = 1e-14
# Margin kept from the metric degeneracy 1 - 2m/(c^2 r) = 0 by the horizon
# events.
HORIZON_MARGIN = 1e-10


@dataclass(frozen=True)
class ShootConfig:
    """Settings of a shot: the integration knobs, then the gates of the
    inward four-case classification.

    The classification's gates scale with p_ref = M^2/R^4, the G = 1
    pressure scale of the boundary data.  No setting moves the pressure
    ceiling: it is the EOS cap at a finite c, and there is none at c = inf.
    Values that would put an inward start R - dr at or inside the radius
    floor raise ValueError.
    """

    rtol: float = 1e-10
    atol_factor: float = 1e-12      # abs tol = atol_factor * natural scale
    r0_factor: float = 1e-6         # center offset in units of the length scale
    dr_factor: float = 1e-6         # inward surface offset in units of R
    r_max_factor: float = 1e3       # outward guard in units of the length scale
    r_floor_factor: float = 1e-6
    m_floor_factor: float = 1e-5
    slope_floor_factor: float = 1e-8

    def __post_init__(self):
        if not self.r_floor_factor + self.dr_factor < 1.0:
            raise ValueError("r_floor_factor + dr_factor must be below 1, or "
                             "the inward start lies inside the radius floor")


class TovTrajectory:
    """Accepted integration steps plus the dense interpolant.

    Columns r, m and w are stored; P and rho are recovered through the EOS
    on demand.  f_const is the additive constant fixing the time metric
    coefficient, F = f_const - w (0 when c = inf; None on failed shots)."""

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

    def metric_exponents(self):
        """(F, H) samples along the stored grid; NaN when c = inf, where
        the metric language does not apply."""
        if self.eos.nonrelativistic or self.f_const is None:
            nan = np.full_like(self.r, math.nan)
            return nan, nan
        H = -0.5 * np.log(_metric(self.eos, self.r, self.m))
        F = self.f_const - self.w
        return F, H

    def as_rows(self):
        """Rows for CSV export with columns (r, m, P, rho, h, F, H)."""
        rho, p = self.eos._fluid_of_w(self.w)
        F, H = self.metric_exponents()
        return np.column_stack([self.r, self.m, p, rho, self.w, F, H])

    def check_domain(self):
        """Accepted-step domain bookkeeping: metric factor positive and
        rho + P nonnegative everywhere.  Raises on violation."""
        _check_domain(_domain_faults(self.eos, self.r, self.m, self.w))


def _domain_faults(eos, r, m, w):
    """Per state (arrays): the metric factor is nonpositive, rho + P < 0."""
    rho, p = eos._fluid_of_w(w)
    return _metric(eos, r, m) <= 0.0, rho + p < 0.0


def _check_domain(faults):
    """Raise on the first kind of _domain_faults that any state shows."""
    for fault, what in zip(faults, ("metric factor nonpositive",
                                    "energy condition violated")):
        if np.any(fault):
            raise StellarMatchError(what + " at an accepted step")


@dataclass(frozen=True)
class SurfaceData:
    """Boundary data of a completed star."""

    radius: float
    mass: float
    g_surface: float
    compactness: float  # 2M/(c^2 R); 0 when c = inf


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
    diagnostics: dict = field(default_factory=dict)


def admissible(radius, mass, c_light=math.inf):
    """Finite R > 0 and M > 0 with 1 - 2M/(c^2 R) > 0 (always, when
    c = inf)."""
    return math.isfinite(radius) and math.isfinite(mass) \
        and radius > 0.0 and mass > 0.0 \
        and 1.0 - 2.0 * mass / (c_light**2 * radius) > 0.0


def _metric(eos, r, m):
    """The metric factor 1 - 2m/(c^2 r) = e^{-2H}, for floats or arrays."""
    return 1.0 - 2.0 * m / (eos.c_light**2 * r)


def _f_const(eos, radius, mass):
    """F's additive constant, fixed by F(R) = ln(1 - 2M/(c^2 R))/2 so that
    e^{2F} matches the exterior at the surface."""
    return 0.5 * math.log(_metric(eos, radius, mass))


def _dw_dr(eos, r, m, p):
    """dw/dr at radius r, mass m and pressure p, for lanes and events;
    tov_rhs makes the same operations on floats inline.  The metric floor
    acts in trial steps only: the horizon event stops first."""
    csq = eos.c_light**2
    metric = np.maximum(1.0 - 2.0 * m / (csq * r), _METRIC_FLOOR)
    return -(m + 4.0 * math.pi * r**3 * p / csq) / (eos.w_unit * r**2 * metric)


def _dp_dw(eos, rho, p):
    """dP/dw = w_unit (rho + P/c^2): rho c^2 + P for h, rho for u."""
    return eos.w_unit * (rho + p / eos.c_light**2)


def tov_rhs(eos, r, m, w):
    """(dm/dr, dw/dr) for the enthalpy-variable system on floats; vacuum
    (w <= 0) continues smoothly with rho = P = 0.  It reads (rho, P) from
    the EOS's float map and computes dw/dr inline, as _dw_dr does on
    lanes, since it runs once per stage of every scalar solve."""
    rho, p = eos._fluid(w)
    csq = eos.c_light**2
    metric = 1.0 - 2.0 * m / (csq * r)
    if metric < _METRIC_FLOOR:
        metric = _METRIC_FLOOR
    return (4.0 * math.pi * r**2 * rho,
            -(m + 4.0 * math.pi * r**3 * p / csq)
            / (eos.w_unit * r**2 * metric))


def _lanes_rhs(eos, r, y):
    """tov_rhs over lanes, r (k,) and the rows y = (m, w), as one (2, k)
    array.  It does not call tov_rhs, so that a call of tov_rhs stays one
    scalar evaluation (the unit the benchmark's tov.rhs counters count)."""
    rho, p = eos._fluid_of_w(y[1])
    return np.array((4.0 * math.pi * r**2 * rho, _dw_dr(eos, r, y[0], p)))


def pressure_gradient(eos, r, m, w):
    """dP/dr recovered from the enthalpy form, dP/dw dw/dr, for floats or
    lanes.  A float w, as the inward slope-stall event passes at every
    step, takes the float map and tov_rhs's inline dw/dr, in plain float
    arithmetic."""
    if isinstance(w, np.ndarray):
        rho, p = eos._fluid_of_w(w)
        return _dp_dw(eos, rho, p) * _dw_dr(eos, r, m, p)
    rho, p = eos._fluid(float(w))
    csq = eos.c_light**2
    metric = 1.0 - 2.0 * m / (csq * r)
    if metric < _METRIC_FLOOR:
        metric = _METRIC_FLOOR
    return _dp_dw(eos, rho, p) * (-(m + 4.0 * math.pi * r**3 * p / csq)
                                  / (eos.w_unit * r**2 * metric))


def _center_series(eos, p_center, rho_c, r0):
    """(m0, w0) of the series start just off the center, at r0 for a
    central density rho_c: m = (4 pi/3) rho_c r0^3 and the quadratic
    pressure dip converted to the enthalpy variable."""
    m0 = 4.0 * math.pi / 3.0 * rho_c * r0**3
    csq = eos.c_light**2
    p0 = p_center - 2.0 * math.pi / 3.0 * (rho_c + p_center / csq) \
        * (rho_c + 3.0 * p_center / csq) * r0**2
    w0 = eos.enthalpy_of_pressure(p0)
    return m0, w0


def surface_gravity(eos, radius, mass):
    """Gradient of the enthalpy variable at the surface, |dw/dr|(R)."""
    return mass / (eos.w_unit * radius**2 * _metric(eos, radius, mass))


def surface_start(eos, radius, mass, dr):
    """Desingularized inward start at r = R - dr: w grows linearly off the
    surface with slope g_s, m unchanged to leading order."""
    g_s = surface_gravity(eos, radius, mass)
    return radius - dr, mass, g_s * dr


def _directed(event, direction):
    """An event function of ode.solve that fires on crossings in
    `direction` only."""
    event.direction = direction
    return event


def _horizon_events(eos):
    """[the event that stops a shot where 1 - 2m/(c^2 r) falls to
    HORIZON_MARGIN], or [] when c = inf, where it cannot fire.  The factor
    is inline, as the event runs every step.  It takes and ignores the
    inward events' slope floor."""
    if eos.nonrelativistic:
        return []
    csq = eos.c_light**2
    return [_directed(
        lambda r, y, *_: 1.0 - 2.0 * y[0] / (csq * r) - HORIZON_MARGIN, -1)]


def _integrator_failure(r, message):
    return StellarMatchError("integrator failure at r = %.17g: %s"
                             % (r, message))


def _solve(eos, r_span, y0, events, rtol, atol, event_args=()):
    def rhs(r, y):
        return tov_rhs(eos, r, y[0], y[1])

    sol = ode.solve(rhs, r_span, y0, rtol, atol, events, event_args)
    if not sol.success:
        raise _integrator_failure(sol.t[-1], sol.message)
    return sol


def _outward_start(eos, p_center, cfg):
    """(r0, range guard, [m0, w0], atol) of an outward shot; raises
    EosValidityError for a central pressure the EOS cannot represent,
    a non-finite or nonpositive one included."""
    if not 0.0 < p_center < math.inf:
        raise EosValidityError("central pressure must be finite and "
                               "positive, got %r" % (p_center,))
    rho_c = eos.density_of_pressure(p_center)
    a = eos.length_scale(rho_c)
    r0 = cfg.r0_factor * a
    m0, w0 = _center_series(eos, p_center, rho_c, r0)
    m_scale = 4.0 * math.pi * rho_c * a**3
    return (r0, cfg.r_max_factor * a, [m0, w0],
            [cfg.atol_factor * m_scale, cfg.atol_factor * w0])


def _outward_events(eos):
    """The surface w = 0, then the horizon (none at c = inf); floats or
    lanes."""
    return [_directed(lambda r, y: y[1], -1)] + _horizon_events(eos)


def _surface_data(eos, radius, mass):
    return SurfaceData(radius=radius, mass=mass,
                       g_surface=surface_gravity(eos, radius, mass),
                       compactness=2.0 * mass / (eos.c_light**2 * radius))


def shoot_from_center(eos, p_center, config=None):
    """Outward shot.  Returns (SurfaceData, TovTrajectory) on the surface
    event; raises ShootFailureError with the partial trajectory on the
    range guard or horizon exits."""
    cfg = config or ShootConfig()
    r0, r_max, y0, atol = _outward_start(eos, p_center, cfg)
    sol = _solve(eos, (r0, r_max), y0, _outward_events(eos), cfg.rtol, atol)
    label = _OUTWARD_EXITS[sol.event]

    if label == EXIT_SURFACE:
        radius, mass = float(sol.t[-1]), float(sol.y[0, -1])
        traj = TovTrajectory(eos, "outward", sol, label,
                             f_const=_f_const(eos, radius, mass))
        traj.check_domain()
        return _surface_data(eos, radius, mass), traj

    if label == EXIT_HORIZON:
        message = "metric factor reached the horizon margin"
    else:
        message = "no surface below r = %g" % r_max
    traj = TovTrajectory(eos, "outward", sol, label)
    raise ShootFailureError(label, message, trajectory=traj)


def _fault_observer(eos, lanes):
    """(faults, observe): an ode.solve_lanes observer that marks, per lane,
    each kind of _domain_faults any of its observed states shows."""
    faults = np.zeros((2, lanes), dtype=bool)

    def observe(index, r, y):
        for fault, bad in zip(faults, _domain_faults(eos, r, y[0], y[1])):
            if bad.any():
                fault[index[bad]] = True

    return faults, observe


def shoot_from_centers(eos, p_centers, config=None):
    """Outward shots from many central pressures, run as lockstep lanes of
    `ode.solve_lanes`.  For a pure polytrope that costs less than shooting
    them one by one from about a dozen lanes on (2.5x less at 32 lanes),
    and more below.

    Each lane starts as shoot_from_center does and has its events, so it
    takes the same steps and finds the same surface to roundoff.  Returns
    one entry per central pressure, in order: the SurfaceData of a
    completed star, or the label of a failed shot (EXIT_R_MAX,
    EXIT_HORIZON, or LABEL_EOS_VALIDITY where the EOS cannot represent the
    central pressure).  check_domain's tests run on every accepted state of
    every lane.  The first lane in input order whose steps collapse, or
    whose star fails those tests, raises the StellarMatchError that a
    sequence of scalar shots would.  No trajectory is kept."""
    cfg = config or ShootConfig()
    # a central pressure the EOS cannot start from keeps this label
    results = [LABEL_EOS_VALIDITY] * len(p_centers)
    lanes, starts = [], []
    for i, p_center in enumerate(p_centers):
        try:
            starts.append(_outward_start(eos, p_center, cfg))
        except EosValidityError:
            continue
        lanes.append(i)
    if not lanes:
        return results
    r0, r_max, y0, atol = (np.array(column) for column in zip(*starts))
    faults, observe = _fault_observer(eos, len(lanes))
    sol = ode.solve_lanes(lambda r, y: _lanes_rhs(eos, r, y), r0, r_max,
                          y0.T, cfg.rtol, atol.T, _outward_events(eos),
                          observe)
    for j, i in enumerate(lanes):
        if sol.status[j] < 0:
            raise _integrator_failure(sol.t[j], ode.MESSAGES[-1])
        if sol.event[j] == 0:
            _check_domain(faults[:, j])
            results[i] = _surface_data(eos, float(sol.t[j]),
                                       float(sol.y[0, j]))
        else:
            results[i] = _OUTWARD_EXITS[sol.event[j]]
    return results


def _w_ceiling(eos):
    """The enthalpy variable at the inward pressure ceiling: the EOS cap
    0.999 p_valid_max at a finite c, the same for every shot of the EOS;
    None at c = inf, where there is no cap."""
    if eos.nonrelativistic:
        return None
    return eos.enthalpy_of_pressure(0.999 * eos.p_valid_max)


def _inward_events(eos, w_ceiling):
    """Terminal events of an inward shot, and the labels of its exits by
    the index of the event that stopped the solve.

    Each event takes the shot's slope_floor after (r, y) as its event
    argument, one per lane on lanes.  The pressure ceiling w_ceiling
    (_w_ceiling) comes first and the horizon last, both only for a finite
    c.  A solve that no event stopped (-1) reached its span bound, the
    center floor."""
    def slope_excess(r, y, slope_floor):
        return abs(pressure_gradient(eos, r, y[0], y[1])) - slope_floor

    horizon = _horizon_events(eos)
    ceiling = [] if w_ceiling is None else [
        _directed(lambda r, y, _: y[1] - w_ceiling, 1)]
    events = ceiling + [
        # fire only on falling crossings, so the slope rising through the
        # floor just inside the surface is ignored
        _directed(slope_excess, -1),
        _directed(lambda r, y, _: y[1], -1),  # vacuum re-entry, w = 0
    ] + horizon
    labels = [EXIT_PRESSURE_CEILING] * len(ceiling) + [
        EXIT_SLOPE_STALL, EXIT_VACUUM] + [EXIT_HORIZON] * len(horizon) \
        + [EXIT_CENTER_FLOOR]
    return events, labels


@dataclass
class _InwardStart:
    """Start state, tolerances and floors of an inward shot."""

    r: float                # R - dr
    y: list                 # [m, w] at r
    atol: list
    slope_floor: float      # the inward events' argument
    r_floor: float          # the solve's span bound
    m_floor: float
    diagnostics: dict


def _inward_start(eos, radius, mass, cfg, w_ceiling):
    """_InwardStart of an inward shot from (R, M) under the pressure
    ceiling w_ceiling (_w_ceiling); raises AdmissibilityError for
    inadmissible data, or data whose p_ref or slope floor is not a finite
    positive float, and EosValidityError where the EOS cannot represent
    the fluid at the start."""
    if not admissible(radius, mass, eos.c_light):
        raise AdmissibilityError(
            "(R, M) = (%g, %g) inadmissible for c = %g"
            % (radius, mass, eos.c_light))
    if _metric(eos, radius, mass) <= 2.0 * HORIZON_MARGIN:
        raise AdmissibilityError("boundary data starts inside the horizon "
                                 "margin")

    # numpy scalars give the float powers' bits, and where a power over-
    # or underflows give inf, 0 or NaN instead of raising.  Where M**2 or
    # R**4 is zero or subnormal, (M/R/R)**2 keeps p_ref's digits.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        m2, r4 = np.float64(mass)**2, np.float64(radius)**4
        if min(m2, r4) < sys.float_info.min:
            p_ref = float((np.float64(mass) / radius / radius)**2)
        else:
            p_ref = float(m2 / r4)
    slope_floor = cfg.slope_floor_factor * p_ref / radius
    if not (0.0 < p_ref < math.inf and 0.0 < slope_floor < math.inf):
        raise AdmissibilityError(
            "(R, M) = (%g, %g) give p_ref = %g and slope floor %g; both "
            "must be finite and positive" % (radius, mass, p_ref, slope_floor))
    r_floor = cfg.r_floor_factor * radius
    m_floor = cfg.m_floor_factor * mass

    dr = cfg.dr_factor * radius
    r_start, m_start, w_start = surface_start(eos, radius, mass, dr)
    atol = [cfg.atol_factor * mass, cfg.atol_factor * w_start]
    diagnostics = {"p_ref": p_ref, "slope_floor": slope_floor,
                   "r_floor": r_floor, "m_floor": m_floor}
    if w_ceiling is not None:
        if w_start >= w_ceiling:
            raise EosValidityError(
                "surface start enthalpy %g already beyond the pressure "
                "ceiling; the EOS cannot represent the fluid at this "
                "boundary" % w_start)
        diagnostics["ceiling"] = 0.999 * eos.p_valid_max
    return _InwardStart(r=r_start, y=[m_start, w_start], atol=atol,
                        slope_floor=slope_floor, r_floor=r_floor,
                        m_floor=m_floor, diagnostics=diagnostics)


def shoot_from_boundary(eos, radius, mass, config=None):
    """Inward shot from admissible boundary data; returns
    (ShootClassification, TovTrajectory)."""
    cfg = config or ShootConfig()
    w_ceiling = _w_ceiling(eos)
    start = _inward_start(eos, radius, mass, cfg, w_ceiling)
    events, labels = _inward_events(eos, w_ceiling)
    sol = _solve(eos, (start.r, start.r_floor), start.y, events, cfg.rtol,
                 start.atol, (start.slope_floor,))
    cls = _classify(eos, start, labels[sol.event], float(sol.t[-1]),
                    float(sol.y[0, -1]), float(sol.y[1, -1]))
    traj = TovTrajectory(eos, "inward", sol, cls.exit,
                         f_const=_f_const(eos, radius, mass))
    traj.check_domain()
    return cls, traj


def shoot_from_boundaries(eos, radii, masses, config=None):
    """Inward shots from many boundary data, run as the lanes of one
    `ode.solve_lanes` call.  Returns one entry per (R, M), in order: the
    ShootClassification of shoot_from_boundary, or the StellarMatchError
    it would raise (returned, so that one sample's failure leaves the
    others alone).

    Each lane starts as the scalar shot does and has its events, with its
    own slope floor, its own span bound r_floor and the batch's one
    pressure ceiling, so it takes the same steps and ends on the same exit
    to roundoff.  check_domain's tests run on every accepted state of
    every lane."""
    cfg = config or ShootConfig()
    w_ceiling = _w_ceiling(eos)
    results = [None] * len(radii)
    lanes, starts = [], []
    for i, (radius, mass) in enumerate(zip(radii, masses)):
        try:
            starts.append(_inward_start(eos, radius, mass, cfg, w_ceiling))
        except StellarMatchError as exc:
            results[i] = exc
            continue
        lanes.append(i)
    if not lanes:
        return results

    events, labels = _inward_events(eos, w_ceiling)
    faults, observe = _fault_observer(eos, len(lanes))
    sol = ode.solve_lanes(
        lambda r, y: _lanes_rhs(eos, r, y), [s.r for s in starts],
        [s.r_floor for s in starts], np.array([s.y for s in starts]).T,
        cfg.rtol, np.array([s.atol for s in starts]).T, events, observe,
        [[s.slope_floor for s in starts]])
    for j, (i, start) in enumerate(zip(lanes, starts)):
        try:
            if sol.status[j] < 0:
                raise _integrator_failure(sol.t[j], ode.MESSAGES[-1])
            results[i] = _classify(eos, start, labels[sol.event[j]],
                                   float(sol.t[j]), float(sol.y[0, j]),
                                   float(sol.y[1, j]))
            _check_domain(faults[:, j])
        except StellarMatchError as exc:
            results[i] = exc
    return results


def _classify(eos, start, label, r_e, m_e, w_e):
    """The ShootClassification of an inward solve that ended on the exit
    `label` at (r_e, m_e, w_e): one decision per exit label."""
    case, p_center = None, None
    if label == EXIT_PRESSURE_CEILING:
        # the EOS cap, at a finite c only, where its exit lies above r_floor
        case = CASE00
    elif label == EXIT_SLOPE_STALL:
        case = CASE01
    elif label == EXIT_CENTER_FLOOR:
        if abs(m_e) <= start.m_floor:
            # regular center: strip the known singular mode
            # m_res/(w_unit r) before reading off the central pressure,
            # since raw w(r_floor) amplifies the (R, M) error by ~R/r_floor
            case = CASE11
            rho_e = eos._fluid(float(w_e))[0]
            m_res = m_e - 4.0 * math.pi / 3.0 * rho_e * r_e**3
            w_center = w_e - m_res / (eos.w_unit * r_e)
            p_center = eos.pressure_of_enthalpy(max(w_center, 0.0))
        elif m_e > 0.0 and eos.nonrelativistic:
            # dw/dr = -m/r^2: P rises like m/r all the way to r = 0
            case = CASE10
        else:
            label = EXIT_CENTER_MASSIVE
    # a horizon or vacuum re-entry exit lies outside the taxonomy
    return ShootClassification(
        case=case, exit=label, r_exit=r_e, m_exit=m_e, w_exit=w_e,
        p_exit=eos.pressure_of_enthalpy(w_e), p_center=p_center,
        diagnostics=start.diagnostics)


# ---------------------------------------------------------------------------
# metric coefficients and the junction check


@dataclass
class MetricCoeffs:
    """Samples of F, H on an interior grid plus one-sided data for
    e^{2F}, e^{2H} at the surface from both sides of the matching.

    `required_order` is the highest order at which the two sides must
    agree: 2 where the surface density slope vanishes (gamma < 2), 1 for
    gamma >= 2, where drho/dr does not vanish at the surface (finite at
    gamma = 2, infinite above), so m'' and with it e^{2H}'' jump there."""

    r: np.ndarray
    F: np.ndarray
    H: np.ndarray
    radius: float
    mass: float
    interior: dict      # order -> (e2F_k, e2H_k) one-sided at r = R-
    exterior: dict      # order -> (e2F_k, e2H_k) closed form at r = R+
    required_order: int = 2


def _interior_surface_derivatives(eos, radius, m_s, w_s):
    """One-sided first and second derivatives of e^{2F}, e^{2H} at the
    surface, {1: (e2F', e2H'), 2: (e2F'', e2H'')}, by differentiating the
    interior expressions through the hydrostatic equations at the surface
    state (m_s, w_s).

    Finite differences are not an option here: rho ~ (R-r)^{1/(gamma-1)}
    near the surface puts a fractional power into m(r), and for gamma < 2
    a second-derivative stencil on it has an O(sqrt(delta)) bias with an
    O(1) coefficient.  The equations give the one-sided limits directly
    from the surface state."""
    csq = eos.c_light**2
    r = radius
    rho, p = eos._fluid_of_w(w_s)
    dm, dw = tov_rhs(eos, r, m_s, w_s)
    dp = _dp_dw(eos, rho, p) * dw
    if rho > 0.0:
        drho = dp / float(eos.sound_speed_sq(rho))
    elif eos.gamma == 2.0:
        # dP/drho ~ 2 A rho: the ratio dP'/(dP/drho) stays finite
        drho = csq * dw / (2.0 * eos.A)
    else:
        drho = 0.0
    d2m = 8.0 * math.pi * r * rho + 4.0 * math.pi * r**2 * drho

    phi = _metric(eos, r, m_s)
    dphi = -2.0 * dm / (csq * r) + 2.0 * m_s / (csq * r**2)
    d2phi = -2.0 * d2m / (csq * r) + 4.0 * dm / (csq * r**2) \
        - 4.0 * m_s / (csq * r**3)

    n_num = m_s + 4.0 * math.pi * r**3 * p / csq
    dn = dm + 4.0 * math.pi / csq * (3.0 * r**2 * p + r**3 * dp)
    d_den = csq * r**2 - 2.0 * m_s * r
    dd = 2.0 * csq * r - 2.0 * (dm * r + m_s)
    d2w = -(dn * d_den - n_num * dd) / d_den**2
    e2F_s = phi * math.exp(-2.0 * max(w_s, 0.0))
    return {
        1: (-2.0 * dw * e2F_s, -dphi / phi**2),
        2: ((4.0 * dw**2 - 2.0 * d2w) * e2F_s,
            -d2phi / phi**2 + 2.0 * dphi**2 / phi**3),
    }


def metric_coefficients(trajectory, radius, mass, grid_points=401):
    """Interior metric coefficients of a relativistic trajectory with
    surface (R, M), plus one-sided surface data on both sides.

    F and H are only defined for a finite c: a c = inf trajectory raises
    ValueError.  Interior derivatives of orders 1 and 2 come from the
    hydrostatic equations at the surface state (see
    _interior_surface_derivatives), the exterior ones from the closed
    vacuum form e^{2F} = 1 - 2M/(c^2 r) = e^{-2H}.  The vacuum case M = 0
    gives F = H = 0 identically."""
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
    f_const = _f_const(eos, radius, mass)

    m_s, w_s = trajectory.state_at(radius)
    interior = {
        0: (math.exp(2.0 * (f_const - w_s)), 1.0 / _metric(eos, radius, m_s)),
        **_interior_surface_derivatives(eos, radius, m_s, w_s),
    }

    phi = _metric(eos, radius, mass)
    dphi = 2.0 * mass / (csq * radius**2)
    d2phi = -4.0 * mass / (csq * radius**3)
    ext = {
        0: (phi, 1.0 / phi),
        1: (dphi, -dphi / phi**2),
        2: (d2phi, -d2phi / phi**2 + 2.0 * dphi**2 / phi**3),
    }
    return MetricCoeffs(r=grid, F=f_const - w_g,
                        H=-0.5 * np.log(_metric(eos, grid, m_g)),
                        radius=radius, mass=mass, interior=interior,
                        exterior=ext,
                        required_order=2 if eos.gamma < 2.0 else 1)


def junction_check(coeffs, order=2):
    """Scaled one-sided gaps of e^{2F}, e^{2H} and derivatives at the
    surface.  Order 0 must agree to roundoff; orders 1-2 to 1e-5 scaled.
    Orders above coeffs.required_order are reported with `required`
    False and do not count toward the overall `passed`."""
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
        required = k <= coeffs.required_order
        ok = ok and (passed or not required)
        report["orders"][k] = {
            "e2F_interior": fi, "e2F_exterior": fe, "e2F_scaled_gap": gap_f,
            "e2H_interior": hi, "e2H_exterior": he, "e2H_scaled_gap": gap_h,
            "tolerance": tols[k], "passed": passed, "required": required,
        }
    report["passed"] = ok
    return report
