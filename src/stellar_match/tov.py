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

The pressure equation in w is regular at the surface, so inward shots
start on the surface itself, at (m, w) = (M, 0) and r = R, unlike
(m, P) = (M, 0) which is an equilibrium of the pressure-form right-hand
side (Lindblom 1992, ApJ 398, 569).

Outward shots start from a central pressure with a series start at r0,
run in r until w falls to TAIL_FRACTION of its start value, and finish in
x = sqrt(w) with state (r, m): the surface x = 0 is that solve's span
bound, and m = M - C x^(2n+2) near it, where in r the kink of rho ~ w^n
costs rejected steps (Lindblom 1992, ApJ 398, 569).  A guard may stop a
shot first.  Inward shots start from boundary data (R, M) on the surface,
run in s = ln r, where the steps do not shrink toward the center, and end
in one of four ways:

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
a radius floor at or beyond the surface, where inward shots start.

Every solve runs on `ode.solve`, whose steps never pass a span bound and
end on a step redone to the event root that stops them, or as one lane of
`ode.solve_lanes` (`shoot_from_centers`, `shoot_from_boundaries`).  It is
read off the index of the event that stopped it, -1 at its span bound;
one whose steps collapse raises StellarMatchError naming the radius.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import ode
from .errors import (AdmissibilityError, EosValidityError, ShootFailureError,
                     StellarMatchError)
from .roots import chandrupatla

# exit labels
EXIT_SURFACE = "surface"
EXIT_R_MAX = "r_max_guard"
EXIT_HORIZON = "horizon"
EXIT_PRESSURE_CEILING = "pressure_ceiling"
EXIT_SLOPE_STALL = "slope_stall"
EXIT_CENTER_FLOOR = "center_floor"
EXIT_CENTER_MASSIVE = "center_floor_massive"
EXIT_VACUUM = "vacuum_reentry"
# Exits of an outward shot's solve in r by the index of the event
# (_outward_events) that stopped it: the tail's start, on the way to the
# surface, or the horizon; a solve that no event stopped (-1) ran into the
# range guard.  At c = inf there is no horizon event, and index -1 still
# names the guard.
_OUTWARD_EXITS = (EXIT_SURFACE, EXIT_HORIZON, EXIT_R_MAX)
# The fraction of its start value at which w hands an outward shot to its
# tail in x = sqrt(w); the cost hardly depends on it (gamma 5/3, c = 1,
# P_c = 1e-3: 331, 331, 307 and 319 evaluations at 0.02, 0.05, 0.2, 0.5).
TAIL_FRACTION = 0.05
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
    An inward shot starts on the surface r = R itself, so a radius floor
    r_floor_factor R at or beyond it raises ValueError.
    """

    rtol: float = 1e-10
    atol_factor: float = 1e-12      # abs tol = atol_factor * natural scale
    r0_factor: float = 1e-6         # center offset in units of the length scale
    r_max_factor: float = 1e3       # outward guard in units of the length scale
    r_floor_factor: float = 1e-6
    m_floor_factor: float = 1e-5
    slope_floor_factor: float = 1e-8

    def __post_init__(self):
        if not self.r_floor_factor < 1.0:
            raise ValueError("r_floor_factor must be below 1, or the inward "
                             "start on the surface lies inside the radius "
                             "floor")


class TovTrajectory:
    """Accepted integration steps plus the dense interpolant.

    `sol` is a solve in r, or in s = ln r inward; `tail` an outward shot's
    solve in x = sqrt(w) after it.  Columns r, m and w are stored; P and
    rho are recovered through the EOS on demand.  f_const is the additive
    constant fixing the time metric coefficient, F = f_const - w (0 when
    c = inf; None on failed shots)."""

    def __init__(self, eos, direction, sol, exit_label, f_const=None,
                 tail=None):
        self.eos = eos
        self.direction = direction
        self.exit = exit_label
        self._sol, self._tail = sol.sol, tail
        r = np.asarray(sol.t, dtype=float)
        if direction == "inward":
            r = _exp(r)
        m, w = np.asarray(sol.y, dtype=float)
        if tail is not None:
            x = tail.t[1:]
            r, m, w = (np.concatenate(pair) for pair in (
                (r, tail.y[0, 1:]), (m, tail.y[1, 1:]), (w, x * x)))
        self.r, self.m, self.w = r, m, w
        self.f_const = f_const

    def dense(self, r):
        """(m, w) at radius r, a float or an array.  In the tail it inverts
        the monotone r(x); past the tail's end it reads the end state."""
        if self.direction == "inward":
            return self._sol(np.log(r) if np.ndim(r) else math.log(r))
        if self._tail is None:
            return self._sol(r)
        radii = np.atleast_1d(np.asarray(r, dtype=float))
        m, w = np.asarray(self._sol(radii), dtype=float)
        beyond = radii > self.r[len(self.r) - len(self._tail.t)]
        if beyond.any():
            tail, (x_end, x0) = self._tail.sol, self._tail.t[[-1, 0]]
            x = chandrupatla(lambda x, target: tail(x)[0] - target,
                             float(x_end), float(x0),
                             args=(np.minimum(radii[beyond], self.r[-1]),),
                             xatol=ode.EPS * float(x0),
                             xrtol=4.0 * ode.EPS).x
            m[beyond], w[beyond] = tail(x)[1], x * x
        if np.ndim(r):
            return m, w
        return float(m[0]), float(w[0])

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
    return -(m + 4.0 * math.pi * r * r * r * p / csq) \
        / (eos.w_unit * r * r * metric)


def _dp_dw(eos, rho, p):
    """dP/dw = w_unit (rho + P/c^2): rho c^2 + P for h, rho for u."""
    return eos.w_unit * (rho + p / eos.c_light**2)


def tov_rhs(eos, r, m, w):
    """(dm/dr, dw/dr) for the enthalpy-variable system on floats; vacuum
    (w <= 0) continues smoothly with rho = P = 0.  It reads (rho, P) from
    the EOS's float map and computes dw/dr inline, as _dw_dr does on
    lanes, since it runs once per stage of every scalar solve.  Powers of
    r are products, as on lanes: numpy's r**3 and the float one round
    apart on about 5% of arguments."""
    rho, p = eos._fluid(w)
    csq = eos.c_light**2
    metric = 1.0 - 2.0 * m / (csq * r)
    if metric < _METRIC_FLOOR:
        metric = _METRIC_FLOOR
    return (4.0 * math.pi * r * r * rho,
            -(m + 4.0 * math.pi * r * r * r * p / csq)
            / (eos.w_unit * r * r * metric))


def _lanes_rhs(eos, r, y):
    """tov_rhs over lanes, r (k,) and the rows y = (m, w), as one (2, k)
    array.  It does not call tov_rhs, so that a call of tov_rhs stays one
    scalar evaluation (the unit the benchmark's tov.rhs counters count)."""
    rho, p = eos._fluid_of_w(y[1])
    return np.array((4.0 * math.pi * r * r * rho, _dw_dr(eos, r, y[0], p)))


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
    return _dp_dw(eos, rho, p) * (-(m + 4.0 * math.pi * r * r * r * p / csq)
                                  / (eos.w_unit * r * r * metric))


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


def _directed(event, direction):
    """An event function of ode.solve that fires on crossings in
    `direction` only."""
    event.direction = direction
    return event


def _exp(s):
    """exp(s) by math.exp, element by element on lanes, so that lanes and
    floats read the same bits of r off s = ln r (np.exp rounds otherwise
    on about 4% of arguments)."""
    if isinstance(s, float):
        return math.exp(s)
    return np.array(list(map(math.exp, s.tolist())))


def _float_rhs(eos, r, y):
    """tov_rhs on the rows y = (m, w)."""
    return tov_rhs(eos, r, y[0], y[1])


class _Variable(NamedTuple):
    """An independent variable t of the shots' solves: in_t(rhs, eos) is
    the right-hand side in t made from rhs(eos, r, (m, w)), and state(t, y)
    the radius and the rows (m, w) of a state."""

    in_t: Callable
    state: Callable

    # made per solve, so that they call the module's tov_rhs and
    # _lanes_rhs of that time
    def floats(self, eos):
        return self.in_t(_float_rhs, eos)

    def lanes(self, eos):
        return self.in_t(_lanes_rhs, eos)


def _rhs_in_s(rhs, eos):
    """(r dm/dr, r dw/dr) in s = ln r."""
    def in_s(s, y):
        r = _exp(s)
        dm, dw = rhs(eos, r, y)
        return r * dm, r * dw
    return in_s


def _rhs_in_x(rhs, eos):
    """(dr/dx, dm/dx) = (2x/w', 2x m'/w') in x = sqrt(w), with state
    (r, m), at w = x x."""
    def in_x(x, y):
        dm, dw = rhs(eos, y[0], (y[1], x * x))
        dr = 2.0 * x / dw
        return dr, dr * dm
    return in_x


# r: an outward shot up to its tail; s = ln r: inward shots; x = sqrt(w):
# an outward shot's tail
_IN_R = _Variable(functools.partial, lambda r, y: (r, y))
_IN_S = _Variable(_rhs_in_s, lambda s, y: (_exp(s), y))
_IN_X = _Variable(_rhs_in_x, lambda x, y: (y[0], (y[1], x * x)))


def _horizon_events(eos, variable=_IN_R):
    """[the event that stops a shot where 1 - 2m/(c^2 r) falls to
    HORIZON_MARGIN], in `variable`, or [] when c = inf, where it cannot
    fire.  The factor is inline, as the event runs every step.  It takes
    and ignores its solve's event argument."""
    if eos.nonrelativistic:
        return []
    csq = eos.c_light**2

    def horizon(t, y, *_):
        r, (m, _w) = variable.state(t, y)
        return 1.0 - 2.0 * m / (csq * r) - HORIZON_MARGIN
    return [_directed(horizon, -1)]


def _integrator_failure(r, message):
    return StellarMatchError("integrator failure at r = %.17g: %s"
                             % (r, message))


def _solve(eos, span, y0, events, rtol, atol, event_args=(),
           variable=_IN_R):
    """One solve of a shot over `span` in `variable` (_IN_R, _IN_S or
    _IN_X); raises the integrator failure at the radius where its steps
    collapsed."""
    sol = ode.solve(variable.floats(eos), span, y0, rtol, atol, events,
                    event_args)
    if not sol.success:
        radius, _ = variable.state(sol.t[-1], sol.y[:, -1])
        raise _integrator_failure(radius, sol.message)
    return sol


@dataclass
class _OutwardStart:
    """Start state, tolerances and guards of an outward shot."""

    r: float                # r0, the series start
    y: list                 # [m0, w0] at r0
    atol: list              # on (m, w)
    tail_atol: list         # on the tail's (r, m)
    r_max: float            # the range guard
    w_tail: float           # the tail's start, event argument in r


def _outward_start(eos, p_center, cfg):
    """_OutwardStart of an outward shot; raises EosValidityError for a
    central pressure the EOS cannot represent, a non-finite or nonpositive
    one included."""
    if not 0.0 < p_center < math.inf:
        raise EosValidityError("central pressure must be finite and "
                               "positive, got %r" % (p_center,))
    rho_c = eos.density_of_pressure(p_center)
    a = eos.length_scale(rho_c)
    r0 = cfg.r0_factor * a
    m0, w0 = _center_series(eos, p_center, rho_c, r0)
    m_scale = 4.0 * math.pi * rho_c * a**3
    return _OutwardStart(
        r=r0, y=[m0, w0],
        atol=[cfg.atol_factor * m_scale, cfg.atol_factor * w0],
        tail_atol=[cfg.atol_factor * a, cfg.atol_factor * m_scale],
        r_max=cfg.r_max_factor * a, w_tail=TAIL_FRACTION * w0)


def _outward_events(eos):
    """Events of an outward shot's solve in r: w falls to the tail's start
    (the event argument), then the horizon (none at c = inf); floats or
    lanes."""
    return [_directed(lambda r, y, w_tail: y[1] - w_tail, -1)] \
        + _horizon_events(eos)


def _tail_events(eos):
    """Events of an outward shot's tail and its exits by event index: the
    range guard r >= r_max (the event argument), since dr/dx = 2x/w'
    grows without bound where w' falls to 0, then the horizon (none at
    c = inf); -1 is the span bound x = 0, the surface."""
    horizon = _horizon_events(eos, _IN_X)
    events = [_directed(lambda x, y, r_max: y[0] - r_max, 1)] + horizon
    labels = (EXIT_R_MAX,) + (EXIT_HORIZON,) * len(horizon) \
        + (EXIT_SURFACE,)
    return events, labels


def _surface_data(eos, radius, mass):
    return SurfaceData(radius=radius, mass=mass,
                       g_surface=surface_gravity(eos, radius, mass),
                       compactness=2.0 * mass / (eos.c_light**2 * radius))


def shoot_from_center(eos, p_center, config=None):
    """Outward shot.  Returns (SurfaceData, TovTrajectory) on reaching the
    surface; raises ShootFailureError with the partial trajectory on the
    range guard or horizon exits."""
    cfg = config or ShootConfig()
    start = _outward_start(eos, p_center, cfg)
    sol = _solve(eos, (start.r, start.r_max), start.y, _outward_events(eos),
                 cfg.rtol, start.atol, (start.w_tail,))
    label, tail = _OUTWARD_EXITS[sol.event], None
    if label == EXIT_SURFACE:
        # from the solve's end state, not the nominal w_tail
        events, labels = _tail_events(eos)
        tail = _solve(eos, (math.sqrt(sol.y[1, -1]), 0.0),
                      [sol.t[-1], sol.y[0, -1]], events, cfg.rtol,
                      start.tail_atol, (start.r_max,), _IN_X)
        label = labels[tail.event]

    if label == EXIT_SURFACE:
        radius, mass = float(tail.y[0, -1]), float(tail.y[1, -1])
        traj = TovTrajectory(eos, "outward", sol, label,
                             f_const=_f_const(eos, radius, mass), tail=tail)
        traj.check_domain()
        return _surface_data(eos, radius, mass), traj

    if label == EXIT_HORIZON:
        message = "metric factor reached the horizon margin"
    else:
        message = "no surface below r = %g" % start.r_max
    traj = TovTrajectory(eos, "outward", sol, label, tail=tail)
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
    `ode.solve_lanes`: one call in r, one for the tails.  For a pure
    polytrope that costs less than shooting them one by one from about a
    dozen lanes on (2.5x less at 32 lanes), and more below.

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
    r_max = np.array([s.r_max for s in starts])
    faults, observe = _fault_observer(eos, len(lanes))
    sol = ode.solve_lanes(
        _IN_R.lanes(eos), [s.r for s in starts], r_max,
        np.array([s.y for s in starts]).T, cfg.rtol,
        np.array([s.atol for s in starts]).T, _outward_events(eos), observe,
        [[s.w_tail for s in starts]])
    # the tails, one lane per solve that reached its event 0
    tails = np.flatnonzero(sol.event == 0)
    at = dict(zip(tails.tolist(), range(tails.size)))
    if tails.size:
        events, labels = _tail_events(eos)
        tail = ode.solve_lanes(
            _IN_X.lanes(eos), np.sqrt(sol.y[1, tails]), np.zeros(tails.size),
            np.array((sol.t[tails], sol.y[0, tails])), cfg.rtol,
            np.array([starts[j].tail_atol for j in tails]).T, events,
            lambda index, x, y: observe(tails[index], *_IN_X.state(x, y)),
            [r_max[tails]])
    faulty = faults.any(axis=0).tolist()
    for j, i in enumerate(lanes):
        if sol.status[j] < 0:
            raise _integrator_failure(sol.t[j], ode.MESSAGES[-1])
        if j not in at:
            results[i] = _OUTWARD_EXITS[sol.event[j]]
            continue
        k = at[j]
        if tail.status[k] < 0:
            raise _integrator_failure(tail.y[0, k], ode.MESSAGES[-1])
        results[i] = labels[tail.event[k]]
        if results[i] == EXIT_SURFACE:
            if faulty[j]:
                _check_domain(faults[:, j])
            results[i] = _surface_data(eos, float(tail.y[0, k]),
                                       float(tail.y[1, k]))
    return results


def _w_ceiling(eos):
    """The enthalpy variable at the inward pressure ceiling: the EOS cap
    0.999 p_valid_max at a finite c, the same for every shot of the EOS;
    None at c = inf, where there is no cap."""
    if eos.nonrelativistic:
        return None
    return eos.enthalpy_of_pressure(0.999 * eos.p_valid_max)


def _inward_events(eos, w_ceiling):
    """Terminal events of an inward shot's solve in s = ln r, and the
    labels of its exits by the index of the event that stopped the solve.

    Each event takes the shot's slope_floor after (s, y) as its event
    argument, one per lane on lanes.  The pressure ceiling w_ceiling
    (_w_ceiling) comes first and the horizon last, both only for a finite
    c.  A solve that no event stopped (-1) reached its span bound, the
    center floor."""
    def slope_excess(s, y, slope_floor):
        return abs(pressure_gradient(eos, _exp(s), y[0], y[1])) - slope_floor

    horizon = _horizon_events(eos, _IN_S)
    ceiling = [] if w_ceiling is None else [
        _directed(lambda s, y, _: y[1] - w_ceiling, 1)]
    events = ceiling + [
        # fire only on falling crossings, so the slope rising through the
        # floor just inside the surface is ignored
        _directed(slope_excess, -1),
        _directed(lambda s, y, _: y[1], -1),  # vacuum re-entry, w = 0
    ] + horizon
    labels = [EXIT_PRESSURE_CEILING] * len(ceiling) + [
        EXIT_SLOPE_STALL, EXIT_VACUUM] + [EXIT_HORIZON] * len(horizon) \
        + [EXIT_CENTER_FLOOR]
    return events, labels


@dataclass
class _InwardStart:
    """Start state, tolerances and floors of an inward shot, which starts
    on the surface itself: (m, w) = (M, 0) at r = R."""

    r: float                # R
    y: list                 # [M, 0.0] at R
    atol: list
    slope_floor: float      # the inward events' argument
    r_floor: float          # the solve's span bound
    m_floor: float
    diagnostics: dict

    @property
    def span(self):
        """The solve's span in s = ln r."""
        return math.log(self.r), math.log(self.r_floor)

    def exit_radius(self, event, s):
        """The radius where the solve ended at s after `event`: r_floor
        itself at the span bound (-1), so no ulp of exp or log moves it."""
        return self.r_floor if event < 0 else math.exp(s)


def _inward_start(eos, radius, mass, cfg):
    """_InwardStart of an inward shot from (R, M); raises
    AdmissibilityError for inadmissible data, or data whose p_ref or slope
    floor is not a finite positive float.  w's absolute tolerance scales
    with g_s R, w's rise over one radius at the surface slope."""
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
    r_floor = cfg.r_floor_factor * radius
    if not (0.0 < p_ref < math.inf and 0.0 < slope_floor < math.inf
            and r_floor > 0.0):
        raise AdmissibilityError(
            "(R, M) = (%g, %g) give p_ref = %g, slope floor %g and radius "
            "floor %g; all must be finite and positive"
            % (radius, mass, p_ref, slope_floor, r_floor))
    m_floor = cfg.m_floor_factor * mass

    w_scale = surface_gravity(eos, radius, mass) * radius
    atol = [cfg.atol_factor * mass, cfg.atol_factor * w_scale]
    diagnostics = {"p_ref": p_ref, "slope_floor": slope_floor,
                   "r_floor": r_floor, "m_floor": m_floor}
    if not eos.nonrelativistic:
        diagnostics["ceiling"] = 0.999 * eos.p_valid_max
    return _InwardStart(r=radius, y=[mass, 0.0], atol=atol,
                        slope_floor=slope_floor, r_floor=r_floor,
                        m_floor=m_floor, diagnostics=diagnostics)


def shoot_from_boundary(eos, radius, mass, config=None):
    """Inward shot from admissible boundary data; returns
    (ShootClassification, TovTrajectory)."""
    cfg = config or ShootConfig()
    start = _inward_start(eos, radius, mass, cfg)
    events, labels = _inward_events(eos, _w_ceiling(eos))
    sol = _solve(eos, start.span, start.y, events, cfg.rtol, start.atol,
                 (start.slope_floor,), _IN_S)
    cls = _classify(eos, start, labels[sol.event],
                    start.exit_radius(sol.event, float(sol.t[-1])),
                    float(sol.y[0, -1]), float(sol.y[1, -1]))
    traj = TovTrajectory(eos, "inward", sol, cls.exit,
                         f_const=_f_const(eos, radius, mass))
    # R itself at the start, r_floor itself at the span bound
    traj.r[0], traj.r[-1] = radius, cls.r_exit
    traj.check_domain()
    return cls, traj


def shoot_from_boundaries(eos, radii, masses, config=None):
    """Inward shots from many boundary data, run as the lanes of one
    `ode.solve_lanes` call.  Returns one entry per (R, M), in order: the
    ShootClassification of shoot_from_boundary, or the StellarMatchError
    it would raise (returned, so that one sample's failure leaves the
    others alone).

    Each lane starts as the scalar shot does and has its events, with its
    own slope floor, its own span bound ln r_floor and the batch's one
    pressure ceiling, so it takes the same steps and ends on the same exit
    to roundoff.  check_domain's tests run on every accepted state of
    every lane."""
    cfg = config or ShootConfig()
    results = [None] * len(radii)
    lanes, starts = [], []
    for i, (radius, mass) in enumerate(zip(radii, masses)):
        try:
            starts.append(_inward_start(eos, radius, mass, cfg))
        except StellarMatchError as exc:
            results[i] = exc
            continue
        lanes.append(i)
    if not lanes:
        return results

    events, labels = _inward_events(eos, _w_ceiling(eos))
    faults, observe = _fault_observer(eos, len(lanes))
    s0, s_floor = zip(*[s.span for s in starts])
    sol = ode.solve_lanes(
        _IN_S.lanes(eos), s0, s_floor, np.array([s.y for s in starts]).T,
        cfg.rtol, np.array([s.atol for s in starts]).T, events,
        lambda index, s, y: observe(index, *_IN_S.state(s, y)),
        [[s.slope_floor for s in starts]])
    faulty = faults.any(axis=0).tolist()
    for j, (i, start) in enumerate(zip(lanes, starts)):
        try:
            s_end = float(sol.t[j])
            if sol.status[j] < 0:
                raise _integrator_failure(math.exp(s_end), ode.MESSAGES[-1])
            results[i] = _classify(eos, start, labels[sol.event[j]],
                                   start.exit_radius(sol.event[j], s_end),
                                   float(sol.y[0, j]), float(sol.y[1, j]))
            if faulty[j]:
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
