"""Dormand-Prince 5(4) integration in plain float arithmetic.

`solve` integrates a small system y' = fun(t, y) whose state is a list of
floats.  It is the package's one integrator: the TOV shots, the EOS table,
the Lane-Emden profile and the distortion responses all run on it.  It
returns the fields they read off a scipy ODE result: the accepted steps
`t`, `y`, the dense output `sol`, `nfev`, `success`, `message`, and
`event`, the index of the event that stopped it.  It follows scipy's RK45
step by step, so its trajectories agree with those of scipy's RK45 driver
(dense output on) to roundoff.  The step ends themselves agree only to
about 1e-9 relative: the error estimate cancels by several digits and
scipy sums it in another order, so where it is mostly rounding (tight
rtol) a step count can differ by one.  Copied:

- the Dormand-Prince pair (Dormand & Prince 1980, J. Comp. Appl. Math. 6,
  19) with local extrapolation, and Shampine's 4th-order continuous
  extension for the dense output (Shampine 1986, Math. Comp. 46, 135);
- the RMS error norm with scale atol + max(|y|, |y_new|) rtol, safety 0.9,
  a step factor in [0.2, 10] that is capped at 1 after a rejection, a
  minimum step of 10 ulp of t, and the last step clipped to the bound;
- the Hairer-Norsett-Wanner initial step (Solving ODEs I, sec. II.4),
  which costs one right-hand side call beyond the one at t0;
- events as scipy's driver handles terminal ones: a sign change between
  step ends in the event's direction, a brentq root on that step's
  interpolant, a stop at the earliest root (a tie goes to the lower event
  index), whose state replaces the step end.  Every event is terminal.

Each right-hand side call receives the state as a list and may return any
sequence.  No numpy runs inside a step; the result arrays are built once
at the end.  When the step size collapses below its minimum the solve
stops with success False and returns the steps accepted so far.

`solve_lanes` runs many independent solves of one system in lockstep, as
lanes of numpy arrays: each lane keeps its own t, step size and rejection
flag, takes the steps `solve` would take from its start (the same tableau,
error norm, step rules, minimum step, initial step and event rules), and a
mask retires it when it reaches its bound, an event or a collapsed step.
Event arguments may differ from lane to lane: they follow each lane as the
mask retires others, and an event sees the active lanes' values (one
lane's floats when its root is found).  Its cost per lockstep step is
about that of a few scalar steps, so it pays from about a dozen to twenty
lanes (see matching.LANES_MIN).  It keeps no step history: it returns
where each lane ended, and hands each accepted state to an optional
observer.  The arithmetic is the scalar solve's, operation for operation,
but numpy's elementwise functions may round the right-hand side
differently by an ulp, so lanes agree with `solve` to roundoff, not bit
for bit.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .roots import brentq

EPS = sys.float_info.epsilon

# Nodes, stage weights, 5th-order weights and error weights (5th minus 4th
# order) of the Dormand-Prince pair; the zero entries, all in the second
# stage, are left out.
C2, C3, C4, C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
A21 = 1 / 5
A31, A32 = 3 / 40, 9 / 40
A41, A42, A43 = 44 / 45, -56 / 15, 32 / 9
A51, A52, A53, A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
A61, A62, A63, A64, A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                           -5103 / 18656)
B1, B3, B4, B5, B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
E1, E3, E4, E5, E6, E7 = (-71 / 57600, 71 / 16695, -71 / 1920,
                          17253 / 339200, -22 / 525, 1 / 40)
# Shampine's dense output: y(t_old + x h) = y_old + h sum_j Q_j x^(j+1) with
# Q = K^T P; the first column of P is (1, 0, ..., 0), so Q_0 = K_1.
P1 = (-8048581381 / 2820520608, 8663915743 / 2820520608,
      -12715105075 / 11282082432)
P3 = (131558114200 / 32700410799, -68118460800 / 10900136933,
      87487479700 / 32700410799)
P4 = (-1754552775 / 470086768, 14199869525 / 1410260304,
      -10690763975 / 1880347072)
P5 = (127303824393 / 49829197408, -318862633887 / 49829197408,
      701980252875 / 199316789632)
P6 = (-282668133 / 205662961, 2019193451 / 616988883,
      -1453857185 / 822651844)
P7 = (40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423)

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1 / 5

MESSAGES = {
    0: "The solver successfully reached the end of the integration interval.",
    1: "A termination event occurred.",
    -1: "Required step size is less than spacing between numbers.",
}


def _rms(values):
    return math.sqrt(sum(v * v for v in values)) / len(values) ** 0.5


def _quartic(k1, k3, k4, k5, k6, k7):
    """(Q_0, .., Q_3) of one step from its stages; floats or arrays."""
    return (k1,) + tuple(
        p1 * k1 + p3 * k3 + p4 * k4 + p5 * k5 + p6 * k6 + p7 * k7
        for p1, p3, p4, p5, p6, p7 in zip(P1, P3, P4, P5, P6, P7))


def _initial_step(fun, t0, y0, f0, t_bound, direction, rtol, atol):
    """First step size (Hairer, Norsett & Wanner, sec. II.4), as scipy's
    select_initial_step; makes one right-hand side call."""
    interval = abs(t_bound - t0)
    scale = [a + abs(v) * rtol for v, a in zip(y0, atol)]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0 * direction,
             [v + h0 * direction * d for v, d in zip(y0, f0)])
    d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval)


class DenseOutput:
    """Continuous solution over the accepted steps: one quartic per step.

    A float argument returns a list of floats, found with `bisect` and
    evaluated by Horner; an array returns an (n, len(t)) array.  At a step
    boundary the earlier step is used, and points outside the covered range
    extrapolate the nearest end step, as scipy's OdeSolution does.  The
    last step of an event-truncated run keeps its full length."""

    def __init__(self, ts, steps):
        self._steps = steps  # (t_old, h, y_old, k1, k3, k4, k5, k6, k7)
        self._coeffs = [None] * len(steps)
        self._sign = 1.0 if ts[-1] >= ts[0] else -1.0
        self._keys = ts if self._sign > 0 else [-t for t in ts]
        self._arrays = None

    def __call__(self, t):
        if not isinstance(t, float) and np.ndim(t):
            return self._call_array(np.asarray(t, dtype=float))
        t = float(t)
        i = bisect_left(self._keys, self._sign * t) - 1
        i = min(max(i, 0), len(self._steps) - 1)
        coeffs = self._coeffs[i]
        if coeffs is None:
            coeffs = self._coeffs[i] = _step_coeffs(self._steps[i])
        return _evaluate(coeffs, t)

    def _call_array(self, t):
        if self._arrays is None:
            cols = list(zip(*self._steps))
            t_old, h = np.array(cols[0]), np.array(cols[1])
            # each (n, steps): y_old, then the stages
            y_old, *k = (np.array(c, dtype=float).T for c in cols[2:])
            self._arrays = (np.array(self._keys), t_old, h, y_old,
                            _quartic(*k))
        keys, t_old, h, y_old, (q0, q1, q2, q3) = self._arrays
        i = np.searchsorted(keys, self._sign * t, side="left") - 1
        np.clip(i, 0, len(t_old) - 1, out=i)
        h_i = h[i]
        x = (t - t_old[i]) / h_i
        return y_old[:, i] + h_i * (x * (q0[:, i] + x * (
            q1[:, i] + x * (q2[:, i] + x * q3[:, i]))))


def _step_coeffs(step):
    """(t_old, h, [(y_old, Q_0, .., Q_3) per component]) of one step."""
    t_old, h, y_old, *k = step
    return t_old, h, [(y, *_quartic(*ks)) for y, *ks in zip(y_old, *k)]


def _evaluate(coeffs, t):
    t_old, h, comps = coeffs
    x = (t - t_old) / h
    return [y + h * (x * (q0 + x * (q1 + x * (q2 + x * q3))))
            for y, q0, q1, q2, q3 in comps]


def _first_root(events, crossed, coeffs, args, t_old, t_new, direction):
    """(root, event index) of the earliest brentq root of the `crossed`
    events on one step's interpolant `coeffs`; ties go to the lower index."""
    roots = [(brentq(lambda s: events[e](s, _evaluate(coeffs, s), *args),
                     t_old, t_new, xtol=4 * EPS, rtol=4 * EPS), e)
             for e in crossed]
    return min(roots, key=lambda root: direction * root[0])


@dataclass
class OdeResult:
    """The ODE result fields this package reads, named as scipy names them,
    and LanesResult's `event`: the index of the event that stopped the
    solve (-1 for none), whose root and state there are t[-1], y[:, -1]."""

    t: np.ndarray
    y: np.ndarray
    sol: DenseOutput
    event: int
    nfev: int
    status: int
    message: str

    @property
    def success(self):
        return self.status >= 0


def solve(fun, t_span, y0, rtol, atol, events=(), event_args=()):
    """Integrate y' = fun(t, y) over t_span from y0 with scipy's RK45 rules.

    atol is a float or one float per component.  Each event is a function
    event(t, y, *event_args) with an optional attribute `direction` (sign
    of the crossings that count; 0 for both), as for scipy's driver.  Every
    event is terminal: the earliest root stops the solve."""
    t, t_bound = float(t_span[0]), float(t_span[1])
    if t == t_bound:
        raise ValueError("empty integration span")
    direction = 1.0 if t_bound > t else -1.0
    y = [float(v) for v in y0]
    n = len(y)
    atol = [float(a) for a in atol] if np.ndim(atol) else [float(atol)] * n
    rtol = max(float(rtol), 100 * EPS)  # scipy's floor on rtol
    sqrt_n = n ** 0.5

    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_bound, direction, rtol, atol)
    nfev = 2

    senses = [getattr(ev, "direction", 0) for ev in events]
    g = [ev(t, y, *event_args) for ev in events]

    ts, ys, steps = [t], [y], []
    status, event = None, -1
    while status is None:
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                status = -1
                break
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)

            k1 = f
            k2 = fun(t + C2 * h, [v + A21 * a * h for v, a in zip(y, k1)])
            k3 = fun(t + C3 * h, [v + (A31 * a + A32 * b) * h
                                  for v, a, b in zip(y, k1, k2)])
            k4 = fun(t + C4 * h, [v + (A41 * a + A42 * b + A43 * c) * h
                                  for v, a, b, c in zip(y, k1, k2, k3)])
            k5 = fun(t + C5 * h,
                     [v + (A51 * a + A52 * b + A53 * c + A54 * d) * h
                      for v, a, b, c, d in zip(y, k1, k2, k3, k4)])
            k6 = fun(t + h,
                     [v + (A61 * a + A62 * b + A63 * c + A64 * d + A65 * e)
                      * h for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
            y_new = [v + h * (B1 * a + B3 * c + B4 * d + B5 * e + B6 * s)
                     for v, a, c, d, e, s in zip(y, k1, k3, k4, k5, k6)]
            k7 = fun(t + h, y_new)
            nfev += 6

            sq = 0.0
            for v, w, a, c, d, e, s, z, tol in zip(y, y_new, k1, k3, k4, k5,
                                                   k6, k7, atol):
                err = (E1 * a + E3 * c + E4 * d + E5 * e + E6 * s
                       + E7 * z) * h
                v, w = abs(v), abs(w)
                sq += (err / (tol + (v if v > w else w) * rtol)) ** 2
            error_norm = math.sqrt(sq) / sqrt_n

            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR,
                                 SAFETY * error_norm ** ERROR_EXPONENT)
                if rejected and factor > 1.0:
                    factor = 1.0
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        if status == -1:
            break

        step = (t, h, y, k1, k3, k4, k5, k6, k7)
        steps.append(step)
        t_old, t, y, f = t, t_new, y_new, k7
        if direction * (t - t_bound) >= 0:
            status = 0
        t_out, y_out = t, y

        if events:
            g_new = [ev(t, y, *event_args) for ev in events]
            crossed = [i for i, (a, b, sense) in enumerate(zip(g, g_new,
                                                               senses))
                       if (sense >= 0 and a <= 0 <= b)
                       or (sense <= 0 and a >= 0 >= b)]
            if crossed:
                coeffs = _step_coeffs(step)
                t_out, event = _first_root(events, crossed, coeffs, event_args,
                                           t_old, t, direction)
                y_out = _evaluate(coeffs, t_out)
                status = 1
            g = g_new

        if len(ts) > 1 and ts[-1] == t_out:
            steps.pop()  # the root is the previous step end
        else:
            ts.append(t_out)
            ys.append(y_out)

    return OdeResult(
        t=np.array(ts), y=np.array(ys).T, sol=DenseOutput(ts, steps),
        event=event, nfev=nfev, status=status, message=MESSAGES[status])


@dataclass
class LanesResult:
    """Where each lane of `solve_lanes` ended, lanes on the last axis.

    `t`, `y` are the last accepted state, or the event's root and the state
    there.  `status` is OdeResult's: 0 at the bound, 1 on an event, -1 when
    the steps collapsed.  `event` is OdeResult's too, the index of the
    event that stopped the lane (-1 for none); `steps` counts accepted
    steps and `nfev` right-hand side evaluations, both per lane."""

    t: np.ndarray
    y: np.ndarray
    status: np.ndarray
    event: np.ndarray
    steps: np.ndarray
    nfev: np.ndarray


def _rms_lanes(values):
    return np.sqrt(np.sum(values * values, axis=0)) / len(values) ** 0.5


def _initial_step_lanes(fun, t0, y0, f0, t_bound, direction, rtol, atol):
    """`_initial_step` for every lane at once; one right-hand side call."""
    interval = np.abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms_lanes(y0 / scale)
    d1 = _rms_lanes(f0 / scale)
    small = (d0 < 1e-5) | (d1 < 1e-5)
    # the quotient is only taken where d1 >= 1e-5 (no division by zero)
    h0 = np.where(small, 1e-6, 0.01 * d0 / np.where(small, 1.0, d1))
    h0 = np.minimum(h0, interval)
    f1 = np.asarray(fun(t0 + h0 * direction, y0 + h0 * direction * f0))
    d2 = _rms_lanes((f1 - f0) / scale) / h0
    flat = (d1 <= 1e-15) & (d2 <= 1e-15)
    h1 = np.where(flat, np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / np.where(flat, 1.0, np.maximum(d1, d2))) ** (1 / 5))
    return np.minimum(np.minimum(100 * h0, h1), interval)


def solve_lanes(fun, t0, t_bound, y0, rtol, atol, events=(), observe=None,
                event_args=()):
    """Integrate y' = fun(t, y) from t0 to t_bound for L lanes at once.

    t0 and t_bound have one value per lane and must point the same way for
    every lane; y0 is (n, L) and atol a float or an (n, L) array.
    fun(t, y) receives the active lanes, t (k,) and y (n, k), and returns
    an (n, k) array or n arrays of k values.  Events are as for `solve`,
    terminal, called on the same arrays (one value per lane) and, to find a
    root, on one lane's floats.  event_args holds per-lane event arguments,
    each with one value per lane (event thresholds, say): an event is
    called as event(t, y, *args) with the active lanes' values of each, or
    one lane's floats when finding its root, so each lane's events are
    those of its scalar solve with that lane's event_args.  observe(lanes, t, y), if
    given, sees the start and, after each lockstep step, the state of every
    active lane by lane index: its step end, the event root where an event
    stopped it, or its last state again where its step was rejected.
    Returns a LanesResult."""
    t = np.array(t0, dtype=float)
    t_bound = np.array(t_bound, dtype=float)
    y = np.array(y0, dtype=float)
    n, lanes = y.shape
    if np.all(t_bound > t):
        direction = 1.0
    elif np.all(t_bound < t):
        direction = -1.0
    else:
        raise ValueError("lanes need nonempty spans in one direction")
    atol = np.array(np.broadcast_to(atol, (n, lanes)), dtype=float)
    rtol = max(float(rtol), 100 * EPS)  # scipy's floor on rtol
    senses = np.array([[getattr(ev, "direction", 0)] for ev in events])
    rising, falling = senses >= 0, senses <= 0
    args = np.array(event_args, dtype=float).reshape(len(event_args), lanes)
    sqrt_n = n ** 0.5

    f = np.asarray(fun(t, y), dtype=float)
    h_abs = _initial_step_lanes(fun, t, y, f, t_bound, direction, rtol, atol)
    out = LanesResult(t=t.copy(), y=y.copy(), status=np.zeros(lanes, int),
                      event=np.full(lanes, -1), steps=np.zeros(lanes, int),
                      nfev=np.zeros(lanes, int))
    g = np.array([ev(t, y, *args) for ev in events]).reshape(len(events),
                                                             lanes)
    index = np.arange(lanes)
    if observe is not None:
        observe(index, t, y)

    # the active lanes' state; a lane whose last trial step was rejected
    # retries it, any other starts a new step.  Every active lane makes one
    # trial step per lockstep step.
    rejected = np.zeros(lanes, dtype=bool)
    fired = np.full(lanes, -1)
    steps = np.zeros(lanes, dtype=int)
    trials = 0
    while index.size:
        min_step = 10.0 * np.abs(np.nextafter(t, direction * np.inf) - t)
        h_abs = np.where(~rejected & (h_abs < min_step), min_step, h_abs)
        t_new = t + h_abs * direction
        t_new = np.where(direction * (t_new - t_bound) > 0, t_bound, t_new)
        h = t_new - t
        h_abs = np.abs(h)
        # h repeated for each component: multiplying by an (n, k) array is
        # cheaper than broadcasting a (k,) one
        hn = np.array((h,) * n)

        k1 = f
        k2 = np.asarray(fun(t + C2 * h, y + A21 * k1 * hn))
        k3 = np.asarray(fun(t + C3 * h, y + (A31 * k1 + A32 * k2) * hn))
        k4 = np.asarray(fun(t + C4 * h,
                            y + (A41 * k1 + A42 * k2 + A43 * k3) * hn))
        k5 = np.asarray(fun(t + C5 * h, y + (A51 * k1 + A52 * k2 + A53 * k3
                                             + A54 * k4) * hn))
        k6 = np.asarray(fun(t + h, y + (A61 * k1 + A62 * k2 + A63 * k3
                                        + A64 * k4 + A65 * k5) * hn))
        y_new = y + hn * (B1 * k1 + B3 * k3 + B4 * k4 + B5 * k5 + B6 * k6)
        k7 = np.asarray(fun(t + h, y_new))
        trials += 1

        err = (E1 * k1 + E3 * k3 + E4 * k4 + E5 * k5 + E6 * k6
               + E7 * k7) * hn
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        terms = (err / scale) ** 2
        sq = terms[0]
        for term in terms[1:]:  # the scalar solve's order of summation
            sq = sq + term
        error_norm = np.sqrt(sq) / sqrt_n

        accept = error_norm < 1.0
        # the floor gives a zero norm the factor MAX_FACTOR, as in the
        # scalar solve, without a division by zero; a NaN norm stays NaN
        # and takes MIN_FACTOR, as max(MIN_FACTOR, nan) does there
        change = SAFETY * np.maximum(error_norm, 1e-300) ** ERROR_EXPONENT
        grow = np.minimum(change, np.where(rejected, 1.0, MAX_FACTOR))
        h_abs = h_abs * np.where(accept, grow, np.fmax(MIN_FACTOR, change))
        rejected = ~accept

        t_old, y_old = t, y
        if np.count_nonzero(rejected):
            t = np.where(accept, t_new, t)
            y = np.where(accept, y_new, y)
            f = np.where(accept, k7, f)
        else:
            t, y, f = t_new, y_new, k7
        steps = steps + accept
        # a rejected lane's t, and so its minimum step, stay as they were
        collapsed = rejected & (h_abs < min_step)
        stop = (direction * (t - t_bound) >= 0) | collapsed

        if events:
            g_new = np.array([ev(t, y, *args) for ev in events])
            crossed = accept & ((rising & (g <= 0) & (g_new >= 0))
                                | (falling & (g >= 0) & (g_new <= 0)))
            g = g_new
            ends = np.flatnonzero(crossed.any(axis=0)) \
                if np.count_nonzero(crossed) else ()
            for j in ends:
                coeffs = _step_coeffs((
                    float(t_old[j]), float(h[j]), y_old[:, j].tolist(),
                    *(k[:, j].tolist() for k in (k1, k3, k4, k5, k6, k7))))
                root, e = _first_root(
                    events, np.flatnonzero(crossed[:, j]), coeffs,
                    args[:, j].tolist(), float(t_old[j]), float(t[j]),
                    direction)
                t[j], y[:, j] = root, _evaluate(coeffs, root)
                fired[j], stop[j] = e, True

        if observe is not None:
            observe(index, t, y)
        if np.count_nonzero(stop):
            lane = index[stop]
            out.t[lane], out.y[:, lane] = t[stop], y[:, stop]
            out.status[lane] = np.where(fired[stop] >= 0, 1,
                                        np.where(collapsed[stop], -1, 0))
            out.event[lane], out.steps[lane] = fired[stop], steps[stop]
            out.nfev[lane] = 2 + 6 * trials
            go = ~stop
            (index, t, t_bound, y, f, atol, g, args, h_abs, rejected, fired,
             steps) = (a[..., go] for a in (
                 index, t, t_bound, y, f, atol, g, args, h_abs, rejected,
                 fired, steps))
    return out
