"""DOP853 integration in plain float arithmetic.

`solve` integrates a small system y' = fun(t, y) whose state is a list of
floats.  It is the package's one integrator: the TOV shots, the EOS table,
the Lane-Emden profile and the distortion responses all run on it.  It
returns the fields they read off a scipy ODE result: the accepted steps
`t`, `y`, the dense output `sol`, `nfev`, `success`, `message`, and
`event`, the index of the event that stopped it.  Its steps are those of
scipy's DOP853 driver, so up to an event its trajectories agree with
scipy's to roundoff; the step ends agree only to a relative 1e-9 or so,
since the error estimate cancels by several digits and scipy sums it in
another order.  Copied from scipy (`integrate/_ivp/rk.py` and
`dop853_coefficients.py`):

- the Dormand-Prince 8(5,3) pair with local extrapolation, 12 stages per
  step with the last one reused (Hairer, Norsett & Wanner, Solving ODEs I,
  sec. II.5), and its 7th-order continuous extension, which takes three
  more stages (sec. II.6);
- the error norm |h| err5^2 / sqrt((err5^2 + 0.01 err3^2) n), each error
  scaled by atol + max(|y|, |y_new|) rtol, safety 0.9, a step factor
  err^(-1/8) in [0.2, 10] that is capped at 1 after a rejection, a
  minimum step of 10 ulp of t, the last step clipped to the bound, and
  rtol floored at 100 eps;
- the Hairer-Norsett-Wanner initial step for an order-7 error estimate
  (sec. II.4), which costs one right-hand side call beyond the one at t0;
- events as scipy's driver handles terminal ones: a sign change between
  step ends in the event's direction, a brentq root on that step's
  interpolant, a stop at the earliest root (a tie goes to the lower event
  index).  Every event is terminal.

One thing is not scipy's: the step that straddles the root is redone from
its start with h ending at the root (HNW I, sec. II.6, on discontinuous
right-hand sides).  The reported state and the last step of the dense
output are that step's, so no stage of the last step reaches past the
root, where a right-hand side may switch branch (the vacuum past a
stellar surface).  A root at the step's start needs no redo: the solve
ends at the previous step.

The interpolant's three extra stages are computed only for a step whose
interpolant is used (the step an event crosses, a float lookup of `sol`,
or an array lookup, which builds them for every step with numpy and one
right-hand side call per extra stage and step); `nfev` counts the calls
made during the solve.  Each right-hand side call receives the state as a
list and may return any sequence.  No numpy runs inside a step; the result
arrays are built once at the end.  When the step size collapses below its
minimum the solve stops with success False and returns the steps accepted
so far.

`solve_lanes` runs many independent solves of one system in lockstep, as
lanes of numpy arrays: each lane keeps its own t, step size and rejection
flag, takes the steps `solve` would take from its start (the same tableau,
error norm, step rules, minimum step, initial step, event rules and redo),
and a mask retires it when it reaches its bound, an event or a collapsed
step.  Event arguments may differ from lane to lane: they follow each lane
as the mask retires others, and an event sees the active lanes' values
(one lane's floats when its root is found).  It pays from about sixteen
lanes on (see matching.LANES_MIN).  It keeps no step history: it returns
where each lane ended, and hands each accepted state to an optional
observer.  Both paths form every weighted sum of stages with one
function, `_dot`, over the tableau row's nonzero weights left to right (on
arrays for lanes, on each component's floats for `solve`), so the
arithmetic is the scalar solve's operation for operation; numpy's
elementwise functions may still round a right-hand side differently by an
ulp, so lanes agree with `solve` to roundoff, not bit for bit.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .roots import brentq

EPS = sys.float_info.epsilon

# scipy's dop853_coefficients, copied.  C holds the nodes of the 12 stages,
# of the stage at t + h that the next step reuses, and of the three extra
# stages of the interpolant; row s of A (s entries) the weights of stage
# s + 1, so A[12] is B, the weights of the step.  E5 and E3 (13 entries,
# the last for the reused stage) give the 5th- and 3rd-order error
# estimates, and D the four stage sums of the interpolant beyond its first
# three rows.
C = (0.0, 0.526001519587677318785587544488e-01,
     0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
     0.281649658092772603273242802490, 0.333333333333333333333333333333, 0.25,
     0.307692307692307692307692307692, 0.651282051282051282051282051282, 0.6,
     0.857142857142857142857142857142, 1.0, 1.0, 0.1, 0.2,
     0.777777777777777777777777777778)
A = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0,
     8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0,
     -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0,
     1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0,
     1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
     -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0,
     -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
     2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
     -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0,
     -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
     2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
     -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0,
     5.18637242884406370830023853209, 1.09143734899672957818500254654,
     -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
     2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
     -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0,
     -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
     -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
     -2.85899827713502369474065508674, -8.87285693353062954433549289258,
     1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1),
    (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
     4.45031289275240888144113950566, 1.89151789931450038304281599044,
     -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
     -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
     4.47106157277725905176885569043e-2),
    (5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0,
     2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
     -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
     8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3,
     -8.298e-3),
    (3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0,
     2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
     -5.49237485713909884646569340306e-2, 0.0, 0.0,
     -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
     -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1),
    (-4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0,
     -4.69762141536116384314449447206, 7.68342119606259904184240953878,
     4.06898981839711007970213554331, 3.56727187455281109270669543021e-1, 0.0,
     0.0, 0.0, -1.39902416515901462129418009734e-3,
     2.9475147891527723389556272149, -9.15095847217987001081870187138),
)
E5 = (0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
      -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
      0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
      0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
      -0.2235530786388629525884427845e-1, 0.0)
D = (
    (-0.84289382761090128651353491142e+1, 0.0, 0.0, 0.0, 0.0,
     0.56671495351937776962531783590, -0.30689499459498916912797304727e+1,
     0.23846676565120698287728149680e+1, 0.21170345824450282767155149946e+1,
     -0.87139158377797299206789907490, 0.22404374302607882758541771650e+1,
     0.63157877876946881815570249290, -0.88990336451333310820698117400e-1,
     0.18148505520854727256656404962e+2, -0.91946323924783554000451984436e+1,
     -0.44360363875948939664310572000e+1),
    (0.10427508642579134603413151009e+2, 0.0, 0.0, 0.0, 0.0,
     0.24228349177525818288430175319e+3, 0.16520045171727028198505394887e+3,
     -0.37454675472269020279518312152e+3, -0.22113666853125306036270938578e+2,
     0.77334326684722638389603898808e+1, -0.30674084731089398182061213626e+2,
     -0.93321305264302278729567221706e+1, 0.15697238121770843886131091075e+2,
     -0.31139403219565177677282850411e+2, -0.93529243588444783865713862664e+1,
     0.35816841486394083752465898540e+2),
    (0.19985053242002433820987653617e+2, 0.0, 0.0, 0.0, 0.0,
     -0.38703730874935176555105901742e+3, -0.18917813819516756882830838328e+3,
     0.52780815920542364900561016686e+3, -0.11573902539959630126141871134e+2,
     0.68812326946963000169666922661e+1, -0.10006050966910838403183860980e+1,
     0.77771377980534432092869265740, -0.27782057523535084065932004339e+1,
     -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2,
     0.11992291136182789328035130030e+2),
    (-0.25693933462703749003312586129e+2, 0.0, 0.0, 0.0, 0.0,
     -0.15418974869023643374053993627e+3, -0.23152937917604549567536039109e+3,
     0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
     -0.37458323136451633156875139351e+2, 0.10409964950896230045147246184e+3,
     0.29840293426660503123344363579e+2, -0.43533456590011143754432175058e+2,
     0.96324553959188282948394950600e+2, -0.39177261675615439165231486172e+2,
     -0.14972683625798562581422125276e+3),
)
B = A[12]
# B less the weights of the 3rd-order estimate, as scipy writes it
E3 = (B[0] - 0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, B[5],
      B[6], B[7], B[8] - 0.733846688281611857341361741547, B[9], B[10],
      B[11] - 0.220588235294117647058823529412e-1, 0.0)

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1 / 8

MESSAGES = {
    0: "The solver successfully reached the end of the integration interval.",
    1: "A termination event occurred.",
    -1: "Required step size is less than spacing between numbers.",
}


def _terms(row):
    """A tableau row's nonzero weights as (index, weight) pairs, in order:
    (the first pair, a tuple of the rest)."""
    terms = tuple((j, w) for j, w in enumerate(row) if w)
    return terms[0], terms[1:]


def _dot(terms, k):
    """The weighted sum w_0 k[j_0] + w_1 k[j_1] + ... of stages over
    `terms`, left to right; each stage a float or an array."""
    (j, w), rest = terms
    total = w * k[j]
    for j, w in rest:
        total = total + w * k[j]
    return total


class _Sums(NamedTuple):
    """The tableau's weighted sums of one solve's (y, k, h): (node, the
    argument y + h sum_j a_j k_j) of each stage after the first, the new
    state y + h sum_j b_j k_j, the (err5, err3) sums, and the (node,
    argument) of each extra stage and the four D sums of the
    interpolant."""

    stages: tuple
    new: object
    errors: object
    extra: tuple
    dense: object


_E5, _E3, _D = _terms(E5), _terms(E3), [_terms(row) for row in D]


def _lane_state(row):
    terms = _terms(row)
    return lambda y, k, h: y + _dot(terms, k) * h


# y and each stage hold one array per component
_LANES = _Sums(
    stages=tuple((c, _lane_state(row)) for c, row in zip(C[1:12], A[1:12])),
    new=_lane_state(B),
    errors=lambda y, k, h: (_dot(_E5, k), _dot(_E3, k)),
    extra=tuple((c, _lane_state(row)) for c, row in zip(C[13:], A[13:])),
    dense=lambda y, k, h: tuple(_dot(terms, k) for terms in _D))


def _float_state(row):
    terms = _terms(row)
    return lambda y, k, h: [v + _dot(terms, col) * h
                            for v, col in zip(y, zip(*k))]


# y and each stage are lists of floats; each component's sums are _dot's
# on its floats, so a float step makes a lane step's operations in the
# same order
_FLOATS = _Sums(
    stages=tuple((c, _float_state(row)) for c, row in zip(C[1:12], A[1:12])),
    new=_float_state(B),
    errors=lambda y, k, h: [(_dot(_E5, col), _dot(_E3, col))
                            for col in zip(*k)],
    extra=tuple((c, _float_state(row)) for c, row in zip(C[13:], A[13:])),
    dense=lambda y, k, h: [tuple(_dot(terms, col) for terms in _D)
                           for col in zip(*k)])


def _rk_step(fun, sums, t, y, f, h, hy):
    """One step of size h from (t, y), f = fun(t, y): (y_new, k), k the 12
    stages and fun(t + h, y_new).  hy is h as `sums` multiplies the state
    by it: h itself, or on lanes h repeated for each component."""
    k = [f]
    for c, stage in sums.stages:
        k.append(fun(t + c * h, stage(y, k, hy)))
    y_new = sums.new(y, k, hy)
    k.append(fun(t + h, y_new))
    return y_new, k


def _extra_stages(fun, sums, t_old, h, y_old, k, hy):
    """The step's stages k followed by the interpolant's three extra
    ones."""
    k = list(k)
    for c, stage in sums.extra:
        k.append(fun(t_old + c * h, stage(y_old, k, hy)))
    return k


def _rows(y_old, y_new, f_old, f_new, h, d):
    """Rows F_0 .. F_6 of the interpolant of one component, or of arrays
    of them, from the D sums d of its stages."""
    dy = y_new - y_old
    return (dy, h * f_old - dy, 2.0 * dy - h * (f_new + f_old),
            h * d[0], h * d[1], h * d[2], h * d[3])


def _horner(y_old, rows, x):
    """y(t_old + x h) from the rows of _rows; floats or arrays."""
    f0, f1, f2, f3, f4, f5, f6 = rows
    x1 = 1.0 - x
    return ((((((f6 * x + f5) * x1 + f4) * x + f3) * x1 + f2) * x + f1)
            * x1 + f0) * x + y_old


def _rms(values):
    return math.sqrt(sum(v * v for v in values)) / len(values) ** 0.5


def _initial_step(fun, t0, y0, f0, t_bound, direction, rtol, atol):
    """First step size (Hairer, Norsett & Wanner, sec. II.4), as scipy's
    select_initial_step for an order-7 error estimate; makes one right-hand
    side call."""
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
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval)


class DenseOutput:
    """Continuous solution over the accepted steps: one 7th-order
    interpolant per step.

    A float argument returns a list of floats, found with `bisect` and
    evaluated by Horner; the step's three extra stages are computed on its
    first lookup.  An array returns an (n, len(t)) array; the first one
    computes the extra stages of every step with numpy, one right-hand side
    call per extra stage and step.  Both give the same bits.  At a step
    boundary the earlier step is used, and points outside the covered range
    extrapolate the nearest end step, as scipy's OdeSolution does.  The
    last step of an event-stopped run is the one redone to the root."""

    def __init__(self, ts, steps, fun):
        self._steps = steps  # (t_old, h, y_old, y_new, stages)
        self._fun = fun
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
            coeffs = self._coeffs[i] = _step_coeffs(self._steps[i],
                                                    self._fun)
        return _evaluate(coeffs, t)

    def _call_array(self, t):
        if self._arrays is None:
            self._arrays = self._build_arrays()
        keys, t_old, h, y_old, rows = self._arrays
        i = np.searchsorted(keys, self._sign * t, side="left") - 1
        np.clip(i, 0, len(t_old) - 1, out=i)
        return _horner(y_old[:, i], rows[..., i], (t - t_old[i]) / h[i])

    def _build_arrays(self):
        t_old, h, y_old, y_new, k = zip(*self._steps)

        def each_step(t, y):
            return np.array([self._fun(*arg) for arg in zip(t.tolist(),
                                                      y.T.tolist())]).T

        t_old, h = np.array(t_old), np.array(h)
        # each (n, steps)
        y_old, y_new = (np.array(y, dtype=float).T for y in (y_old, y_new))
        k = _extra_stages(each_step, _LANES, t_old, h, y_old,
                          [np.array(s, dtype=float).T for s in zip(*k)], h)
        # rows (7, n, steps)
        return (np.array(self._keys), t_old, h, y_old,
                np.array(_rows(y_old, y_new, k[0], k[12], h,
                               _LANES.dense(y_old, k, h))))


def _step_coeffs(step, fun):
    """(t_old, h, [(y_old, rows F_0 .. F_6) per component]) of one step of
    y' = fun(t, y); computes its three extra stages."""
    t_old, h, y_old, y_new, k = step
    k = _extra_stages(fun, _FLOATS, t_old, h, y_old, k, h)
    return t_old, h, [
        (a, _rows(a, b, f_old, f_new, h, d))
        for a, b, f_old, f_new, d in zip(y_old, y_new, k[0], k[12],
                                         _FLOATS.dense(y_old, k, h))]


def _evaluate(coeffs, t):
    t_old, h, comps = coeffs
    x = (t - t_old) / h
    return [_horner(y, rows, x) for y, rows in comps]


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
    """Integrate y' = fun(t, y) over t_span from y0 with scipy's DOP853
    rules.

    atol is a float or one float per component.  Each event is a function
    event(t, y, *event_args) with an optional attribute `direction` (sign
    of the crossings that count; 0 for both), as for scipy's driver.  Every
    event is terminal: the earliest root stops the solve, and the step to
    it is redone to end there."""
    t, t_bound = float(t_span[0]), float(t_span[1])
    if t == t_bound:
        raise ValueError("empty integration span")
    direction = 1.0 if t_bound > t else -1.0
    y = [float(v) for v in y0]
    n = len(y)
    atol = [float(a) for a in atol] if np.ndim(atol) else [float(atol)] * n
    rtol = max(float(rtol), 100 * EPS)  # scipy's floor on rtol

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

            y_new, k = _rk_step(fun, _FLOATS, t, y, f, h, h)
            nfev += 12

            sq5 = sq3 = 0.0
            for v, w, (e5, e3), tol in zip(y, y_new, _FLOATS.errors(y, k, h),
                                           atol):
                v, w = abs(v), abs(w)
                scale = tol + (v if v > w else w) * rtol
                e5, e3 = e5 / scale, e3 / scale
                sq5 += e5 * e5
                sq3 += e3 * e3
            if sq5 == 0.0 and sq3 == 0.0:
                error_norm = 0.0
            else:
                error_norm = abs(h) * sq5 / math.sqrt((sq5 + 0.01 * sq3) * n)

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

        step = (t, h, y, y_new, k)
        steps.append(step)
        t_old, y_old, t, y, f = t, y, t_new, y_new, k[12]
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
                t_out, event = _first_root(events, crossed,
                                           _step_coeffs(step, fun),
                                           event_args, t_old, t, direction)
                nfev += 3
                status = 1
                y_out = y_old
                if t_out != t_old:  # redo the step to end at the root
                    h = t_out - t_old
                    y_out, k = _rk_step(fun, _FLOATS, t_old, y_old, k[0], h,
                                        h)
                    nfev += 12
                    steps[-1] = (t_old, h, y_old, y_out, k)
            g = g_new

        if len(ts) > 1 and ts[-1] == t_out:
            steps.pop()  # the root is the previous step end
        else:
            ts.append(t_out)
            ys.append(y_out)

    return OdeResult(
        t=np.array(ts), y=np.array(ys).T, sol=DenseOutput(ts, steps, fun),
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
    f1 = fun(t0 + h0 * direction, y0 + h0 * direction * f0)
    d2 = _rms_lanes((f1 - f0) / scale) / h0
    flat = (d1 <= 1e-15) & (d2 <= 1e-15)
    h1 = np.where(flat, np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / np.where(flat, 1.0, np.maximum(d1, d2))) ** (1 / 8))
    return np.minimum(np.minimum(100 * h0, h1), interval)


def _sum_rows(values):
    """Sum over the first axis, row after row: the scalar solve's order."""
    total = values[0]
    for row in values[1:]:
        total = total + row
    return total


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
    those of its scalar solve with that lane's event_args.  The steps to
    the roots found in one lockstep step are redone together.
    observe(lanes, t, y), if given, sees the start and, after each lockstep
    step, the state of every active lane by lane index: its step end, the
    event root where an event stopped it, or its last state again where its
    step was rejected.  Returns a LanesResult."""
    def rhs(t, y):
        return np.asarray(fun(t, y), dtype=float)

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

    f = rhs(t, y)
    h_abs = _initial_step_lanes(rhs, t, y, f, t_bound, direction, rtol, atol)
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
    # trial step per lockstep step; `spent` counts the evaluations of its
    # interpolant and its redone step.
    rejected = np.zeros(lanes, dtype=bool)
    fired = np.full(lanes, -1)
    steps = np.zeros(lanes, dtype=int)
    spent = np.zeros(lanes, dtype=int)
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

        y_new, k = _rk_step(rhs, _LANES, t, y, f, h, hn)
        trials += 1

        err5, err3 = _LANES.errors(y, k, hn)
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        err5, err3 = err5 / scale, err3 / scale
        sq5, sq3 = _sum_rows(err5 * err5), _sum_rows(err3 * err3)
        # a zero sq5 gives a zero norm, with or without sq3, as in the
        # scalar solve, and no division by zero
        error_norm = np.abs(h) * sq5 / np.sqrt(np.where(
            (sq5 == 0.0) & (sq3 == 0.0), 1.0, (sq5 + 0.01 * sq3) * n))

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
            f = np.where(accept, k[12], f)
        else:
            t, y, f = t_new, y_new, k[12]
        steps = steps + accept
        # a rejected lane's t, and so its minimum step, stay as they were
        collapsed = rejected & (h_abs < min_step)
        stop = (direction * (t - t_bound) >= 0) | collapsed

        if events:
            g_new = np.array([ev(t, y, *args) for ev in events])
            crossed = accept & ((rising & (g <= 0) & (g_new >= 0))
                                | (falling & (g >= 0) & (g_new <= 0)))
            g = g_new
            if np.count_nonzero(crossed):
                ends = np.flatnonzero(crossed.any(axis=0))
                t_root = _stop_at_roots(
                    rhs, events, crossed[:, ends], args[:, ends], direction,
                    fired, ends, t_old[ends], t[ends], h[ends], hn[:, ends],
                    y_old[:, ends], y[:, ends], [s[:, ends] for s in k])
                redo = t_root != t_old[ends]
                y_root = y_old[:, ends]
                if np.count_nonzero(redo):
                    h_root = t_root[redo] - t_old[ends[redo]]
                    y_root[:, redo], _ = _rk_step(
                        rhs, _LANES, t_old[ends[redo]], y_old[:, ends[redo]],
                        k[0][:, ends[redo]], h_root, np.array((h_root,) * n))
                t[ends], y[:, ends] = t_root, y_root
                stop[ends] = True
                spent[ends] += 3 + 12 * redo

        if observe is not None:
            observe(index, t, y)
        if np.count_nonzero(stop):
            lane = index[stop]
            out.t[lane], out.y[:, lane] = t[stop], y[:, stop]
            out.status[lane] = np.where(fired[stop] >= 0, 1,
                                        np.where(collapsed[stop], -1, 0))
            out.event[lane], out.steps[lane] = fired[stop], steps[stop]
            out.nfev[lane] = 2 + 12 * trials + spent[stop]
            go = ~stop
            (index, t, t_bound, y, f, atol, g, args, h_abs, rejected, fired,
             steps, spent) = (a[..., go] for a in (
                 index, t, t_bound, y, f, atol, g, args, h_abs, rejected,
                 fired, steps, spent))
    return out


def _stop_at_roots(fun, events, crossed, args, direction, fired, ends, t_old,
                   t_new, h, hn, y_old, y_new, k):
    """The earliest root of each crossing lane `ends` of one lockstep step,
    as `solve` finds it on the lane's interpolant (whose extra stages are
    computed for all of them at once); records the event in `fired`.
    Arrays cover those lanes only, except `fired`."""
    k = _extra_stages(fun, _LANES, t_old, h, y_old, k, hn)
    rows = np.array(_rows(y_old, y_new, k[0], k[12], h,
                          _LANES.dense(y_old, k, hn)))  # (7, n, lanes)
    roots = np.empty(len(ends))
    for col, lane in enumerate(ends):
        start = float(t_old[col])
        coeffs = (start, float(h[col]),
                  list(zip(y_old[:, col].tolist(),
                           rows[:, :, col].T.tolist())))
        roots[col], fired[lane] = _first_root(
            events, np.flatnonzero(crossed[:, col]), coeffs,
            args[:, col].tolist(), start, float(t_new[col]), direction)
    return roots
