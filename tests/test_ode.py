"""The float DOP853 integrator against scipy's solve_ivp(DOP853), which
stays here as the oracle.

The shots, the EOS table, the Lane-Emden profile and the distortion
responses are recorded as they call `ode.solve` and
re-run through solve_ivp with the same right-hand side, span, tolerances
and events.  Where the error estimate is not mostly rounding, both take
the same number of steps, but the step ends agree only to about 1e-9
relative: the estimate is an 8-term sum that cancels by many digits, and
scipy forms it with a BLAS dot product whose rounding order cannot be
reproduced in Python floats.  The trajectories are therefore compared at
the oracle's step ends through the dense output, relative to each
component's largest magnitude.  Where the estimate is mostly rounding
(the inward solves' first steps, the EOS table at the rtol floor, the
Lane-Emden profiles and the distortion solves at 1e-12), the two error norms from one state part by
1e-3 relative or more and the step grids can part with them; each of
those solves keeps the whole-run checks that still hold and is also
compared step by step with scipy's DOP853 run from each step's start: the
step itself, the step size scipy's controller picks there, and the event
root.

An event stops ode.solve on its step redone to end at the root, which
scipy does not do: the state there is compared with the oracle run from
that step's start to the root, and nfev counts the redo and, for the one
step whose interpolant it needs, the three extra stages scipy computes for
every step."""

import math

import numpy as np
import pytest
from scipy.integrate import DOP853, solve_ivp
from scipy.integrate._ivp import dop853_coefficients as dop853
from scipy.optimize import brentq as scipy_brentq

from stellar_match import lane_emden, ode, tov
from stellar_match.distortion import solve_distortion
from stellar_match.eos import EosSpec
from stellar_match.errors import StellarMatchError

TRAJECTORY_TOL = 1e-12
EVENT_TOL = 1e-13
STEP_END_TOL = 1e-6
STEP_SIZE_TOL = 1e-3
RESOLVED = 1e-3
EPS = np.finfo(float).eps


@pytest.fixture
def recorded(monkeypatch):
    """Every ode.solve call as (args, result)."""
    calls = []
    real = ode.solve

    def record(*args):
        result = real(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(ode, "solve", record)
    return calls


def _oracle(fun, t_span, y0, rtol, atol, events=(), event_args=()):
    """solve_ivp on the same problem, each event with event_args bound and
    marked terminal, as ode.solve treats every event."""
    def bound(ev):
        def event(t, y):
            return ev(t, y, *event_args)

        event.terminal = True
        event.direction = getattr(ev, "direction", 0)
        return event

    return solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol, atol=atol,
                     dense_output=True, events=[bound(ev) for ev in events])


def _oracle_event(want):
    """The index of the event that stopped a solve_ivp run, -1 for none."""
    fired = [i for i, te in enumerate(want.t_events or ()) if te.size]
    return fired[0] if fired else -1


def _oracle_nfev(want, event):
    """ode.solve's nfev on the oracle's steps.  scipy computes the three
    extra stages of every step's interpolant; ode.solve only those of the
    step an event crosses, which it then redoes to the root (12 more)."""
    return want.nfev - 3 * (len(want.t) - 1) + (15 if event >= 0 else 0)


def _oracle_last_step(fun, got, rtol, atol):
    """The oracle without events from the start of got's last step to the
    event root, with that step as its first: the step ode.solve redoes to
    end at the root."""
    t_old, root = got.t[-2], got.t[-1]
    return solve_ivp(fun, (t_old, root), got.y[:, -2], method="DOP853",
                     rtol=rtol, atol=atol, first_step=abs(root - t_old),
                     dense_output=True)


def _assert_matches_oracle(args, got, same_steps=True):
    """Same status, step count and nfev as the oracle; trajectory, and the
    stopping event's root and state, within tolerance.  The state at the
    root is compared with an oracle run that stops there.  same_steps
    False drops the step count and nfev, for a solve whose step choice
    follows rounding.  Returns the oracle's result."""
    want = _oracle(*args)
    assert got.status == want.status
    assert got.message == want.message
    if same_steps:
        assert len(got.t) == len(want.t)
        assert got.nfev == _oracle_nfev(want, got.event)
    scale = np.max(np.abs(want.y), axis=1, keepdims=True)
    steps = len(want.t) - (got.event >= 0)
    assert np.max(np.abs(got.sol(want.t[:steps]) - want.y[:, :steps])
                  / scale) < TRAJECTORY_TOL
    assert got.event == _oracle_event(want)
    if got.event >= 0:
        np.testing.assert_allclose(got.t[-1], want.t_events[got.event][0],
                                   rtol=EVENT_TOL)
        y_want = _oracle_last_step(args[0], got, *args[3:5]).y[:, -1]
        assert np.max(np.abs(got.y[:, -1] - y_want) / scale.T) \
            < TRAJECTORY_TOL
    return want


def _norm_rounding(step, y_old):
    """Relative bound on the rounding in the error norm of a scipy DOP853
    solver's last step: each error estimate is a 13-term sum of stages,
    off by up to 13 eps times the sum of its terms' magnitudes."""
    k = step.K.T
    scale = step.atol + np.maximum(np.abs(y_old), np.abs(step.y)) * step.rtol

    def norm(err5, err3):
        sq5, sq3 = np.sum((err5 / scale) ** 2), np.sum((err3 / scale) ** 2)
        if sq5 == 0.0 and sq3 == 0.0:
            return 0.0
        return sq5 / np.sqrt((sq5 + 0.01 * sq3) * len(scale))

    err5, err3 = np.abs(k @ dop853.E5), np.abs(k @ dop853.E3)
    slack5 = 13 * EPS * (np.abs(k) @ np.abs(dop853.E5))
    slack3 = 13 * EPS * (np.abs(k) @ np.abs(dop853.E3))
    mid = norm(err5, err3)
    if mid == 0.0:
        return math.inf
    low = norm(np.maximum(err5 - slack5, 0.0), np.maximum(err3 - slack3, 0.0))
    high = norm(err5 + slack5, err3 + slack3)
    return max(high / mid - 1.0, 1.0 - low / mid)


def _assert_steps_match_oracle(args, got):
    """Each step of `got` against scipy's DOP853 from the step's start, for
    solves whose step choice follows rounding, where two codes that sum
    the error estimate in different orders cannot take the same steps over
    a whole run:

    - started with the step's size, scipy takes the step without a
      rejection and lands on the step's end;
    - started with the size it proposed after the previous step (its own
      initial step for the first), scipy's accepted step, rejections
      included, has the step's size to STEP_SIZE_TOL wherever the
      previous error norm is resolved (its rounding bound below RESOLVED;
      the first step's proposal is always compared).  The proposal comes
      from scipy's own step at the previous start where that step had
      got's size, so that it keeps the cap after a rejection, and else
      from scipy's step started there with got's size, so that a size the
      rounding chose does not carry into the next proposal.  This checks
      the controller: the initial step, the safety factor, the factor
      caps and the cap after a rejection;
    - where an event stopped the solve, that event's root on scipy's step
      across it is got's root.

    At least a third of the steps must be compared."""
    fun, (_t0, t_bound), _y0, rtol, atol = args[:5]
    events, event_args = (list(args[5:7]) + [(), ()])[:2]
    steps = got.sol._steps
    scale = np.max(np.abs(got.y), axis=1)
    proposal, resolved, compared = None, True, 0
    for i, (t_old, h, y_old, y_new, _k) in enumerate(steps):
        same = DOP853(fun, t_old, y_old, t_old + h, rtol=rtol, atol=atol,
                      first_step=abs(h))
        same.step()
        assert same.t == t_old + h
        assert np.max(np.abs(same.y - y_new) / scale) < TRAJECTORY_TOL

        first = {} if proposal is None else {
            "first_step": min(proposal, abs(t_bound - t_old))}
        own = DOP853(fun, t_old, y_old, t_bound, rtol=rtol, atol=atol,
                     **first)
        own.step()
        if i == len(steps) - 1 and got.event >= 0:
            event, dense = events[got.event], own.dense_output()
            root = scipy_brentq(
                lambda s: event(s, dense(s), *event_args), t_old, own.t,
                xtol=4 * EPS, rtol=4 * EPS)
            assert root == pytest.approx(got.t[-1], rel=EVENT_TOL)
        elif resolved:
            assert abs((own.t - t_old) / h - 1.0) < STEP_SIZE_TOL
            compared += 1
        previous = own if abs((own.t - t_old) / h - 1.0) < STEP_SIZE_TOL \
            else same
        proposal = previous.h_abs
        resolved = _norm_rounding(previous, y_old) < RESOLVED
    assert 3 * compared >= len(steps)


def _assert_step_ends_close(got, want):
    np.testing.assert_allclose(got.t, want.t, rtol=STEP_END_TOL)
    scale = np.max(np.abs(want.y), axis=1, keepdims=True)
    assert np.max(np.abs(got.y - want.y) / scale) < STEP_END_TOL


@pytest.mark.parametrize("p_center", [1e-6, 1e-4, 1e-2])
def test_forward_shots_match_solve_ivp(recorded, p_center):
    # a forward shot is two solves: in r until w falls to the tail's start,
    # an event, then in x = sqrt(w) from that state down to the surface
    # x = 0, the tail's span bound; each is checked on its own right-hand
    # side
    eos = EosSpec(5.0 / 3.0, c_light=1.0)
    surface, _ = tov.shoot_from_center(eos, p_center)
    [(args, got), (tail_args, tail)] = recorded
    want = _assert_matches_oracle(args, got)
    _assert_step_ends_close(got, want)
    assert tail_args[1] == (math.sqrt(got.y[1, -1]), 0.0)
    assert list(tail_args[2]) == [got.t[-1], got.y[0, -1]]
    want = _assert_matches_oracle(tail_args, tail)
    _assert_step_ends_close(tail, want)
    assert tail.event == -1 and tail.t[-1] == 0.0
    assert surface.radius == pytest.approx(float(want.y[0, -1]),
                                           rel=EVENT_TOL)


def test_lambda_table_matches_solve_ivp(recorded):
    eos = EosSpec(2.0, c_light=1.0, lambda_coeffs=(0.2, -0.1))
    _sol, _h_lo, h_hi, _t_hi, _slope = eos._ln_rho_table
    [(args, got)] = recorded
    # The table is solved in s = ln h at the rtol floor, where the error
    # estimate is mostly rounding, so the step count follows rounding too:
    # each step is checked against the oracle's step from its start, and
    # the whole run on the oracle's trajectory and event root
    want = _assert_matches_oracle(args, got, same_steps=False)
    _assert_steps_match_oracle(args, got)
    # d ln rho/ds tends to a constant at low density: few steps span the
    # 16 decades of h
    assert len(got.t) < 80
    assert h_hi == pytest.approx(math.exp(want.t[-1]), rel=EVENT_TOL)


def test_inward_shots_match_solve_ivp(recorded):
    eos = EosSpec(5.0 / 3.0, c_light=1.0)
    surface, _ = tov.shoot_from_center(eos, 1e-3)
    cls, _ = tov.shoot_from_boundary(eos, surface.radius * 0.8, surface.mass)
    assert cls.case == tov.CASE00
    # the forward shot's solve in r and its tail, then the inward shot's one
    # solve, in s = ln r
    (args, got), (tail_args, tail), inward = recorded
    _assert_matches_oracle(args, got)
    _assert_matches_oracle(tail_args, tail)
    # Inward solves choose their first steps' size from rounding: atol is
    # 1e-19 on w at the start, and from one state the error norms of
    # ode.solve and scipy part by up to a factor 6 there (DOP853's error
    # weights sum to 4 in magnitude).  An inward solve (rtol 1e-10) takes
    # as many steps as the oracle with the same nfev, but its step ends
    # part by up to 1.4e-2 relative in s and its blow-up radius by
    # 1.2e-11, while both miss a tolerance-1e-14 reference by 1.2e-10.  So
    # each inward solve is also checked step by step against the oracle
    # from each step's start.  (R, M) = (1, 1e-5) is light data, whose
    # p_ref lies far below the EOS cap: it too is one solve, under the cap.
    recorded.clear()
    cls, _ = tov.shoot_from_boundary(eos, 1.0, 1e-5)
    assert cls.case == tov.CASE00
    assert len(recorded) == 1
    for args, got in (inward, *recorded):
        want = _oracle(*args)
        assert got.status == want.status and got.message == want.message
        assert len(got.t) == len(want.t)
        assert got.nfev == _oracle_nfev(want, got.event)
        assert got.event == _oracle_event(want) == 0
        _assert_steps_match_oracle(args, got)


@pytest.mark.parametrize("n", [1.0, 1.5, 3.0, 4.5])
def test_lane_emden_solves_match_solve_ivp(recorded, n):
    sol = lane_emden.solve(n)
    # one solve, to the surface: past it theta is in closed form
    [(args, got)] = recorded
    if n == 1.0:
        # At rtol 1e-12 the error norms of ode.solve and scipy from one
        # state agree only to about 1e-3 before the surface and part by up
        # to a factor 4 next to it, where the source theta^1 has a kink;
        # the steps there reject or not on that, and the run takes 55
        # steps against the oracle's 50.
        want = _oracle(*args)
        assert got.status == want.status
        assert got.event == _oracle_event(want) == 0
    else:
        want = _assert_matches_oracle(args, got)
    _assert_steps_match_oracle(args, got)
    assert sol.xi1 == pytest.approx(float(want.t_events[0][0]),
                                    rel=EVENT_TOL)


def test_lane_emden_n0_matches_solve_ivp(recorded):
    # theta = 1 - xi^2/6 is a polynomial, so the error estimate is pure
    # rounding and the two step counts part (32 vs 25).  The surface and the
    # trajectory before it still agree.  The oracle's step across the
    # surface, where the source (theta v 0)^0 drops from 1 to 0, leaves
    # theta' there exact only to about 1e-10; ode.solve redoes that step to
    # end at the surface, so its theta' is exact to roundoff, as is the
    # oracle's run from that step's start to the surface.
    sol = lane_emden.solve(0.0)
    assert sol.xi1 == pytest.approx(math.sqrt(6.0), rel=EVENT_TOL)
    [(args, got)] = recorded
    want = _oracle(*args)
    scale = np.max(np.abs(want.y), axis=1, keepdims=True)
    inside = np.abs(got.sol(want.t[:-1]) - want.y[:, :-1]) / scale
    assert np.max(inside) < TRAJECTORY_TOL
    y_want = _oracle_last_step(args[0], got, *args[3:5]).y[:, -1]
    exact = [0.0, -math.sqrt(6.0) / 3.0]
    for y in (y_want, exact):
        assert np.max(np.abs(got.y[:, -1] - y) / scale[:, 0]) < 1e-13


@pytest.mark.parametrize("n", [1.0, 1.5, 2.0, 3.0, 4.0])
def test_distortion_solve_matches_solve_ivp(recorded, n):
    # one solve of theta and the responses, to the surface event on theta
    dist = solve_distortion(n)
    [(args, got)] = recorded
    if n >= 3.0:
        want = _assert_matches_oracle(args, got)
    else:
        # As for the Lane-Emden profile at n = 1, the steps next to the
        # surface, where the source theta^n and the coefficient
        # n theta^(n-1) lose smoothness, reject or not on error norms that
        # the two codes round differently: the runs take 103 against 101
        # steps at n = 1 and 133 against 135 at n = 2, and at n = 1.5 the
        # same steps with 2249 against 2237 evaluations
        want = _oracle(*args)
        assert got.status == want.status
        assert got.event == _oracle_event(want) == 0
    _assert_steps_match_oracle(args, got)
    assert dist.base.xi1 == pytest.approx(float(want.t_events[0][0]),
                                          rel=EVENT_TOL)


def test_dense_output_scalar_array_and_oracle_agree(recorded):
    eos = EosSpec(5.0 / 3.0, c_light=1.0)
    surface, _ = tov.shoot_from_center(eos, 1e-4)
    # the forward shot's solve in r, up to the tail's start, then its tail
    (args, got), (_tail_args, tail) = recorded
    want = _oracle(*args)
    t = got.t
    # interior points of every step, the step ends, and points in the last
    # step, which is redone to end at the event's root
    last = t[-2] + np.linspace(0.0, 1.0, 9) * (t[-1] - t[-2])
    probes = np.concatenate([t, 0.5 * (t[1:] + t[:-1]), last])
    array = got.sol(probes)
    scalar = np.array([got.sol(float(x)) for x in probes]).T
    assert np.array_equal(array, scalar)
    scale = np.max(np.abs(want.y), axis=1, keepdims=True)
    before = probes[probes <= t[-2]]
    assert np.max(np.abs(got.sol(before) - want.sol(before)) / scale) \
        < TRAJECTORY_TOL
    to_root = _oracle_last_step(args[0], got, *args[3:5])
    assert np.max(np.abs(got.sol(last) - to_root.sol(last)) / scale) \
        < TRAJECTORY_TOL
    # the last step is the one redone to end at the root
    t_old, h_last = got.sol._steps[-1][:2]
    assert (t_old, h_last) == (t[-2], t[-1] - t[-2])
    # the tail's interpolant ends on the surface, its span bound x = 0:
    # w = x x = 0 at r = R
    assert tail.t[-1] == 0.0
    assert tuple(tail.sol(0.0)) == (surface.radius, surface.mass)
    # a surface that is an event root: the Lane-Emden profile's redone last
    # step puts theta = 0 there
    recorded.clear()
    lane_emden.solve(1.5)
    [(_args, profile)] = recorded
    assert abs(profile.sol(float(profile.t[-1]))[0]) \
        < 1e-12 * np.max(np.abs(profile.y[0]))


def test_dense_output_picks_the_step_of_each_point():
    def fun(t, y):
        return [y[1], -y[0]]

    for span in ((-1.0, 3.0), (3.0, -1.0)):
        got = ode.solve(fun, span, [0.2, 1.0], 1e-10, 1e-12)
        t, steps = got.t, got.sol._steps
        assert len(steps) == len(t) - 1

        def on_step(i, x):
            return ode._evaluate(ode._step_coeffs(steps[i], fun), x)

        # inside a step, at a step end (the earlier step), and past either
        # end (the nearest end step)
        cases = [(i, 0.5 * (t[i] + t[i + 1])) for i in range(len(steps))]
        cases += [(i - 1, t[i]) for i in range(1, len(t))]
        cases += [(0, t[0]), (0, t[0] - (t[1] - t[0])),
                  (len(steps) - 1, t[-1] + (t[-1] - t[-2]))]
        for i, x in cases:
            assert got.sol(float(x)) == on_step(i, float(x))
        probes = np.array([x for _i, x in cases])
        assert np.array_equal(got.sol(probes),
                              np.array([on_step(i, x) for i, x in cases]).T)
        want = _oracle(fun, span, [0.2, 1.0], 1e-10, 1e-12)
        inside = np.linspace(-1.0, 3.0, 101)
        assert np.max(np.abs(got.sol(inside) - want.sol(inside))) < 1e-8


def test_event_inside_the_first_step():
    def fun(t, y):
        return [1.0]

    def crossing(t, y):
        return y[0] - 1e-9

    got = ode.solve(fun, (0.0, 1.0), [0.0], 1e-10, 1e-12, [crossing])
    want = _oracle(fun, (0.0, 1.0), [0.0], 1e-10, 1e-12, [crossing])
    assert got.status == 1 and got.success and got.event == 0
    assert len(got.t) == len(want.t) == 2
    assert got.t[-1] == pytest.approx(1e-9, rel=1e-13)
    assert got.t[-1] == pytest.approx(want.t_events[0][0], rel=1e-13)
    assert got.nfev == _oracle_nfev(want, got.event)


def test_event_direction():
    def fun(t, y):
        return [y[1], -y[0]]

    def rising(t, y):
        return y[0]

    rising.direction = 1

    def falling(t, y):
        return y[0]

    falling.direction = -1
    # sin t rises through 0 at 2 pi and falls at 3 pi: each event stops the
    # run at its own crossing and lets the other one pass
    for event, root in ((rising, 2.0 * math.pi), (falling, 3.0 * math.pi)):
        args = (fun, (4.0, 20.0), [math.sin(4.0), math.cos(4.0)], 1e-10,
                1e-12, [event])
        got = ode.solve(*args)
        want = _oracle(*args)
        assert got.event == 0
        np.testing.assert_allclose(got.t[-1], root, rtol=1e-9)
        np.testing.assert_allclose(got.t[-1], want.t_events[0][0],
                                   rtol=EVENT_TOL)


@pytest.mark.parametrize("span", [(0.0, 10.0), (10.0, 0.0)])
def test_earliest_terminal_root_in_the_step_wins(span):
    # y = t with error-free steps growing tenfold, so one step crosses
    # both levels; the run stops at the one reached first
    def fun(t, y):
        return [1.0]

    def level(value):
        def event(t, y):
            return y[0] - value

        return event

    args = (fun, span, [span[0]], 1e-10, 1e-12, [level(5.0), level(5.0001)])
    got = ode.solve(*args)
    want = _oracle(*args)
    first = 5.0 if span[1] > span[0] else 5.0001
    assert got.t[-1] == pytest.approx(first, rel=1e-13)
    assert got.event == _oracle_event(want) == (0 if first == 5.0 else 1)


def test_root_at_the_previous_step_end_is_not_appended_twice():
    # g is zero on [1, 2]; a rising-only event ignores the step that lands
    # on the plateau and fires on the next, at that step's start
    def fun(t, y):
        return [math.cos(t)]

    def plateau(t, y):
        return max(0.0, 1.0 - t) + max(0.0, t - 2.0)

    plateau.direction = 1
    args = (fun, (0.0, 5.0), [0.0], 1e-8, 1e-10, [plateau])
    got = ode.solve(*args)
    want = _oracle(*args)
    assert got.status == want.status == 1
    np.testing.assert_array_equal(np.diff(got.t) > 0, True)
    assert len(got.t) == len(want.t)
    assert len(got.sol._steps) == len(got.t) - 1
    assert got.event == _oracle_event(want) == 0


def test_collapsing_steps_return_the_partial_result():
    def fun(t, y):  # y = 1/(1 - t) blows up at t = 1
        return [y[0] * y[0]]

    got = ode.solve(fun, (0.0, 2.0), [1.0], 1e-10, 1e-12)
    want = _oracle(fun, (0.0, 2.0), [1.0], 1e-10, 1e-12)
    assert not got.success and got.status == -1
    assert got.message == want.message
    assert len(got.t) == len(want.t) > 1
    assert got.t[-1] == pytest.approx(want.t[-1], rel=1e-12)
    # the steps collapse at the pole of the numerical solution, which lies
    # 8.2e-12 past t = 1, as scipy's DOP853's does
    assert got.t[-1] == pytest.approx(1.0, rel=1e-10)
    assert got.y.shape == (1, len(got.t))


def test_nan_right_hand_side_fails_the_solve():
    # a NaN step size fails every comparison with the minimum step, so the
    # collapse test must not read it as a usable step
    got = ode.solve(lambda t, y: [math.nan], (0.0, 1.0), [1.0], 1e-10, 1e-12)
    assert got.status == -1 and not got.success
    assert got.message == ode.MESSAGES[-1]
    assert list(got.t) == [0.0]


def test_tov_solve_labels_an_integrator_failure(monkeypatch):
    # w' = w^2 from w(1) = 1 blows up at r = 2; the steps collapse at the
    # numerical solution's pole, 1.2e-11 past it (2.000000000011868 for
    # scipy's DOP853 too).  _solve reads tov_rhs at call time, so the
    # patched right-hand side is used
    monkeypatch.setattr(tov, "tov_rhs", lambda eos, r, m, w: (0.0, w * w))
    with pytest.raises(StellarMatchError, match=r"at r = 2\.00000000001"):
        tov._solve(EosSpec(2.0), (1.0, 3.0), [0.0, 1.0], [], 1e-10,
                   [1e-12, 1e-12])


def test_table_reads_the_partial_result_at_a_monotone_bound(recorded):
    eos = EosSpec(2.0, c_light=1.0, lambda_coeffs=(-0.5,))
    assert eos.validity_binding == "monotone"
    _sol, _h_lo, h_hi, t_hi, _slope = eos._ln_rho_table
    [(_args, got)] = recorded
    assert not got.success  # the steps collapse just short of the bound
    assert (h_hi, t_hi) == (math.exp(got.t[-1]), got.y[0, -1])
    assert t_hi < math.log(eos.rho_valid_max)


# -- lanes -----------------------------------------------------------------
#
# solve_lanes against the scalar solve, lane by lane.  These right-hand
# sides are plain arithmetic, so the two agree to the last bits (the error
# norm squares with a multiplication where the scalar solve calls pow).

LANE_TOL = 1e-12


def _lanes_against_scalar(fun, lanes_fun, starts, t_end, y0s, events=()):
    got = ode.solve_lanes(lanes_fun, starts, [t_end] * len(starts),
                          np.array(y0s).T, 1e-10, 1e-12, events)
    for j, (t0, y0) in enumerate(zip(starts, y0s)):
        want = ode.solve(fun, (t0, t_end), y0, 1e-10, 1e-12, events)
        assert got.status[j] == want.status
        assert got.steps[j] == len(want.t) - 1
        assert got.nfev[j] == want.nfev
        assert got.t[j] == pytest.approx(want.t[-1], rel=LANE_TOL)
        if want.success:  # y blows up where the steps collapse
            np.testing.assert_allclose(got.y[:, j], want.y[:, -1],
                                       rtol=LANE_TOL, atol=LANE_TOL)
        assert got.event[j] == want.event
    return got


def test_lanes_take_the_scalar_steps_to_a_terminal_event_or_the_bound():
    def fun(t, y):
        return [y[1], -y[0]]

    def lanes_fun(t, y):
        return np.array([y[1], -y[0]])

    def falling(t, y):
        return y[0]

    falling.direction = -1
    starts = [0.1, 0.5, 1.0, 2.0, 3.0]
    y0s = [[math.sin(s), math.cos(s)] for s in starts]
    got = _lanes_against_scalar(fun, lanes_fun, starts, 20.0, y0s, [falling])
    np.testing.assert_allclose(got.t, math.pi, rtol=1e-9)
    got = _lanes_against_scalar(fun, lanes_fun, starts, 20.0, y0s)
    assert np.all(got.status == 0) and np.all(got.t == 20.0)


@pytest.mark.parametrize("span", [(0.0, 10.0), (10.0, 0.0)])
def test_lanes_stop_at_the_earliest_terminal_root(span):
    def fun(t, y):
        return [1.0]

    def lanes_fun(t, y):
        return np.ones_like(y)

    def level(value):
        def event(t, y):
            return y[0] - value

        return event

    starts = [span[0], span[0] + 0.5 * (span[1] - span[0]) / 10.0]
    got = _lanes_against_scalar(fun, lanes_fun, starts, span[1],
                                [[s] for s in starts],
                                [level(5.0), level(5.0001)])
    assert np.all(got.event == (0 if span[1] > span[0] else 1))


def test_lanes_pass_each_lane_its_event_arguments():
    # y = t; lane j stops where y reaches its own level, as a scalar solve
    # with that level bound stops
    def level(t, y, value):
        return y[0] - value

    starts, values = [0.0, 0.5, 1.0, 3.0], [2.0, 7.5, 5.0, 9.0]
    got = ode.solve_lanes(lambda t, y: np.ones_like(y), starts,
                          [10.0] * len(starts), np.array([starts]), 1e-10,
                          1e-12, [level], event_args=[values])
    for j, (start, value) in enumerate(zip(starts, values)):
        want = ode.solve(lambda t, y: [1.0], (start, 10.0), [start], 1e-10,
                         1e-12, [level], (value,))
        assert (got.status[j], got.event[j]) == (1, 0)
        assert got.steps[j] == len(want.t) - 1
        assert got.t[j] == pytest.approx(want.t[-1], rel=LANE_TOL)
        assert got.t[j] == pytest.approx(value, rel=LANE_TOL)


def test_lanes_retire_a_collapsing_lane_alone():
    def fun(t, y):  # y = y0/(1 - y0 (t - t0)) blows up at t0 + 1/y0
        return [y[0] * y[0]]

    def lanes_fun(t, y):
        return y * y

    # lanes 0 and 2 collapse at their poles and retire.  Lane 1's pole is
    # its bound, t = 2, but the pole of its numerical solution lies
    # 1.6e-11 past it (y(2) = 6.05e10, as scipy's DOP853 gives), so its
    # last step, clipped to the bound, is regular and the lane ends there
    # like its scalar solve
    got = _lanes_against_scalar(fun, lanes_fun, [0.0, 0.0, 0.5], 2.0,
                                [[1.0], [0.5], [1.0]])
    np.testing.assert_array_equal(got.status, [-1, 0, -1])
    np.testing.assert_allclose(got.t, [1.0, 2.0, 1.5], rtol=1e-10)


def test_lanes_retire_a_nan_lane_alone():
    # the right-hand side is NaN on lane 1 only; it retires at its start,
    # and the other lanes run as they would without it
    def lanes_fun(t, y):
        return np.where(y < 0.0, np.nan, -y)

    got = ode.solve_lanes(lanes_fun, [0.0] * 3, [1.0] * 3,
                          np.array([[1.0, -1.0, 2.0]]), 1e-10, 1e-12)
    alone = ode.solve_lanes(lanes_fun, [0.0] * 2, [1.0] * 2,
                            np.array([[1.0, 2.0]]), 1e-10, 1e-12)
    np.testing.assert_array_equal(got.status, [0, -1, 0])
    assert (got.t[1], got.steps[1]) == (0.0, 0)
    np.testing.assert_array_equal(got.y[:, [0, 2]], alone.y)
    np.testing.assert_array_equal(got.steps[[0, 2]], alone.steps)


def test_lanes_observe_every_accepted_state():
    def fun(t, y):
        return [y[1], -y[0]]

    seen = {0: [], 1: []}

    def observe(lanes, t, y):
        for lane, t_j in zip(lanes, t):
            seen[int(lane)].append(float(t_j))

    def falling(t, y):
        return y[0]

    falling.direction = -1
    starts = [0.5, 2.0]
    ode.solve_lanes(lambda t, y: np.array([y[1], -y[0]]), starts,
                    [20.0, 20.0],
                    np.array([[math.sin(s) for s in starts],
                              [math.cos(s) for s in starts]]),
                    1e-10, 1e-12, [falling], observe)
    for lane, start in enumerate(starts):
        want = ode.solve(fun, (start, 20.0),
                         [math.sin(start), math.cos(start)], 1e-10, 1e-12,
                         [falling])
        # a lane whose step was rejected shows its last state again
        states = [t for k, t in enumerate(seen[lane])
                  if k == 0 or t != seen[lane][k - 1]]
        np.testing.assert_allclose(states, want.t, rtol=LANE_TOL)


def test_lanes_refuse_what_they_cannot_keep():
    with pytest.raises(ValueError, match="one direction"):
        ode.solve_lanes(lambda t, y: y, [0.0, 1.0], [1.0, 0.0],
                        [[1.0, 1.0]], 1e-10, 1e-12)


@pytest.mark.parametrize("span", [(0.0, 10.0), (10.0, 0.0)])
def test_solve_and_lanes_stop_on_the_same_event(span):
    # y = t.  Events 0 and 1 share the root y = level exactly (one is twice
    # the other, so brentq takes the same iterates); event 2 has its root at
    # y = other > level.  Going up the tie at level goes to event 0, going
    # down event 2 comes first.  Each lane has its own (level, other).
    def at_level(t, y, level, other):
        return y[0] - level

    def twice_at_level(t, y, level, other):
        return 2.0 * (y[0] - level)

    def at_other(t, y, level, other):
        return y[0] - other

    events = [at_level, twice_at_level, at_other]
    levels, others = [2.0, 4.5, 5.0, 6.0], [7.0, 8.0, 5.5, 9.0]
    starts = [span[0] + 0.01 * k * (span[1] - span[0]) for k in range(4)]
    got = ode.solve_lanes(lambda t, y: np.ones_like(y), starts,
                          [span[1]] * 4, np.array([starts]), 1e-10, 1e-12,
                          events, event_args=[levels, others])
    rising = span[1] > span[0]
    for j, (start, args) in enumerate(zip(starts, zip(levels, others))):
        want = ode.solve(lambda t, y: [1.0], (start, span[1]), [start],
                         1e-10, 1e-12, events, args)
        assert want.event == got.event[j] == (0 if rising else 2)
        assert want.status == got.status[j] == 1
        assert want.t[-1] == pytest.approx(args[0 if rising else 1],
                                           rel=LANE_TOL)
        assert got.t[j] == pytest.approx(want.t[-1], rel=LANE_TOL)


def _two_event_lanes(observe=None):
    """Five oscillator lanes y = (sin t, cos t): two stop where y[0] rises
    to their level (event 1), two where it falls through 0 at t = pi
    (event 0), each at its own lockstep step, and one at its bound."""
    def below_zero(t, y, level):
        return y[0]

    def at_level(t, y, level):
        return y[0] - level

    below_zero.direction, at_level.direction = -1, 1
    starts = [0.1, 0.5, 1.0, 2.0, 2.2]
    bounds = [20.0, 20.0, 20.0, 20.0, 2.6]
    levels = [0.5, 0.99, 2.0, 2.0, 2.0]
    events = [below_zero, at_level]
    got = ode.solve_lanes(lambda t, y: np.array([y[1], -y[0]]), starts,
                          bounds, np.array([[math.sin(s) for s in starts],
                                           [math.cos(s) for s in starts]]),
                          1e-10, 1e-12, events, observe, [levels])
    return got, events, list(zip(starts, bounds, levels))


def test_lanes_settle_each_event_stopped_lane_once():
    seen = []

    def observe(lanes, t, y):
        seen.extend(zip(lanes.tolist(), t.tolist(), y.T.tolist()))

    got, events, lanes = _two_event_lanes(observe)
    # the bits the lanes had when each lockstep step found its own roots
    want_t = ["0x1.0c1523826b306p-1", "0x1.6de3c6f6f014cp+0",
              "0x1.921fb5444c616p+1", "0x1.921fb5444a7fcp+1",
              "0x1.4cccccccccccdp+1"]
    want_y = [["0x1.ffffffff43e34p-2", "0x1.bb67ae85bb09cp-1"],
              ["0x1.fae147af1d263p-1", "0x1.20e7ec69bc580p-3"],
              ["-0x1.165c000000000p-38", "-0x1.fffffffffca00p-1"],
              ["-0x1.177c000000000p-37", "-0x1.fffffffffe80bp-1"],
              ["0x1.07efcbba0b9ccp-1", "-0x1.b6ba1f680cca5p-1"]]
    assert [v.hex() for v in got.t.tolist()] == [
        float.fromhex(v).hex() for v in want_t]
    assert [[v.hex() for v in row] for row in got.y.T.tolist()] == [
        [float.fromhex(v).hex() for v in row] for row in want_y]
    assert got.event.tolist() == [1, 1, 0, 0, -1]
    assert got.status.tolist() == [1, 1, 1, 1, 0]
    assert got.steps.tolist() == [3, 4, 8, 5, 3]
    assert got.nfev.tolist() == [53, 65, 113, 77, 38]
    for j, (start, bound, level) in enumerate(lanes):
        want = ode.solve(lambda t, y: [y[1], -y[0]], (start, bound),
                         [math.sin(start), math.cos(start)], 1e-10, 1e-12,
                         events, (level,))
        assert (got.event[j], got.status[j]) == (want.event, want.status)
        assert (got.steps[j], got.nfev[j]) == (len(want.t) - 1, want.nfev)
        # every lane's last state is its end, seen once
        states = [(t, y) for lane, t, y in seen if lane == j]
        end = (got.t[j], got.y[:, j].tolist())
        assert states[-1] == end and states.count(end) == 1


def test_lanes_run_the_settle_pass_once_per_solve(monkeypatch):
    # the extra stages of every event-stopped lane's interpolant are
    # computed together, after the lockstep loop
    calls = []
    real = ode._extra_stages

    def counted(*args):
        calls.append(len(args[2]))
        return real(*args)

    monkeypatch.setattr(ode, "_extra_stages", counted)
    got, _, _ = _two_event_lanes()
    assert calls == [4]
    assert np.count_nonzero(got.status == 1) == 4


def test_tableau_is_scipys_dop853():
    # the copied tables equal scipy's bit for bit; A's rows hold the
    # weights below the diagonal, the extra stages' rows included
    a = np.zeros((len(ode.A), len(ode.A)))
    for s, row in enumerate(ode.A):
        a[s, :len(row)] = row
    for got, want in ((ode.C, dop853.C), (a, dop853.A), (ode.B, dop853.B),
                      (ode.E3, dop853.E3), (ode.E5, dop853.E5),
                      (ode.D, dop853.D)):
        got = np.array(got, dtype=float)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _fold(row, k):
    """The reference stage sum: w k[j] over the row's nonzero weights,
    added left to right."""
    total = None
    for j, w in enumerate(row):
        if w:
            total = w * k[j] if total is None else total + w * k[j]
    return total


def _reference(rows, state, y, k, h):
    """y + h (the one row's fold) if `state`, else the rows' folds."""
    if state:
        return y + _fold(rows[0], k) * h
    return tuple(_fold(row, k) for row in rows)


def _bits(values):
    return np.array(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("n", [1, 2, 6])
def test_generated_sums_are_the_left_to_right_folds(n):
    # both forms of every tableau sum against the reference, bit for bit;
    # the stages spread over 12 decades, so any other order of the
    # additions rounds differently
    rng = np.random.default_rng(n)

    def draw(*shape):
        return rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)

    for form in (ode._FLOATS, ode._LANES):
        assert [c for c, _ in form.stages] == list(ode.C[1:12])
        assert [c for c, _ in form.extra] == list(ode.C[13:])
        stages = [*range(1, 12), 13, 14, 15]
        sums = ([(fn, [ode.A[s]], True) for s, (_, fn)
                 in zip(stages, form.stages + form.extra)]
                + [(form.new, [ode.B], True),
                   (form.errors, [ode.E5, ode.E3], False),
                   (form.dense, ode.D, False)])
        if form is ode._LANES:
            y, h, k = draw(n, 50), draw(50), [draw(n, 50) for _ in range(16)]
            hn = np.array([h] * n)
            for fn, rows, state in sums:
                assert np.array_equal(_bits(fn(y, k, hn)),
                                      _bits(_reference(rows, state, y, k, hn)))
        else:
            y, h = draw(n).tolist(), float(draw())
            k = [draw(n).tolist() for _ in range(16)]
            for fn, rows, state in sums:
                want = [_reference(rows, state, v, col, h)
                        for v, col in zip(y, zip(*k))]
                assert np.array_equal(_bits(fn(y, k, h)), _bits(want))
