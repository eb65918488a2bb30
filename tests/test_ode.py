"""The float Dormand-Prince integrator against scipy's solve_ivp(RK45),
which stays here as the oracle.

The shots, the EOS table, the Lane-Emden profile and the distortion
responses are recorded as they call `ode.solve` and
re-run through solve_ivp with the same right-hand side, span, tolerances
and events.  Both take the same number of steps, but the step ends agree
only to about 1e-9 relative: the error estimate is a 7-term sum that
cancels by six to nine digits, and scipy forms it with a BLAS dot product
whose rounding order cannot be reproduced in Python floats.  Where the
estimate is mostly rounding (the first steps of the EOS table, the rtol
1e-13 ladder rung) the step ends part further.  The trajectories are
therefore compared at the oracle's step ends through the dense output,
relative to each component's largest magnitude."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from stellar_match import lane_emden, ode, tov
from stellar_match.distortion import solve_distortion
from stellar_match.eos import EosSpec
from stellar_match.errors import StellarMatchError

TRAJECTORY_TOL = 1e-12
EVENT_TOL = 1e-13
STEP_END_TOL = 1e-6


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


def _oracle(fun, t_span, y0, rtol, atol, events=()):
    return solve_ivp(fun, t_span, y0, method="RK45", rtol=rtol, atol=atol,
                     dense_output=True, events=list(events))


def _assert_matches_oracle(args, got, event_tol=EVENT_TOL):
    """Same status, step count and nfev as the oracle; trajectory and event
    roots within tolerance.  Returns the oracle's result."""
    want = _oracle(*args)
    assert got.status == want.status
    assert got.message == want.message
    assert len(got.t) == len(want.t)
    assert got.nfev == want.nfev
    scale = np.max(np.abs(want.y), axis=1, keepdims=True)
    assert np.max(np.abs(got.sol(want.t) - want.y) / scale) < TRAJECTORY_TOL
    for t_got, t_want, y_got, y_want in zip(got.t_events, want.t_events,
                                            got.y_events, want.y_events):
        assert t_got.shape == t_want.shape
        np.testing.assert_allclose(t_got, t_want, rtol=event_tol)
        if t_want.size:
            assert np.max(np.abs(y_got - y_want) / scale.T) < TRAJECTORY_TOL
    return want


def _assert_step_ends_close(got, want):
    np.testing.assert_allclose(got.t, want.t, rtol=STEP_END_TOL)
    scale = np.max(np.abs(want.y), axis=1, keepdims=True)
    assert np.max(np.abs(got.y - want.y) / scale) < STEP_END_TOL


@pytest.mark.parametrize("p_center", [1e-6, 1e-4, 1e-2])
def test_forward_shots_match_solve_ivp(recorded, p_center):
    eos = EosSpec(5.0 / 3.0, c_light=1.0)
    surface, _ = tov.shoot_from_center(eos, p_center)
    [(args, got)] = recorded
    want = _assert_matches_oracle(args, got)
    _assert_step_ends_close(got, want)
    assert surface.radius == pytest.approx(float(want.t_events[0][0]),
                                           rel=EVENT_TOL)


def test_lambda_table_matches_solve_ivp(recorded):
    eos = EosSpec(2.0, c_light=1.0, lambda_coeffs=(0.2, -0.1))
    _sol, _h_lo, h_hi, _t_hi, _slope = eos._ln_rho_table
    [(args, got)] = recorded
    want = _assert_matches_oracle(args, got)
    _assert_step_ends_close(got, want)
    assert h_hi == pytest.approx(float(want.t[-1]), rel=EVENT_TOL)


def test_inward_ladder_matches_solve_ivp(recorded):
    eos = EosSpec(5.0 / 3.0, c_light=1.0)
    surface, _ = tov.shoot_from_center(eos, 1e-3)
    cls, _ = tov.shoot_from_boundary(eos, surface.radius * 0.8, surface.mass)
    assert cls.case == tov.CASE00
    assert len(recorded) == 4  # the forward shot and three rungs
    # the last rung runs at rtol 1e-13, where the two step grids part by up
    # to 1e-4 relative (the error estimates are mostly roundoff there), so
    # its blow-up radius agrees to about 1e-12
    for args, got in recorded:
        _assert_matches_oracle(args, got, event_tol=1e-11)


@pytest.mark.parametrize("n", [1.0, 1.5, 3.0, 4.5])
def test_lane_emden_solves_match_solve_ivp(recorded, n):
    sol = lane_emden.solve(n)
    assert len(recorded) == 2  # to the surface, then the vacuum continuation
    want = [_assert_matches_oracle(args, got) for args, got in recorded]
    assert sol.xi1 == pytest.approx(float(want[0].t_events[0][0]),
                                    rel=EVENT_TOL)


def test_lane_emden_n0_matches_solve_ivp(recorded):
    # theta = 1 - xi^2/6 is a polynomial, so the error estimate is pure
    # rounding and the two step counts part (37 vs 25).  The surface and the
    # trajectory before it still agree; the step across the surface, where
    # the source (theta v 0)^0 drops from 1 to 0, leaves theta' there exact
    # only to about 1e-10 on either grid.
    sol = lane_emden.solve(0.0)
    assert sol.xi1 == pytest.approx(math.sqrt(6.0), rel=EVENT_TOL)
    (args, got), (ext_args, ext_got) = recorded
    want = _oracle(*args)
    scale = np.max(np.abs(want.y), axis=1, keepdims=True)
    inside = np.abs(got.sol(want.t[:-1]) - want.y[:, :-1]) / scale
    assert np.max(inside) < TRAJECTORY_TOL
    assert np.max(np.abs(got.y[:, -1] - want.y[:, -1]) / scale[:, 0]) < 1e-10
    _assert_matches_oracle(ext_args, ext_got)


@pytest.mark.parametrize("n", [1.0, 1.5, 3.0])
def test_distortion_solve_matches_solve_ivp(recorded, n):
    base = lane_emden.solve(n)
    recorded.clear()
    solve_distortion(base)
    [(args, got)] = recorded
    _assert_matches_oracle(args, got)


def test_dense_output_scalar_array_and_oracle_agree(recorded):
    eos = EosSpec(5.0 / 3.0, c_light=1.0)
    tov.shoot_from_center(eos, 1e-4)
    [(args, got)] = recorded
    want = _oracle(*args)
    t = got.t
    # interior points of every step, the step ends, and points in the last
    # step, which the surface event truncates
    last = t[-2] + np.linspace(0.0, 1.0, 9) * (t[-1] - t[-2])
    probes = np.concatenate([t, 0.5 * (t[1:] + t[:-1]), last])
    array = got.sol(probes)
    scalar = np.array([got.sol(float(x)) for x in probes]).T
    assert np.array_equal(array, scalar)
    scale = np.max(np.abs(want.y), axis=1, keepdims=True)
    assert np.max(np.abs(array - want.sol(probes)) / scale) < TRAJECTORY_TOL
    # the truncated step keeps the length of the step the solver took, and
    # its interpolant puts the surface w = 0 at the event root
    _t_old, h_last = got.sol._steps[-1][:2]
    assert h_last > t[-1] - t[-2]
    assert abs(got.sol(float(t[-1]))[1]) < 1e-12 * scale[1, 0]


def test_dense_output_picks_the_step_of_each_point():
    def fun(t, y):
        return [y[1], -y[0]]

    for span in ((-1.0, 3.0), (3.0, -1.0)):
        got = ode.solve(fun, span, [0.2, 1.0], 1e-10, 1e-12)
        t, steps = got.t, got.sol._steps
        assert len(steps) == len(t) - 1

        def on_step(i, x):
            return ode._evaluate(ode._step_coeffs(steps[i]), x)

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

    crossing.terminal = True
    got = ode.solve(fun, (0.0, 1.0), [0.0], 1e-10, 1e-12, [crossing])
    want = _oracle(fun, (0.0, 1.0), [0.0], 1e-10, 1e-12, [crossing])
    assert got.status == 1 and got.success
    assert len(got.t) == len(want.t) == 2
    assert got.t[-1] == pytest.approx(1e-9, rel=1e-13)
    assert got.t_events[0][0] == pytest.approx(want.t_events[0][0],
                                               rel=1e-13)
    assert got.nfev == want.nfev


def test_event_direction_and_nonterminal_events():
    def fun(t, y):
        return [y[1], -y[0]]

    def rising(t, y):
        return y[0]

    rising.direction = 1

    def falling(t, y):
        return y[0]

    falling.direction = -1
    falling.terminal = True
    args = (fun, (4.0, 20.0), [math.sin(4.0), math.cos(4.0)], 1e-10, 1e-12,
            [rising, falling])
    got = ode.solve(*args)
    want = _oracle(*args)
    # sin t rises through 0 at 2 pi, which is recorded, and falls at 3 pi,
    # which stops the run
    np.testing.assert_allclose(got.t_events[0], [2.0 * math.pi], rtol=1e-9)
    np.testing.assert_allclose(got.t_events[1], [3.0 * math.pi], rtol=1e-9)
    for a, b in zip(got.t_events, want.t_events):
        np.testing.assert_allclose(a, b, rtol=EVENT_TOL)
    assert got.t[-1] == got.t_events[1][-1]


@pytest.mark.parametrize("span", [(0.0, 10.0), (10.0, 0.0)])
def test_earliest_terminal_root_in_the_step_wins(span):
    # y = t with error-free steps growing tenfold, so one step crosses
    # both levels; the run stops at the one reached first
    def fun(t, y):
        return [1.0]

    def level(value):
        def event(t, y):
            return y[0] - value

        event.terminal = True
        return event

    args = (fun, span, [span[0]], 1e-10, 1e-12, [level(5.0), level(5.0001)])
    got = ode.solve(*args)
    want = _oracle(*args)
    first = 5.0 if span[1] > span[0] else 5.0001
    assert got.t[-1] == pytest.approx(first, rel=1e-13)
    assert [len(te) for te in got.t_events] == [len(te) for te in
                                                want.t_events]
    assert got.t_events[0].size + got.t_events[1].size == 1


def test_root_at_the_previous_step_end_is_not_appended_twice():
    # g is zero on [1, 2]; a rising-only event ignores the step that lands
    # on the plateau and fires on the next, at that step's start
    def fun(t, y):
        return [math.cos(t)]

    def plateau(t, y):
        return max(0.0, 1.0 - t) + max(0.0, t - 2.0)

    plateau.terminal = True
    plateau.direction = 1
    args = (fun, (0.0, 5.0), [0.0], 1e-8, 1e-10, [plateau])
    got = ode.solve(*args)
    want = _oracle(*args)
    assert got.status == want.status == 1
    np.testing.assert_array_equal(np.diff(got.t) > 0, True)
    assert len(got.t) == len(want.t)
    assert len(got.sol._steps) == len(got.t) - 1
    assert got.t[-1] == got.t_events[0][0]


def test_collapsing_steps_return_the_partial_result():
    def fun(t, y):  # y = 1/(1 - t) blows up at t = 1
        return [y[0] * y[0]]

    got = ode.solve(fun, (0.0, 2.0), [1.0], 1e-10, 1e-12)
    want = _oracle(fun, (0.0, 2.0), [1.0], 1e-10, 1e-12)
    assert not got.success and got.status == -1
    assert got.message == want.message
    assert len(got.t) == len(want.t) > 1
    assert got.t[-1] == pytest.approx(want.t[-1], rel=1e-12)
    assert got.t[-1] < 1.0 and got.y.shape == (1, len(got.t))


def test_tov_solve_labels_an_integrator_failure(monkeypatch):
    # w' = w^2 from w(1) = 1 blows up at r = 2; _solve reads tov_rhs at
    # call time, so the patched right-hand side is used
    monkeypatch.setattr(tov, "tov_rhs", lambda eos, r, m, w: (0.0, w * w))
    with pytest.raises(StellarMatchError, match=r"at r = 1\.99999"):
        tov._solve(EosSpec(2.0), (1.0, 3.0), [0.0, 1.0], [], 1e-10,
                   [1e-12, 1e-12])


def test_table_reads_the_partial_result_at_a_monotone_bound(recorded):
    eos = EosSpec(2.0, c_light=1.0, lambda_coeffs=(-0.5,))
    assert eos.validity_binding == "monotone"
    _sol, _h_lo, h_hi, t_hi, _slope = eos._ln_rho_table
    [(_args, got)] = recorded
    assert not got.success  # the steps collapse just short of the bound
    assert (h_hi, t_hi) == (got.t[-1], got.y[0, -1])
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
        fired = [i for i, te in enumerate(want.t_events) if te.size]
        assert got.event[j] == (fired[0] if fired else -1)
    return got


def test_lanes_take_the_scalar_steps_to_a_terminal_event_or_the_bound():
    def fun(t, y):
        return [y[1], -y[0]]

    def lanes_fun(t, y):
        return np.array([y[1], -y[0]])

    def falling(t, y):
        return y[0]

    falling.terminal = True
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

        event.terminal = True
        return event

    starts = [span[0], span[0] + 0.5 * (span[1] - span[0]) / 10.0]
    got = _lanes_against_scalar(fun, lanes_fun, starts, span[1],
                                [[s] for s in starts],
                                [level(5.0), level(5.0001)])
    assert np.all(got.event == (0 if span[1] > span[0] else 1))


def test_lanes_retire_a_collapsing_lane_alone():
    def fun(t, y):  # y = y0/(1 - y0 (t - t0)) blows up at t0 + 1/y0
        return [y[0] * y[0]]

    def lanes_fun(t, y):
        return y * y

    got = _lanes_against_scalar(fun, lanes_fun, [0.0, 0.0, 0.5], 2.0,
                                [[1.0], [0.5], [1.0]])
    np.testing.assert_array_equal(got.status, -1)
    np.testing.assert_allclose(got.t, [1.0, 2.0, 1.5], rtol=1e-10)


def test_lanes_observe_every_accepted_state():
    def fun(t, y):
        return [y[1], -y[0]]

    seen = {0: [], 1: []}

    def observe(lanes, t, y):
        for lane, t_j in zip(lanes, t):
            seen[int(lane)].append(float(t_j))

    def falling(t, y):
        return y[0]

    falling.terminal = True
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
    def event(t, y):
        return y[0]

    with pytest.raises(ValueError, match="terminal"):
        ode.solve_lanes(lambda t, y: y, [0.0], [1.0], [[1.0]], 1e-10, 1e-12,
                        [event])
    with pytest.raises(ValueError, match="one direction"):
        ode.solve_lanes(lambda t, y: y, [0.0, 1.0], [1.0, 0.0],
                        [[1.0, 1.0]], 1e-10, 1e-12)
