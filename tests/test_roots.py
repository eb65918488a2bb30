"""The in-house root finders against the scipy routines they port:
`roots.brentq` against `scipy.optimize.brentq` (every evaluated point and
root equal, errors included), `roots.brentq_lanes` against `roots.brentq`
element by element, `roots.chandrupatla` against
`scipy.optimize.elementwise.find_root` (equal x, status and nit)."""

import math
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq as scipy_brentq
from scipy.optimize.elementwise import find_root

from stellar_match.roots import brentq, brentq_lanes, chandrupatla

EPS = sys.float_info.epsilon

# Families with smooth, flat, steep, kinked and periodic roots; each takes
# the root's location c.
FAMILIES = {
    "cubic": lambda c: lambda x: x**3 - c**3,
    "quintic_flat": lambda c: lambda x: (x - c) ** 5,
    "exp": lambda c: lambda x: math.expm1(x - c),
    "steep_atan": lambda c: lambda x: math.atan(1e6 * (x - c)),
    "kinked": lambda c: lambda x: (x - c) * (3.0 if x < c else 0.1),
    "sin": lambda c: lambda x: math.sin(x - c),
}


def _traced(solver, f, a, b, **kwargs):
    """(outcome, evaluated points): the root, or the error's type and text."""
    points = []

    def g(x):
        points.append(x)
        return f(x)

    try:
        out = solver(g, a, b, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return (type(exc), str(exc)), points
    return out, points


def _brackets(seed, count):
    rng = random.Random(seed)
    for name, family in FAMILIES.items():
        for _ in range(count):
            c = rng.uniform(0.1, 1.3)
            yield name, family(c), c - rng.uniform(0.05, 1.2), c + rng.uniform(0.05, 1.2)


@pytest.mark.parametrize("xtol", [2e-12, 1e-14, 1e-300])
@pytest.mark.parametrize("rtol", [4 * EPS, 1e-6])
def test_brentq_matches_scipy_bit_for_bit(xtol, rtol):
    converged = 0
    for name, f, a, b in _brackets(20261018, 25):
        for lo, hi in ((a, b), (b, a)):
            want, want_points = _traced(scipy_brentq, f, lo, hi, xtol=xtol, rtol=rtol,
                                        maxiter=200, full_output=True)
            got, got_points = _traced(brentq, f, lo, hi, xtol=xtol, rtol=rtol, maxiter=200)
            assert got_points == want_points, (name, lo, hi)
            if want[0] is RuntimeError:
                # the flat quintic root can outlast maxiter at tight tolerances
                assert got == want
                continue
            root, info = want
            assert got == root, (name, lo, hi)
            assert len(got_points) == info.function_calls
            converged += 1
    assert converged > 0.9 * 2 * len(FAMILIES) * 25


def test_brentq_exhausted_maxiter_matches_scipy():
    for name, f, a, b in _brackets(7, 5):
        for maxiter in (0, 1, 3):
            want, want_points = _traced(scipy_brentq, f, a, b, xtol=1e-300, maxiter=maxiter)
            got, got_points = _traced(brentq, f, a, b, xtol=1e-300, maxiter=maxiter)
            assert want[0] is RuntimeError, (name, maxiter)
            assert got == want
            assert got_points == want_points


def test_brentq_sign_error_nan_and_argument_checks_match_scipy():
    cases = [
        (lambda x: x * x + 1.0, 0.0, 1.0, {}),
        (lambda x: math.nan, 0.0, 1.0, {}),
        (lambda x: x - 0.3 if x < 0.5 else math.nan, 0.0, 1.0, {}),
        (lambda x: x, -1.0, 1.0, {"xtol": 0.0}),
        (lambda x: x, -1.0, 1.0, {"rtol": EPS}),
        (lambda x: x, -1.0, 1.0, {"maxiter": -1}),
    ]
    for f, a, b, kwargs in cases:
        want, want_points = _traced(scipy_brentq, f, a, b, **kwargs)
        got, got_points = _traced(brentq, f, a, b, **kwargs)
        assert want[0] is ValueError
        assert got == want
        assert got_points == want_points


def test_brentq_returns_a_zero_at_either_end():
    assert brentq(lambda x: x - 1.0, 1.0, 2.0) == 1.0
    assert brentq(lambda x: x - 2.0, 1.0, 2.0) == 2.0


def _cubic(x, c, p, near):
    """(x - c)(x^2 + p x + 2), whose one real root is c for |p| < 2 sqrt 2;
    NaN closer than `near` to it."""
    return np.where(np.abs(x - c) < near, np.nan, (x - c) * (x * x + p * x + 2.0))


def _outcome(solve):
    try:
        return solve()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


# (root c, c - a, b - c, p, swap the ends); a zero distance puts the root
# on that end
BRACKET = st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 3.0),
                    st.floats(0.0, 3.0), st.floats(-2.0, 2.0), st.booleans())


@settings(max_examples=150, deadline=None)
@given(brackets=st.lists(BRACKET, min_size=1, max_size=12),
       xtol=st.sampled_from([2e-12, 4 * EPS, 1e-300]),
       fault=st.sampled_from([None, "sign", "nan"]), at=st.integers(0, 11))
@example(brackets=[(0.5, 0.0, 1.0, 0.3, False), (1.0, 0.5, 0.5, -1.0, False)],
         xtol=2e-12, fault=None, at=0)
@example(brackets=[(0.5, 1.0, 0.0, 0.3, False), (1.0, 0.5, 0.5, -1.0, True)],
         xtol=2e-12, fault=None, at=0)
@example(brackets=[(0.5, 1.0, 1.0, 0.3, False), (1.0, 0.5, 0.5, -1.0, True)],
         xtol=2e-12, fault="sign", at=1)
@example(brackets=[(0.5, 1.0, 1.0, 0.3, False), (1.0, 0.25, 0.5, -1.0, False)],
         xtol=2e-12, fault="nan", at=1)
@example(brackets=[(0.5, 1.0, 1.0, 0.3, False), (1.0, 1e-4, 0.5, -1.0, True)],
         xtol=2e-12, fault="nan", at=1)
@example(brackets=[(-1.7731845266625694e-275, 1.0, 4.050456896695428e-268, 1.0, False),
                   (0.0, 0.0, 0.0, 0.0, False)], xtol=1e-300, fault="sign", at=1)
def test_brentq_lanes_match_brentq_bit_for_bit(brackets, xtol, fault, at):
    # each element's root equals brentq's on it; one faulty element (no
    # sign change, or NaN within 1e-3 of its root, which an end or an
    # iterate reaches) raises brentq's error on it
    c, below, above, p, swap = (np.array(v) for v in zip(*brackets))
    a, b = np.where(swap, c + above, c - below), np.where(swap, c - below, c + above)
    near = np.zeros(len(c))
    at %= len(c)
    if fault == "sign":
        a[at], b[at] = c[at] + 0.5, c[at] + 1.0
    elif fault == "nan":
        near[at] = 1e-3
    want = [_outcome(lambda: brentq(lambda x: _cubic(x, *args), lo, hi, xtol=xtol,
                                    maxiter=200))
            for lo, hi, *args in zip(a.tolist(), b.tolist(), c, p, near)]
    got = _outcome(lambda: brentq_lanes(_cubic, a, b, (c, p, near), xtol=xtol,
                                        maxiter=200))
    errors = [w for w in want if isinstance(w, tuple)]
    if errors:
        # several failing elements raise the first error met, which need
        # not be the first element's (a sign error precedes any iteration)
        assert got in errors
        assert len(errors) > 1 or got == errors[0]
    else:
        assert [v.hex() for v in got.tolist()] == [float(w).hex() for w in want]
    if fault == "sign":
        assert got == (ValueError, "f(a) and f(b) must have different signs")
    elif fault == "nan":
        assert got[0] is ValueError and "NaN" in got[1]


@pytest.mark.parametrize("xtol", [2e-12, 1e-300])
def test_brentq_lanes_match_brentq_on_every_family(xtol):
    # the scalar families, each element evaluated by its own float function
    # (so any difference is the solver's), all brackets in one call
    brackets = [(family(c), lo, hi) for name, family in FAMILIES.items()
                for c in (0.3, 0.77, 1.2) for _, _, lo, hi in [(0, 0, c - 0.4, c + 0.9),
                                                            (0, 0, c + 0.6, c - 0.25)]]
    brackets += [(f, a, b) for _, f, a, b in _brackets(20261022, 10)]
    fs, a, b = zip(*brackets)

    def f(x, k):
        return np.array([fs[j](v) for j, v in zip(k.tolist(), x.tolist())])

    got = brentq_lanes(f, np.array(a), np.array(b), (np.arange(len(fs)),),
                       xtol=xtol, maxiter=200)
    want = [brentq(g, lo, hi, xtol=xtol, maxiter=200) for g, lo, hi in brackets]
    assert [v.hex() for v in got.tolist()] == [w.hex() for w in want]


def test_brentq_lanes_raise_brentqs_errors_on_their_arguments():
    def f(x):
        return x - 0.3

    for kwargs in ({"xtol": 0.0}, {"rtol": EPS}, {"maxiter": -1}, {"maxiter": 0}):
        want = _outcome(lambda: brentq(f, 0.0, 1.0, **kwargs))
        assert _outcome(lambda: brentq_lanes(f, np.array([0.0]), np.array([1.0]),
                                             **kwargs)) == want


TOLERANCES = {"xatol": 1e-13, "xrtol": 4e-15}


def _assert_matches_find_root(f, a, b, args=(), maxiter=None):
    kwargs = {} if maxiter is None else {"maxiter": maxiter}
    with np.errstate(invalid="ignore"):
        want = find_root(f, (a, b), args=args,
                         tolerances=dict(TOLERANCES, fatol=0.0, frtol=0.0), **kwargs)
        got = chandrupatla(f, a, b, args, **TOLERANCES, **kwargs)
    np.testing.assert_array_equal(got.x, want.x)
    np.testing.assert_array_equal(got.status, want.status)
    np.testing.assert_array_equal(got.nit, want.nit)
    return got


def _power_family(x, c, p):
    return np.sign(x - c) * np.abs(x - c) ** p + 1e-3 * (x - c)


@pytest.mark.parametrize("seed", range(5))
def test_chandrupatla_matches_find_root_on_a_vectorised_family(seed):
    rng = np.random.default_rng(seed)
    m = 200
    c, p = rng.uniform(0.1, 2.0, m), rng.uniform(1.0, 5.0, m)
    a, b = rng.uniform(-1.0, 0.05, m), rng.uniform(2.1, 4.0, m)
    got = _assert_matches_find_root(_power_family, a, b, (c, p))
    assert np.all(got.status == 0)
    assert got.nit.min() < got.nit.max()
    got = _assert_matches_find_root(_power_family, a, b, (c, p), maxiter=got.nit.min())
    assert -2 in got.status


def test_chandrupatla_failures_match_find_root():
    # roots (elements 0, 3, 6), no sign change (1, 2), an infinite end (4),
    # a NaN end (5), a zero at both ends (7), a NaN argument (8)
    a = np.array([0.0, 0.0, 2.0, 0.0, -np.inf, 0.0, 0.0, 1.0, 0.0])
    b = np.array([2.0, 1.0, 3.0, 2.0, 2.0, np.nan, 4.0, 1.0, 3.0])
    c = np.array([1.0, 1.5, 1.0, 1.0, 1.0, 1.0, 2.5, 1.0, np.nan])
    got = _assert_matches_find_root(lambda x, c: x - c, a, b, (c,))
    assert got.status.tolist() == [0, -1, -1, 0, -3, -3, 0, 0, -3]


def test_chandrupatla_skips_the_zero_test_after_a_nan_end():
    # find_root's function tolerance 0 * min(|f(a)|, |f(b)|) is NaN here,
    # so the exact zero at x = 1 does not stop the iteration
    def f(x):
        return np.where(x > 1.2, np.nan, x - 1.0)

    got = _assert_matches_find_root(f, 0.0, np.array([2.0, 3.0]))
    assert got.nit.tolist() == [3, 6]


def test_chandrupatla_keeps_the_brackets_shape():
    a = np.zeros((2, 3))
    c = np.arange(1.0, 7.0).reshape(2, 3)
    got = _assert_matches_find_root(lambda x, c: x * x - c, a, 3.0, (c,))
    assert got.x.shape == got.status.shape == got.nit.shape == (2, 3)
    np.testing.assert_allclose(got.x, np.sqrt(c), rtol=1e-12)
