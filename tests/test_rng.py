"""The sweep's random stream against numpy's default_rng, its oracle."""

import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.random import default_rng

from stellar_match.rng import MASK32, Pcg64

# n = 1 takes no draw, and small n almost never reject.  Lemire's method
# rejects a 32-bit draw with probability (2**32 % n)/2**32, so n just above
# 2**31 rejects about every other draw and runs the loop; n near 2**32 - 1
# is the largest allowed.
COUNTS = st.one_of(
    st.sampled_from([1, 2, 3, 2**31 + 1, 3 * 2**30 + 1, MASK32 - 1, MASK32]),
    st.integers(1, 100),
    st.integers(2**31 + 1, 2**31 + 2**20),
    st.integers(2**32 - 2**20, MASK32),
)
BOUNDS = st.tuples(st.floats(-1e6, 1e6), st.floats(0.0, 1e6))
# each draw is ("u", (low, width)) or ("i", n)
DRAWS = st.lists(
    st.one_of(st.tuples(st.just("u"), BOUNDS), st.tuples(st.just("i"), COUNTS)),
    min_size=1, max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(seed=st.one_of(st.integers(0, 2**32), st.integers(0, 2**200)),
       draws=DRAWS)
@example(seed=0, draws=[("i", 3), ("u", (0.0, 1.0)), ("i", 3), ("i", 5)])
@example(seed=2**128 + 1, draws=[("i", 2**31 + 1), ("u", (0.0, 1.0))] * 20)
@example(seed=2**32 - 1, draws=[("u", (-1.0, 2.0))] * 3)
def test_stream_is_default_rngs(seed, draws):
    # every value equals numpy's, also where 32-bit draws for integers()
    # and 64-bit draws for uniform() interleave around a kept high half
    ours, oracle = Pcg64(seed), default_rng(seed)
    for kind, arg in draws:
        if kind == "u":
            low, width = arg
            want = oracle.uniform(low, low + width)
            got = ours.uniform(low, low + width)
            assert type(got) is float
        else:
            want, got = int(oracle.integers(arg)), ours.integers(arg)
            assert type(got) is int
        assert got == want, (seed, kind, arg)


def test_bad_arguments_raise_value_error():
    for seed in (-1, 1.0, True, "3", None):
        with pytest.raises(ValueError, match="seed"):
            Pcg64(seed)
    rng = Pcg64(0)
    for n in (0, -1, 2**32, 2.0, False):
        with pytest.raises(ValueError, match="integers"):
            rng.integers(n)
    for low, high in ((1.0, 0.0), (0.0, float("inf")), (0.0, float("nan")),
                      (-1e308, 1e308)):
        with pytest.raises(ValueError, match="uniform"):
            rng.uniform(low, high)
