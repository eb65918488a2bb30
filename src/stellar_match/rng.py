"""The sweep's random stream: numpy's default_rng(seed), in Python ints.

`Pcg64(seed)` gives bit for bit the values of numpy's `default_rng(seed)`
for the two draws the sweep samplers make, `uniform(low, high)` and
`integers(n)`:

- The seed goes through numpy's SeedSequence: its 32-bit words fill a
  pool of four by hashmix and mix, and the pool gives four 64-bit words
  (`generate_state(4, uint64)`).
- Those words seed PCG64 (O'Neill 2014, PCG-XSL-RR 128/64) by its
  srandom procedure, as a 128-bit state and a 128-bit stream.  Each
  64-bit draw steps the 128-bit LCG and outputs XSL-RR of the new state.
- A float is the draw's top 53 bits times 2**-53.  `integers(n)` is
  Lemire's (2019) multiply-and-reject on 32-bit draws.  A 64-bit draw
  gives two of those, its low half first; the high half waits for the
  next 32-bit draw, across any floats drawn between, as numpy's bit
  generator keeps it.

The sweep draws a few hundred values, so Python ints cost nothing that
shows, and no command loads numpy's random package (eleven extension
modules, about 2.6 MiB).  The stream also stops depending on numpy's Generator
algorithms, which NEP 19 leaves free to change between releases.  The
tests keep numpy's default_rng as its oracle.
"""

from __future__ import annotations

import math

MASK32 = (1 << 32) - 1
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1

# SeedSequence's constants, from numpy's bit_generator.pyx.
POOL_SIZE = 4
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
XSHIFT = 16
# PCG_DEFAULT_MULTIPLIER_128.
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed):
    """SeedSequence(seed).generate_state(4, uint64) for an int seed >= 0,
    as a list of four ints."""
    entropy = [seed & MASK32]
    while seed > MASK32:
        seed >>= 32
        entropy.append(seed & MASK32)
    hash_const = INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * MULT_A & MASK32
        value = value * hash_const & MASK32
        return value ^ value >> XSHIFT

    def mix(x, y):
        result = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
        return result ^ result >> XSHIFT

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(POOL_SIZE)]
    for i_src in range(POOL_SIZE):
        for i_dst in range(POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for value in entropy[POOL_SIZE:]:
        for i_dst in range(POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(value))

    hash_const = INIT_B
    words = []
    for i in range(2 * POOL_SIZE):
        value = pool[i % POOL_SIZE] ^ hash_const
        hash_const = hash_const * MULT_B & MASK32
        value = value * hash_const & MASK32
        words.append(value ^ value >> XSHIFT)
    return [words[i] | words[i + 1] << 32 for i in range(0, len(words), 2)]


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


class Pcg64:
    """numpy's default_rng(seed) stream; seed is an int >= 0."""

    def __init__(self, seed):
        if not (_is_int(seed) and seed >= 0):
            raise ValueError("seed must be a non-negative int, got %r"
                             % (seed,))
        state_hi, state_lo, inc_hi, inc_lo = _seed_words(seed)
        self._inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & MASK128
        self._state = 0
        self._next64()
        self._state = (self._state + (state_hi << 64 | state_lo)) & MASK128
        self._next64()
        # the high half of the last 64-bit draw, while no 32-bit draw has
        # taken it
        self._spare = None

    def _next64(self):
        state = self._state = (self._state * PCG_MULT + self._inc) & MASK128
        rot = state >> 122
        word = (state >> 64 ^ state) & MASK64
        return (word >> rot | word << (64 - rot)) & MASK64

    def _next32(self):
        if self._spare is not None:
            word, self._spare = self._spare, None
            return word
        word = self._next64()
        self._spare = word >> 32
        return word & MASK32

    def uniform(self, low, high):
        """A float drawn uniformly from [low, high)."""
        low, high = float(low), float(high)
        span = high - low
        if not 0.0 <= span < math.inf:
            raise ValueError("uniform needs low <= high with a finite "
                             "difference, got (%r, %r)" % (low, high))
        return low + span * ((self._next64() >> 11) * 2.0**-53)

    def integers(self, n):
        """An int drawn uniformly from range(n), for 1 <= n < 2**32."""
        if not (_is_int(n) and 1 <= n <= MASK32):
            raise ValueError("integers needs an int n with 1 <= n < 2**32, "
                             "got %r" % (n,))
        if n == 1:
            return 0
        # numpy tests the low word against n before it computes this
        # threshold (< n), which saves a division but rejects the same draws
        threshold = (1 << 32) % n
        product = self._next32() * n
        while product & MASK32 < threshold:
            product = self._next32() * n
        return product >> 32
