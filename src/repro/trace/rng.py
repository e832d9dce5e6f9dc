"""A pure-Python, bit-exact copy of the numpy draws trace generation makes.

``Rng(entropy)`` yields the same values, in the same order, as
``numpy.random.default_rng(entropy)`` — a ``Generator`` over ``PCG64``
seeded by a ``SeedSequence`` — for the four samplers the trace
generator calls: :meth:`Rng.random`, :meth:`Rng.integers`,
:meth:`Rng.geometric` and :meth:`Rng.beta`.  Every draw is part of a
trace's identity (``tests/data/trace_digests.json``), so each piece
follows numpy 2.x's C code step for step, including its float
expression order:

* seeding: ``SeedSequence`` pool mixing of the entropy words and
  ``generate_state(4, uint64)``, then ``pcg64_set_seed``;
* the bit generator: the 128-bit LCG step and the XSL-RR output, taken
  from the *new* state; a 32-bit draw is the low half of a fresh 64-bit
  one and caches the high half for the next 32-bit draw, which 64-bit
  draws never touch;
* ``integers``: Lemire's bounded sampler, 32-bit on ``next32`` for
  ranges up to 2**32 and 64-bit on ``next64`` above;
* ``geometric``: numpy's search for ``p >= 1/3`` (ended where its
  partial sum saturates, the one place numpy's loop never returns), its
  inversion of a ziggurat exponential below;
* ``beta``: Jöhnk's algorithm for ``a <= 1 and b <= 1``, otherwise a
  ratio of Marsaglia–Tsang gammas, with ``gamma(1.0)`` the exponential;
* the ziggurat exponential and normal samplers, on numpy's own tables
  (:mod:`repro.trace.ziggurat_tables`).

Only the paths ``beta(a, 1.0)`` can reach for a positive ``a`` exist:
a gamma of shape below 1 raises.  Where C and Python differ, C wins:
``log(0.0)`` is ``-inf`` here (:func:`_log`) instead of an error.
``tests/test_rng.py`` checks every branch against the installed numpy.
"""

from __future__ import annotations

import math
import struct
from typing import Sequence

from .ziggurat_tables import TABLES

_M32 = 0xFFFF_FFFF
_M52 = (1 << 52) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
#: ``x * (2**64 + 1)`` is ``x`` twice side by side, so shifting it right
#: by ``rot`` leaves ``rotr64(x, rot)`` in its low 64 bits.
_TWICE = (1 << 64) + 1
_TWO_M53 = 2.0 ** -53
_INT64_MAX = (1 << 63) - 1

#: PCG64's default 128-bit LCG multiplier.
_MULT = (2549297995355413924 << 64) | 4865540595714422341

#: ``SeedSequence`` hashing constants.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4

_KE, _KI = (struct.unpack_from("<256Q", TABLES, offset)
            for offset in (0, 6144))
_WE, _FE, _WI, _FI = (struct.unpack_from("<256d", TABLES, offset)
                      for offset in (2048, 4096, 8192, 10240))
_EXP_R = 7.69711747013104972
_NOR_R = 3.6541528853610087963519472518
_NOR_INV_R = 0.27366123732975827203338247596

_ceil = math.ceil
_exp = math.exp
_log1p = math.log1p


def _log(x: float) -> float:
    """C's ``log``: ``-inf`` at 0.0, where ``math.log`` raises."""
    return math.log(x) if x > 0.0 else -math.inf


def _seed_state(entropy: Sequence[int]) -> "tuple[int, int]":
    """PCG64's (state, inc) for ``SeedSequence(entropy)``."""
    words = []
    for value in entropy:
        value = int(value)
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & _M32)
        value >>= 32
        while value:
            words.append(value & _M32)
            value >>= 32

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return result ^ (result >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(4, uint64): eight 32-bit words, paired little-endian.
    hash_const = _INIT_B
    state = []
    for index in range(8):
        value = pool[index % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        state.append(value ^ (value >> 16))
    seed0, seed1, inc0, inc1 = (state[k] | state[k + 1] << 32
                                for k in range(0, 8, 2))
    # pcg64_set_seed: step from 0, add the seed, step again.
    inc = ((inc0 << 64 | inc1) << 1 | 1) & _M128
    return ((inc + (seed0 << 64 | seed1)) * _MULT + inc) & _M128, inc


class Rng:
    """numpy's ``default_rng(entropy)`` for the draws traces are made of.

    ``entropy`` is a sequence of non-negative ints, as numpy's
    ``SeedSequence`` takes it.
    """

    __slots__ = ("_state", "_inc", "_high32")

    def __init__(self, entropy: Sequence[int]) -> None:
        self._state, self._inc = _seed_state(entropy)
        #: The cached high half of the last 64-bit word a 32-bit draw
        #: split, or None.
        self._high32 = None

    # --- the bit generator -----------------------------------------------

    def _next64(self) -> int:
        s = (self._state * _MULT + self._inc) & _M128
        self._state = s
        return (((s >> 64) ^ s) & _M64) * _TWICE >> (s >> 122) & _M64

    def _next32(self) -> int:
        high = self._high32
        if high is not None:
            self._high32 = None
            return high
        word = self._next64()
        self._high32 = word >> 32
        return word & _M32

    # --- samplers --------------------------------------------------------

    def random(self) -> float:
        """A float in [0, 1): the top 53 bits of a 64-bit draw."""
        return (self._next64() >> 11) * _TWO_M53

    def integers(self, low: int, high: int) -> int:
        """An int in [low, high), by Lemire's method.

        A range of 1 draws nothing.  Up to 2**32 one 32-bit word per
        try (a range of exactly 2**32 never rejects, so it is one
        ``next32``, as numpy special-cases it); above, one 64-bit word.
        """
        span = high - low
        if span <= 1:
            if span == 1:
                return low
            raise ValueError("low >= high")
        if span <= 1 << 32:
            m = self._next32() * span
            if m & _M32 < span:
                threshold = (1 << 32) % span
                while m & _M32 < threshold:
                    m = self._next32() * span
            return low + (m >> 32)
        m = self._next64() * span
        if m & _M64 < span:
            threshold = (1 << 64) % span
            while m & _M64 < threshold:
                m = self._next64() * span
        return low + (m >> 64)

    def geometric(self, p: float) -> int:
        """Trials to the first success, for ``0 < p <= 1``: numpy's
        search on one double for ``p >= 1/3``, else the inversion of an
        exponential.

        The search stops where its partial sum stops growing: for some
        ``p`` (1/2.4, 1/2.6) the sum saturates below the largest
        doubles ``random()`` can return, where numpy's loop never ends.
        """
        if p >= 0.333333333333333333333333:
            u = self.random()
            if u <= p:
                return 1
            q = 1.0 - p
            prod = p * q
            total = p + prod
            trials = 2
            while u > total:
                prod *= q
                trials += 1
                if total + prod == total:
                    break
                total += prod
            return trials
        z = _ceil(-self._exponential() / _log1p(-p))
        return z if z <= _INT64_MAX else _INT64_MAX

    def beta(self, a: float, b: float) -> float:
        """A Beta(a, b) variate (every path ``b == 1.0`` reaches)."""
        if a <= 0:
            raise ValueError("a <= 0")
        if b <= 0:
            raise ValueError("b <= 0")
        if a <= 1.0 and b <= 1.0:
            # Jöhnk's algorithm.
            random = self.random
            while True:
                u = random()
                v = random()
                x = u ** (1.0 / a)
                y = v ** (1.0 / b)
                xpy = x + y
                if xpy <= 1.0 and u + v > 0.0:
                    if xpy > 0:
                        return x / xpy
                    log_x = _log(u) / a
                    log_y = _log(v) / b
                    log_m = log_x if log_x > log_y else log_y
                    log_x -= log_m
                    log_y -= log_m
                    return _exp(log_x - math.log(_exp(log_x) + _exp(log_y)))
        ga = self._gamma(a)
        gb = self._gamma(b)
        return ga / (ga + gb)

    # --- the samplers beta and geometric build on ------------------------

    def _gamma(self, shape: float) -> float:
        """Marsaglia–Tsang for ``shape > 1``; the exponential at 1."""
        if shape == 1.0:
            return self._exponential()
        if shape < 1.0:
            raise ValueError("gamma shape < 1 is not implemented")
        b = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9 * b)
        while True:
            while True:
                x = self._normal()
                v = 1.0 + c * x
                if v > 0.0:
                    break
            v = v * v * v
            u = self.random()
            if u < 1.0 - 0.0331 * (x * x) * (x * x):
                return b * v
            if _log(u) < 0.5 * x * x + b * (1.0 - v + _log(v)):
                return b * v

    def _exponential(self) -> float:
        """numpy's ziggurat standard exponential: past the fast test,
        the tail at index 0, else the wedge test, whose rejection draws
        afresh."""
        while True:
            r = self._next64()
            ri = r >> 11
            idx = r >> 3 & 0xFF
            x = ri * _WE[idx]
            if ri < _KE[idx]:
                return x
            if idx == 0:
                return _EXP_R - _log1p(-self.random())
            if ((_FE[idx - 1] - _FE[idx]) * self.random() + _FE[idx]
                    < _exp(-x)):
                return x

    def _normal(self) -> float:
        """numpy's ziggurat standard normal."""
        while True:
            r = self._next64()
            idx = r & 0xFF
            r >>= 8
            rabs = r >> 1 & _M52
            x = rabs * _WI[idx]
            if r & 1:
                x = -x
            if rabs < _KI[idx]:
                return x
            if idx == 0:
                while True:
                    xx = -_NOR_INV_R * _log1p(-self.random())
                    yy = -_log1p(-self.random())
                    if yy + yy > xx * xx:
                        return (-(_NOR_R + xx) if rabs >> 8 & 1
                                else _NOR_R + xx)
            if ((_FI[idx - 1] - _FI[idx]) * self.random() + _FI[idx]
                    < _exp(-0.5 * x * x)):
                return x
