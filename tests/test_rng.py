"""``repro.trace.rng`` against the installed numpy, draw for draw.

``Rng(entropy)`` must give exactly what ``numpy.random.default_rng(
entropy)`` gives for every sampler the trace generator calls, because
every draw is part of a trace's identity (``test_trace_digests.py``).
The common paths are checked by interleaving every sampler over many
seeds; each rare branch is reached from a pinned stream position (an
entropy and a number of one-word ``random()`` draws to skip), and the
test first asserts that the word at that position really takes the
branch, so a drifted position fails instead of passing vacuously.  The
two branches that need a zero draw (C's ``log(0.0)``) and the geometric
search's saturated sum, which needs the largest draw, start from a
crafted PCG64 state set on both generators.

The reference was checked against numpy 2.4.6, and the pinned positions
were found in its streams.  NEP 19 lets a numpy feature release change
a ``Generator`` stream, so ``pyproject.toml``'s ``test`` extra keeps
numpy below 2.5.  If a test here fails on another numpy while
``test_trace_digests.py`` passes, numpy's sampler moved, not ``Rng``.
"""

from __future__ import annotations

import copy
import hashlib
import math
import signal
import zlib

import numpy as np
import pytest

from repro.trace import rng as rng_module
from repro.trace.rng import Rng
from repro.trace.ziggurat_tables import TABLES

_KE, _WE, _FE = rng_module._KE, rng_module._WE, rng_module._FE
_KI, _WI, _FI = rng_module._KI, rng_module._WI, rng_module._FI
_M52 = (1 << 52) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_MULT_INV = pow(rng_module._MULT, -1, 1 << 128)

#: The stream the rare-branch tests pin their positions in; a position
#: is the number of one-word ``random()`` draws before the word that
#: takes the branch.
_PINNED_ENTROPY = [1, 1000, 12345]


def pair(entropy):
    return Rng(entropy), np.random.default_rng(entropy)


def numpy_state(generator):
    state = generator.bit_generator.state
    high = state["uinteger"] if state["has_uint32"] else None
    return state["state"]["state"], state["state"]["inc"], high


def rng_state(rng):
    return rng._state, rng._inc, rng._high32


def set_state(ours, theirs, state):
    """Both generators at the same 128-bit PCG64 state."""
    ours._state = state
    numpy_state = theirs.bit_generator.state
    numpy_state["state"]["state"] = state
    theirs.bit_generator.state = numpy_state


def peek(rng, count=1):
    """The next ``count`` 64-bit words, without advancing ``rng``."""
    probe = copy.copy(rng)
    return [probe._next64() for _ in range(count)]


def double(word):
    return (word >> 11) * 2.0 ** -53


def at(skip):
    """Both generators at a pinned position of the pinned stream."""
    ours, theirs = pair(_PINNED_ENTROPY)
    for _ in range(skip):
        assert ours.random() == theirs.random()
    return ours, theirs


def exp_branch(words):
    """Which path numpy's ziggurat exponential takes on ``words``."""
    word = words[0]
    idx, ri = word >> 3 & 0xFF, word >> 11
    if ri < _KE[idx]:
        return "fast"
    if idx == 0:
        return "tail"
    accept = ((_FE[idx - 1] - _FE[idx]) * double(words[1]) + _FE[idx]
              < math.exp(-ri * _WE[idx]))
    return "wedge-accept" if accept else "wedge-reject"


def normal_draw(word):
    """(index, value, fast-path?) of a ziggurat normal's first word."""
    idx = word & 0xFF
    rabs = word >> 9 & _M52
    value = rabs * _WI[idx]
    return idx, -value if word >> 8 & 1 else value, rabs < _KI[idx]


def normal_branch(words):
    idx, value, fast = normal_draw(words[0])
    if fast:
        return "fast"
    if idx == 0:
        xx = -rng_module._NOR_INV_R * math.log1p(-double(words[1]))
        yy = -math.log1p(-double(words[2]))
        return "tail" if yy + yy > xx * xx else "tail-retry"
    accept = ((_FI[idx - 1] - _FI[idx]) * double(words[1]) + _FI[idx]
              < math.exp(-0.5 * value * value))
    return "wedge-accept" if accept else "wedge-reject"


def gamma_branch(words, shape):
    """Marsaglia–Tsang's verdict on a fast-path normal and its U."""
    _idx, x, fast = normal_draw(words[0])
    assert fast
    b = shape - 1.0 / 3.0
    v = 1.0 + x / math.sqrt(9 * b)
    if v <= 0.0:
        return "v-nonpositive"
    v = v * v * v
    u = double(words[1])
    if u < 1.0 - 0.0331 * (x * x) * (x * x):
        return "squeeze"
    accept = math.log(u) < 0.5 * x * x + b * (1.0 - v + math.log(v))
    return "log-accept" if accept else "log-reject"


# --- tables and seeding --------------------------------------------------


def test_ziggurat_tables_are_numpys():
    assert len(TABLES) == 6 * 256 * 8
    assert hashlib.sha256(TABLES).hexdigest() == (
        "d5887eb81b6b5428aa8d747e94209c230310ad0850524ffcc5e6f3f3130ccd1b")


@pytest.mark.parametrize("entropy", [
    [], [0], [1], [2 ** 32 - 1], [2 ** 32], [2 ** 70 + 5],
    [1, 2, 3, 4], [5, 6, 7, 8, 9], list(range(11)),
    [1001 & 0x7FFFFFFF, 12000, zlib.crc32(b"art")],
    [2 ** 31 - 1, 3000, zlib.crc32(b"mcf")],
])
def test_seeding_matches_numpy(entropy):
    ours, theirs = pair(entropy)
    assert rng_state(ours) == numpy_state(theirs)


def test_negative_entropy_raises():
    with pytest.raises(ValueError):
        Rng([1, -1])


# --- every sampler, interleaved ------------------------------------------

_RANGES = ((0, 1), (0, 2), (0, 3), (0, 8), (0, 1000), (0, 2 ** 31 + 1),
           (0, 2 ** 32 - 1), (0, 2 ** 32), (0, 2 ** 32 + 1),
           (0, 5 * 10 ** 12), (0, 2 ** 63 - 1), (-5, 5), (-2 ** 63, 1),
           (7, 2 ** 40))
_PROBABILITIES = (1.0, 0.5, 0.4166, 1.0 / 3.0, 0.3333, 0.25, 1.0 / 6.0,
                  0.125, 0.01)
_SHAPES = (0.05, 0.5, 1.0, 1.01, 3.0, 5.0, 12.0)


@pytest.mark.parametrize("seed", range(0, 60, 3))
def test_interleaved_draws_match_numpy(seed):
    entropy = [seed, 400 + seed, zlib.crc32(str(seed).encode())]
    ours, theirs = pair(entropy)
    chooser = np.random.default_rng(seed + 1000)   # picks, not checked
    for step in range(300):
        kind = int(chooser.integers(0, 4))
        if kind == 0:
            expected, actual = theirs.random(), ours.random()
        elif kind == 1:
            low, high = _RANGES[int(chooser.integers(0, len(_RANGES)))]
            expected = int(theirs.integers(low, high))
            actual = ours.integers(low, high)
        elif kind == 2:
            p = _PROBABILITIES[int(chooser.integers(0, len(
                _PROBABILITIES)))]
            expected, actual = int(theirs.geometric(p)), ours.geometric(p)
        else:
            a = _SHAPES[int(chooser.integers(0, len(_SHAPES)))]
            expected, actual = float(theirs.beta(a, 1.0)), ours.beta(a, 1.0)
        assert actual == expected, (entropy, step, kind)
        assert type(actual) is type(expected)
        assert rng_state(ours) == numpy_state(theirs), (entropy, step)


def test_geometric_array_is_scalar_draws_in_order():
    ours, theirs = pair([3, 2400, 99])
    expected = theirs.geometric(0.25, size=2400).tolist()
    assert [ours.geometric(0.25) for _ in range(2400)] == expected


def test_ziggurat_samplers_match_numpy():
    ours, theirs = pair([9])
    assert ([ours._exponential() for _ in range(5000)]
            == theirs.standard_exponential(5000).tolist())
    assert ([ours._normal() for _ in range(5000)]
            == theirs.standard_normal(5000).tolist())


# --- integers ------------------------------------------------------------


class _Counting(Rng):
    """Counts the words ``integers`` takes, by width."""

    def __init__(self, entropy):
        super().__init__(entropy)
        self.words = {32: 0, 64: 0}

    def _next32(self):
        self.words[32] += 1
        return super()._next32()

    def _next64(self):
        self.words[64] += 1
        return super()._next64()


@pytest.mark.parametrize("low,high,words", [
    (0, 1, {32: 0, 64: 0}),                 # range 1: no draw
    (-3, -2, {32: 0, 64: 0}),
    (0, 2, {32: 1, 64: 1}),                 # 32-bit Lemire
    (0, 2 ** 32, {32: 1, 64: 1}),           # exactly 2**32: one next32
    (0, 2 ** 32 + 1, {32: 0, 64: 1}),       # 64-bit Lemire
    (0, 5 * 10 ** 12, {32: 0, 64: 1}),
])
def test_integers_word_widths(low, high, words):
    ours = _Counting([4, 5, 6])
    theirs = np.random.default_rng([4, 5, 6])
    assert ours.integers(low, high) == int(theirs.integers(low, high))
    assert ours.words == words
    assert rng_state(ours) == numpy_state(theirs)


def test_integers_empty_range_raises_like_numpy():
    ours, theirs = pair([1])
    for low, high in ((5, 5), (5, 4)):
        with pytest.raises(ValueError):
            theirs.integers(low, high)
        with pytest.raises(ValueError):
            ours.integers(low, high)


def test_integers_32bit_buffer_survives_64bit_draws():
    ours, theirs = pair([8, 8])
    draws = [lambda g: g.integers(0, 100), lambda g: g.random(),
             lambda g: g.geometric(0.2), lambda g: g.integers(0, 100),
             lambda g: g.integers(0, 2 ** 40), lambda g: g.integers(0, 100)]
    for draw in draws:
        assert draw(ours) == draw(theirs)
        assert rng_state(ours) == numpy_state(theirs)


@pytest.mark.parametrize("skip,low,high,width", [
    (2, 0, 2 ** 31 + 1, 32),      # leftover below 2**32 mod range
    (2, -2 ** 63, 1, 64),         # leftover below 2**64 mod range
])
def test_integers_lemire_rejection(skip, low, high, width):
    ours, theirs = at(skip)
    excl = high - low
    word = peek(ours)[0]
    drawn = word & 0xFFFF_FFFF if width == 32 else word
    mask = (1 << width) - 1
    assert drawn * excl & mask < (1 << width) % excl   # rejected
    counting = _Counting(_PINNED_ENTROPY)
    counting._state = ours._state
    assert counting.integers(low, high) == ours.integers(low, high) \
        == int(theirs.integers(low, high))
    assert counting.words[width] >= 2
    assert rng_state(ours) == numpy_state(theirs)


# --- geometric -----------------------------------------------------------


@pytest.mark.parametrize("p", [1.0, 0.5, 1.0 / 3.0])
def test_geometric_search_branch(p):
    ours, theirs = pair([2, 2, 2])
    assert ([ours.geometric(p) for _ in range(500)]
            == theirs.geometric(p, size=500).tolist())


def test_geometric_search_ends_where_its_sum_saturates():
    # A state whose next word is all ones draws u = 1 - 2**-53.  For
    # p = 1/2.4 and 1/2.6 (the ILP profiles' dep_distance) the partial
    # sums stop growing below u, where numpy's search never returns; for
    # p = 1/3 they pass u after 89 trials, as numpy's do.
    ours, theirs = pair([7])
    start = ((_M64 - ours._inc) * _MULT_INV) & _M128
    set_state(ours, theirs, start)
    assert peek(ours)[0] == _M64
    assert ours.geometric(1 / 3) == theirs.geometric(1 / 3) == 89

    def hang(signum, frame):
        raise TimeoutError("the geometric search did not return in 5 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        for p in (1 / 2.4, 1 / 2.6):
            ours._state = start
            assert ours.geometric(p) > 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("p", [0.3333, 0.125, 1e-6])
def test_geometric_inversion_branch(p):
    ours, theirs = pair([2, 2, 2])
    assert ([ours.geometric(p) for _ in range(500)]
            == theirs.geometric(p, size=500).tolist())


def test_geometric_inversion_clamps_to_int64_max():
    ours, theirs = pair([2, 2, 2])
    draws = [ours.geometric(1e-300) for _ in range(20)]
    assert draws == theirs.geometric(1e-300, size=20).tolist()
    assert max(draws) == 2 ** 63 - 1


@pytest.mark.parametrize("skip,branch", [
    (1806, "tail"), (16, "wedge-accept"), (86, "wedge-reject")])
def test_exponential_rare_branches(skip, branch):
    ours, theirs = at(skip)
    assert exp_branch(peek(ours, 2)) == branch
    assert ours.geometric(0.2) == int(theirs.geometric(0.2))
    assert ours._exponential() == theirs.standard_exponential()
    assert rng_state(ours) == numpy_state(theirs)


# --- beta: Jöhnk and Marsaglia–Tsang --------------------------------------


@pytest.mark.parametrize("skip,branch", [
    (11585, "tail"), (3610, "tail-retry"), (217, "wedge-accept"),
    (50, "wedge-reject")])
def test_normal_rare_branches(skip, branch):
    ours, theirs = at(skip)
    assert normal_branch(peek(ours, 3)) == branch
    assert ours.beta(5.0, 1.0) == theirs.beta(5.0, 1.0)
    assert ours._normal() == theirs.standard_normal()
    assert rng_state(ours) == numpy_state(theirs)


@pytest.mark.parametrize("skip,shape,branch", [
    (210, 1.01, "v-nonpositive"), (4, 5.0, "log-accept"),
    (62, 5.0, "log-reject")])
def test_gamma_rejection_paths(skip, shape, branch):
    ours, theirs = at(skip)
    assert gamma_branch(peek(ours, 2), shape) == branch
    assert ours.beta(shape, 1.0) == theirs.beta(shape, 1.0)
    assert rng_state(ours) == numpy_state(theirs)


def test_johnk_rejects_past_one():
    ours, theirs = at(9)
    u, v = (double(word) for word in peek(ours, 2))
    assert u ** 2.0 + v > 1.0
    assert ours.beta(0.5, 1.0) == theirs.beta(0.5, 1.0)
    assert rng_state(ours) == numpy_state(theirs)


def test_beta_rejects_nonpositive_parameters_like_numpy():
    ours, theirs = pair([1])
    for a, b in ((0.0, 1.0), (-1.0, 1.0), (2.0, 0.0)):
        with pytest.raises(ValueError):
            theirs.beta(a, b)
        with pytest.raises(ValueError):
            ours.beta(a, b)


# --- C's log(0.0), from crafted states -------------------------------------


def crafted(word_zero_high):
    """Both generators two words before a zero word.

    A state whose high and low halves are equal outputs 0 (XSL-RR xors
    them), so stepping back from ``h << 64 | h`` once gives the state
    whose next word is 0, and once more the state that draws the word
    before it first.
    """
    ours, theirs = pair([7])
    zero = word_zero_high << 64 | word_zero_high
    before = ((zero - ours._inc) * _MULT_INV) & _M128
    set_state(ours, theirs, ((before - ours._inc) * _MULT_INV) & _M128)
    assert peek(ours, 2)[1] == 0
    return ours, theirs


def test_johnk_fallback_on_a_zero_draw():
    # U**(1/a) underflows to 0 and V is exactly 0: X + Y == 0, so Jöhnk
    # falls back to logs, where C's log(0.0) is -inf.
    ours, theirs = crafted(4507)
    u = double(peek(ours)[0])
    assert u > 0.0 and u ** 100.0 == 0.0
    assert ours.beta(0.01, 1.0) == theirs.beta(0.01, 1.0) == 1.0
    assert rng_state(ours) == numpy_state(theirs)


def test_marsaglia_tsang_accepts_on_log_of_zero():
    # |X| > 2.33 fails the squeeze whatever U is; U == 0.0 then passes
    # the log test through log(0.0) == -inf.
    ours, theirs = crafted(12)
    _idx, x, fast = normal_draw(peek(ours)[0])
    assert fast and 1.0 - 0.0331 * (x * x) * (x * x) <= 0.0
    assert ours.beta(12.0, 1.0) == theirs.beta(12.0, 1.0)
    assert rng_state(ours) == numpy_state(theirs)


def test_gamma_below_shape_one_is_not_implemented():
    with pytest.raises(ValueError):
        Rng([1]).beta(2.0, 0.5)
