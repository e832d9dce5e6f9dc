"""Perceptron branch predictor (Jiménez & Lin, HPCA 2001), as in Table 1.

Each predictor entry is a weight vector; the prediction is the sign of the
bias weight plus the dot product of the weights with the thread's global
history (encoded ±1).  Training bumps weights toward the outcome whenever
the prediction was wrong or under-confident (|output| <= θ), with the
standard threshold θ = ⌊1.93·h + 14⌋; every weight saturates at ±clip,
clip = θ + 1.

Trace-driven simplifications (README, "Deviations from the paper"): the
global history is updated with the *actual* outcome at prediction time (so
history never needs repair on a squash), and training is applied
immediately.  Both are standard practice in trace simulators and slightly
flatter — equally — every policy under test.

Packed layout.  An entry's weights are one Python int of h + 1 fields of
F bits: field i < h holds history weight i plus clip, and field h holds
the bias plus clip, so every field is a value in [0, 2·clip].  The bias
is the weight of a history position that is always taken (Jiménez &
Lin's x0 = 1), so it trains and saturates exactly like the others.  A
thread's history H is one int with the same fields: field i is all ones
where outcome i (0 the oldest) was taken and zero where it was not, and
field h is always all ones.  With x_i = ±1, ``taken`` the number of taken
positions (the ``bit_count()`` of ``H & ONES``, the bias included) and
Σw the entry's weight sum, which is kept per entry:

    output = Σ w_i·x_i = 2·(fieldsum(W & H) − clip·taken) − Σw

``fieldsum`` is one multiply by ``ONES`` (a 1 in every field): field h of
the product holds the sum of all h + 1 fields.  F is the bit length of
(h + 1)·2·clip, so no partial sum of fields reaches 2**F and the product
never carries from one field into the next.  As h + 1 >= 2, the same F
keeps every field (at most 2·clip) below 2**(F-1), which the zero-field
test needs: adding 2**(F-1) − 1 to such a field sets its top bit exactly
when the field is not zero, and carries nothing out of it.  Training
moves fields by ±1 through an increment and a decrement mask (a 1 in the
low bit of each field that moves).  The increment mask is cleared where
``W ^ packed(+clip)`` has a zero field (the weight is at +clip), the
decrement mask where ``W`` itself does (``packed(−clip)`` is 0), and Σw
moves by the difference of the masks' ``bit_count()``.  The history
shifts right by F bits, dropping the oldest outcome.
"""

from __future__ import annotations

from typing import List


class PerceptronPredictor:
    """Shared perceptron table with per-thread global histories.

    One call per fetched branch and two per trace branch at warm-up, so
    ``predict`` works on whole packed vectors (see the module docstring):
    a handful of int operations, whatever the history length.
    """

    __slots__ = ("entries", "history_bits", "theta", "_weight_clip",
                 "_field_bits", "_ones", "_sum_shift", "_field_mask",
                 "_nonzero", "_at_max", "_keep_bias", "_not_taken",
                 "_weights", "_sums", "_histories")

    def __init__(self, entries: int, history_bits: int,
                 num_threads: int) -> None:
        if entries < 1 or history_bits < 1 or num_threads < 1:
            raise ValueError("entries, history_bits, num_threads must be >= 1")
        self.entries = entries
        self.history_bits = history_bits
        self.theta = int(1.93 * history_bits + 14)
        clip = self._weight_clip = self.theta + 1
        fields = history_bits + 1
        width = self._field_bits = (fields * 2 * clip).bit_length()
        ones = self._ones = sum(1 << (i * width) for i in range(fields))
        self._sum_shift = history_bits * width
        self._field_mask = (1 << width) - 1
        #: Added to a vector, sets each field's top bit iff it is nonzero.
        self._nonzero = (ones << (width - 1)) - ones
        self._at_max = ones * 2 * clip
        #: XORed into a history shifted right by one field: the bias
        #: field moved into the newest position, so restore it and, for
        #: a not-taken outcome, clear the newest.
        self._keep_bias = self._field_mask << self._sum_shift
        self._not_taken = self._keep_bias | self._keep_bias >> width
        #: Every weight 0 (fields at clip); Σw 0; histories not taken.
        self._weights: List[int] = [ones * clip] * entries
        self._sums: List[int] = [0] * entries
        self._histories: List[int] = [self._keep_bias] * num_threads

    def predict(self, thread_id: int, pc: int, taken: bool) -> bool:
        """Predict the branch at ``pc`` and train on the actual outcome.

        Returns True if the prediction matched ``taken``.
        """
        index = (pc >> 2) % self.entries
        weights = self._weights[index]
        history = self._histories[thread_id]
        ones = self._ones
        taken_bits = history & ones
        output = 2 * (((weights & history) * ones >> self._sum_shift
                       & self._field_mask)
                      - self._weight_clip * taken_bits.bit_count()) \
            - self._sums[index]
        correct = (output >= 0) == taken

        if not correct or (-output if output < 0 else output) <= self.theta:
            # Low bit of each field to move up and down: toward the
            # outcome where the history agrees with it, away elsewhere.
            up = taken_bits
            down = up ^ ones
            if not taken:
                up, down = down, up
            # Shifted down by F - 1, each field's top bit (its zero-field
            # test) lands on the field's low bit; the masks hold only low
            # bits, so the and drops every other bit the shift moves.
            nonzero = self._nonzero
            top = self._field_bits - 1
            up &= ((weights ^ self._at_max) + nonzero) >> top
            down &= (weights + nonzero) >> top
            self._weights[index] = weights + up - down
            self._sums[index] += up.bit_count() - down.bit_count()

        # Shift the actual outcome into this thread's global history.
        self._histories[thread_id] = (history >> self._field_bits) ^ (
            self._keep_bias if taken else self._not_taken)
        return correct
