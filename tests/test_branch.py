"""Tests for the perceptron predictor and BTB."""

import random
from operator import mul

import pytest

from repro.branch.btb import BranchTargetBuffer
from repro.branch.perceptron import PerceptronPredictor
from repro.testing import perceptron_weights


class ListPerceptron:
    """The perceptron with one list element per history position: the
    reference the packed predictor must match bit for bit."""

    def __init__(self, entries, history_bits, num_threads):
        self.entries = entries
        self.theta = int(1.93 * history_bits + 14)
        self.clip = self.theta + 1
        self.bias = [0] * entries
        self.weights = [[0] * history_bits for _ in range(entries)]
        self.histories = [[-1] * history_bits for _ in range(num_threads)]

    def predict(self, thread_id, pc, taken):
        index = (pc >> 2) % self.entries
        weights = self.weights[index]
        history = self.histories[thread_id]
        output = self.bias[index] + sum(map(mul, weights, history))
        correct = (output >= 0) == taken
        if not correct or abs(output) <= self.theta:
            step = 1 if taken else -1
            clip = self.clip
            self.bias[index] = max(-clip, min(clip, self.bias[index] + step))
            weights[:] = [max(-clip, min(clip, weight + step * bit))
                          for weight, bit in zip(weights, history)]
        del history[0]
        history.append(1 if taken else -1)
        return correct


class Lockstep:
    """The packed predictor and the reference, driven with the same
    calls; every return value is compared."""

    def __init__(self, entries, history_bits, num_threads):
        self.reference = ListPerceptron(entries, history_bits, num_threads)
        self.packed = PerceptronPredictor(entries, history_bits,
                                          num_threads)
        self.calls = 0

    def predict(self, thread_id, pc, taken):
        self.calls += 1
        expected = self.reference.predict(thread_id, pc, taken)
        assert self.packed.predict(thread_id, pc, taken) == expected, (
            f"call {self.calls}: thread {thread_id} pc {pc:#x} "
            f"taken {taken}")
        return expected

    def assert_tables_equal(self):
        assert perceptron_weights(self.packed) == (self.reference.bias,
                                                   self.reference.weights)

    def force(self, thread_id, pc, history, taken, scratch_pc):
        """One call at ``pc`` with the thread's history set to
        ``history`` (oldest first) by calls at ``scratch_pc``."""
        for bit in history:
            self.predict(thread_id, scratch_pc, bit)
        return self.predict(thread_id, pc, taken)


HISTORY_BITS = (1, 2, 8, 24, 64)


class TestPerceptron:
    def test_learns_always_taken(self):
        predictor = PerceptronPredictor(64, 8, 1)
        for _ in range(50):
            predictor.predict(0, 0x400, True)
        assert predictor.predict(0, 0x400, True)

    def test_learns_always_not_taken(self):
        predictor = PerceptronPredictor(64, 8, 1)
        for _ in range(50):
            predictor.predict(0, 0x400, False)
        assert predictor.predict(0, 0x400, False)

    def test_learns_alternating_pattern(self):
        # A strict alternation is linearly separable on global history.
        predictor = PerceptronPredictor(128, 12, 1)
        outcomes = [bool(index % 2) for index in range(400)]
        for taken in outcomes[:300]:
            predictor.predict(0, 0x800, taken)
        correct = sum(predictor.predict(0, 0x800, taken)
                      for taken in outcomes[300:])
        assert correct >= 95

    def test_per_thread_history_isolated(self):
        predictor = PerceptronPredictor(64, 8, 2)
        for _ in range(60):
            predictor.predict(0, 0x400, True)
            predictor.predict(1, 0x404, False)
        assert predictor.predict(0, 0x400, True)
        assert predictor.predict(1, 0x404, False)

    def test_theta_formula(self):
        predictor = PerceptronPredictor(64, 24, 1)
        assert predictor.theta == int(1.93 * 24 + 14)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            PerceptronPredictor(0, 8, 1)


class TestMatchesListPredictor:
    """The packed predictor against :class:`ListPerceptron`: every
    return value, and the decoded weights and biases."""

    @pytest.mark.parametrize("entries", (1, 64, 1024))
    @pytest.mark.parametrize("history_bits", HISTORY_BITS)
    def test_seeded_streams(self, history_bits, entries):
        rng = random.Random(history_bits * 10_000 + entries)
        pair = Lockstep(entries, history_bits, 3)
        # Each site has a taken rate; one in four copies a history bit.
        sites = [(4 * rng.randrange(4096), rng.random(),
                  rng.randrange(history_bits) if rng.random() < 0.25
                  else None) for _ in range(48)]
        for step in range(3000):
            thread = rng.randrange(3)
            pc, rate, lag = sites[rng.randrange(len(sites))]
            if lag is None:
                taken = rng.random() < rate
            else:
                taken = pair.reference.histories[thread][-1 - lag] == 1
            pair.predict(thread, pc, taken)
            if step % 500 == 499:
                pair.assert_tables_equal()

    @pytest.mark.parametrize("history_bits", HISTORY_BITS)
    def test_weights_and_bias_saturate(self, history_bits):
        """Long runs drive a weight and a bias to both limits, where the
        packed training must stop each field exactly at ±clip."""
        rng = random.Random(history_bits)
        pair = Lockstep(64, history_bits, 1)
        reference = pair.reference
        clip = reference.clip
        history = [rng.random() < 0.5 for _ in range(history_bits)]
        position = rng.randrange(history_bits)
        history[position] = True
        flipped = list(history)
        flipped[position] = False
        # The outcome at pc 0 copies, then inverts, one history bit; the
        # other positions agree in both histories and cancel, so only
        # that bit's weight moves: to +clip, then to -clip.
        for copy, limit in ((True, clip), (False, -clip)):
            for _ in range(clip + 4):
                pair.force(0, 0x0, history, copy, scratch_pc=0x4)
                pair.force(0, 0x0, flipped, not copy, scratch_pc=0x4)
            assert reference.weights[0][position] == limit
            pair.assert_tables_equal()
        # One outcome on a history and on its complement: the weights
        # cancel and only the bias at pc 8 moves, to +clip, then -clip.
        complement = [not bit for bit in history]
        for taken, limit in ((True, clip), (False, -clip)):
            for _ in range(2 * clip + 4):
                for bits in (history, complement):
                    pair.force(0, 0x8, bits, taken, scratch_pc=0x4)
            assert reference.bias[2] == limit
            pair.assert_tables_equal()

    def test_widest_field_sum(self):
        """Drive one entry's weights toward +clip through histories on
        which its output stays under theta, then predict on the history
        that sums every field: the largest field sum the packed product
        has to hold without carrying."""
        history_bits = 64
        pair = Lockstep(2, history_bits, 1)
        reference = pair.reference
        weights, clip = reference.weights[0], reference.clip
        positions = range(history_bits)

        def force(taken_positions, taken):
            pair.force(0, 0x0, [position in taken_positions
                                for position in positions],
                       taken, scratch_pc=0x4)

        # Field sum of the all-taken history: every weight and the bias.
        def widest():
            return (sum(weights) + reference.bias[0]
                    + (history_bits + 1) * clip)

        while widest() < 0.95 * (history_bits + 1) * 2 * clip:
            order = sorted(positions, key=weights.__getitem__)
            bias = reference.bias[0]
            if bias > 1 - clip:
                # Not taken on a balanced history: the bias falls and
                # the weight sum holds.
                force(set(order[history_bits // 2:]), False)
                continue
            # Taken on the most taken history (the lowest weights taken)
            # whose output is still within theta: the weight sum rises.
            total = taken_sum = sum(weights)
            for count in range(history_bits, history_bits // 2, -1):
                if bias + 2 * taken_sum - total <= reference.theta:
                    break
                taken_sum -= weights[order[count - 1]]
            else:
                raise AssertionError("no history left to train on")
            force(set(order[:count]), True)
        pair.assert_tables_equal()
        force(set(positions), True)


class TestBTB:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(8)
        assert not btb.lookup_and_insert(0x100)
        assert btb.lookup_and_insert(0x100)

    def test_lru_eviction(self):
        btb = BranchTargetBuffer(2)
        btb.lookup_and_insert(0x100)
        btb.lookup_and_insert(0x200)
        btb.lookup_and_insert(0x100)   # refresh 0x100
        btb.lookup_and_insert(0x300)   # evicts 0x200
        assert btb.lookup_and_insert(0x100)
        assert not btb.lookup_and_insert(0x200)

    def test_capacity_bounded(self):
        btb = BranchTargetBuffer(4)
        for pc in range(0, 400, 4):
            btb.lookup_and_insert(pc)
        assert len(btb) <= 4

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            BranchTargetBuffer(0)
