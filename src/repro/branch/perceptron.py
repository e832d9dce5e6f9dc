"""Perceptron branch predictor (Jiménez & Lin, HPCA 2001), as in Table 1.

Each predictor entry is a weight vector; the prediction is the sign of the
bias weight plus the dot product of the weights with the thread's global
history (encoded ±1).  Training bumps weights toward the outcome whenever
the prediction was wrong or under-confident (|output| <= θ), with the
standard threshold θ = ⌊1.93·h + 14⌋.

Trace-driven simplifications (README, "Deviations from the paper"): the
global history is updated with the *actual* outcome at prediction time (so
history never needs repair on a squash), and training is applied
immediately.  Both are standard practice in trace simulators and slightly
flatter — equally — every policy under test.
"""

from __future__ import annotations

from operator import mul
from typing import List


class PerceptronPredictor:
    """Shared perceptron table with per-thread global histories.

    Weights and histories are plain Python int lists: the vectors are a
    dozen elements, where interpreter-level loops beat numpy's per-call
    dispatch overhead by an order of magnitude — this sits on the fetch
    hot path (one call per fetched branch).  The bias lives in its own
    table so the dot product runs entirely through ``sum(map(mul, ...))``
    (a C-level loop) with no per-call slicing.
    """

    __slots__ = ("entries", "history_bits", "theta", "_weight_clip",
                 "_bias", "_weights", "_histories", "predictions",
                 "mispredictions")

    def __init__(self, entries: int, history_bits: int,
                 num_threads: int) -> None:
        if entries < 1 or history_bits < 1 or num_threads < 1:
            raise ValueError("entries, history_bits, num_threads must be >= 1")
        self.entries = entries
        self.history_bits = history_bits
        self.theta = int(1.93 * history_bits + 14)
        self._weight_clip = self.theta + 1
        #: Per-entry bias weight; ``_weights[i]`` pair with history bits.
        self._bias: List[int] = [0] * entries
        self._weights: List[List[int]] = [
            [0] * history_bits for _ in range(entries)]
        self._histories: List[List[int]] = [
            [-1] * history_bits for _ in range(num_threads)]
        self.predictions = 0
        self.mispredictions = 0

    def predict(self, thread_id: int, pc: int, taken: bool) -> bool:
        """Predict the branch at ``pc`` and train on the actual outcome.

        Returns True if the prediction matched ``taken``.
        """
        index = (pc >> 2) % self.entries
        weights = self._weights[index]
        history = self._histories[thread_id]
        output = self._bias[index] + sum(map(mul, weights, history))
        predicted_taken = output >= 0
        correct = predicted_taken == taken
        self.predictions += 1
        if not correct:
            self.mispredictions += 1

        if not correct or (-output if output < 0 else output) <= self.theta:
            step = 1 if taken else -1
            clip = self._weight_clip
            self._bias[index] = self._clip(self._bias[index] + step)
            weights[:] = [
                clip if updated > clip
                else (-clip if updated < -clip else updated)
                for updated in (map(int.__add__, weights, history) if taken
                                else map(int.__sub__, weights, history))]

        # Shift the actual outcome into this thread's global history.
        del history[0]
        history.append(1 if taken else -1)
        return correct

    def _clip(self, value: int) -> int:
        return max(-self._weight_clip, min(self._weight_clip, value))

    @property
    def accuracy(self) -> float:
        if self.predictions == 0:
            return 1.0
        return 1.0 - self.mispredictions / self.predictions

    def reset_history(self, thread_id: int) -> None:
        """Clear one thread's global history (context switch)."""
        self._histories[thread_id][:] = [-1] * self.history_bits
