"""Synthetic control-flow graph and code layout.

The trace generator walks a synthetic CFG so that the I-cache and the
perceptron branch predictor observe realistic streams:

* Code is laid out as ``num_blocks`` basic blocks of geometric lengths at
  consecutive addresses in a synthetic code segment.
* Every block ends in a conditional branch.  Its *taken* target is a loop
  back-edge (to a recent block) or a forward jump; its fall-through is the
  next block in layout order.
* Each block has a per-block taken bias drawn from a Beta distribution;
  strongly-biased blocks are what make a benchmark branch-predictable.

A benchmark with a small ``num_blocks`` runs hot loops out of a tiny code
footprint (gzip-like); a large ``num_blocks`` with frequent far jumps
produces I-cache pressure (gcc-like).
"""

from __future__ import annotations

import dataclasses
from typing import List

from ..isa import INSTRUCTION_BYTES
from .rng import Rng

#: Base of the synthetic code segment.
CODE_SEGMENT_BASE = 0x1000_0000

#: Blocks shorter than this are not generated: a 1-instruction self-loop
#: would repeat the same PC back-to-back, which the Trace validator rejects.
MIN_BLOCK_LEN = 2


@dataclasses.dataclass
class BasicBlock:
    """A synthetic basic block: a run of straight-line slots plus a branch."""

    index: int
    start_pc: int
    length: int          # total slots, including the terminating branch
    taken_target: int    # block index jumped to when the branch is taken
    taken_bias: float    # probability the terminating branch is taken

    @property
    def branch_pc(self) -> int:
        return self.start_pc + (self.length - 1) * INSTRUCTION_BYTES


class ControlFlowGraph:
    """The static code skeleton a trace generator walks."""

    def __init__(self, rng: Rng, num_blocks: int,
                 mean_block_len: int, loop_bias: float,
                 far_jump_prob: float, bias_concentration: float) -> None:
        """Build a random CFG.

        Args:
            rng: Seeded random generator.
            num_blocks: Static code footprint in basic blocks.
            mean_block_len: Mean instructions per block (geometric).
            loop_bias: Probability that a block's taken edge is a back-edge
                to a nearby earlier block (loops) rather than a forward jump.
            far_jump_prob: Probability that a forward jump lands far away
                (I-cache unfriendly) instead of nearby.
            bias_concentration: Beta-distribution concentration for per-block
                taken bias; higher values give strongly biased, predictable
                branches.
        """
        if num_blocks < 2:
            raise ValueError("need at least 2 basic blocks")
        self.blocks: List[BasicBlock] = []
        pc = CODE_SEGMENT_BASE
        # All the lengths first, in block order, then the per-block draws.
        geometric = rng.geometric
        length_p = 1.0 / max(1, mean_block_len - MIN_BLOCK_LEN + 1)
        lengths = [MIN_BLOCK_LEN + geometric(length_p) - 1
                   for _ in range(num_blocks)]
        # Bound once: large-footprint benchmarks build thousands of blocks.
        random = rng.random
        integers = rng.integers
        beta = rng.beta
        for index, length in enumerate(lengths):
            # Taken target: back-edge to a nearby block (loop) or a jump.
            if random() < loop_bias:
                span = min(8, index) if index else 0
                target = index - integers(0, span + 1)
                if target == index:
                    # Self-loop on a >=2 instruction block is fine (PC
                    # sequence ...branch_pc, start_pc... never repeats).
                    target = index
            else:
                if random() < far_jump_prob:
                    target = integers(0, num_blocks)
                else:
                    target = min(num_blocks - 1,
                                 index + 1 + integers(0, 8))
            # Strongly biased branches are what the perceptron learns well.
            bias = beta(bias_concentration, 1.0)
            # Mix of mostly-taken and mostly-not-taken blocks.
            if random() < 0.4:
                bias = 1.0 - bias
            self.blocks.append(BasicBlock(
                index=index, start_pc=pc, length=length,
                taken_target=target, taken_bias=bias))
            pc += length * INSTRUCTION_BYTES
        self.code_bytes = pc - CODE_SEGMENT_BASE

    def __len__(self) -> int:
        return len(self.blocks)

    def fallthrough(self, block: BasicBlock) -> int:
        """Block index reached when ``block``'s branch is not taken."""
        return (block.index + 1) % len(self.blocks)

    def walk(self, rng: Rng, block: BasicBlock
             ) -> "tuple[bool, BasicBlock]":
        """Resolve one dynamic execution of ``block``'s terminating branch.

        Returns (taken, next_block).
        """
        if rng.random() < block.taken_bias:
            return True, self.blocks[block.taken_target]
        return False, self.blocks[self.fallthrough(block)]
