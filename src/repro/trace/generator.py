"""Expand a :class:`BenchmarkProfile` into a dynamic instruction trace.

The generator builds a static code skeleton (a synthetic CFG, so the
I-cache and branch predictor see a realistic PC stream) and then *walks*
it, producing a dynamic stream with:

* register dependences drawn from the profile's dependence-distance
  distribution — address registers of non-chasing memory operations are
  chained only through ALU results, so streamed loads stay independent of
  load values (this is what gives runahead its memory-level parallelism);
* pointer-chasing loads chained through the previous chase load's
  destination register, serializing them exactly like real linked-list code;
* memory addresses drawn from the profile's stream/random/chase mixture
  over its working set.

Determinism: the same (profile, length, seed) triple always yields an
identical trace.
"""

from __future__ import annotations

import functools
import itertools
import zlib
from collections import deque
from typing import Dict, List, Mapping, Tuple

from ..errors import TraceError
from ..isa import INSTRUCTION_BYTES, NO_REG, OpClass
from .address_space import (
    PointerChaseStream,
    RandomStream,
    StreamMixer,
    StridedStream,
)
from .cfg import MIN_BLOCK_LEN, ControlFlowGraph
from .profiles import BenchmarkProfile, get_profile
from .rng import Rng
from .trace import Trace

#: Integer registers are split into two pools (r0 is the Alpha zero
#: register and r31 stays read-only, matching conventional usage):
#:
#: * r1..r8 — *address arithmetic* (induction variables, pointer updates).
#:   Only address-arithmetic ALU ops ever write these, so address chains
#:   never depend on load results — exactly like real streaming code.
#:   This is what lets both the out-of-order window and runahead overlap
#:   independent misses; a load-polluted address chain would serialize
#:   everything behind the first miss (and fold every later address under
#:   runahead's INV propagation).
#: * r9..r30 — *data* registers (load results, data-processing ALU ops).
_ADDR_DESTS = tuple(range(1, 9))
_DATA_DESTS = tuple(range(9, 31))
#: FP destination registers (arch numbers 32..63 are the FP file).
_FP_DESTS = tuple(range(33, 63))

#: Fraction of integer ALU ops doing address arithmetic.
_ADDR_ALU_SHARE = 0.4

#: Fraction of loads/stores in FP-suite code that move FP data.
_FP_MEM_SHARE = 0.7

#: Op codes the walk writes into the ``op`` column (plain ints: the
#: columns are built as lists and converted once).
_IALU = int(OpClass.IALU)
_IMUL = int(OpClass.IMUL)
_FADD = int(OpClass.FADD)
_FMUL = int(OpClass.FMUL)
_FDIV = int(OpClass.FDIV)
_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_FLOAD = int(OpClass.FLOAD)
_FSTORE = int(OpClass.FSTORE)
_BRANCH = int(OpClass.BRANCH)
_SYNC = int(OpClass.SYNC)


class TraceGenerator:
    """Generates the dynamic trace for one benchmark profile."""

    def __init__(self, profile: BenchmarkProfile, length: int,
                 seed: int = 0) -> None:
        if length < 1:
            raise TraceError("trace length must be >= 1")
        self.profile = profile
        self.length = length
        name_hash = zlib.crc32(profile.name.encode("utf-8"))
        self._rng = Rng([seed & 0x7FFFFFFF, length, name_hash])

    # --- static code construction -------------------------------------------

    def _block_length_mean(self) -> int:
        """Mean basic-block length implied by the branch fraction."""
        fraction = self.profile.branch_fraction
        if fraction <= 0:
            return max(MIN_BLOCK_LEN, self.profile.mean_block_len)
        return max(MIN_BLOCK_LEN, min(48, int(round(1.0 / fraction))))

    def _op_thresholds(self) -> List[float]:
        """Cumulative draw thresholds for straight-line (non-branch) slots.

        Branches are supplied by block terminators, so the remaining mix
        fractions scale up by 1 / (1 - branch_fraction).
        """
        p = self.profile
        scale = 1.0 / max(1e-9, 1.0 - p.branch_fraction)
        load_p = p.load_fraction * scale
        store_p = p.store_fraction * scale
        fp_p = p.fp_fraction * scale
        imul_p = p.imul_fraction * scale
        sync_p = p.sync_fraction * scale
        return [load_p,
                load_p + store_p,
                load_p + store_p + fp_p,
                load_p + store_p + fp_p + imul_p,
                load_p + store_p + fp_p + imul_p + sync_p]

    def _build_streams(self) -> StreamMixer:
        p = self.profile
        region = p.working_set_bytes
        # Bound the hot set so one trace pass re-touches each hot line
        # roughly 8 times: short traces then establish residency the way a
        # full-length run would (see _HotColdRegion).
        mem_accesses = self.length * (p.load_fraction + p.store_fraction)
        hot_cap = 64 * max(16, int(mem_accesses * p.hot_prob / 8))
        streams = []
        weights = []
        if p.stream_weight > 0:
            per_stream = max(4096, region // max(1, p.num_streams))
            for index in range(p.num_streams):
                base = (index * per_stream) % max(1, region)
                streams.append(StridedStream(
                    self._rng, base, min(per_stream, region),
                    p.stride_bytes))
                weights.append(p.stream_weight / p.num_streams)
        if p.random_weight > 0:
            streams.append(RandomStream(self._rng, 0, region,
                                        hot_fraction=p.hot_fraction,
                                        hot_prob=p.hot_prob,
                                        hot_bytes_cap=hot_cap))
            weights.append(p.random_weight)
        if p.chase_weight > 0:
            streams.append(PointerChaseStream(self._rng, 0, region,
                                              hot_fraction=p.hot_fraction,
                                              hot_prob=p.hot_prob,
                                              hot_bytes_cap=hot_cap))
            weights.append(p.chase_weight)
        return StreamMixer(self._rng, streams, weights)

    # --- dynamic walk ------------------------------------------------------------

    def generate(self) -> Trace:
        """Produce the trace (deterministic for this generator's seed).

        The walk is the per-instruction cost of every cell's set-up, so it
        runs on locals: bound RNG methods, int op codes, plain-list
        columns that :class:`Trace` freezes into the tuples every thread
        running the trace shares.  Every RNG call, its arguments and its
        order are part of the trace's identity — the
        ``tests/data/trace_digests.json`` pins check them.
        """
        p = self.profile
        rng = self._rng
        cfg = ControlFlowGraph(
            rng, num_blocks=p.code_blocks,
            mean_block_len=self._block_length_mean(),
            loop_bias=p.loop_bias, far_jump_prob=p.far_jump_prob,
            bias_concentration=p.branch_bias_concentration)
        load_t, store_t, fp_t, imul_t, sync_t = self._op_thresholds()
        mixer = self._build_streams()

        n = self.length
        ops = [0] * n
        dests = [NO_REG] * n
        src1s = [NO_REG] * n
        src2s = [NO_REG] * n
        addrs = [0] * n
        takens = [False] * n
        pcs = [0] * n

        random = rng.random
        geometric = rng.geometric
        dep_p = 1.0 / max(1.0, p.dep_distance)
        is_fp = p.is_fp
        fdiv_fraction = p.fdiv_fraction
        pick = mixer.pick
        walk = cfg.walk
        next_data_dest = itertools.cycle(_DATA_DESTS).__next__
        next_addr_dest = itertools.cycle(_ADDR_DESTS).__next__
        next_fp_dest = itertools.cycle(_FP_DESTS).__next__

        # Recent destination registers per class, for dependence
        # sampling: a source reads the register written ~geometric(
        # dep_distance) writes ago, or the oldest one remembered.  An
        # empty ring leaves the source absent and draws nothing.
        int_writers = deque(maxlen=20)   # data-pool writers
        alu_writers = deque(maxlen=8)    # address-pool writers
        fp_writers = deque(maxlen=24)    # all FP writers (incl. loads)
        # FP compute results chain mostly through each other: numeric
        # kernels are recurrences over computed values, with loads feeding
        # the chain only here and there.  Without this, every FP chain is
        # a couple of ops deep (cut by a 3-cycle load) and FP benchmarks
        # become fetch-bound at unrealistic IPCs.
        fp_compute_writers = deque(maxlen=12)
        # Independent pointer-chase chains: each chain serializes through
        # its own register, and chains interleave round-robin — bounding
        # chasing code's MLP at profile.chase_chains, like real programs
        # traversing several linked structures at once.
        chase_regs = [NO_REG] * max(1, p.chase_chains)
        chase_cursor = 0

        block = cfg.blocks[0]
        pc = block.start_pc
        branch_pc = block.branch_pc
        for index in range(n):
            pcs[index] = pc
            if pc == branch_pc:
                # Terminating branch: direction from the block bias walk.
                takens[index], block = walk(rng, block)
                ops[index] = _BRANCH
                if int_writers:
                    d = geometric(dep_p)
                    src1s[index] = (int_writers[-d] if d <= len(int_writers)
                                    else int_writers[0])
                pc = block.start_pc
                branch_pc = block.branch_pc
                continue
            pc += INSTRUCTION_BYTES

            # Straight-line op class, drawn per dynamic visit (not
            # statically per code slot) so the dynamic mix converges to
            # the profile regardless of which blocks happen to be hot.
            draw = random()
            if draw < load_t:
                fp_load = is_fp and random() < _FP_MEM_SHARE
                stream = pick()
                chase = stream.dependent and not fp_load
                if chase and chase_regs[chase_cursor] != NO_REG:
                    src1s[index] = chase_regs[chase_cursor]
                elif alu_writers:
                    d = geometric(dep_p)
                    src1s[index] = (alu_writers[-d] if d <= len(alu_writers)
                                    else alu_writers[0])
                addrs[index] = stream.next_address()
                if fp_load:
                    ops[index] = _FLOAD
                    dest = next_fp_dest()
                    fp_writers.append(dest)
                else:
                    ops[index] = _LOAD
                    dest = next_data_dest()
                    int_writers.append(dest)
                    if chase:
                        chase_regs[chase_cursor] = dest
                        chase_cursor = (chase_cursor + 1) % len(chase_regs)
                dests[index] = dest
            elif draw < store_t:
                fp_store = is_fp and random() < _FP_MEM_SHARE
                ops[index] = _FSTORE if fp_store else _STORE
                stream = pick()
                if alu_writers:
                    d = geometric(dep_p)
                    src1s[index] = (alu_writers[-d] if d <= len(alu_writers)
                                    else alu_writers[0])
                ring = fp_writers if fp_store else int_writers
                if ring:
                    d = geometric(dep_p)
                    src2s[index] = ring[-d] if d <= len(ring) else ring[0]
                addrs[index] = stream.next_address()
            elif draw < fp_t:
                fp_draw = random()
                ops[index] = (_FDIV if fp_draw < fdiv_fraction
                              else _FMUL if fp_draw < 0.5 else _FADD)
                ring = (fp_compute_writers
                        if fp_compute_writers and random() < 0.75
                        else fp_writers)
                if ring:
                    d = geometric(dep_p)
                    src1s[index] = ring[-d] if d <= len(ring) else ring[0]
                if random() < 0.6 and fp_writers:
                    d = geometric(dep_p)
                    src2s[index] = (fp_writers[-d] if d <= len(fp_writers)
                                    else fp_writers[0])
                dest = next_fp_dest()
                dests[index] = dest
                fp_writers.append(dest)
                fp_compute_writers.append(dest)
            elif imul_t <= draw < sync_t:
                ops[index] = _SYNC
                if int_writers:
                    d = geometric(dep_p)
                    src1s[index] = (int_writers[-d] if d <= len(int_writers)
                                    else int_writers[0])
            else:
                ops[index] = _IMUL if draw < imul_t else _IALU
                if random() < _ADDR_ALU_SHARE:
                    # Address arithmetic: sources and destination stay in
                    # the load-free address pool.
                    ring = alu_writers
                    dest = next_addr_dest()
                else:
                    # Data processing: may consume load results.
                    ring = int_writers
                    dest = next_data_dest()
                if ring:
                    d = geometric(dep_p)
                    src1s[index] = ring[-d] if d <= len(ring) else ring[0]
                if random() < 0.5 and ring:
                    d = geometric(dep_p)
                    src2s[index] = ring[-d] if d <= len(ring) else ring[0]
                dests[index] = dest
                ring.append(dest)

        trace = Trace(p.name, {
            "op": ops, "dest": dests, "src1": src1s, "src2": src2s,
            "addr": addrs, "taken": takens, "pc": pcs,
        }, data_region_bytes=p.working_set_bytes)
        return trace.validate()


#: Key identifying one generated trace: (benchmark, length, seed).
TraceKey = Tuple[str, int, int]

#: Traces handed to this process by a campaign coordinator (see
#: :func:`prime_traces`).  Checked before generating from scratch.
_PRIMED: Dict[TraceKey, Trace] = {}


def prime_traces(traces: Mapping[TraceKey, Trace]) -> None:
    """Pre-seed this process's trace cache with already-built traces.

    The parallel simulation backend generates each (benchmark, length,
    seed) trace once in the coordinating process and ships the batch to
    every worker at pool start-up, so workers deserialize instead of
    regenerating — trace generation is O(length) in pure-Python RNG
    draws (:mod:`repro.trace.rng`) and was repeated per (cell × worker)
    before.  Priming is an optimization only: a missing entry falls back
    to deterministic regeneration, and a primed trace is bit-identical
    to a regenerated one by the generator's determinism guarantee.
    """
    _PRIMED.update(traces)


@functools.lru_cache(maxsize=512)
def generate_trace(name: str, length: int, seed: int = 0) -> Trace:
    """Generate (and memoize) the trace for benchmark ``name``.

    The cache makes repeated experiment sweeps cheap: every policy run of a
    given workload shares identical trace objects.
    """
    primed = _PRIMED.get((name, length, seed))
    if primed is not None:
        return primed
    return TraceGenerator(get_profile(name), length, seed).generate()
