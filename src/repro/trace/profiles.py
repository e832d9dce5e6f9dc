"""Statistical profiles of the 24 SPEC CPU2000 benchmarks used in Table 2.

The paper classifies benchmarks by their L2 miss rate into ILP (high
instruction-level parallelism, cache-friendly) and MEM (memory-bound)
groups, then builds 2- and 4-thread ILP/MIX/MEM workloads.  We reproduce
the same classification with synthetic profiles: each profile pins down the
instruction mix, dependence-distance distribution, code footprint and
branch predictability, and — most importantly for this paper — the data
working set and access-pattern composition that determine the benchmark's
L2 behaviour and memory-level parallelism:

* ``stream_weight`` — strided array sweeps: misses are plentiful but
  independent, so runahead overlaps them (swim, art, applu, lucas).
* ``chase_weight`` — pointer chasing: loads serialized through registers,
  little MLP for runahead to mine (mcf, parser, ammp).
* ``random_weight`` — scattered accesses over the working set; miss rate set
  by working-set size vs cache capacity (twolf, vpr).

Numbers are set from the well-known published characterizations of SPEC2000
(instruction mixes, working sets and L2 MPKI orders of magnitude), scaled to
this simulator.  Absolute fidelity is not required — the experiments only
rely on the ILP/MEM contrast and the per-class averages (README,
"Deviations from the paper").
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

from ..errors import UnknownBenchmarkError

KB = 1024
MB = 1024 * KB


@dataclasses.dataclass(frozen=True)
class BenchmarkProfile:
    """Statistical description of one benchmark.

    Attributes:
        name: SPEC benchmark name (as used in Table 2).
        is_fp: FP suite member (uses the FP pipeline and registers).
        is_mem: True if the paper's classification puts it in the MEM group.
        load_fraction / store_fraction / branch_fraction / fp_fraction /
            imul_fraction: dynamic instruction mix; the remainder is IALU.
        fdiv_fraction: share of FP compute ops that are divides.
        dep_distance: mean register dependence distance (geometric).
        working_set_bytes: data footprint.
        stream_weight / random_weight / chase_weight: memory access pattern
            composition (normalized by the generator).
        stride_bytes: stride of the strided streams.
        num_streams: concurrent strided streams (bounds achievable MLP).
        hot_fraction: fraction of the working set that is "hot" (resident,
            frequently re-touched) for random/chase accesses.
        hot_prob: probability a random/chase access falls in the hot set.
        chase_chains: independent pointer-chase chains (bounds the MLP of
            chasing code; real linked-structure programs traverse several
            structures concurrently).
        code_blocks: static code footprint in basic blocks.
        mean_block_len: mean instructions per basic block.
        loop_bias: probability a block's taken edge is a back-edge.
        far_jump_prob: probability of an I-cache-unfriendly far jump.
        branch_bias_concentration: higher = more predictable branches.
        sync_fraction: fraction of SYNC ops (0 for all SPEC programs; used
            only by the parallel-thread feature of §3.3).
        l2_mpki_hint: rough published L2 misses-per-kilo-instruction, kept
            for documentation and sanity tests.
    """

    name: str
    is_fp: bool
    is_mem: bool
    load_fraction: float
    store_fraction: float
    branch_fraction: float
    fp_fraction: float = 0.0
    imul_fraction: float = 0.01
    fdiv_fraction: float = 0.03
    dep_distance: float = 5.0
    working_set_bytes: int = 256 * KB
    stream_weight: float = 0.4
    random_weight: float = 0.5
    chase_weight: float = 0.1
    stride_bytes: int = 8
    num_streams: int = 2
    hot_fraction: float = 0.05
    hot_prob: float = 0.88
    chase_chains: int = 2
    code_blocks: int = 400
    mean_block_len: int = 6
    loop_bias: float = 0.65
    far_jump_prob: float = 0.10
    branch_bias_concentration: float = 5.0
    sync_fraction: float = 0.0
    l2_mpki_hint: float = 0.5

    def __post_init__(self) -> None:
        total = (self.load_fraction + self.store_fraction
                 + self.branch_fraction + self.fp_fraction
                 + self.imul_fraction + self.sync_fraction)
        if not 0.0 < total < 1.0:
            raise ValueError(
                f"{self.name}: instruction mix fractions sum to {total:.3f}; "
                "must leave room for IALU ops")
        weights = (self.stream_weight, self.random_weight, self.chase_weight)
        if min(weights) < 0 or sum(weights) <= 0:
            raise ValueError(f"{self.name}: bad access-pattern weights")

    @property
    def spec_class(self) -> str:
        """'MEM' or 'ILP', the paper's Table 2 grouping."""
        return "MEM" if self.is_mem else "ILP"


def _ilp_int(name: str, **kw) -> BenchmarkProfile:
    defaults = dict(
        is_fp=False, is_mem=False,
        load_fraction=0.24, store_fraction=0.10, branch_fraction=0.15,
        dep_distance=2.6, working_set_bytes=160 * KB,
        stream_weight=0.35, random_weight=0.60, chase_weight=0.05,
        branch_bias_concentration=5.0, l2_mpki_hint=0.4,
    )
    defaults.update(kw)
    return BenchmarkProfile(name=name, **defaults)


def _ilp_fp(name: str, **kw) -> BenchmarkProfile:
    defaults = dict(
        is_fp=True, is_mem=False,
        load_fraction=0.25, store_fraction=0.08, branch_fraction=0.05,
        fp_fraction=0.33, dep_distance=2.4, working_set_bytes=256 * KB,
        stream_weight=0.70, random_weight=0.28, chase_weight=0.02,
        branch_bias_concentration=8.0, loop_bias=0.80, mean_block_len=10,
        l2_mpki_hint=0.6,
    )
    defaults.update(kw)
    return BenchmarkProfile(name=name, **defaults)


#: All 24 benchmark profiles, keyed by Table 2 name.
PROFILES: Dict[str, BenchmarkProfile] = {}


def _register(profile: BenchmarkProfile) -> None:
    PROFILES[profile.name] = profile


# --- ILP group: integer -----------------------------------------------------
_register(_ilp_int("gzip", load_fraction=0.20, store_fraction=0.08,
                   branch_fraction=0.17, working_set_bytes=176 * KB,
                   code_blocks=180, l2_mpki_hint=0.3))
_register(_ilp_int("bzip2", load_fraction=0.26, store_fraction=0.09,
                   branch_fraction=0.14, working_set_bytes=320 * KB,
                   code_blocks=160, l2_mpki_hint=0.8))
_register(_ilp_int("gcc", load_fraction=0.25, store_fraction=0.13,
                   branch_fraction=0.16, working_set_bytes=512 * KB,
                   code_blocks=2400, far_jump_prob=0.25, mean_block_len=5,
                   branch_bias_concentration=4.0, l2_mpki_hint=0.9))
_register(_ilp_int("crafty", load_fraction=0.27, store_fraction=0.07,
                   branch_fraction=0.13, working_set_bytes=128 * KB,
                   code_blocks=600, branch_bias_concentration=4.0,
                   l2_mpki_hint=0.2))
_register(_ilp_int("eon", load_fraction=0.28, store_fraction=0.17,
                   branch_fraction=0.11, working_set_bytes=64 * KB,
                   code_blocks=500, branch_bias_concentration=7.0,
                   l2_mpki_hint=0.1))
_register(_ilp_int("gap", load_fraction=0.24, store_fraction=0.13,
                   branch_fraction=0.14, working_set_bytes=192 * KB,
                   code_blocks=500, l2_mpki_hint=0.5))
_register(_ilp_int("perl", load_fraction=0.26, store_fraction=0.14,
                   branch_fraction=0.15, working_set_bytes=128 * KB,
                   code_blocks=1600, far_jump_prob=0.20,
                   branch_bias_concentration=6.0, l2_mpki_hint=0.3))
_register(_ilp_int("vortex", load_fraction=0.28, store_fraction=0.18,
                   branch_fraction=0.14, working_set_bytes=448 * KB,
                   code_blocks=1800, far_jump_prob=0.18,
                   branch_bias_concentration=7.0, l2_mpki_hint=0.7))

# --- ILP group: floating point ---------------------------------------------
_register(_ilp_fp("mesa", load_fraction=0.24, store_fraction=0.09,
                  branch_fraction=0.09, fp_fraction=0.25,
                  working_set_bytes=128 * KB, code_blocks=700,
                  l2_mpki_hint=0.4))
_register(_ilp_fp("fma3d", load_fraction=0.26, store_fraction=0.12,
                  branch_fraction=0.07, fp_fraction=0.30,
                  working_set_bytes=448 * KB, code_blocks=1400,
                  l2_mpki_hint=0.8))
_register(_ilp_fp("apsi", load_fraction=0.23, store_fraction=0.10,
                  branch_fraction=0.05, fp_fraction=0.35,
                  working_set_bytes=192 * KB, code_blocks=700,
                  l2_mpki_hint=0.6))
_register(_ilp_fp("mgrid", load_fraction=0.33, store_fraction=0.03,
                  branch_fraction=0.01, fp_fraction=0.45,
                  working_set_bytes=500 * KB, stride_bytes=8,
                  num_streams=3, code_blocks=120, mean_block_len=24,
                  branch_bias_concentration=12.0, l2_mpki_hint=0.9))
_register(_ilp_fp("galgel", load_fraction=0.30, store_fraction=0.06,
                  branch_fraction=0.04, fp_fraction=0.40,
                  working_set_bytes=256 * KB, code_blocks=300,
                  l2_mpki_hint=0.5))
_register(_ilp_fp("wupwise", load_fraction=0.22, store_fraction=0.10,
                  branch_fraction=0.04, fp_fraction=0.40,
                  working_set_bytes=256 * KB, code_blocks=250,
                  l2_mpki_hint=0.5))

# --- MEM group ----------------------------------------------------------------
_register(BenchmarkProfile(
    name="mcf", is_fp=False, is_mem=True,
    load_fraction=0.31, store_fraction=0.09, branch_fraction=0.19,
    dep_distance=3.0, working_set_bytes=48 * MB,
    stream_weight=0.05, random_weight=0.30, chase_weight=0.65,
    hot_fraction=0.01, hot_prob=0.70, chase_chains=3,
    code_blocks=120, mean_block_len=5, branch_bias_concentration=3.0,
    l2_mpki_hint=90.0))
_register(BenchmarkProfile(
    name="art", is_fp=True, is_mem=True,
    load_fraction=0.26, store_fraction=0.03, branch_fraction=0.11,
    fp_fraction=0.30, dep_distance=6.0, working_set_bytes=3584 * KB,
    stream_weight=0.88, random_weight=0.10, chase_weight=0.02,
    stride_bytes=16, num_streams=5, code_blocks=100, mean_block_len=9,
    loop_bias=0.85, branch_bias_concentration=8.0, l2_mpki_hint=60.0))
_register(BenchmarkProfile(
    name="swim", is_fp=True, is_mem=True,
    load_fraction=0.26, store_fraction=0.08, branch_fraction=0.02,
    fp_fraction=0.40, dep_distance=8.0, working_set_bytes=14 * MB,
    stream_weight=0.95, random_weight=0.05, chase_weight=0.0,
    stride_bytes=4, num_streams=6, code_blocks=90, mean_block_len=28,
    loop_bias=0.90, branch_bias_concentration=12.0, l2_mpki_hint=25.0))
_register(BenchmarkProfile(
    name="lucas", is_fp=True, is_mem=True,
    load_fraction=0.20, store_fraction=0.09, branch_fraction=0.01,
    fp_fraction=0.48, dep_distance=8.0, working_set_bytes=8 * MB,
    stream_weight=0.92, random_weight=0.08, chase_weight=0.0,
    stride_bytes=4, num_streams=4, code_blocks=80, mean_block_len=30,
    loop_bias=0.90, branch_bias_concentration=12.0, l2_mpki_hint=20.0))
_register(BenchmarkProfile(
    name="applu", is_fp=True, is_mem=True,
    load_fraction=0.25, store_fraction=0.10, branch_fraction=0.03,
    fp_fraction=0.42, dep_distance=7.0, working_set_bytes=10 * MB,
    stream_weight=0.90, random_weight=0.10, chase_weight=0.0,
    stride_bytes=4, num_streams=4, code_blocks=140, mean_block_len=22,
    loop_bias=0.85, branch_bias_concentration=10.0, l2_mpki_hint=12.0))
_register(BenchmarkProfile(
    name="equake", is_fp=True, is_mem=True,
    load_fraction=0.30, store_fraction=0.07, branch_fraction=0.10,
    fp_fraction=0.28, dep_distance=5.0, working_set_bytes=6 * MB,
    stream_weight=0.50, random_weight=0.30, chase_weight=0.20,
    stride_bytes=8, num_streams=3, chase_chains=4,
    code_blocks=150, mean_block_len=8,
    branch_bias_concentration=6.0, l2_mpki_hint=15.0))
_register(BenchmarkProfile(
    name="ammp", is_fp=True, is_mem=True,
    load_fraction=0.27, store_fraction=0.08, branch_fraction=0.08,
    fp_fraction=0.30, dep_distance=4.0, working_set_bytes=10 * MB,
    stream_weight=0.20, random_weight=0.30, chase_weight=0.50,
    hot_prob=0.75, chase_chains=4,
    code_blocks=200, mean_block_len=8, branch_bias_concentration=5.0,
    l2_mpki_hint=10.0))
_register(BenchmarkProfile(
    name="twolf", is_fp=False, is_mem=True,
    load_fraction=0.24, store_fraction=0.07, branch_fraction=0.16,
    dep_distance=4.0, working_set_bytes=1792 * KB,
    stream_weight=0.10, random_weight=0.80, chase_weight=0.10,
    hot_fraction=0.06, hot_prob=0.92,
    code_blocks=300, mean_block_len=6, branch_bias_concentration=3.0,
    l2_mpki_hint=3.0))
_register(BenchmarkProfile(
    name="vpr", is_fp=False, is_mem=True,
    load_fraction=0.28, store_fraction=0.10, branch_fraction=0.13,
    dep_distance=4.0, working_set_bytes=2 * MB,
    stream_weight=0.15, random_weight=0.75, chase_weight=0.10,
    hot_fraction=0.06, hot_prob=0.92,
    code_blocks=280, mean_block_len=6, branch_bias_concentration=3.5,
    l2_mpki_hint=3.5))
_register(BenchmarkProfile(
    name="parser", is_fp=False, is_mem=True,
    load_fraction=0.24, store_fraction=0.09, branch_fraction=0.17,
    dep_distance=3.5, working_set_bytes=6 * MB,
    stream_weight=0.20, random_weight=0.45, chase_weight=0.35,
    hot_fraction=0.03, hot_prob=0.85, chase_chains=4,
    code_blocks=450, mean_block_len=5, branch_bias_concentration=3.5,
    l2_mpki_hint=5.0))


def get_profile(name: str) -> BenchmarkProfile:
    """Look up a benchmark profile by Table 2 name."""
    try:
        return PROFILES[name]
    except KeyError:
        raise UnknownBenchmarkError(name) from None


def benchmark_names() -> Tuple[str, ...]:
    """All benchmark names, sorted."""
    return tuple(sorted(PROFILES))


def ilp_benchmarks() -> Tuple[str, ...]:
    """Benchmarks the paper classifies as high-ILP (low L2 miss rate)."""
    return tuple(sorted(n for n, p in PROFILES.items() if not p.is_mem))


def mem_benchmarks() -> Tuple[str, ...]:
    """Benchmarks the paper classifies as memory-bound."""
    return tuple(sorted(n for n, p in PROFILES.items() if p.is_mem))
