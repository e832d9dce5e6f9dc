"""Synthetic workload substrate.

The paper drives its SMTSIM-derived simulator with SPEC CPU2000 Alpha
binaries.  Those binaries (and 300M-instruction SimPoint slices of them) are
not available here, so this subpackage synthesizes statistically equivalent
instruction traces: each benchmark is described by a
:class:`~repro.trace.profiles.BenchmarkProfile` (instruction mix, dependence
distances, branch behaviour, code footprint, data footprint and access
patterns), and :class:`~repro.trace.generator.TraceGenerator` expands a
profile into a deterministic dynamic instruction trace.

See the README, "Deviations from the paper", for why this substitution
preserves the paper's behaviour.
"""

from .instruction import TraceInstruction
from .trace import Trace
from .profiles import (
    BenchmarkProfile,
    PROFILES,
    benchmark_names,
    get_profile,
    ilp_benchmarks,
    mem_benchmarks,
)
from .generator import TraceGenerator, generate_trace
from .workloads import (
    Workload,
    WORKLOAD_CLASSES,
    get_workloads,
    workload_class_names,
    all_workloads,
)

__all__ = [
    "TraceInstruction",
    "Trace",
    "BenchmarkProfile",
    "PROFILES",
    "benchmark_names",
    "get_profile",
    "ilp_benchmarks",
    "mem_benchmarks",
    "TraceGenerator",
    "generate_trace",
    "Workload",
    "WORKLOAD_CLASSES",
    "get_workloads",
    "workload_class_names",
    "all_workloads",
]
