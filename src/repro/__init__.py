"""repro — reproduction of "Runahead Threads to Improve SMT Performance"
(Ramírez, Pajuelo, Santana, Valero; HPCA 2008).

The package provides:

* a cycle-level SMT processor simulator with the paper's Table 1 machine
  (:mod:`repro.core`), including the Runahead Threads mechanism;
* the compared fetch/resource policies — ICOUNT, STALL, FLUSH, DCRA,
  hill climbing, MLP-aware, and RaT (:mod:`repro.policies`);
* synthetic SPEC CPU2000 workloads and the Table 2 mixes
  (:mod:`repro.trace`);
* the paper's metrics and FAME measurement methodology
  (:mod:`repro.metrics`, :mod:`repro.sim`);
* experiment drivers regenerating every table and figure
  (:mod:`repro.experiments`).

Quick start::

    from repro import SMTConfig, SMTProcessor, generate_trace

    traces = [generate_trace("mcf", 3000), generate_trace("gzip", 3000)]
    cpu = SMTProcessor(SMTConfig(policy="rat"), traces)
    result = cpu.run()
    print(result.throughput, result.ipcs)
"""

from .config import CacheConfig, SMTConfig, baseline
from .core import SMTProcessor, SimResult
from .errors import (
    ConfigError,
    DeadlockError,
    ReproError,
    SimulationError,
    TraceError,
    UnknownBenchmarkError,
    UnknownPolicyError,
    UnknownWorkloadError,
)
from .metrics import ed2, fairness, throughput
from .policies import POLICY_NAMES, create_policy
from .trace import (
    Trace,
    Workload,
    all_workloads,
    benchmark_names,
    generate_trace,
    get_profile,
    get_workloads,
    workload_class_names,
)

__version__ = "1.0.0"

__all__ = [
    "CacheConfig",
    "SMTConfig",
    "baseline",
    "SMTProcessor",
    "SimResult",
    "ReproError",
    "ConfigError",
    "TraceError",
    "SimulationError",
    "DeadlockError",
    "UnknownBenchmarkError",
    "UnknownPolicyError",
    "UnknownWorkloadError",
    "ed2",
    "fairness",
    "throughput",
    "POLICY_NAMES",
    "create_policy",
    "Trace",
    "Workload",
    "all_workloads",
    "benchmark_names",
    "generate_trace",
    "get_profile",
    "get_workloads",
    "workload_class_names",
    "__version__",
]
