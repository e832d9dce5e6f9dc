"""Measurement layer: the simulation engine, result stores, and sweeps.

Every simulation funnels through a pluggable :class:`SimEngine`
(:mod:`repro.sim.engine`): a backend decides *where* cells execute
(serially in-process, or fanned out over worker processes) and a
:class:`~repro.sim.store.ResultStore` decides *whether* they execute at
all — results are content-addressed by (workload, policy, configuration,
run spec), so the experiment drivers for different figures share runs —
e.g. Figure 3's ED² numbers reuse the very runs Figures 1 and 2 measured,
exactly as the paper's tables all come from one simulation campaign —
and, with a disk store, whole invocations reuse earlier campaigns.
"""

from .runner import (RunSpec, WorkloadRun, build_traces, run_workload,
                     clear_run_cache)
from .baselines import single_thread_ipc
from .engine import (ExecutionReport, ProcessPoolBackend, RunIndex,
                     SerialBackend, SimEngine, SweepCell, get_engine,
                     reference_cell, set_engine, simulate_cell)
from .executors import (ShardSpec, ShardedExecutor, ThreadPoolBackend,
                        executor_names, get_executor)
from .manifest import CampaignManifest, ExhibitPlan, ManifestEntry
from .results import ClassAggregate, aggregate_by_class
from .store import (DiskStore, ExhibitRenderCache, MemoryStore,
                    ResultStore, cache_key)
from .sweep import (PolicySweep, assemble_policy_sweep, plan_policy_sweep,
                    sweep_policies)

__all__ = [
    "RunSpec",
    "WorkloadRun",
    "build_traces",
    "run_workload",
    "clear_run_cache",
    "single_thread_ipc",
    "SimEngine",
    "SweepCell",
    "RunIndex",
    "SerialBackend",
    "ProcessPoolBackend",
    "ThreadPoolBackend",
    "ShardedExecutor",
    "ShardSpec",
    "ExecutionReport",
    "executor_names",
    "get_executor",
    "CampaignManifest",
    "ManifestEntry",
    "ExhibitPlan",
    "get_engine",
    "set_engine",
    "reference_cell",
    "simulate_cell",
    "ResultStore",
    "MemoryStore",
    "DiskStore",
    "ExhibitRenderCache",
    "cache_key",
    "ClassAggregate",
    "aggregate_by_class",
    "PolicySweep",
    "plan_policy_sweep",
    "assemble_policy_sweep",
    "sweep_policies",
]
