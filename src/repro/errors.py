"""Exception hierarchy for the repro package.

All errors raised by the simulator derive from :class:`ReproError` so that
callers can catch simulator problems without masking unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """An :class:`~repro.config.SMTConfig` field is invalid or inconsistent."""


class TraceError(ReproError):
    """A trace is malformed or a trace generator was misconfigured."""


class UnknownBenchmarkError(TraceError):
    """A benchmark name has no registered profile."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown benchmark: {name!r}")
        self.name = name


class UnknownWorkloadError(TraceError):
    """A workload-class name is not one of the Table 2 classes."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown workload class: {name!r}")
        self.name = name


class UnknownPolicyError(ReproError):
    """A policy name has no registered implementation."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown policy: {name!r}")
        self.name = name


class UnknownExhibitError(ReproError):
    """An exhibit name has no registered driver."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown exhibit: {name!r}")
        self.name = name


class ManifestError(ReproError):
    """A campaign manifest is malformed, stale, or sharded inconsistently."""


class IncompleteBatchError(ReproError):
    """A backend returned without a result for every cell it was handed.

    ``SimEngine`` accepts any object with a ``run(items, on_result)``
    method as its backend; one that drops a cell would leave a hole in
    an assembled exhibit, or a store the execute report calls full.
    """

    def __init__(self, missing: int, total: int, hint: str = "") -> None:
        message = (f"backend produced results for {total - missing} of "
                   f"{total} cells")
        if hint:
            message = f"{message}: {hint}"
        super().__init__(message)
        self.missing = missing
        self.total = total


class CellError(ReproError):
    """One campaign cell failed: names the cell, chaining the error.

    Raised where a cell is simulated, so it crosses a process pool:
    pickling rebuilds it from its fields (the chained ``__cause__`` stays
    behind in the worker, so ``cause`` keeps its text).
    """

    def __init__(self, key: str, workload_class: str, benchmarks,
                 policy: str, cause: str) -> None:
        self.key = key
        self.workload_class = workload_class
        self.benchmarks = tuple(benchmarks)
        self.policy = policy
        self.cause = cause
        super().__init__(
            f"cell {key[:12]} ({workload_class} "
            f"{'+'.join(self.benchmarks)}, policy {policy}) failed: "
            f"{cause}")

    def __reduce__(self):
        return (type(self), (self.key, self.workload_class, self.benchmarks,
                             self.policy, self.cause))


class SimulationError(ReproError):
    """The simulator reached an impossible state (internal invariant broken)."""


class DeadlockError(SimulationError):
    """No forward progress was made for an implausible number of cycles."""

    def __init__(self, cycle: int, detail: str = "") -> None:
        message = f"simulator deadlock detected at cycle {cycle}"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)
        self.cycle = cycle
