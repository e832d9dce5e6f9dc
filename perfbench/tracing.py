"""Probes and spans at the package's public layer boundaries.

Everything here is installed from outside the package, in place, and
removed again when the :class:`Instrumentation` context exits; nothing
under ``src/`` knows it is being measured.

*Probes* run in every measured process, traced or not.  They cost a few
Python calls per simulated cell and record what the cell resolved to:

* ``repro.sim.kernels.resolve_run_loop`` (a module attribute, looked up
  by ``SMTProcessor.run`` at call time) -> the kernel tier;
* ``SMTProcessor.run`` -> host time of the call, the ``SimResult``,
  cycle-skip and macro-step counters, the FAME pass check and
  ``pipeline.check_invariants()`` (about 0.1 ms);
* ``repro.sim.executors.simulate_cell`` -> which campaign cell is
  running.

*Spans* are added in traced runs only (a :class:`Tracer` is given).
Methods are replaced on the classes that define them, because
``MemoryHierarchy``, ``PerceptronPredictor``, ``BranchTargetBuffer`` and
``RunaheadController`` instances use ``__slots__`` and the generated
kernels bind bound methods once per run: a class-level wrapper is what a
bound method resolves to.  Replacing a policy hook in place keeps the
class (and so its ``__module__``) unchanged, which is what
``kernel_covers_policy`` checks; a wrapper installed by subclassing
would drop the cell to the python tier, and the traced run's
same-program check would catch it.

Span layout.  A span is (name, start, end, parent).  Coarse boundaries
(trace generation, construction, ``run``, kernel resolution, campaign
plan, store reads and writes, exhibit assembly and rendering, and the
benchmark's own phases) are kept one record per call.  The hot
boundaries (``mem.*``, ``branch.*``, ``policies.*``, ``runahead.*``) are
called millions of times in a campaign, so each is rolled up into its
nearest recorded ancestor as (calls, total time) instead.  Every
boundary keeps per-name call counts, total time and self time: its
duration minus the part its child spans cover.
"""

from __future__ import annotations

import contextlib
import inspect
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.branch.btb import BranchTargetBuffer
from repro.branch.perceptron import PerceptronPredictor
from repro.config import baseline
from repro.core import kernel_cache
from repro.core.processor import SMTProcessor
from repro.core.runahead import RunaheadController
from repro.experiments import Campaign
from repro.mem.hierarchy import MemoryHierarchy
from repro.policies import FetchPolicy, create_policy, policy_names
from repro.sim import executors, kernels
from repro.trace import generator

#: Policy hooks timed under ``policies.*``.
POLICY_HOOKS = ("fetch_order", "on_cycle", "skip_horizon",
                "on_l2_miss_detected")

#: Branch-layer boundary.
BRANCH_METHODS = ((PerceptronPredictor, "predict"),
                  (BranchTargetBuffer, "lookup_and_insert"))

_clock = time.perf_counter_ns


class Tracer:
    """In-memory span recorder with per-name call/total/self counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.total_ns: List[int] = []
        self.self_ns: List[int] = []
        #: Recorded spans: (name id, start ns, end ns, parent span index).
        self.spans: List[Optional[Tuple[int, int, int, int]]] = []
        #: Rolled-up hot spans: (name id, parent span index) -> [calls, ns].
        self.rollups: Dict[Tuple[int, int], List[int]] = {}
        #: Open frames: [start ns, child ns, index of nearest recorded span].
        self.stack: List[List[int]] = [[0, 0, -1]]
        #: Closed spans whose children covered more than the span itself.
        self.violations = 0

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return nid

    def _open(self) -> List[int]:
        index = len(self.spans)
        self.spans.append(None)
        frame = [_clock(), 0, index]
        self.stack.append(frame)
        return frame

    def _close(self, nid: int, frame: List[int]) -> None:
        end = _clock()
        self.stack.pop()
        start, child, index = frame
        duration = end - start
        if child > duration:
            self.violations += 1
        self.calls[nid] += 1
        self.total_ns[nid] += duration
        self.self_ns[nid] += duration - child
        parent = self.stack[-1]
        parent[1] += duration
        self.spans[index] = (nid, start, end, parent[2])

    def wrap(self, func: Callable, name: str, record: bool = True) -> Callable:
        """``func`` timed as span ``name``, recorded or rolled up."""
        nid = self._id(name)
        if record:
            def traced(*args, **kwargs):
                frame = self._open()
                try:
                    return func(*args, **kwargs)
                finally:
                    self._close(nid, frame)
        else:
            # The hot path: one call per simulated load, branch or cycle,
            # so the bookkeeping is inlined into the closure.
            stack, calls = self.stack, self.calls
            total, own, rollups = self.total_ns, self.self_ns, self.rollups
            tracer = self

            def traced(*args, **kwargs):
                frame = [_clock(), 0, stack[-1][2]]
                stack.append(frame)
                try:
                    return func(*args, **kwargs)
                finally:
                    end = _clock()
                    stack.pop()
                    start, child, parent_span = frame
                    duration = end - start
                    if child > duration:
                        tracer.violations += 1
                    calls[nid] += 1
                    total[nid] += duration
                    own[nid] += duration - child
                    stack[-1][1] += duration
                    entry = rollups.get((nid, parent_span))
                    if entry is None:
                        rollups[(nid, parent_span)] = [1, duration]
                    else:
                        entry[0] += 1
                        entry[1] += duration
        traced.__wrapped__ = func
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A recorded span around a block of the benchmark's own code."""
        nid = self._id(name)
        frame = self._open()
        try:
            yield
        finally:
            self._close(nid, frame)

    def check_nesting(self) -> int:
        """Closed-span violations plus recorded spans outside their parent."""
        bad = self.violations
        for span in self.spans:
            if span is None:
                continue
            _nid, start, end, parent = span
            if parent >= 0:
                _pid, parent_start, parent_end, _ = self.spans[parent]
                if start < parent_start or end > parent_end:
                    bad += 1
        return bad

    def layer(self, prefix: str) -> Tuple[int, float, float]:
        """(calls, total s, self s) over every span name in a layer."""
        calls = total = own = 0
        for nid, name in enumerate(self.names):
            if name.split(".", 1)[0] == prefix:
                calls += self.calls[nid]
                total += self.total_ns[nid]
                own += self.self_ns[nid]
        return calls, total / 1e9, own / 1e9

    def named(self, name: str) -> Tuple[int, float, float]:
        """(calls, total s, self s) of one span name (zeros if unseen)."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return (self.calls[nid], self.total_ns[nid] / 1e9,
                self.self_ns[nid] / 1e9)

    def dump(self) -> Dict[str, object]:
        """JSON-ready trace: names, recorded spans, roll-ups, counters."""
        return {
            "names": list(self.names),
            "spans": [list(span) for span in self.spans if span is not None],
            "rollups": [[nid, parent, calls, ns] for (nid, parent), (calls, ns)
                        in sorted(self.rollups.items())],
            "counters": {name: {"calls": self.calls[nid],
                                "total_ns": self.total_ns[nid],
                                "self_ns": self.self_ns[nid]}
                         for nid, name in enumerate(self.names)},
            "nesting_violations": self.check_nesting(),
        }


class Instrumentation:
    """Install probes (always) and spans (when traced); undo on exit."""

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        #: One record per SMTProcessor.run call, in call order.
        self.records: List[Dict[str, object]] = []
        self.current_cell = None
        #: Host time of resolve_run_loop calls that compiled (traced only).
        self.compile_ns = 0
        self._tier: Optional[str] = None
        self._undo: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumentation":
        try:
            self._install()
        except BaseException:
            self._remove()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._remove()

    def _replace(self, owner, name: str, wrap: Callable) -> None:
        original = (vars(owner)[name] if isinstance(owner, type)
                    else getattr(owner, name))
        self._undo.append((owner, name, original))
        setattr(owner, name, wrap(original))

    def _span(self, owner, name: str, label: str, record: bool) -> None:
        self._replace(owner, name,
                      lambda original: self.tracer.wrap(original, label,
                                                        record))

    def _remove(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _install(self) -> None:
        self._replace(kernels, "resolve_run_loop", self._resolve_probe)
        self._replace(SMTProcessor, "run", self._run_probe)
        self._replace(executors, "simulate_cell", self._cell_probe)
        if self.tracer is None:
            return
        self._span(kernels, "resolve_run_loop", "kernels.resolve", True)
        self._span(SMTProcessor, "run", "core.run", True)
        self._span(SMTProcessor, "__init__", "core.construct", True)
        self._span(generator, "generate_trace", "trace.generate", True)
        self._span(executors, "generate_trace", "trace.generate", True)
        self._span(Campaign, "plan", "sim.plan", True)
        # Construction counts too: every pipeline builds a runahead
        # controller, even under policies that never run ahead.
        for owner, prefix in ((MemoryHierarchy, "mem"),
                              (RunaheadController, "runahead")):
            for name, value in sorted(vars(owner).items()):
                if ((name == "__init__" or not name.startswith("_"))
                        and inspect.isfunction(value)):
                    self._span(owner, name, f"{prefix}.{name}", False)
        for owner, name in BRANCH_METHODS:
            self._span(owner, name, f"branch.{name}", False)
        for owner, name in policy_hook_sites():
            self._span(owner, name, f"policies.{name}", False)

    # --- probes --------------------------------------------------------

    def _resolve_probe(self, original: Callable) -> Callable:
        python_loop = kernels.python_run_loop

        def resolve_run_loop(pipeline):
            if self.tracer is None:
                loop = original(pipeline)
            else:
                before = len(kernel_cache.cache_info())
                start = _clock()
                loop = original(pipeline)
                if len(kernel_cache.cache_info()) > before:
                    self.compile_ns += _clock() - start
            self._tier = "python" if loop is python_loop else "specialized"
            return loop
        return resolve_run_loop

    def _run_probe(self, original: Callable) -> Callable:
        def run(processor, min_passes: int = 1, max_cycles=None):
            self._tier = None
            start = _clock()
            result = original(processor, min_passes, max_cycles)
            run_ns = _clock() - start
            self.records.append(
                run_record(processor, result, min_passes, run_ns,
                           self._tier, self.current_cell))
            return result
        return run

    def _cell_probe(self, original: Callable) -> Callable:
        def simulate_cell(cell):
            self.current_cell = cell
            try:
                return original(cell)
            finally:
                self.current_cell = None
        return simulate_cell

    # --- instance and block spans --------------------------------------

    def wrap_instance(self, instance, name: str, label: str) -> None:
        """Time one method of a plain (unslotted) instance, if traced."""
        if self.tracer is not None:
            setattr(instance, name,
                    self.tracer.wrap(getattr(instance, name), label))

    def span(self, name: str):
        """A recorded span around a block, or nothing when untraced."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)


class TracedExhibit:
    """An exhibit as Campaign sees it, with ``assemble`` timed."""

    def __init__(self, exhibit, tracer: Tracer) -> None:
        self.name = exhibit.name
        self.title = exhibit.title
        self.version = exhibit.version
        self.plan = exhibit.plan
        self.assemble = tracer.wrap(exhibit.assemble, "experiments.assemble")


def policy_hook_sites() -> List[Tuple[type, str]]:
    """(class, hook) for every registered policy class defining a hook.

    Walks each registered policy's MRO, so an inherited definition
    (``FetchPolicy``, ``ICountPolicy``) is wrapped once, where it is
    defined.
    """
    sites: List[Tuple[type, str]] = []
    config = baseline()
    for policy_name in policy_names():
        for owner in type(create_policy(policy_name, config)).__mro__:
            if not issubclass(owner, FetchPolicy):
                continue
            for hook in POLICY_HOOKS:
                if hook in vars(owner) and (owner, hook) not in sites:
                    sites.append((owner, hook))
    return sites


def run_record(processor, result, min_passes: int, run_ns: int,
               tier: Optional[str], cell) -> Dict[str, object]:
    """What one ``SMTProcessor.run`` call did.  Digests are computed
    later from ``result``, outside any timed region."""
    pipeline = processor.pipeline
    stats = result.thread_stats
    try:
        pipeline.check_invariants()
        invariant_error = ""
    except Exception as error:  # any broken invariant fails the cell
        invariant_error = f"{type(error).__name__}: {error}"
    return {
        "cell": cell,
        "tier": tier,
        "run_ns": run_ns,
        "result": result,
        "cycles": result.cycles,
        "skipped": pipeline.skipped_cycles,
        "skip_jumps": pipeline.skip_jumps,
        "macro_insts": pipeline.gstats.macro_insts,
        "dispatched": sum(s.dispatched for s in stats),
        "fetched": sum(s.fetched for s in stats),
        "committed": sum(s.committed for s in stats),
        "branches": sum(s.branches for s in stats),
        "mispredicts": sum(s.mispredicts for s in stats),
        "episodes": sum(s.runahead_episodes for s in stats),
        "l2_misses": sum(result.l2_misses),
        "throughput": result.throughput,
        "truncated": result.truncated,
        "passes_ok": all(thread.finished_passes >= min_passes
                         for thread in pipeline.threads),
        "invariant_error": invariant_error,
    }
