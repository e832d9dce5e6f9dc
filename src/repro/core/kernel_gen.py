"""Derived kernels: the python tier's hot loop, specialized per machine shape.

For one machine shape (:class:`KernelKey`: the config scalars the stage
loops read every cycle plus the policy facts the pipeline folds at
construction) :func:`derive_kernel` builds a complete ``run``-equivalent
loop from the *current source* of the python tier.  The stage methods
of ``SMTPipeline`` and the helpers they call (the ROB, issue-queue,
register-file, rename and thread-context methods, ``DynInst.__init__``)
are parsed, specialized by the declared ops below and spliced into a
small hand-written frame: the per-run hoists, the FAME loop with its unrolled
termination test, the FU reset, the event-elision guard and the
cycle-skip precheck (a cycle that fetched, committed or spent an FU
budget is not idle).  Nothing in the loop body is written twice: each
helper is the only copy of its mechanism, the python tier calls it and
every kernel inlines it, so an edit to a helper or to
``core/pipeline.py`` flows into every kernel; an edit that stops a
declared op from matching raises :class:`DerivationError` naming the
op, the stage and the source line, instead of running a stale copy.

The declared ops (each preserves the python tier's semantics; together
they remove per-cycle and per-instruction work):

* **hoists** (:func:`_substitutions`): construction-stable attributes
  (``self.rob``, ``self.mem.data_access_packed``, per-thread stats, ...)
  become locals bound once per run.  ``IssueQueue._ready`` is rebound
  at run time and is deliberately absent.  A store to a hoisted
  spelling is an error.
* **key literal folds** (:func:`_substitutions`): config scalars and
  policy flags become constants; module-level ``int`` constants
  (``NO_REG``, event kinds, ``_SYNC_CODE``) fold to literals;
  ``now % NT`` becomes ``now & (NT - 1)`` for power-of-two ``NT``.
* **dead-branch folding**: ``if``/``and``/``or`` on folded constants
  keep only the live side.  Without runahead, ``thread.mode is
  _RUNAHEAD`` folds to ``False`` (``_NORMAL``: ``True``) — sound because
  a thread only enters runahead in ``_enter_runahead``, which is only
  reached under ``self._uses_runahead``.
* **helper inlining** (:data:`_INLINE`): each call site is replaced by
  the helper's freshly parsed body, arguments bound by name or a
  prelude assignment, helper locals that collide with a caller's names
  renamed.  The callee is resolved by **receiver type**: ``self`` is
  the caller's own class and every other receiver spelling (``rob``,
  ``queue``, ``file``, ``thread.rename``, ...) names a class in
  :data:`_RECEIVERS`, so ``rob.is_full()`` and ``queue.is_full()``
  inline different bodies; a declared method called on an undeclared
  receiver is an error.  Each ``return`` follows its declared flow:
  ``tail`` (last statement), ``else-rest`` (ends an ``if`` body: the
  rest of the block moves into ``else``), ``exit`` (the handled value
  already jumps) or ``break`` (leaves the helper's loop, which its next
  ``return`` follows); a ``value`` helper is one ``return <expression>``
  and inlines as that expression wherever the call appears (its
  arguments are names, literals or pure reads it uses once).  A
  declared ``Class.__init__`` builds in place: fetch's
  ``inst = DynInst(...)`` becomes ``inst = _new(DynInst)``
  (``object.__new__``) and the constructor's body with ``self`` bound
  to ``inst`` — no call frame per instruction, and sound only for a
  class with no base and no ``__new__``.
* **loop unrolling** (:data:`_UNROLL`): the issue queues (over the
  literal kind tuple, ``continue`` lowered to guard nesting, the FU
  lookup ``OP_FU_BY_CODE[inst.op]`` folded to the queue kind, the load
  and store paths dropped from queues no load or store dispatches to)
  and the per-thread stat sampler.
* **loop-invariant hoists** (:data:`_LOOP_HOISTS`): declared attribute
  reads become locals bound once before a stage's ``while`` loop — the
  dispatch stage's per-thread stats and rename views, fetch's
  address-space constants — so a helper written against ``thread``
  costs the kernel no attribute load per instruction.
* **undue-cycle event elision** (the frame): ``_process_events`` runs
  only when ``heap[0] <= now``.  Every ``_events`` key is pushed on the
  heap at bucket creation, and a call with no due bucket pops nothing,
  prunes only keys ``<= now`` and returns before the fold drain.

Every op declares how many sites it must match for a key; any other
count is a :class:`DerivationError`.  Derivation parses only the
methods it splices (a text search slices them), transforms each tree
in place with one pass, and compiles from the AST.  Kernels are memoized
per key by :mod:`repro.core.kernel_cache`; :func:`specialization_key`
answers ``None`` outside the validated envelope (third-party policy
classes, more threads than the unrolled loops cover) and the caller
falls back to the python tier (see :mod:`repro.sim.kernels`).
"""

from __future__ import annotations

import ast
import builtins
import gc
import os
import re
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..errors import ReproError
from ..isa import IS_LOAD_BY_CODE, IS_STORE_BY_CODE
from .hookspec import kernel_covers_policy

#: Threads beyond this fall back to the python tier: the termination
#: test, stat sampler and rotation tables are unrolled per thread.  The
#: golden cells cover 1/2/4 threads; the advance-vs-step fuzz and the
#: tier-parity suites add 3, 5, 6, 7 and 8.
MAX_THREADS = 8


class KernelKey(NamedTuple):
    """The machine shape a generated kernel is specialized for.

    Everything here is either an :class:`SMTConfig` scalar (immutable
    after construction) or a pipeline fact derived once in
    ``SMTPipeline.__init__`` from the policy class/knobs.  Two pipelines
    with equal keys can share one compiled kernel; nothing run-specific
    may appear here.  ``skip_enabled`` is technically a mutable
    pipeline flag — the kernel resolver re-reads it per ``run()`` call,
    so flipping it between runs selects a different kernel rather than
    invalidating this one.
    """

    num_threads: int
    width: int
    fetch_threads: int
    fetch_buffer: int
    icache_latency: int
    dcache_latency: int
    l2_detect_latency: int
    rob_capacity: int
    iq_caps: Tuple[int, int, int]
    fu_caps: Tuple[int, int, int]
    uses_runahead: bool
    ra_fp_inval: bool
    has_on_cycle: bool
    skip_enabled: bool


def specialization_key(pipeline) -> Optional[KernelKey]:
    """The kernel key for this pipeline, or None if uncovered."""
    if not kernel_covers_policy(type(pipeline.policy)):
        return None
    if pipeline.num_threads > MAX_THREADS:
        return None
    fus = pipeline.fus
    queues = pipeline.queues
    return KernelKey(
        num_threads=pipeline.num_threads,
        width=pipeline._width,
        fetch_threads=pipeline._fetch_threads,
        fetch_buffer=pipeline._fetch_buffer_size,
        icache_latency=pipeline._icache_latency,
        dcache_latency=pipeline._dcache_latency,
        l2_detect_latency=pipeline._l2_detect_latency,
        rob_capacity=pipeline.rob.capacity,
        iq_caps=(queues[0].capacity, queues[1].capacity,
                 queues[2].capacity),
        fu_caps=(fus._capacity[0], fus._capacity[1], fus._capacity[2]),
        uses_runahead=pipeline._uses_runahead,
        ra_fp_inval=pipeline._ra_fp_inval,
        has_on_cycle=pipeline._policy_on_cycle is not None,
        skip_enabled=bool(pipeline.cycle_skip and pipeline._policy_skip_ok),
    )


class DerivationError(ReproError):
    """A declared op no longer matches the python tier's source."""


# --------------------------------------------------------------- declarations

#: Where each derived class lives, relative to the package root.
_MODULES = {
    "SMTPipeline": "core/pipeline.py",
    "IssueQueue": "core/issue_queue.py",
    "ThreadContext": "core/thread.py",
    "DynInst": "core/dyninst.py",
    "SharedROB": "core/rob.py",
    "PhysRegFile": "core/regfile.py",
    "RenameState": "core/rename.py",
    "FUPool": "core/fu.py",
}

#: Receiver typing: the class each receiver spelling of a helper call
#: names (``self`` is the calling method's own class).  A method name is
#: not enough to find the callee: ``is_full``, ``append`` and ``insert``
#: exist on several classes.
_RECEIVERS = {
    "rob": "SharedROB",
    "queue": "IssueQueue", "q0": "IssueQueue", "q1": "IssueQueue",
    "q2": "IssueQueue",
    "file": "PhysRegFile", "dest_file": "PhysRegFile",
    "int_file": "PhysRegFile", "fp_file": "PhysRegFile",
    "rename": "RenameState", "thread.rename": "RenameState",
    "fus": "FUPool",
    "thread": "ThreadContext",
}

#: The frame's stages in ``step`` order: (placeholder, stage method,
#: return flow).  ``_process_events`` runs under the event-elision guard.
_STAGES = (
    ("events", "SMTPipeline._process_events", "else-rest"),
    ("commit", "SMTPipeline._commit_stage", ""),
    ("issue", "SMTPipeline._issue_stage", ""),
    ("dispatch", "SMTPipeline._dispatch_stage", ""),
    ("fetch", "SMTPipeline._fetch_stage", ""),
    ("sample", "SMTPipeline._sample_stats", ""),
)

#: Site counts that differ with runahead, as (without, with): without
#: runahead, dead-branch folding removes the runahead-only sites before
#: inlining.
_RA = (0, 1)

#: Helper inlining: (caller, callee) -> (return flow, sites per caller).
#: A ``value`` flow inlines a helper whose body is one ``return`` as that
#: expression, wherever the call appears.
_INLINE: Dict[Tuple[str, str], Tuple[str, object]] = {
    ("SMTPipeline._process_events", "SMTPipeline._complete"): ("", 1),
    ("SMTPipeline._complete", "PhysRegFile.set_ready"): ("tail", 1),
    ("SMTPipeline._complete", "SMTPipeline._src_ready"):
        ("else-rest else-rest", 1),
    ("SMTPipeline._complete", "SMTPipeline._recycle_runahead_dest"):
        ("else-rest else-rest else-rest", _RA),
    ("SMTPipeline._src_ready", "SMTPipeline._folds"): ("value", 1),
    ("SMTPipeline._src_ready", "IssueQueue.mark_ready"): ("", 1),
    ("SMTPipeline._recycle_runahead_dest", "SMTPipeline._release_preg"):
        ("", 1),
    ("SMTPipeline._recycle_runahead_dest",
     "ThreadContext.note_arch_invalid"): ("", 1),
    ("SMTPipeline._release_preg", "PhysRegFile.release"): ("", 1),
    # The commit loop returns into ``budget``: an empty window skips the
    # thread, runahead entry charges one slot and leaves the normal loop,
    # whose tail return then ends the helper.
    ("SMTPipeline._commit_stage", "SMTPipeline._commit_thread"):
        ("else-rest break else-rest tail", 1),
    ("SMTPipeline._commit_thread", "SharedROB.pop_head"): ("tail", (1, 2)),
    ("SMTPipeline._commit_thread", "SMTPipeline._release_preg"):
        ("", (1, 2)),
    ("SMTPipeline._commit_thread", "SMTPipeline._recycle_runahead_dest"):
        ("else-rest else-rest else-rest", _RA),
    # One site per unrolled queue; loads and stores only in the LS queue.
    ("SMTPipeline._issue_stage", "IssueQueue.take_ready"):
        ("else-rest else-rest tail", 3),
    ("SMTPipeline._issue_stage", "SMTPipeline._issue_load"):
        ("else-rest exit tail", 1),
    ("SMTPipeline._issue_stage", "SMTPipeline._issue_store"): ("", 1),
    ("SMTPipeline._issue_stage", "SMTPipeline.schedule"): ("", 3),
    ("SMTPipeline._issue_load", "SMTPipeline._issue_runahead_load"):
        ("", _RA),
    ("SMTPipeline._issue_load", "SMTPipeline.schedule"): ("", 2),
    ("SMTPipeline._issue_load", "IssueQueue.mark_ready"): ("", 1),
    ("SMTPipeline._issue_store", "SMTPipeline.schedule"): ("", 1),
    ("SMTPipeline._issue_runahead_load", "SMTPipeline.schedule"): ("", 1),
    ("SMTPipeline._issue_runahead_load", "ThreadContext.gate_fetch_until"):
        ("", 1),
    # Resource stalls count and leave the stage loop; a decode drop
    # consumes the entry like a normal dispatch.
    ("SMTPipeline._dispatch_stage", "SMTPipeline._dispatch"):
        ("exit else-rest exit exit tail", 1),
    ("SMTPipeline._dispatch", "SharedROB.is_full"): ("value", 1),
    ("SMTPipeline._dispatch", "SMTPipeline._drops_at_decode"):
        ("value", 1),
    ("SMTPipeline._dispatch", "SharedROB.append"): ("", (1, 2)),
    ("SMTPipeline._dispatch", "SMTPipeline._uncount"): ("", _RA),
    ("SMTPipeline._dispatch", "ThreadContext.note_arch_invalid"):
        ("", (1, 2)),
    ("SMTPipeline._dispatch", "IssueQueue.is_full"): ("value", 1),
    ("SMTPipeline._dispatch", "PhysRegFile.is_full"): ("value", 1),
    ("SMTPipeline._dispatch", "SMTPipeline._rename_src"):
        ("else-rest else-rest tail", 2),
    ("SMTPipeline._dispatch", "PhysRegFile.alloc"): ("tail", 1),
    ("SMTPipeline._dispatch", "RenameState.rename_dest"): ("tail", 1),
    ("SMTPipeline._dispatch", "IssueQueue.insert"): ("", 1),
    ("SMTPipeline._dispatch", "SMTPipeline._folds"): ("value", 1),
    ("SMTPipeline._dispatch", "IssueQueue.mark_ready"): ("", 1),
    ("SMTPipeline._rename_src", "RenameState.lookup"): ("value", 2),
    ("SMTPipeline._rename_src", "PhysRegFile.add_waiter"): ("", 1),
    ("SMTPipeline._fetch_stage", "SMTPipeline._fetch_thread"):
        ("else-rest tail", 1),
    ("SMTPipeline._fetch_stage", "ThreadContext.can_fetch"): ("value", 1),
    ("SMTPipeline._fetch_thread", "ThreadContext.block_fetch_until"):
        ("", 2),
    ("SMTPipeline._fetch_thread", "ThreadContext.physical_addr"):
        ("value", 1),
    # Every dynamic instruction of the simulation is built here.
    ("SMTPipeline._fetch_thread", "DynInst.__init__"): ("", 1),
}

#: Method names each caller inlines: a call of one of them on a receiver
#: :data:`_RECEIVERS` does not declare is an error, not a silent call.
_CALLEE_NAMES = {caller: {c.split(".")[1] for k, c in _INLINE if k == caller}
                 for caller, _callee in _INLINE}

#: Loop unrolling: function -> loop variable.  ``queue_kind`` iterates a
#: literal tuple; ``thread`` iterates ``self.threads`` (the key's count).
_UNROLL = {
    "SMTPipeline._issue_stage": "queue_kind",
    "SMTPipeline._sample_stats": "thread",
}

#: Loop-invariant hoists: function -> (spelling, local) pairs.  Every
#: read of a spelling inside the function's ``while`` loop, inlined
#: helpers included, becomes the local, bound once under a guard ``if``
#: with the loop's test, just before it; a spelling may start with an
#: earlier local.  The dispatch stage's per-thread views are stable
#: within the stage: runahead entry and exit, the only events that swap
#: the rename maps, happen at commit.
_LOOP_HOISTS = {
    "SMTPipeline._dispatch_stage": (
        ("thread.stats", "stats"),
        ("thread.arch_inv", "arch_inv"),
        ("thread.rename", "rename"),
        ("rename.front", "fronts"),
        ("fronts[0]", "int_front"),
        ("fronts[1]", "fp_front"),
    ),
    # A thread's address-space constants, read per memory access.
    "SMTPipeline._fetch_thread": (
        ("thread.data_base", "data_base"),
        ("thread._pass_stride", "pass_stride"),
        ("thread.data_region", "data_region"),
    ),
}

#: The FU-kind fold: within an unrolled issue queue, ``OP_FU_BY_CODE[
#: inst.op]`` is that queue's kind (an instruction sits in the queue
#: ``OP_QUEUE_BY_CODE`` names), sound only while the two tables agree.
_FU_FOLD = "fold OP_FU_BY_CODE[inst.op] to the queue kind"

#: The queue-class fold: within an unrolled issue queue, ``inst.is_load``
#: (``is_store``) is False when no load (store) op code dispatches to
#: that queue, so the INT and FP queues keep only the ALU path.
_QUEUE_FLAGS = {"is_load": IS_LOAD_BY_CODE, "is_store": IS_STORE_BY_CODE}

#: Every site count a derivation checks: (function, op) -> sites, where
#: an op is an inlined callee, an unrolled loop or the FU fold.
_SITES = {
    **{pair: sites for pair, (_flow, sites) in _INLINE.items()},
    **{(function, f"unroll {var}"): 1 for function, var in _UNROLL.items()},
    ("SMTPipeline._issue_stage", _FU_FOLD): 3,
}

#: Frame-owned names a stage may not assign.
_FRAME_NAMES = frozenset((
    "pipeline", "min_passes", "cap", "clock", "now", "target",
    "gseq_before", "committed_before"))

_BUILTINS = frozenset(dir(builtins))
_WORD = re.compile(r"[A-Za-z_]\w*")
_JUMPS = (ast.Break, ast.Continue)
#: Node types of an expression that only reads (no call, no store).
_READS = {ast.Name, ast.Constant, ast.Attribute, ast.Subscript, ast.BinOp,
          ast.Load, ast.Add, ast.Sub, ast.Mult, ast.Mod, ast.BitAnd,
          ast.RShift}


def _substitutions(key: KernelKey) -> Dict[str, object]:
    """Spelling -> per-run local (a ``str``) or the key's literal.  A
    spelling is ``base.attr`` or ``base[index]`` whose base is
    ``pipeline`` or an earlier local (the transform works bottom-up),
    so the frame binds each local as ``local = spelling`` in table
    order."""
    table = {
        "pipeline.num_threads": key.num_threads,
        "pipeline._width": key.width,
        "pipeline._fetch_threads": key.fetch_threads,
        "pipeline._fetch_buffer_size": key.fetch_buffer,
        "pipeline._icache_latency": key.icache_latency,
        "pipeline._dcache_latency": key.dcache_latency,
        "pipeline._l2_detect_latency": key.l2_detect_latency,
        "rob.capacity": key.rob_capacity,
        "pipeline._uses_runahead": key.uses_runahead,
        "pipeline._ra_fp_inval": key.ra_fp_inval,
        "pipeline.threads": "threads",
        "pipeline._rotations": "rotations",
        "rotations[0]": "rot0",
        "pipeline.rob": "rob",
        "rob._queues": "rob_queues",
        "pipeline.queues": "queues",
        "queues[0]": "q0",
        "queues[1]": "q1",
        "queues[2]": "q2",
        "pipeline.int_file": "int_file",
        "pipeline.fp_file": "fp_file",
        "pipeline.fus": "fus",
        "fus._available": "available",
        "fus._capacity": "fu_capacity",
        "pipeline._events": "events",
        "pipeline._event_heap": "heap",
        "pipeline._fold_worklist": "fold_worklist",
        "pipeline.gstats": "gstats",
        "pipeline.mem": "mem",
        "mem.data_access_packed": "data_access_packed",
        "mem.ifetch_packed": "ifetch_packed",
        "mem.peek_data": "peek_data",
        "pipeline.predictor": "predictor",
        "predictor.predict": "predict",
        "pipeline.btb": "btb",
        "btb.lookup_and_insert": "lookup_and_insert",
        "pipeline.policy": "policy",
        "policy.fetch_order": "fetch_order",
        "pipeline._policy_on_cycle": "policy_on_cycle",
        "pipeline._fold": "fold",
        "pipeline._drain_folds": "drain_folds",
        "pipeline._resolve_misprediction": "resolve_misprediction",
        "pipeline._on_l2_detected": "on_l2_detected",
        "pipeline._enter_runahead": "enter_runahead",
        "pipeline._skip_target": "skip_target",
        "pipeline._skip_to": "skip_to",
        "pipeline.runahead": "runahead",
        "runahead.exit": "runahead_exit",
        "runahead.should_enter": "should_enter",
        "runahead.on_runahead_store": "on_runahead_store",
        "runahead.load_forward_validity": "load_forward_validity",
        "runahead.prefetch": "ra_prefetch",
        "runahead.stop_fetch_on_l2_miss": "ra_stop_fetch",
    }
    for i in range(key.num_threads):
        table[f"threads[{i}]"] = f"t{i}"
        table[f"t{i}.stats"] = f"t{i}_stats"
        table[f"t{i}.regs_held"] = f"t{i}_held"
    return table


# --------------------------------------------------------------- source

_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: A line indented four spaces or less: ends a method inside a class.
_OUTDENT = re.compile(r"\n(?= {0,4}\S)")


def _kernel_namespace() -> Tuple[Dict[str, object], frozenset]:
    """The globals a derived kernel reads: those of the modules its
    source comes from (enum members compare by identity), plus the
    allocator of in-place construction; and the names two of those
    modules bind to different objects, which derived code may not
    read."""
    from . import dyninst, issue_queue, pipeline, regfile, rename, rob, \
        thread
    namespace: Dict[str, object] = {"_new": object.__new__}
    conflicts = set()
    for module in (dyninst, thread, issue_queue, rob, regfile, rename,
                   pipeline):
        for name, value in vars(module).items():
            if namespace.get(name, value) is not value:
                conflicts.add(name)
            namespace[name] = value
    return namespace, frozenset(conflicts)


# --------------------------------------------------------------- AST helpers

def _at(node, ref):
    node.lineno = ref.lineno
    node.col_offset = ref.col_offset
    node.end_lineno = ref.end_lineno
    node.end_col_offset = ref.end_col_offset
    return node


def _clone(node):
    if type(node) is list:
        return [_clone(item) for item in node]
    if not isinstance(node, ast.AST):
        return node
    new = type(node).__new__(type(node))
    for field in node._fields:
        setattr(new, field, _clone(getattr(node, field, None)))
    for attr in node._attributes:
        if hasattr(node, attr):
            setattr(new, attr, getattr(node, attr))
    return new


def _negate(test):
    if type(test) is ast.UnaryOp and type(test.op) is ast.Not:
        return test.operand
    return _at(ast.UnaryOp(ast.Not(), test), test)


def _pure(node) -> bool:
    while type(node) is ast.Attribute:
        node = node.value
    return type(node) in (ast.Name, ast.Constant)


def _truth(test) -> Optional[bool]:
    """The static truth of a test expression, if the folds decided it."""
    kind = type(test)
    if kind is ast.Constant:
        return bool(test.value)
    if kind is ast.BoolOp:
        last = test.values[-1]
        if type(last) is ast.Constant and \
                bool(last.value) != (type(test.op) is ast.And) and \
                all(_pure(value) for value in test.values[:-1]):
            return bool(last.value)
    if kind is ast.UnaryOp and type(test.op) is ast.Not:
        inner = _truth(test.operand)
        return None if inner is None else not inner
    return None


def _fields(node):
    """Fields in evaluation order (a comprehension binds its targets
    before its element reads them)."""
    fields = node._fields
    if fields and fields[-1] == "generators":
        return fields[::-1]
    return fields


def _spelling(node) -> Optional[str]:
    """``name``, ``name.attr...`` or ``name[int]`` chains as text."""
    kind = type(node)
    if kind is ast.Name:
        return node.id
    if kind is ast.Attribute:
        base = _spelling(node.value)
        return None if base is None else f"{base}.{node.attr}"
    if kind is ast.Subscript and type(node.slice) is ast.Constant:
        base = _spelling(node.value)
        return None if base is None else f"{base}[{node.slice.value}]"
    return None


def _jumps(code) -> bool:
    """Does this handled exit end in a jump (``break``/``continue``)?"""
    return bool(code) and (type(code[-1]) in _JUMPS
                           or getattr(code[-1], "jumps", False))


def _exits(stmts, node_type, out) -> None:
    """Collect ``node_type`` statements in source order (returns through
    nested loops; continues only at the unrolled loop's own level)."""
    for stmt in stmts:
        kind = type(stmt)
        if kind is node_type:
            out.append(stmt)
        elif kind is ast.If:
            _exits(stmt.body, node_type, out)
            _exits(stmt.orelse, node_type, out)
        elif kind in (ast.For, ast.While) and node_type is ast.Return:
            _exits(stmt.body, node_type, out)
            _exits(stmt.orelse, node_type, out)


# --------------------------------------------------------------- derivation

class _Scope:
    """One function instance being spliced: its name bindings, site
    counts and pending caller-owned code.

    Inlining is hygienic: a name the helper assigns that also occurs in
    a function it is spliced into (``protect``) is renamed
    ``<name>_<helper>``, except the parameters it shares with the call
    site and the site's result variable (``keep``).
    """

    __slots__ = ("qualname", "subst", "counts", "placeholders",
                 "queue_kind", "protect", "keep", "renamed", "early")

    def __init__(self, qualname, subst, counts=None,
                 queue_kind=None, protect=frozenset(), keep=()):
        self.qualname = qualname
        self.subst = subst
        self.counts = {} if counts is None else counts
        self.placeholders = {}
        self.queue_kind = queue_kind
        self.protect = protect
        self.keep = set(keep)
        self.renamed: Dict[str, str] = {}
        self.early = set()


class _Deriver:
    def __init__(self, key: KernelKey, root: str) -> None:
        self.key = key
        self.texts: Dict[str, str] = {}
        for relpath in _MODULES.values():
            path = os.path.join(root, *relpath.split("/"))
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    self.texts[relpath] = handle.read()
            except OSError as exc:
                raise DerivationError(f"cannot read {relpath}: {exc}") \
                    from exc
        self.namespace, self.conflicts = _kernel_namespace()
        self.substitutions = _substitutions(key)
        self.hoists = {spelling: local for spelling, local
                       in self.substitutions.items() if type(local) is str}
        #: Names that start a declared spelling (plus ``inst``, which the
        #: queue-class fold reads): every other base skips the lookup.
        self.bases = {spelling.split(".")[0].split("[")[0]
                      for spelling in self.substitutions}
        self.bases.add("inst")
        self.ints = {name for name, value in self.namespace.items()
                     if type(value) is int and name not in self.conflicts}
        self.loads: Dict[str, int] = {}
        self.stores = set()
        self.hoist_locals = frozenset(self.hoists.values())
        self.sources: Dict[str, str] = {}
        self.word_sets: Dict[str, frozenset] = {}
        #: Names a hoisting loop may not assign (its hoists' bases and
        #: locals).
        self.loop_fixed = set()
        self.stage = ""
        self.serial = 0

    # -- errors and source

    def fail(self, op: str, qualname: str, problem: str, node=None):
        """Raise a :class:`DerivationError` at ``qualname``'s ``def``
        line, or at ``node``'s line of that method."""
        relpath, text, start = self.locate(qualname)
        line = text.count("\n", 0, start) + getattr(node, "lineno", 1)
        raise DerivationError(f"{op}: {problem} (stage {self.stage}, "
                              f"{relpath}:{line} {qualname})")

    def locate(self, qualname: str) -> Tuple[str, str, int]:
        """(relpath, module text, offset of the method's ``def``)."""
        cls, name = qualname.split(".")
        relpath = _MODULES[cls]
        text = self.texts[relpath]
        head = text.find(f"\nclass {cls}")
        start = text.find(f"\n    def {name}(", head)
        if head < 0 or start < 0:
            raise DerivationError(f"{qualname} not found in {relpath} "
                                  f"(stage {self.stage})")
        return relpath, text, start + 1

    def source(self, qualname: str) -> str:
        """A method's source, four-space indented (its class body)."""
        text = self.sources.get(qualname)
        if text is None:
            _relpath, module, start = self.locate(qualname)
            end = _OUTDENT.search(module, start)
            text = self.sources[qualname] = module[
                start:len(module) if end is None else end.start()].rstrip()
        return text

    def words(self, qualname: str) -> frozenset:
        """Every identifier in a function's source (a superset of its
        local names)."""
        words = self.word_sets.get(qualname)
        if words is None:
            words = self.word_sets[qualname] = frozenset(
                _WORD.findall(self.source(qualname)))
        return words

    def parse(self, qualname: str) -> ast.FunctionDef:
        """A fresh tree of one method, its docstring dropped."""
        function = ast.parse("\n".join(
            line[4:] for line in self.source(qualname).split("\n"))).body[0]
        body = function.body
        if type(body[0]) is ast.Expr and type(body[0].value) is ast.Constant:
            function.body = body[1:]
        return function

    # -- expressions

    def expr(self, node, scope):
        kind = type(node)
        if kind is ast.Name:
            name = node.id
            if type(node.ctx) is not ast.Load:
                return self.store(node, scope)
            subst = scope.subst
            if subst and name in subst:
                bound = subst[name]
                if type(bound) is ast.Constant:
                    return _at(ast.Constant(bound.value), node)
                if type(bound) is not str:   # a receiver or argument read
                    return self.bound(bound)
                node.id = name = bound
            elif name in scope.renamed:
                node.id = name = scope.renamed[name]
            elif name in scope.protect:
                scope.early.add(name)
            if name == "self":
                node.id = name = "pipeline"
            elif name in self.ints:
                return _at(ast.Constant(self.namespace[name]), node)
            loads = self.loads
            loads[name] = loads.get(name, 0) + 1
            return node
        if kind is ast.Attribute:
            value = node.value = self.expr(node.value, scope)
            if type(value) is ast.Name and value.id in self.bases:
                if scope.queue_kind is not None and value.id == "inst" \
                        and node.attr in _QUEUE_FLAGS:
                    return self.queue_flag(node, scope)
                return self.spelled(node, f"{value.id}.{node.attr}", value,
                                    scope)
            return node
        if kind is ast.Constant:
            return node
        if kind is ast.Call:
            site = self.site(node, scope, value_flow=True)
            if site is not None:
                return self.inline(site, scope, ("value",), node)
            node.func = self.expr(node.func, scope)
            node.args = [self.expr(arg, scope) for arg in node.args]
            for keyword in node.keywords:
                keyword.value = self.expr(keyword.value, scope)
            return node
        return self.compound(node, kind, scope)

    def store(self, node, scope):
        """A name the derived code assigns (hygienic renaming)."""
        name = node.id
        if name in self.loop_fixed:
            self.fail("hoist out of the loop", scope.qualname,
                      f"the loop assigns {name!r}, so the hoist is not "
                      "loop-invariant", node)
        if scope.subst.get(name, name) != name:
            self.fail(f"inline {scope.qualname}", scope.qualname,
                      f"assigns parameter {name!r} bound to a caller "
                      "expression")
        fresh = scope.renamed.get(name)
        if fresh is None and name in scope.protect and \
                name not in scope.keep and name not in self.hoist_locals:
            if name in scope.early:
                self.fail(f"inline {scope.qualname}", scope.qualname,
                          f"reads {name!r} before assigning it, so it "
                          "cannot be renamed")
            fresh = scope.renamed[name] = \
                f"{name}_{scope.qualname.split('.')[1].strip('_')}"
        node.id = fresh or name
        self.stores.add(node.id)
        return node

    def compound(self, node, kind, scope):
        """Every other expression: the folds, then a generic walk."""
        if kind is ast.Subscript:
            value = node.value
            if type(value) is ast.Name and value.id == "OP_FU_BY_CODE" \
                    and scope.queue_kind is not None:
                return self.fu_fold(node, scope)
            value = node.value = self.expr(value, scope)
            index = node.slice = self.expr(node.slice, scope)
            if type(value) is ast.Name and type(index) is ast.Constant:
                return self.spelled(node, f"{value.id}[{index.value}]",
                                    value, scope)
            return node
        if kind is ast.Compare:
            if not self.key.uses_runahead and len(node.ops) == 1 \
                    and type(node.ops[0]) in (ast.Is, ast.IsNot) \
                    and type(node.left) is ast.Attribute \
                    and node.left.attr == "mode" \
                    and type(node.comparators[0]) is ast.Name \
                    and node.comparators[0].id in ("_RUNAHEAD", "_NORMAL"):
                normal = node.comparators[0].id == "_NORMAL"
                return _at(ast.Constant(
                    normal == (type(node.ops[0]) is ast.Is)), node)
            node.left = self.expr(node.left, scope)
            node.comparators = [self.expr(item, scope)
                                for item in node.comparators]
            return node
        if kind is ast.BoolOp:
            neutral = type(node.op) is ast.And
            values = []
            last = len(node.values) - 1
            for position, value in enumerate(node.values):
                value = self.expr(value, scope)
                if type(value) is ast.Constant:
                    if bool(value.value) == neutral and position < last:
                        continue
                    if bool(value.value) != neutral:
                        values.append(value)
                        break
                values.append(value)
            if len(values) == 1:
                return values[0]
            node.values = values
            return node
        if kind is ast.BinOp:
            node.left = self.expr(node.left, scope)
            right = node.right = self.expr(node.right, scope)
            if type(node.op) is ast.Mod and type(right) is ast.Constant \
                    and type(right.value) is int and right.value > 0 \
                    and right.value & (right.value - 1) == 0:
                if right.value == 1:
                    return _at(ast.Constant(0), node)
                node.op = ast.BitAnd()
                right.value -= 1
            return node
        for field in _fields(node):
            value = getattr(node, field)
            if type(value) is list:
                setattr(node, field, [
                    self.expr(item, scope) if isinstance(item, ast.AST)
                    else item for item in value])
            elif isinstance(value, ast.AST):
                setattr(node, field, self.expr(value, scope))
        return node

    def bound(self, expr):
        """A fresh copy of a derived expression bound to a name (each
        copy counts its reads)."""
        copy = _clone(expr)
        loads = self.loads
        for child in ast.walk(copy):
            if type(child) is ast.Name:
                loads[child.id] = loads.get(child.id, 0) + 1
        return copy

    def unload(self, expr):
        """A derived expression to bind, not emit: only its copies
        (:meth:`bound`) count as reads."""
        loads = self.loads
        for child in ast.walk(expr):
            if type(child) is ast.Name:
                loads[child.id] -= 1
        return expr

    def spelled(self, node, spelling: str, base: ast.Name, scope):
        """A hoisted local or key literal for ``spelling``, if declared."""
        value = self.substitutions.get(spelling, self)
        if value is self:
            return node
        if type(node.ctx) is not ast.Load:
            self.fail(f"hoist {spelling}", scope.qualname,
                      "the derived code assigns it")
        loads = self.loads
        loads[base.id] -= 1
        if type(value) is str:
            loads[value] = loads.get(value, 0) + 1
            return _at(ast.Name(value, ast.Load()), node)
        return _at(ast.Constant(value), node)

    def queue_flag(self, node, scope):
        """``inst.is_load``/``inst.is_store`` is False in a queue no load
        (store) op code is dispatched to."""
        table = _QUEUE_FLAGS[node.attr]
        queues = self.namespace["OP_QUEUE_BY_CODE"]
        if any(flag and queue == scope.queue_kind
               for flag, queue in zip(table, queues)):
            return node
        self.loads["inst"] -= 1
        return _at(ast.Constant(False), node)

    def fu_fold(self, node, scope):
        index = node.slice
        if not (type(index) is ast.Attribute and index.attr == "op"
                and type(index.value) is ast.Name
                and index.value.id == "inst"):
            self.fail(_FU_FOLD, scope.qualname, "the FU lookup no longer "
                      "indexes OP_FU_BY_CODE by inst.op")
        fu, queue = (self.namespace["OP_FU_BY_CODE"],
                     self.namespace["OP_QUEUE_BY_CODE"])
        if list(fu) != list(queue):
            self.fail(_FU_FOLD, scope.qualname,
                      "OP_FU_BY_CODE and OP_QUEUE_BY_CODE disagree, so "
                      "the FU kind is not the queue kind")
        scope.counts[_FU_FOLD] = scope.counts.get(_FU_FOLD, 0) + 1
        return _at(ast.Constant(scope.queue_kind), node)

    # -- statements

    def stmts(self, body, scope) -> List[ast.stmt]:
        out: List[ast.stmt] = []
        for stmt in body:
            out.extend(self.stmt(stmt, scope))
        return out

    def block(self, body, scope, ref) -> List[ast.stmt]:
        return self.stmts(body, scope) or [_at(ast.Pass(), ref)]

    def stmt(self, stmt, scope) -> List[ast.stmt]:
        kind = type(stmt)
        if kind is ast.Expr:
            value = stmt.value
            if type(value) is ast.Name and value.id in scope.placeholders:
                return scope.placeholders.pop(value.id)(scope)
            site = self.site(value, scope)
            if site is not None:
                return self.inline(site, scope, ("expr",), stmt)
            stmt.value = self.expr(value, scope)
            return [stmt]
        if kind is ast.AnnAssign:
            if stmt.value is None:
                return []
            stmt = _at(ast.Assign([stmt.target], stmt.value), stmt)
            kind = ast.Assign
        if kind is ast.Assign:
            value = stmt.value
            target = stmt.targets[0] if len(stmt.targets) == 1 else None
            if type(target) is ast.Name:
                site = self.site(value, scope)
                if site is not None:
                    return self.inline(site, scope, ("assign", target),
                                       stmt)
                if type(value) is ast.Call and type(value.func) is ast.Name \
                        and (scope.qualname, f"{value.func.id}.__init__") \
                        in _INLINE:
                    return self.construct(target, value, scope, stmt)
            elif type(target) is ast.Attribute:
                site = self.site(value, scope)
                if site is not None:
                    return self.inline(site, scope, (
                        "assign", self.unload(self.expr(target, scope))),
                        stmt)
            value = stmt.value = self.expr(value, scope)
            if type(target) is ast.Name and type(value) is ast.Name \
                    and value.id == target.id:
                self.loads[value.id] -= 1
                return []
            stmt.targets = [self.expr(item, scope) for item in stmt.targets]
            return [stmt]
        if kind is ast.If:
            test = stmt.test
            if type(test) is ast.UnaryOp and type(test.op) is ast.Not \
                    and not stmt.orelse:
                site = self.site(test.operand, scope)
                if site is not None:
                    return self.inline(site, scope, (
                        "ifnot", self.stmts(stmt.body, scope)), stmt)
            test = stmt.test = self.expr(test, scope)
            truth = _truth(test)
            if truth is not None:
                return self.stmts(stmt.body if truth else stmt.orelse, scope)
            stmt.body = self.block(stmt.body, scope, stmt)
            stmt.orelse = self.stmts(stmt.orelse, scope)
            return [stmt]
        if kind is ast.For:
            target = stmt.target
            if type(target) is ast.Name and \
                    _UNROLL.get(scope.qualname) == target.id:
                return self.unroll(stmt, scope)
            site = self.site(stmt.iter, scope)
            if site is not None:
                return self.inline(site, scope, (
                    "for", self.expr(target, scope),
                    self.block(stmt.body, scope, stmt),
                    self.stmts(stmt.orelse, scope)), stmt)
            stmt.iter = self.expr(stmt.iter, scope)
            stmt.target = self.expr(target, scope)
            stmt.body = self.block(stmt.body, scope, stmt)
            stmt.orelse = self.stmts(stmt.orelse, scope)
            return [stmt]
        if kind is ast.While:
            hoists = _LOOP_HOISTS.get(scope.qualname)
            if hoists:
                return self.hoisted_loop(stmt, scope, hoists)
            stmt.test = self.expr(stmt.test, scope)
            stmt.body = self.block(stmt.body, scope, stmt)
            stmt.orelse = self.stmts(stmt.orelse, scope)
            return [stmt]
        if kind in (ast.Break, ast.Continue, ast.Pass):
            return [stmt]
        for field in stmt._fields:
            value = getattr(stmt, field)
            if isinstance(value, ast.AST):
                setattr(stmt, field, self.expr(value, scope))
        return [stmt]

    # -- inlining

    def site(self, value, scope, value_flow=False):
        """(callee qualname, receiver, call) if ``value`` calls a helper
        this caller inlines with (``value_flow``) or without a ``value``
        flow.  The callee is the receiver's declared class's method."""
        if type(value) is not ast.Call or type(value.func) is not ast.Attribute:
            return None
        attr, receiver = value.func.attr, _spelling(value.func.value)
        if receiver is None or \
                attr not in _CALLEE_NAMES.get(scope.qualname, ()):
            return None
        if receiver == "self":
            callee = f"{scope.qualname.split('.')[0]}.{attr}"
        elif receiver in _RECEIVERS:
            callee = f"{_RECEIVERS[receiver]}.{attr}"
        else:
            callee = sorted(c for (caller, c) in _INLINE
                            if caller == scope.qualname
                            and c.endswith(f".{attr}"))[0]
            self.fail(f"inline {callee} into {scope.qualname}",
                      scope.qualname, f"call on undeclared receiver "
                      f"{receiver!r}", value)
        declared = _INLINE.get((scope.qualname, callee))
        if declared is None or (declared[0] == "value") != value_flow:
            return None
        return callee, receiver, value

    def inline(self, site, scope, form, ref, lead=()):
        """The callee's body for one call site (``lead`` runs once the
        arguments are bound), or for a ``value`` flow its returned
        expression."""
        callee, receiver, call = site
        op = f"inline {callee} into {scope.qualname}"
        scope.counts[callee] = scope.counts.get(callee, 0) + 1
        function = self.parse(callee)
        body = function.body
        value = _INLINE[(scope.qualname, callee)][0] == "value"
        if value and (len(body) != 1 or type(body[0]) is not ast.Return
                      or body[0].value is None):
            self.fail(op, callee, "a `value` helper must be one "
                      "`return <expression>`")
        params = [arg.arg for arg in function.args.args]
        if call.keywords or len(call.args) != len(params) - 1:
            self.fail(op, scope.qualname, "call does not bind every "
                      "parameter positionally", call)
        protect = scope.protect | self.words(scope.qualname)
        inner = _Scope(callee, {}, protect=protect)
        if form[0] == "assign" and type(form[1]) is ast.Name:
            inner.keep.add(form[1].id)
        if receiver == "self":
            if "self" in scope.subst:       # a helper calling its own class
                inner.subst["self"] = scope.subst["self"]
        elif "." in receiver:
            inner.subst["self"] = self.unload(self.expr(call.func.value,
                                                        scope))
        else:
            inner.subst["self"] = scope.renamed.get(
                receiver, scope.subst.get(receiver, receiver))
        prelude = []
        for param, arg in zip(params[1:], call.args):
            arg = self.expr(arg, scope)
            if type(arg) is ast.Name and arg.id == param:
                inner.keep.add(param)
            elif type(arg) in (ast.Name, ast.Constant):
                inner.subst[param] = arg.id if type(arg) is ast.Name else arg
            elif value:
                # A pure read the body uses once moves to that use.
                if any(type(node) not in _READS for node in ast.walk(arg)) \
                        or [node.id for node in ast.walk(body[0])
                            if type(node) is ast.Name].count(param) != 1:
                    self.fail(op, scope.qualname, f"argument {param!r} is "
                              "not a name, a literal or a pure read the "
                              "body uses once", call)
                inner.subst[param] = self.unload(arg)
            else:
                target = self.expr(_at(ast.Name(param, ast.Store()), arg),
                                   inner)
                prelude.append(_at(ast.Assign([target], arg), arg))
        if value:
            return self.expr(body[0].value, inner)
        body = self.lower(body, _INLINE[(scope.qualname, callee)][0],
                          ast.Return, op, callee, form, inner)
        body = prelude + list(lead) + self.stmts(body, inner)
        self.check_counts(callee, inner.counts)
        return body

    def construct(self, target, call, scope, ref) -> List[ast.stmt]:
        """``target = Class(...)`` built in place: ``target =
        _new(Class)``, then ``Class.__init__`` inlined on ``target``."""
        cls = call.func.id
        init = f"{cls}.__init__"
        _relpath, text, _start = self.locate(init)
        head = text.find(f"\nclass {cls}")
        if not text.startswith(f"\nclass {cls}:", head) or \
                "\n    def __new__(" in text[head:]:
            self.fail(f"inline {init} into {scope.qualname}", init,
                      "the class has a base or a __new__, so "
                      "object.__new__ does not build it")
        receiver = target.id
        lead = self.stmt(_at(ast.Assign([target], _at(ast.Call(
            _at(ast.Name("_new", ast.Load()), ref),
            [_at(ast.Name(cls, ast.Load()), ref)], []), ref)), ref), scope)
        return self.inline((init, receiver, call), scope, ("expr",), ref,
                           lead)

    def lower(self, body, flow: str, node_type, op, qualname, form, scope):
        """Rewrite each ``node_type`` exit of ``body`` per its declared
        flow (see the module docstring)."""
        exits: List[ast.stmt] = []
        _exits(body, node_type, exits)
        specs = flow.split()
        if len(exits) != len(specs):
            self.fail(op, qualname, f"has {len(exits)} exits, the declared "
                      f"flow covers {len(specs)}")
        for node, spec in zip(exits, specs):
            node.flow = spec
        iterated: List[ast.stmt] = []

        def handle(node):
            kind = form[0]
            value = getattr(node, "value", None)
            if kind == "expr" or node_type is ast.Continue:
                # A statement site drops the returned value, but still
                # evaluates one with effects (``return queue.pop()``).
                if value is None or type(value) in (ast.Constant,
                                                    ast.Name):
                    return []
                return [_at(ast.Expr(value), node)]
            if kind == "assign":
                target = form[1]
                if type(target) is ast.Name:
                    if type(value) is ast.Name and value.id == target.id:
                        return []
                    return [_at(ast.Assign(
                        [_at(ast.Name(target.id, ast.Store()), node)],
                        value), node)]
                # An attribute target was derived in the caller's scope.
                return [self.placeholder(scope, node, lambda inner: [_at(
                    ast.Assign([self.bound(target)],
                               self.expr(value, inner)), node)])]
            if kind == "ifnot":
                if type(value) is not ast.Constant or \
                        type(value.value) is not bool:
                    self.fail(op, qualname, "an `if not` site needs "
                              "literal True/False returns")
                if value.value:
                    return []
                spliced = self.placeholder(scope, node, lambda _inner: _clone(
                    form[1]))
                spliced.jumps = _jumps(form[1])
                return [spliced]
            if type(value) in (ast.List, ast.Tuple) and not value.elts:
                return []
            if iterated:
                self.fail(op, qualname, "a `for` site with two non-empty "
                          "returns")
            iterated.append(node)
            return [self.placeholder(scope, node, lambda inner: [_at(ast.For(
                form[1], self.expr(value, inner), form[2], form[3]), node)])]

        def walk(stmts, tail, loops):
            out = []
            for index, stmt in enumerate(stmts):
                kind = type(stmt)
                last = index == len(stmts) - 1
                if kind is node_type:
                    spec = stmt.flow
                    code = handle(stmt)
                    if spec == "break" and loops == 1:
                        code.append(_at(ast.Break(), stmt))
                    elif spec == "exit":
                        if not _jumps(code):
                            self.fail(op, qualname, "an `exit` return "
                                      "whose handled value does not jump")
                    elif spec != "tail" or not (tail and last):
                        self.fail(op, qualname, f"a {spec!r} return out "
                                  "of place")
                    return out + code
                if kind is ast.If:
                    ends = stmt.body and type(stmt.body[-1]) is node_type \
                        and stmt.body[-1].flow == "else-rest"
                    if ends:
                        exit_node = stmt.body.pop()
                        code = handle(exit_node)
                        if not tail and not _jumps(code):
                            self.fail(op, qualname, "an `else-rest` "
                                      "return outside tail position")
                        body = walk(stmt.body, tail, loops) + code
                        orelse = walk(stmt.orelse + stmts[index + 1:],
                                      tail, loops)
                    else:
                        body = walk(stmt.body, tail and last, loops)
                        orelse = walk(stmt.orelse, tail and last, loops)
                    if body:
                        stmt.body, stmt.orelse = body, orelse
                    elif orelse:
                        stmt.test, stmt.body, stmt.orelse = (
                            _negate(stmt.test), orelse, [])
                    else:
                        stmt.body = [_at(ast.Pass(), stmt)]
                    out.append(stmt)
                    if ends:
                        return out
                    continue
                if kind in (ast.For, ast.While) and node_type is ast.Return:
                    stmt.body = walk(stmt.body, False, loops + 1) or \
                        [_at(ast.Pass(), stmt)]
                    stmt.orelse = walk(stmt.orelse, False, loops)
                out.append(stmt)
            return out

        return walk(body, True, 0)

    def placeholder(self, scope, ref, expand):
        self.serial += 1
        name = f"__site{self.serial}__"
        scope.placeholders[name] = expand
        return _at(ast.Expr(_at(ast.Name(name, ast.Load()), ref)), ref)

    def unroll(self, loop, scope) -> List[ast.stmt]:
        var = loop.target.id
        op = f"unroll {var} in {scope.qualname}"
        if type(loop.iter) is ast.Tuple:
            values = [element.value for element in loop.iter.elts]
        elif var == "thread":
            values = [f"t{i}" for i in range(self.key.num_threads)]
        else:
            self.fail(op, scope.qualname, "the loop iterates neither a "
                      "literal tuple nor the key's threads")
        out = []
        for position, value in enumerate(values):
            body = loop.body
            if position:       # each copy splices a fresh parse
                fresh = [stmt for stmt in self.parse(scope.qualname).body
                         if type(stmt) is ast.For and
                         type(stmt.target) is ast.Name and
                         stmt.target.id == var]
                if len(fresh) != 1:
                    self.fail(op, scope.qualname, "the loop is not a "
                              "top-level statement")
                body = fresh[0].body
            continues: List[ast.stmt] = []
            _exits(body, ast.Continue, continues)
            body = self.lower(body, "else-rest " * len(continues),
                              ast.Continue, op, scope.qualname, ("expr",),
                              scope)
            binding = value if type(value) is str else ast.Constant(value)
            copy = _Scope(scope.qualname, dict(scope.subst, **{var: binding}),
                          scope.counts,
                          value if type(value) is int else None)
            out.extend(self.stmts(body, copy))
        scope.counts[f"unroll {var}"] = \
            scope.counts.get(f"unroll {var}", 0) + 1
        return out

    def hoisted_loop(self, loop, scope, hoists) -> List[ast.stmt]:
        """A ``while`` loop whose declared invariant reads are locals
        bound once before it (under the loop's test)."""
        op = f"hoist out of the loop in {scope.qualname}"
        loop.test = self.expr(loop.test, scope)
        table = self.substitutions
        fixed = self.loop_fixed
        before = {}
        for spelling, local in hoists:
            before[local] = self.loads.get(local, 0)
            table[spelling] = local
            self.bases.add(spelling.split(".")[0].split("[")[0])
            fixed.add(spelling.split(".")[0].split("[")[0])
            fixed.add(local)
        loop.body = self.block(loop.body, scope, loop)
        loop.orelse = self.stmts(loop.orelse, scope)
        for spelling, _local in hoists:
            del table[spelling]
        fixed.clear()
        matched = {local for local, count in before.items()
                   if self.loads.get(local, 0) > count}
        for spelling, local in reversed(hoists):
            if local in matched:    # its base matched a read too
                matched.add(spelling.split(".")[0].split("[")[0])
        for spelling, local in hoists:
            if local not in matched:
                self.fail(op, scope.qualname, f"{spelling!r} matched 0 "
                          "sites")
        self.stores.update(matched)
        bindings = ast.parse("\n".join(f"{local} = {spelling}" for
                                       spelling, local in hoists)).body
        return [_at(ast.If(_clone(loop.test),
                           [_at(binding, loop) for binding in bindings]
                           + [loop], []), loop)]

    def check_counts(self, function: str, counts: Dict[str, int]) -> None:
        """Every declared op of ``function`` matched its site count."""
        for (owner, op), sites in _SITES.items():
            if owner != function:
                continue
            if type(sites) is tuple:
                sites = sites[self.key.uses_runahead]
            found = counts.get(op, 0)
            if found != sites:
                label = (f"inline {op} into" if (function, op) in _INLINE
                         else f"{op} in")
                self.fail(f"{label} {function}", function,
                          f"matched {found} sites, declared {sites}")

    # -- the frame

    def derive(self) -> ast.Module:
        key = self.key
        stages = {}
        for placeholder, qualname, flow in _STAGES:
            self.stage = placeholder
            function = self.parse(qualname)
            scope = _Scope(qualname, {})
            body = self.lower(function.body, flow, ast.Return,
                              f"stage {qualname}", qualname, ("expr",),
                              scope)
            stages[f"__{placeholder}__"] = self.stmts(body, scope)
            self.check_counts(qualname, scope.counts)
        self.stage = "frame"
        nt = key.num_threads
        uses = ["available", "heap", "DeadlockError"] + \
            [f"t{i}" for i in range(nt)]
        if key.has_on_cycle:
            uses.append("policy_on_cycle")
        if key.skip_enabled:
            uses += ["gstats", "fu_capacity", "skip_target", "skip_to"]
        for name in uses:
            self.loads[name] = self.loads.get(name, 0) + 1
        locals_ = {local for local in self.hoists.values()
                   if self.loads.get(local, 0) > 0}
        for spelling, local in reversed(self.hoists.items()):
            if local in locals_:       # a hoist needs its base hoisted
                locals_.add(spelling.split(".")[0].split("[")[0])
        hoisted = [(spelling, local) for spelling, local
                   in self.hoists.items() if local in locals_]
        clash = self.stores & (_FRAME_NAMES | locals_ | self.ints)
        if clash:
            raise DerivationError(f"stage code assigns frame-owned names "
                                  f"{sorted(clash)} (stage frame)")
        defaults = sorted(
            name for name, count in self.loads.items()
            if count > 0 and name not in self.stores
            and name not in locals_ and name not in _FRAME_NAMES
            and name not in _BUILTINS)
        missing = [name for name in defaults if name not in self.namespace
                   or name in self.conflicts]
        if missing:
            raise DerivationError(f"derived code reads unbound names "
                                  f"{missing} (stage frame)")
        window = self.namespace["_DEADLOCK_WINDOW"]
        done = " and ".join(f"t{i}.finished_passes >= min_passes"
                            for i in range(nt))
        lines = ["def _kernel_run(pipeline, min_passes, cap, *, "
                 + ", ".join(f"{name}={name}" for name in defaults) + "):"]
        lines += [f"    {local} = {spelling}" for spelling, local in hoisted]
        lines += ["    clock = pipeline.cycle",
                  "    while True:",
                  f"        if {done}:",
                  "            return False",
                  "        if clock >= cap:",
                  "            return True",
                  "        now = clock"]
        if key.skip_enabled:
            lines += ["        gseq_before = pipeline._gseq",
                      "        committed_before = gstats.committed"]
        lines += [f"        available[{kind}] = {count}"
                  for kind, count in enumerate(key.fu_caps)]
        lines += ["        if heap and heap[0] <= now:",
                  "            __events__"]
        if key.has_on_cycle:
            lines.append("        policy_on_cycle(now)")
        lines += [f"        __{name}__" for name, _q, _f in _STAGES[1:]]
        lines += ["        clock = now + 1",
                  "        pipeline.cycle = clock",
                  "        if now - pipeline._last_commit_cycle > "
                  f"{window}:",
                  "            raise DeadlockError(",
                  "                now, 'no instruction committed "
                  "recently')"]
        if key.skip_enabled:
            lines += ["        if (pipeline._gseq != gseq_before",
                      "                or gstats.committed != "
                      "committed_before",
                      "                or available != fu_capacity):",
                      "            continue",
                      "        target = skip_target(clock, cap)",
                      "        if target > clock:",
                      "            skip_to(clock, target)",
                      "            clock = target"]
        module = ast.parse("\n".join(lines))
        loop = module.body[0].body[-1]
        loop.body = _splice(loop.body, stages)
        return module


def _splice(stmts, stages) -> List[ast.stmt]:
    out = []
    for stmt in stmts:
        if type(stmt) is ast.Expr and type(stmt.value) is ast.Name \
                and stmt.value.id in stages:
            out.extend(stages[stmt.value.id] or [_at(ast.Pass(), stmt)])
            continue
        if type(stmt) is ast.If:
            stmt.body = _splice(stmt.body, stages)
        out.append(stmt)
    return out


# --------------------------------------------------------------- entry points

def derive_kernel(key: KernelKey, root: Optional[str] = None) -> ast.Module:
    """The kernel for ``key`` as a module AST defining ``_kernel_run``,
    derived from the sources under ``root`` (default: this package)."""
    # The derivation allocates tens of thousands of acyclic AST nodes
    # that reference counting frees; a cyclic collection triggered by
    # the burst would only re-walk the live heap (~20% of the cost in a
    # process holding a simulation's traces).
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _Deriver(key, root or _PACKAGE_ROOT).derive()
    finally:
        if collecting:
            gc.enable()


def kernel_source(key: KernelKey, root: Optional[str] = None) -> str:
    """The derived kernel as source text (for lint, tests and reading)."""
    return ast.unparse(derive_kernel(key, root))


def compile_kernel(key: KernelKey):
    """Derive and compile the run loop for ``key`` (this package)."""
    namespace = _kernel_namespace()[0]
    code = compile(derive_kernel(key), f"<kernel {tuple(key)}>", "exec")
    exec(code, namespace)
    return namespace["_kernel_run"]
