"""The kernel registry: which run-loop implementation drives a cell.

Mirrors the executor/policy/exhibit registries: implementations register
under a CLI-visible name, and :func:`resolve_run_loop` picks one per
:meth:`SMTProcessor.run <repro.core.processor.SMTProcessor.run>` call.
Two tiers exist:

``python``
    The portable FAME measurement loop (the reference implementation,
    moved verbatim from ``SMTProcessor.run``).  Every other tier must
    match it bit for bit.

``specialized``
    The derived kernel (:mod:`repro.core.kernel_gen` /
    :mod:`repro.core.kernel_cache`): the whole pipeline hot loop,
    derived from the python tier's own source with the machine shape
    folded in, derived and compiled once per machine shape per process
    (13-25 ms, best of 20 on a shared 2-vCPU container, Python 3.11).

Selection is controlled by the ``REPRO_KERNEL`` environment knob
(``auto`` | ``python``, resolved by :func:`repro.config.kernel_mode`),
deliberately *not* an :class:`~repro.config.SMTConfig` field: by the
bit-identity contract the switch cannot change any result, so the
config cache key — and the result-cache salt — stay untouched.
``auto`` runs ``specialized`` where the derivation covers the shape and
falls back to ``python`` elsewhere: tier selection is a request, never
an error and never a divergence.

This module reads no environment itself (determinism scope): the env
read happens inside :mod:`repro.config`, which is the sanctioned home
for knob resolution.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from ..config import kernel_mode

#: Registered kernel tiers, name -> resolver.  A resolver takes a
#: pipeline and returns a run loop ``(pipeline, min_passes, cap) ->
#: bool`` (True = truncated at the cycle cap), or None to decline.
_KERNELS: Dict[str, Callable] = {}


def kernel(name: str) -> Callable:
    """Decorator registering a kernel resolver under a CLI name."""
    def _register(func: Callable) -> Callable:
        _KERNELS[name] = func
        return func
    return _register


def kernel_names() -> Tuple[str, ...]:
    """All registered kernel tier names, sorted."""
    return tuple(sorted(_KERNELS))


def python_run_loop(pipeline, min_passes: int, cap: int) -> bool:
    """The portable FAME loop: advance until every thread finishes its
    passes, or the cycle cap truncates the run.  Reference semantics for
    every other tier (bit-identity is pinned by the golden-digest and
    equivalence suites run across tiers)."""
    threads = pipeline.threads
    advance = pipeline.advance
    # Plain loop rather than any(genexpr): this termination test runs
    # once per simulated cycle.
    while True:
        for thread in threads:
            if thread.finished_passes < min_passes:
                break
        else:
            return False
        if pipeline.cycle >= cap:
            return True
        advance(cap)


@kernel("python")
def _python_kernel(pipeline):
    return python_run_loop


@kernel("specialized")
def _specialized_kernel(pipeline):
    from ..core.kernel_cache import specialized_run_loop
    return specialized_run_loop(pipeline)


def resolve_run_loop(pipeline) -> Callable:
    """Pick the run loop for one ``run()`` call.

    ``python`` forces the portable loop; ``auto`` requests the
    specializer and falls back to the portable loop for any shape it
    declines (third-party policy, wide machine).  Resolved per call,
    not per pipeline: the mutable ``cycle_skip`` switch the key folds
    is re-read each time, so tests that flip it between runs get the
    matching kernel variant.
    """
    if kernel_mode() == "python":
        return python_run_loop
    loop = _KERNELS["specialized"](pipeline)
    if loop is None:
        return python_run_loop
    return loop
