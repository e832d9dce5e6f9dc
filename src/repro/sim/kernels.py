"""Which run loop drives a cell: the portable loop or the derived kernel.

:func:`resolve_run_loop` picks one per
:meth:`SMTProcessor.run <repro.core.processor.SMTProcessor.run>` call.
Two tiers exist:

``python``
    The portable FAME measurement loop (the reference implementation,
    moved verbatim from ``SMTProcessor.run``).  The other tier must
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

from typing import Callable

from ..config import kernel_mode


def python_run_loop(pipeline, min_passes: int, cap: int) -> bool:
    """The portable FAME loop: advance until every thread finishes its
    passes, or the cycle cap truncates the run.  Reference semantics for
    the derived kernel (bit-identity is pinned by the golden-digest and
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


def resolve_run_loop(pipeline) -> Callable:
    """Pick the run loop ``(pipeline, min_passes, cap) -> truncated``
    for one ``run()`` call.

    ``python`` forces the portable loop; ``auto`` requests the
    specializer and falls back to the portable loop for any shape it
    declines (third-party policy, wide machine).  Resolved per call,
    not per pipeline: the mutable ``cycle_skip`` switch the key folds
    is re-read each time, so tests that flip it between runs get the
    matching kernel variant.
    """
    if kernel_mode() == "python":
        return python_run_loop
    # Imported here, not at module level: a python-tier run never loads
    # the kernel derivation.
    from ..core.kernel_cache import specialized_run_loop
    loop = specialized_run_loop(pipeline)
    if loop is None:
        return python_run_loop
    return loop
