"""Per-process memoization of generated pipeline kernels.

:func:`specialized_run_loop` is the compile-and-cache front of the
specializing kernel tier (:mod:`repro.core.kernel_gen`): the first
pipeline of a given machine shape pays one source emission +
``compile()`` (a few ms); every subsequent pipeline with an equal
:class:`~repro.core.kernel_gen.KernelKey` — across cells, sweeps and
repeated runs in the same process — reuses the compiled loop.  Worker
processes of the process-pool executor each hold their own cache,
warmed by their first cell (the kernel-tier request travels to workers
via the ``REPRO_KERNEL`` environment knob).

The cache key deliberately excludes the policy *class*: only the folded
policy facts in the key (runahead use, hook presence, skip eligibility)
shape the emitted source, so e.g. two icount-family
policies of identical shape share one kernel.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..isa import OP_FU_BY_CODE, OP_QUEUE_BY_CODE
from .kernel_gen import (KernelKey, emit_kernel_source, kernel_namespace,
                         specialization_key)

# The generated issue stage folds the FU-kind lookup OP_FU_BY_CODE[op]
# to the issue-queue-kind literal; that is only sound while the two
# code-indexed tables coincide.  Checked at import so an ISA change
# that splits them fails loudly, not with silent FU misaccounting.
assert list(OP_QUEUE_BY_CODE) == list(OP_FU_BY_CODE), \
    "kernel specializer assumes queue kind == FU kind per op code"

_KERNELS: Dict[KernelKey, object] = {}


def specialized_run_loop(pipeline) -> Optional[object]:
    """The compiled run loop for this pipeline's shape, or None.

    None means the shape is outside the specializer's envelope (an
    unregistered policy subclass, too many threads); the caller keeps
    the portable python loop.  Never raises on uncovered input.
    """
    key = specialization_key(pipeline)
    if key is None:
        return None
    kernel = _KERNELS.get(key)
    if kernel is None:
        source = emit_kernel_source(key)
        namespace = kernel_namespace()
        exec(compile(source, "<kernel-gen>", "exec"), namespace)
        kernel = namespace["_kernel_run"]
        kernel.__kernel_key__ = key
        kernel.__kernel_source__ = source
        _KERNELS[key] = kernel
    return kernel


def cache_info() -> Dict[KernelKey, object]:
    """Snapshot of the process-local kernel cache (tests, diagnostics)."""
    return dict(_KERNELS)


def clear_cache() -> None:
    """Drop all compiled kernels (tests)."""
    _KERNELS.clear()
