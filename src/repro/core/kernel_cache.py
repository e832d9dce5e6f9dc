"""Per-process memoization of derived pipeline kernels.

:func:`specialized_run_loop` is the compile-and-cache front of the
specializing kernel tier (:mod:`repro.core.kernel_gen`): the first
pipeline of a given machine shape pays one derivation + ``compile()``
from the python tier's source (best of 20 on a shared 2-vCPU container,
Python 3.11: 16-25 ms for the 4-thread RaT shape, 13-20 ms for 1-2
thread shapes without runahead); every subsequent pipeline with an equal
:class:`~repro.core.kernel_gen.KernelKey` — across cells, sweeps and
repeated runs in the same process — reuses the compiled loop.  Worker
processes of the process-pool executor each hold their own cache,
warmed by their first cell (the kernel-tier request travels to workers
via the ``REPRO_KERNEL`` environment knob).

The cache key deliberately excludes the policy *class*: only the folded
policy facts in the key (runahead use, hook presence, skip eligibility)
shape the derived loop, so e.g. two icount-family policies of identical
shape share one kernel.  Nothing else outlives :func:`clear_cache`: the
derivation re-reads and re-parses its sources every time.
"""

from __future__ import annotations

from typing import Dict, Optional

from .kernel_gen import KernelKey, compile_kernel, specialization_key

_KERNELS: Dict[KernelKey, object] = {}


def specialized_run_loop(pipeline) -> Optional[object]:
    """The compiled run loop for this pipeline's shape, or None.

    None means the shape is outside the specializer's envelope (an
    unregistered policy subclass, too many threads); the caller keeps
    the portable python loop.  Never declines a covered shape: a source
    edit that breaks a declared derivation op raises
    :class:`~repro.core.kernel_gen.DerivationError`.
    """
    key = specialization_key(pipeline)
    if key is None:
        return None
    kernel = _KERNELS.get(key)
    if kernel is None:
        kernel = compile_kernel(key)
        kernel.__kernel_key__ = key
        _KERNELS[key] = kernel
    return kernel


def cache_info() -> Dict[KernelKey, object]:
    """Snapshot of the process-local kernel cache (tests, diagnostics)."""
    return dict(_KERNELS)


def clear_cache() -> None:
    """Drop all compiled kernels (tests)."""
    _KERNELS.clear()
