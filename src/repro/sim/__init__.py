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

The package re-exports nothing: import each name from its module, so
that a single cell, which needs only :mod:`repro.sim.kernels`, loads
none of the campaign layers.
"""
