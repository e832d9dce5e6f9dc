"""Experiment drivers: one declarative exhibit per paper table/figure.

Each module defines an :class:`~.common.Exhibit` subclass registered via
the :func:`~.registry.exhibit` decorator.  Exhibits are two pure phases:
``plan(ctx)`` declares every simulation cell up front, ``assemble(ctx,
runs)`` turns the memoized runs into an :class:`~.common.ExhibitResult`
with structured sections (renderable as text, JSON or CSV).

A :class:`~.common.Campaign` unions any set of exhibits' planned cells
into one deduplicated, cost-ordered engine batch — e.g. Figure 3's ED²
numbers reuse the very runs Figures 1 and 2 measured, exactly like the
paper's single simulation campaign — and, with a disk store, runs are
shared across invocations too.

Each module also keeps an imperative ``run(...)`` wrapper (re-exported
below under the exhibit's name) that executes a single-exhibit campaign.
"""

from .common import (Campaign, Exhibit, ExhibitContext, ExhibitResult,
                     ExhibitSection, RegenReport, bench_spec,
                     bench_workloads_per_class)
from .registry import all_exhibits, exhibit_names, get_exhibit
from .table1 import run as table1
from .table2 import run as table2
from .figure1 import run as figure1
from .figure2 import run as figure2
from .figure3 import run as figure3
from .figure4 import run as figure4
from .figure5 import run as figure5
from .figure6 import run as figure6

__all__ = [
    "Campaign",
    "Exhibit",
    "ExhibitContext",
    "ExhibitResult",
    "ExhibitSection",
    "RegenReport",
    "bench_spec",
    "bench_workloads_per_class",
    "all_exhibits",
    "exhibit_names",
    "get_exhibit",
    "table1",
    "table2",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
]
