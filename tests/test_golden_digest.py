"""Golden-digest determinism tests.

``tests/data/golden_digests.json`` pins the sha256 digest of the canonical
``SimResult.to_dict()`` encoding for a small matrix of (workload, policy)
cells.  The digests were recorded with the *pre-optimization* pipeline
(before event-driven cycle skipping landed), so these tests prove the
optimized simulator produces bit-identical results: same cycle counts,
same per-thread counters, same L2 miss totals — not merely statistically
similar ones.

If a PR intentionally changes simulation semantics, re-record with::

    PYTHONPATH=src python tests/test_golden_digest.py --record

and bump ``repro.sim.store.CODE_VERSION_SALT`` in the same change (see
the salt-bump policy in :mod:`repro.sim.store`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import pytest

from repro.config import baseline
from repro.core.processor import SMTProcessor
from repro.sim.kernels import python_run_loop, resolve_run_loop
from repro.sim.store import canonical_json
from repro.trace.generator import generate_trace
from repro.trace.workloads import Workload

DATA_PATH = os.path.join(os.path.dirname(__file__), "data",
                         "golden_digests.json")

#: 48-byte lines at all three levels, each at three quarters of the
#: Table 1 size so the set counts stay powers of two: fetch, warm-up and
#: the caches all take line indices by floor division on a line size
#: that no shift can express.
_LINE48 = {level: dataclasses.replace(getattr(baseline(), level),
                                      size_bytes=size, assoc=assoc,
                                      line_bytes=48)
           for level, size, assoc in (("icache", 49_152, 4),
                                      ("dcache", 49_152, 4),
                                      ("l2", 786_432, 8))}

#: The pinned matrix: id -> (class, benchmarks, policy, trace_len,
#: min_passes, max_cycles[, config_overrides]).  Cells cover every
#: thread count, every workload class flavour, and every policy with
#: per-cycle behaviour (dcra / hill / mlp exercise the skip-horizon
#: logic; rat exercises runahead entry/exit across skips; the truncated
#: cell pins the max-cycles clamp).  The ``-mshr`` cells shrink the MSHR
#: file so rejected-load replay windows occur densely; the fast path
#: steps those windows (a replaying load is a live ready entry), and the
#: cells pin that stepping bit for bit.  The ``-line48`` cell was
#: recorded later than the rest, by a pipeline already skipping cycles.
GOLDEN_CELLS = {
    "single-mcf-icount": ("SINGLE", ("mcf",), "icount", 600, 3, 2_000_000),
    "mem2-icount": ("MEM2", ("art", "mcf"), "icount", 600, 1, 2_000_000),
    "mem2-stall": ("MEM2", ("art", "mcf"), "stall", 600, 1, 2_000_000),
    "mem2-flush": ("MEM2", ("art", "mcf"), "flush", 600, 1, 2_000_000),
    "mem2-rat": ("MEM2", ("art", "mcf"), "rat", 600, 1, 2_000_000),
    "mem2-dcra": ("MEM2", ("art", "mcf"), "dcra", 600, 1, 2_000_000),
    "mem2-hill": ("MEM2", ("art", "mcf"), "hill", 600, 1, 2_000_000),
    "mem2-mlp": ("MEM2", ("art", "mcf"), "mlp", 600, 1, 2_000_000),
    "mix2-stall": ("MIX2", ("bzip2", "mcf"), "stall", 600, 1, 2_000_000),
    "mix2-rat": ("MIX2", ("bzip2", "mcf"), "rat", 600, 1, 2_000_000),
    "ilp2-icount": ("ILP2", ("gzip", "bzip2"), "icount", 600, 1, 2_000_000),
    "mem4-stall": ("MEM4", ("applu", "art", "mcf", "twolf"), "stall",
                   500, 1, 2_000_000),
    "mem4-rat": ("MEM4", ("applu", "art", "mcf", "twolf"), "rat",
                 500, 1, 2_000_000),
    "mem2-stall-truncated": ("MEM2", ("swim", "mcf"), "stall",
                             600, 50, 3_000),
    "mem2-rat-mshr4": ("MEM2", ("art", "mcf"), "rat", 600, 1, 2_000_000,
                       {"mshr_entries": 4}),
    "mem2-icount-mshr2": ("MEM2", ("art", "mcf"), "icount", 600, 1,
                          2_000_000, {"mshr_entries": 2}),
    "mem4-rat-line48": ("MEM4", ("art", "mcf", "swim", "twolf"), "rat",
                        500, 1, 2_000_000, _LINE48),
}


def simulate_golden_cell(cell_id: str, kernel_tier: str = "python"):
    """Run one pinned cell from scratch (no engine, no cache).

    Under any ``kernel_tier`` but ``python`` the cell must resolve to a
    generated kernel: every golden cell is an in-package policy at <= 4
    threads, so a fallback to the python loop is a generator regression.
    """
    cell = GOLDEN_CELLS[cell_id]
    klass, benchmarks, policy, trace_len, min_passes, max_cycles = cell[:6]
    overrides = cell[6] if len(cell) > 6 else {}
    Workload(klass, tuple(benchmarks))  # validates the benchmark names
    traces = [generate_trace(name, trace_len, seed=1) for name in benchmarks]
    config = baseline().with_policy(policy, **overrides)
    processor = SMTProcessor(config, traces)
    if kernel_tier != "python":
        assert resolve_run_loop(processor.pipeline) is not python_run_loop, \
            f"{cell_id}: the {kernel_tier!r} tier fell back to python"
    return processor.run(min_passes=min_passes, max_cycles=max_cycles)


def digest_of(result) -> str:
    payload = canonical_json(result.to_dict())
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _load_golden():
    with open(DATA_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def golden():
    return _load_golden()


def test_golden_file_matches_matrix(golden):
    assert sorted(golden["digests"]) == sorted(GOLDEN_CELLS)


@pytest.fixture(params=["python", "specialized"])
def kernel_tier(request, monkeypatch):
    """Run the depending test once per kernel tier.

    ``python`` forces the portable loop; ``specialized`` leaves
    ``REPRO_KERNEL`` at its default, which resolves to the generated
    kernel.  The digests were recorded long before the specialized tier
    existed, so a pass under ``specialized`` proves the generated
    kernels are bit-identical to the original pipeline, not merely to
    each other.
    """
    if request.param == "python":
        monkeypatch.setenv("REPRO_KERNEL", "python")
    else:
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
    return request.param


@pytest.mark.parametrize("cell_id", sorted(GOLDEN_CELLS))
def test_simresult_bit_identical(golden, kernel_tier, cell_id):
    result = simulate_golden_cell(cell_id, kernel_tier)
    expected = golden["digests"][cell_id]
    actual = digest_of(result)
    assert actual == expected, (
        f"{cell_id}: SimResult diverged from the pre-optimization "
        f"pipeline under the {kernel_tier!r} kernel tier "
        f"(digest {actual} != {expected}).  If the semantic "
        f"change is intentional, re-record (see module docstring) and "
        f"bump CODE_VERSION_SALT.")


def test_truncated_cell_is_truncated():
    # The clamp cell must actually exercise the max_cycles path, or it
    # pins nothing about cycle-skip interaction with the cap.
    result = simulate_golden_cell("mem2-stall-truncated")
    assert result.truncated
    assert result.cycles == 3_000


def _record() -> None:
    digests = {}
    for cell_id in sorted(GOLDEN_CELLS):
        result = simulate_golden_cell(cell_id)
        digests[cell_id] = digest_of(result)
        print(f"{cell_id}: {digests[cell_id]} "
              f"(cycles={result.cycles}, truncated={result.truncated})")
    os.makedirs(os.path.dirname(DATA_PATH), exist_ok=True)
    with open(DATA_PATH, "w", encoding="utf-8") as handle:
        json.dump({"comment": "sha256 of canonical SimResult.to_dict(); "
                              "recorded with the pre-cycle-skipping "
                              "pipeline. Regenerate: PYTHONPATH=src python "
                              "tests/test_golden_digest.py --record",
                   "digests": digests},
                  handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {DATA_PATH}")


if __name__ == "__main__":
    import sys
    if "--record" in sys.argv:
        _record()
    else:
        print(__doc__)
