"""Trace-content pins for every benchmark profile.

``tests/data/trace_digests.json`` holds, for each of the 24 benchmark
profiles at a short and a long (length, seed) point, the sha256 of every
trace column's dtype and raw bytes, the column converted to its numpy
dtype in :data:`DTYPES`.  The golden simulation digests only
exercise a handful of benchmarks, so a generator change that drifts on
an FP- or pointer-chase-heavy profile none of them runs would pass
those; this file catches it and names the benchmark, point and column.

If a change intentionally alters trace generation, re-record with::

    PYTHONPATH=src python tests/test_trace_digests.py --record

and bump ``repro.sim.store.CODE_VERSION_SALT`` in the same change.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from repro.trace.generator import TraceGenerator
from repro.trace.profiles import benchmark_names, get_profile
from repro.trace.trace import Trace

DATA_PATH = os.path.join(os.path.dirname(__file__), "data",
                         "trace_digests.json")

#: (length, seed) points: one short trace and one at the stall-mem2
#: benchmark length, each with its own seed.
POINTS = ((1000, 1), (12000, 2001))

#: The numpy dtype each column is digested as (the pins were recorded
#: when ``Trace`` stored its columns as arrays of these dtypes).
DTYPES = {
    "op": np.int8,
    "dest": np.int16,
    "src1": np.int16,
    "src2": np.int16,
    "addr": np.int64,
    "taken": np.bool_,
    "pc": np.int64,
}
COLUMNS = tuple(DTYPES)


def point_id(length: int, seed: int) -> str:
    return f"len{length}-seed{seed}"


def column_digests(trace: Trace):
    digests = {}
    for column in COLUMNS:
        array = np.asarray(getattr(trace, column), dtype=DTYPES[column])
        digest = hashlib.sha256(array.dtype.str.encode("ascii"))
        digest.update(array.tobytes())
        digests[column] = digest.hexdigest()
    return digests


def generate(name: str, length: int, seed: int) -> Trace:
    # The generator itself, not the memoized/primed generate_trace.
    return TraceGenerator(get_profile(name), length, seed).generate()


@pytest.fixture(scope="module")
def pinned():
    with open(DATA_PATH, encoding="utf-8") as handle:
        return json.load(handle)["digests"]


def test_pins_cover_every_benchmark(pinned):
    expected = sorted(point_id(*point) for point in POINTS)
    for name in benchmark_names():
        assert sorted(pinned.get(name, {})) == expected, name
    assert sorted(pinned) == sorted(benchmark_names())


@pytest.mark.parametrize("length,seed", POINTS,
                         ids=[point_id(*point) for point in POINTS])
def test_trace_columns_bit_identical(pinned, length, seed):
    point = point_id(length, seed)
    mismatches = []
    for name in benchmark_names():
        actual = column_digests(generate(name, length, seed))
        expected = pinned[name][point]
        mismatches.extend(
            f"benchmark={name} length={length} seed={seed} "
            f"column={column}"
            for column in COLUMNS if actual[column] != expected[column])
    assert not mismatches, "trace content drifted:\n" + "\n".join(mismatches)


def _record() -> None:
    digests = {}
    for name in benchmark_names():
        digests[name] = {
            point_id(length, seed): column_digests(
                generate(name, length, seed))
            for length, seed in POINTS}
        print(f"{name}: recorded {len(POINTS)} points")
    with open(DATA_PATH, "w", encoding="utf-8") as handle:
        json.dump({"comment": "sha256 of each trace column's dtype string "
                              "then raw bytes. Regenerate: PYTHONPATH=src "
                              "python tests/test_trace_digests.py --record",
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
