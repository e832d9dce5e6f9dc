"""Correctness of every operation, and what was measured.

* Digests are computed the way ``tests/test_golden_digest.py`` does:
  sha256 of the canonical JSON of ``SimResult.to_dict()`` for a cell,
  and of ``ExhibitResult.to_dict()`` for an exhibit.
* ``pins.json`` holds the digests recorded at a known-good revision for
  a few seeds per workload size.  A pinned cell or exhibit whose digest
  differs fails.  An unpinned one (a held-out seed) fails if its run was
  truncated, a thread did not finish its FAME passes, or
  ``pipeline.check_invariants()`` raised; its digests are printed so two
  revisions can be diffed.
* Provenance stamps every result set with the source tree it measured.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import subprocess
from typing import Dict, Iterator, List, Mapping, Optional

from repro.sim.store import canonical_json

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")

#: Knobs that change what the package runs.  A measuring run refuses to
#: start while any is set, so defaults are what gets measured; the
#: ablations set REPRO_KERNEL / REPRO_SPECULATE themselves and restore
#: them (:func:`knob`).
KNOBS = ("REPRO_KERNEL", "REPRO_SPECULATE", "REPRO_FULL",
         "REPRO_BENCH_WORKLOADS")


def digest(document: Mapping) -> str:
    """sha256 of a result's canonical JSON (``to_dict()`` output)."""
    return hashlib.sha256(canonical_json(document).encode("utf-8")).hexdigest()


def set_knobs() -> List[str]:
    """The package knobs currently set in the environment."""
    return [name for name in KNOBS if name in os.environ]


@contextlib.contextmanager
def knob(name: Optional[str], value: str = "") -> Iterator[None]:
    """Set one package knob for a block, then restore it (None: no-op)."""
    if name is None:
        yield
        return
    previous = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if previous is None:
            del os.environ[name]
        else:
            os.environ[name] = previous


class Pins:
    """Pinned digests: ``{pin_key: {trace_seed: digest-or-document}}``."""

    def __init__(self, data: Optional[Dict] = None,
                 path: str = PINS_PATH) -> None:
        if data is None:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        self.path = path
        self.data = data

    def get(self, pin_key: str, trace_seed: int):
        return self.data.get(pin_key, {}).get(str(trace_seed))

    def put(self, pin_key: str, trace_seed: int, value) -> None:
        self.data.setdefault(pin_key, {})[str(trace_seed)] = value

    def save(self) -> None:
        with open(self.path, "w", encoding="utf-8") as handle:
            json.dump(self.data, handle, indent=1, sort_keys=True)
            handle.write("\n")


def cell_failure(record: Mapping, cell_digest: str,
                 pinned: Optional[str]) -> str:
    """Why one simulated cell failed, or "" if it passed."""
    if pinned is not None and pinned != cell_digest:
        return f"digest {cell_digest} != pin {pinned}"
    if record["truncated"]:
        return "truncated at the cycle cap"
    if not record["passes_ok"]:
        return "a thread did not finish its FAME passes"
    if record["invariant_error"]:
        return f"check_invariants: {record['invariant_error']}"
    return ""


def _git(root: str, *args: str) -> Optional[str]:
    # A directory in a repository or submodule, or a worktree's file;
    # never an enclosing repository the checkout happens to sit in.
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        completed = subprocess.run(("git",) + args, cwd=root, timeout=30,
                                   capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def source_digest(src: str) -> str:
    """sha256 over every .py/.json file under ``src`` (path + bytes).

    Identifies the measured tree where git cannot (the checkout a
    benchmark runs in need not be a repository).
    """
    sha = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith((".py", ".json")):
                path = os.path.join(dirpath, filename)
                sha.update(os.path.relpath(path, src).encode("utf-8"))
                with open(path, "rb") as handle:
                    sha.update(handle.read())
    return sha.hexdigest()


def provenance(root: str, seed: int, tiers: List[str]) -> Dict[str, object]:
    """What was measured, where: revision, dirty flag, interpreter,
    cores, and how many cells resolved to each kernel tier (the tier of
    every cell is on its report line and in the report file)."""
    status = _git(root, "status", "--porcelain", "--", "src")
    return {
        "revision": _git(root, "rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "src_sha256": source_digest(os.path.join(root, "src")),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "tiers": {tier: tiers.count(tier) for tier in sorted(set(tiers))},
    }
