"""Persistent result stores and content-addressed cache keys.

The simulator is a pure function of (workload, policy, config, run spec):
the same cell always produces the same :class:`SimResult`, bit for bit.
That makes results content-addressable.  :func:`cache_key` hashes the
canonical JSON encoding of a cell (plus a code-version salt, bumped
whenever simulation semantics change) into a stable hex key, and the
stores below map those keys to results:

* :class:`MemoryStore` — a plain in-process dict (the default, matching
  the old per-process memoization);
* :class:`DiskStore` — one JSON file per result under a cache directory,
  fronted by a memory layer.  Writes are atomic (temp file + rename) so
  concurrent sweep processes sharing one cache directory are safe.

Because :meth:`SimResult.to_dict` contains no floats, a disk round trip
reconstructs results exactly; cached and freshly simulated campaigns are
indistinguishable.

Salt-bump policy (machine-checked)
----------------------------------
``CODE_VERSION_SALT`` participates in every cache key.  Bump it in the
same change whenever the simulator *could* produce a different
:class:`SimResult` for some cell — a timing-model change, a policy
behaviour change, a trace-generator change, a config-default change —
so stale on-disk entries silently miss instead of serving wrong
results.  Bump it even when golden-digest tests still pass on their
matrix (the matrix is a sample, not a proof), and whenever you
re-record ``tests/data/golden_digests.json``.

This policy is no longer enforced by this docstring alone: the
``salt-fingerprint`` rule of ``repro lint`` (see
:mod:`repro.analysis.fingerprint`) pins a normalized-AST fingerprint of
every salt-scoped module in ``repro/analysis/fingerprints.json`` and
**fails the lint gate** when a module's code changes without a bump of
its governing salt.  A pure-performance refactor whose bit-identity is
guaranteed by construction and verified by the golden digests may keep
the salt — re-pin the baseline with ``repro lint
--accept-fingerprints`` in the same change (and after any bump).  When
in doubt, bump: the only cost is one cold campaign, while a stale hit
is a wrong figure.  Old-salt entries stay on disk until ``repro cache
prune --stale-salts`` removes them.

History: ``v1`` engine introduction → ``v2`` event-driven cycle
skipping + hot-path rework (results verified bit-identical, but the
inner loop was rebuilt wholesale) → ``v3`` selective L2 warm-up groups
physical addresses into true L2 lines (changes cells whose L2 lines are
not a power of two bytes).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
from typing import Callable, Dict, Iterable, Iterator, Optional

from ..core.processor import SimResult

#: Bump whenever a change to the simulator alters (or could alter) what a
#: cell produces; see the salt-bump policy in the module docstring.
CODE_VERSION_SALT = "sim-engine-v3"

#: Render-cache counterpart of ``CODE_VERSION_SALT``: participates in
#: every exhibit render key (:func:`repro.sim.manifest.exhibit_render_key`).
#: Bump it whenever *presentation* changes — a renderer, section layout,
#: header or payload-shape change in ``experiments/`` — so cached
#: exhibit renderings (which skip assembly entirely) can never serve an
#: old look of a figure.  A change confined to one exhibit's ``assemble``
#: can bump that exhibit's ``version`` attribute instead, invalidating
#: only its own cache entries.  Simulation-semantics changes need no
#: render bump: the cell keys inside the render key already carry
#: ``CODE_VERSION_SALT``.
EXHIBIT_RENDER_SALT = "exhibit-render-v1"

#: Subdirectory of a ``--cache-dir`` holding the exhibit-render cache
#: (kept out of :class:`DiskStore` scans: those entries are renderings,
#: not simulation results).
EXHIBIT_DIR = "exhibits"


def atomic_write_json(path: str, payload, indent=None,
                      trailing_newline: bool = False) -> None:
    """Write JSON so readers never observe a torn file.

    The payload lands in a same-directory temp file first and is moved
    into place with ``os.replace`` — atomic on POSIX — so a concurrent
    reader (another sharded executor on the same ``--cache-dir``) sees
    either the complete old content, the complete new content, or no
    file; never a partial JSON document.  A crash mid-write leaves only
    a ``*.tmp`` orphan, which loaders and :meth:`DiskStore.entries`
    ignore.  Raises ``OSError`` on failure after discarding the temp
    file; callers decide whether persistence is best-effort.
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=indent)
            if trailing_newline:
                handle.write("\n")
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def canonical_json(payload) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def result_checksum(result: Dict) -> str:
    """sha256 of a stored result's canonical JSON: an entry whose
    payload was edited under its own key no longer matches it."""
    return hashlib.sha256(canonical_json(result).encode("utf-8")).hexdigest()


def cache_key(workload, policy, config, spec,
              salt: str = CODE_VERSION_SALT) -> str:
    """Stable content hash identifying one simulation cell."""
    payload = {
        "workload": workload.to_dict(),
        "policy": policy,
        "config": config.to_dict(),
        "spec": spec.to_dict(),
        "salt": salt,
    }
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8"))
    return digest.hexdigest()


class ResultStore:
    """Base store: counts hits/misses/puts around subclass storage."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.puts = 0

    def get(self, key: str) -> Optional[SimResult]:
        result = self._load(key)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def put(self, key: str, result: SimResult) -> None:
        self.puts += 1
        self._save(key, result)

    def contains(self, key: str) -> bool:
        """Whether the store (probably) holds ``key`` — without loading.

        The execute-only stage of a sharded campaign only needs to know
        *that* a result exists, not what it is; subclasses answer from
        metadata (an existence check) instead of parsing the payload.
        A corrupt on-disk entry may answer ``True`` here and still miss
        on :meth:`get` — the assembling invocation then re-simulates
        that cell, so correctness never depends on this answer.
        """
        return self._load(key) is not None

    def clear(self) -> None:
        raise NotImplementedError

    def _load(self, key: str) -> Optional[SimResult]:
        raise NotImplementedError

    def _save(self, key: str, result: SimResult) -> None:
        raise NotImplementedError


class MemoryStore(ResultStore):
    """In-process dict store (per-process memoization)."""

    def __init__(self) -> None:
        super().__init__()
        self._results: Dict[str, SimResult] = {}

    def __len__(self) -> int:
        return len(self._results)

    def clear(self) -> None:
        self._results.clear()

    def contains(self, key: str) -> bool:
        return key in self._results

    def _load(self, key: str) -> Optional[SimResult]:
        return self._results.get(key)

    def _save(self, key: str, result: SimResult) -> None:
        self._results[key] = result


@dataclasses.dataclass(frozen=True)
class CacheEntry:
    """Metadata of one on-disk result (``repro cache`` bookkeeping)."""

    key: str
    path: str
    salt: Optional[str]   # None when the payload is unreadable/corrupt
    mtime: float
    size_bytes: int


@dataclasses.dataclass
class PruneResult:
    """Outcome of a :meth:`DiskStore.prune` pass."""

    examined: int = 0
    removed: int = 0
    bytes_freed: int = 0
    kept: int = 0


def _pool_stats(root: str, entries: Iterable[CacheEntry], current_salt: str,
                mtime_range: bool) -> Dict:
    """Entry and byte totals of one cache pool, grouped by salt
    (``<corrupt>`` for unreadable payloads); ``mtime_range`` adds the
    oldest and newest entry mtimes."""
    per_salt: Dict[str, Dict[str, int]] = {}
    total_entries = 0
    total_bytes = 0
    oldest: Optional[float] = None
    newest: Optional[float] = None
    for entry in entries:
        label = entry.salt if entry.salt is not None else "<corrupt>"
        bucket = per_salt.setdefault(label, {"entries": 0, "bytes": 0})
        bucket["entries"] += 1
        bucket["bytes"] += entry.size_bytes
        total_entries += 1
        total_bytes += entry.size_bytes
        oldest = entry.mtime if oldest is None else min(oldest, entry.mtime)
        newest = entry.mtime if newest is None else max(newest, entry.mtime)
    stats = {"root": root, "current_salt": current_salt,
             "entries": total_entries, "bytes": total_bytes}
    if mtime_range:
        stats["oldest_mtime"] = oldest
        stats["newest_mtime"] = newest
    stats["by_salt"] = per_salt
    return stats


def _prune_pool(entries: Callable[..., Iterator[CacheEntry]],
                current_salt: str, stale_salts: bool,
                older_than_days: Optional[float], now: Optional[float],
                dry_run: bool,
                on_remove: Optional[Callable[[CacheEntry], None]] = None
                ) -> PruneResult:
    """Delete a pool's entries under a salt other than ``current_salt``
    and/or older than ``older_than_days``; ``on_remove`` runs after each
    deletion.  See :meth:`DiskStore.prune` for the arguments."""
    if not stale_salts and older_than_days is None:
        raise ValueError(
            "prune needs a criterion: stale_salts and/or "
            "older_than_days")
    # Pruning is genuinely wall-clock maintenance (entry age), not
    # simulation semantics; tests pin `now`.
    reference = time.time() if now is None else now  # lint: disable=determinism-hazard
    cutoff = (reference - older_than_days * 86400.0
              if older_than_days is not None else None)
    outcome = PruneResult()
    for entry in entries(need_salt=stale_salts):
        outcome.examined += 1
        doomed = (stale_salts and entry.salt != current_salt) or \
                 (cutoff is not None and entry.mtime < cutoff)
        if not doomed:
            outcome.kept += 1
            continue
        if not dry_run:
            try:
                os.unlink(entry.path)
            except OSError:
                outcome.kept += 1
                continue
            if on_remove is not None:
                on_remove(entry)
        outcome.removed += 1
        outcome.bytes_freed += entry.size_bytes
    return outcome


class DiskStore(ResultStore):
    """JSON-file store under ``root``, fronted by a memory layer.

    Layout: ``root/<key[:2]>/<key>.json`` (fan-out keeps directories
    small on big campaigns).  Unreadable or corrupt entries are treated
    as misses, never as errors.
    """

    def __init__(self, root: str) -> None:
        super().__init__()
        self.root = root
        self._memory: Dict[str, SimResult] = {}
        os.makedirs(self.root, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    def contains(self, key: str) -> bool:
        """Existence check only — no read, parse or memory-layer fill.

        Keeps re-running a shard over a populated shared store at
        ``os.stat`` cost per cell instead of loading every result.
        """
        return key in self._memory or os.path.exists(self._path(key))

    def _walk(self):
        """Walk the result entries, skipping the exhibit-render cache.

        Both levels are sorted so every scan-derived report (``stats``,
        ``prune`` logs, ``__len__`` tie-breaks) is independent of
        filesystem enumeration order.
        """
        for dirpath, dirnames, filenames in os.walk(self.root):
            if dirpath == self.root and EXHIBIT_DIR in dirnames:
                dirnames.remove(EXHIBIT_DIR)
            dirnames.sort()
            yield dirpath, dirnames, sorted(filenames)

    def __len__(self) -> int:
        count = 0
        for _dirpath, _dirnames, filenames in self._walk():
            count += sum(1 for name in filenames if name.endswith(".json"))
        return count

    def clear(self) -> None:
        """Drop the memory layer (disk entries persist by design)."""
        self._memory.clear()

    def _load(self, key: str) -> Optional[SimResult]:
        cached = self._memory.get(key)
        if cached is not None:
            return cached
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                data = json.load(handle)
            if data["key"] != key or data["salt"] != CODE_VERSION_SALT \
                    or data.get("checksum") != result_checksum(
                        data["result"]):
                # Misfiled (copied or renamed under another cell's key),
                # written by other code, or edited after it was written:
                # serving it would hand this cell someone else's result.
                return None
            result = SimResult.from_dict(data["result"])
        except (OSError, ValueError, KeyError, TypeError):
            return None
        self._memory[key] = result
        return result

    # --- maintenance (the `repro cache` subcommand) -----------------------

    def entries(self, need_salt: bool = True) -> Iterator[CacheEntry]:
        """Scan the on-disk entries (metadata only, memory layer aside).

        Reading the salt means parsing every payload; callers that only
        need file metadata (age-based pruning) pass ``need_salt=False``
        to keep the scan at ``os.stat`` cost.  An entry that fails its
        checksum (or has none) reports ``salt=None``, like unreadable
        JSON: it can never hit.
        """
        for dirpath, _dirnames, filenames in self._walk():
            for filename in filenames:
                if not filename.endswith(".json"):
                    continue
                path = os.path.join(dirpath, filename)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                salt: Optional[str] = None
                if need_salt:
                    try:
                        with open(path, "r", encoding="utf-8") as handle:
                            payload = json.load(handle)
                        if payload.get("checksum") == result_checksum(
                                payload.get("result")):
                            salt = payload.get("salt")
                    except (OSError, ValueError, AttributeError):
                        salt = None
                yield CacheEntry(key=filename[:-len(".json")], path=path,
                                 salt=salt, mtime=stat.st_mtime,
                                 size_bytes=stat.st_size)

    def stats(self) -> Dict:
        """Aggregate store statistics, grouped by code-version salt."""
        return _pool_stats(self.root, self.entries(), CODE_VERSION_SALT,
                           mtime_range=True)

    def prune(self, stale_salts: bool = False,
              older_than_days: Optional[float] = None,
              now: Optional[float] = None,
              dry_run: bool = False) -> PruneResult:
        """Delete entries written under old salts and/or too long ago.

        Args:
            stale_salts: Remove entries whose payload salt differs from
                the current ``CODE_VERSION_SALT`` (including corrupt
                payloads, which can never hit anyway).
            older_than_days: Remove entries whose mtime is older than
                this many days.
            now: Reference timestamp for the age test (defaults to
                ``time.time()``; tests pin it).
            dry_run: Count what would go without deleting anything.

        An entry is removed when it matches *any* enabled criterion.
        At least one criterion must be enabled.
        """
        return _prune_pool(
            self.entries, CODE_VERSION_SALT, stale_salts, older_than_days,
            now, dry_run,
            on_remove=lambda entry: self._memory.pop(entry.key, None))

    def _save(self, key: str, result: SimResult) -> None:
        # Persisting is best-effort: the result is already in hand (and
        # in the memory layer), so a full disk or read-only cache must
        # not abort a campaign — it just forfeits reuse of this entry.
        # The atomic temp-file + os.replace protocol is what lets N
        # sharded executors share one cache directory: a reader can
        # never observe a torn entry, only a hit or a miss.
        self._memory[key] = result
        data = result.to_dict()
        payload = {"key": key, "salt": CODE_VERSION_SALT, "result": data,
                   "checksum": result_checksum(data)}
        try:
            atomic_write_json(self._path(key), payload)
        except OSError:
            pass


class ExhibitRenderCache:
    """Persisted exhibit renderings, keyed by planned-cell-set hash.

    Entries live beside (not inside) a :class:`DiskStore`'s result
    fan-out, under ``root/``.  Each holds one
    ``ExhibitResult.to_dict()`` payload keyed by
    :func:`repro.sim.manifest.exhibit_render_key` — a sha256 of the
    exhibit's planned cell-key set, its ``version``, the assembly
    context and ``EXHIBIT_RENDER_SALT`` — so a hit proves the exhibit
    would assemble to exactly this document and ``repro all`` can skip
    untouched figures without reading a single run.  Writes use the same
    atomic protocol as the result store; unreadable entries are misses.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self.hits = 0
        self.misses = 0
        self.puts = 0
        os.makedirs(self.root, exist_ok=True)

    def _path(self, render_key: str) -> str:
        return os.path.join(self.root, render_key + ".json")

    def __len__(self) -> int:
        return sum(1 for _ in self.entries(need_salt=False))

    def get(self, render_key: str) -> Optional[Dict]:
        """The cached ``ExhibitResult.to_dict()`` payload, or ``None``."""
        try:
            with open(self._path(render_key), "r",
                      encoding="utf-8") as handle:
                payload = json.load(handle)
            document = payload["result"]
            if not isinstance(document, dict):
                raise ValueError("malformed cache entry")
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return document

    def put(self, render_key: str, document: Dict) -> None:
        """Persist one rendering (best-effort, atomic)."""
        self.puts += 1
        payload = {"render_key": render_key,
                   "salt": EXHIBIT_RENDER_SALT,
                   "result": document}
        try:
            atomic_write_json(self._path(render_key), payload)
        except OSError:
            pass

    # --- maintenance (the `repro cache` subcommand) -----------------------
    #
    # Render entries are never invalidated in place — a presentation
    # change bumps EXHIBIT_RENDER_SALT (or an exhibit's version) and the
    # old keys simply stop being asked for — so without pruning the pool
    # grows one orphan per superseded rendering, forever.  Same scan /
    # stats / prune contract as DiskStore, against the render salt.

    def entries(self, need_salt: bool = True) -> Iterator[CacheEntry]:
        """Scan the cached renderings (metadata only), in key order."""
        try:
            filenames = sorted(os.listdir(self.root))
        except OSError:
            return
        for filename in filenames:
            if not filename.endswith(".json"):
                continue
            path = os.path.join(self.root, filename)
            try:
                stat = os.stat(path)
            except OSError:
                continue
            salt: Optional[str] = None
            if need_salt:
                try:
                    with open(path, "r", encoding="utf-8") as handle:
                        payload = json.load(handle)
                    salt = payload.get("salt")
                except (OSError, ValueError):
                    salt = None
            yield CacheEntry(key=filename[:-len(".json")], path=path,
                             salt=salt, mtime=stat.st_mtime,
                             size_bytes=stat.st_size)

    def stats(self) -> Dict:
        """Aggregate render-pool statistics, grouped by render salt."""
        return _pool_stats(self.root, self.entries(), EXHIBIT_RENDER_SALT,
                           mtime_range=False)

    def prune(self, stale_salts: bool = False,
              older_than_days: Optional[float] = None,
              now: Optional[float] = None,
              dry_run: bool = False) -> PruneResult:
        """Delete renderings under old salts and/or written too long ago.

        Same semantics as :meth:`DiskStore.prune`, with staleness judged
        against ``EXHIBIT_RENDER_SALT`` (corrupt payloads count as
        stale — they can never hit).
        """
        return _prune_pool(self.entries, EXHIBIT_RENDER_SALT, stale_salts,
                           older_than_days, now, dry_run)
