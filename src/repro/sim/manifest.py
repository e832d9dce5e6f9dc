"""Campaign manifests: the serializable *plan* stage of a campaign.

A :class:`CampaignManifest` names **what a campaign will run**
independently of running it: one content-addressed
:class:`ManifestEntry` per deduplicated simulation cell (store key, the
cell itself, a cost estimate, the exhibits that consume it) plus one
:class:`ExhibitPlan` per requested exhibit (its planned cell-key set and
the render-cache key derived from it).  The manifest round-trips through
JSON (``repro plan``), which is what makes the three-stage dataflow
shardable:

* **plan** — ``Campaign.plan()`` emits the manifest; it is a pure
  function of the exhibit set and context, so every machine planning
  the same campaign derives the same manifest;
* **execute** — each worker runs the cells of
  ``manifest.filter_shard(ShardSpec(k, n))`` into a shared
  :class:`~repro.sim.store.DiskStore` (``SimEngine.execute_cells``); the
  K/N filter hashes only the entry keys, so shards are disjoint,
  exhaustive and machine-independent;
* **assemble** — any machine turns ``(manifest, store)`` into rendered
  exhibits; per-exhibit ``render_key`` values let untouched figures be
  served from the exhibit-render cache without touching a single run.

Entries are stored in engine submission order (costliest first), so an
executor replaying a manifest drains a worker pool exactly like the
in-process planner would.

Stale manifests fail loudly: every entry key is recomputed on load and
compared against the recorded one, so a manifest planned under a
different code-version salt (or edited by hand) raises
:class:`~repro.errors.ManifestError` instead of silently executing the
wrong cells.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..config import SMTConfig
from ..errors import ManifestError
from ..trace.workloads import Workload
from .engine import SweepCell
from .runner import RunSpec
from .store import CODE_VERSION_SALT, EXHIBIT_RENDER_SALT, canonical_json

#: Manifest document schema identifier.
MANIFEST_SCHEMA = "repro-manifest-v1"

#: How many leading hex digits of a cell key feed the shard residue.
#: 16 digits = 64 bits, far beyond any campaign size; the prefix (not
#: the whole 256-bit digest) keeps the arithmetic cheap and the
#: assignment trivially reproducible in shell/CI tooling.
_SHARD_HEX_DIGITS = 16


def exhibit_render_key(name: str, version: int,
                       cell_keys: Sequence[str],
                       context: Dict,
                       salt: str = EXHIBIT_RENDER_SALT) -> str:
    """Cache key of one exhibit's rendered output.

    Hashes the exhibit's identity, its per-exhibit ``version``, the
    global render salt, the *sorted* planned cell-key set (the cells'
    keys already capture workload/policy/config/spec and the simulator
    code version) and the assembly context.  The context matters even
    though it determines the cell set: e.g. reordering ``--classes``
    keeps the same cells but permutes every table's columns.
    """
    payload = {
        "exhibit": name,
        "version": version,
        "salt": salt,
        "cells": sorted(cell_keys),
        "context": context,
    }
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8"))
    return digest.hexdigest()


@dataclasses.dataclass(frozen=True)
class ManifestEntry:
    """One planned cell: store key, the cell, cost, owning exhibits."""

    key: str
    cell: SweepCell
    cost: Tuple[int, int]
    exhibits: Tuple[str, ...]

    def to_dict(self) -> Dict:
        return {
            "key": self.key,
            "workload": self.cell.workload.to_dict(),
            "policy": self.cell.policy,
            "config": self.cell.config.to_dict(),
            "spec": self.cell.spec.to_dict(),
            "cost": list(self.cost),
            "exhibits": list(self.exhibits),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ManifestEntry":
        cell = SweepCell(workload=Workload.from_dict(data["workload"]),
                         policy=data["policy"],
                         config=SMTConfig.from_dict(data["config"]),
                         spec=RunSpec.from_dict(data["spec"]))
        recomputed = cell.key()
        if recomputed != data["key"]:
            raise ManifestError(
                f"stale manifest entry: recorded key {data['key'][:12]}… "
                f"but this code computes {recomputed[:12]}… (planned "
                f"under a different code-version salt?) — re-run "
                f"'repro plan'")
        return cls(key=recomputed, cell=cell,
                   cost=tuple(data["cost"]),
                   exhibits=tuple(data["exhibits"]))


@dataclasses.dataclass(frozen=True)
class ExhibitPlan:
    """One exhibit's slice of the campaign, as planned."""

    name: str
    title: str
    version: int
    cell_keys: Tuple[str, ...]   # sorted
    render_key: str

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "title": self.title,
            "version": self.version,
            "cells": list(self.cell_keys),
            "render_key": self.render_key,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ExhibitPlan":
        return cls(name=data["name"], title=data["title"],
                   version=data["version"],
                   cell_keys=tuple(data["cells"]),
                   render_key=data["render_key"])


@dataclasses.dataclass(frozen=True)
class ShardSpec:
    """One machine's deterministic slice of a campaign: shard K of N."""

    index: int   # 1-based, 1 <= index <= count
    count: int

    def __post_init__(self) -> None:
        if self.count < 1 or not 1 <= self.index <= self.count:
            raise ManifestError(
                f"invalid shard {self.index}/{self.count}: need "
                f"1 <= K <= N")

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse the CLI form ``K/N`` (e.g. ``2/4``).

        Out-of-range values (``0/4``, ``5/4``) raise from
        ``__post_init__`` and pass through untouched.
        """
        try:
            index_text, count_text = text.split("/", 1)
            return cls(int(index_text), int(count_text))
        except ValueError:
            raise ManifestError(
                f"invalid --shard {text!r}: expected K/N, e.g. 2/4"
            ) from None

    def owns(self, key: str) -> bool:
        """Whether this shard is responsible for a cell key.

        Assignment hashes the key's leading hex digits into a residue
        class, so it depends only on the key text — every machine, CI
        job and Python version agrees on the split.
        """
        return int(key[:_SHARD_HEX_DIGITS], 16) % self.count == \
            self.index - 1

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


@dataclasses.dataclass(frozen=True)
class CampaignManifest:
    """The complete, serializable plan of one campaign.

    Behaves as a sequence of :class:`SweepCell` in engine submission
    order, so anything that consumed the old ``Campaign.plan()`` list
    (``engine.run_cells(manifest)``, ``RunIndex.from_runs(manifest,
    runs)``) works unchanged — and additionally carries the keys, costs,
    exhibit ownership and render-cache identities that make the plan a
    shippable artifact.
    """

    entries: Tuple[ManifestEntry, ...]
    exhibits: Tuple[ExhibitPlan, ...]
    context: Dict
    salt: str = CODE_VERSION_SALT
    shard: Optional[str] = None   # "K/N" once filtered, else None

    # -- sequence-of-cells behaviour (the engine batch) -------------------

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[SweepCell]:
        return (entry.cell for entry in self.entries)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [entry.cell for entry in self.entries[index]]
        return self.entries[index].cell

    def cells(self) -> List[SweepCell]:
        """The planned cells, costliest first."""
        return [entry.cell for entry in self.entries]

    def keys(self) -> List[str]:
        """The content-addressed store keys, in batch order."""
        return [entry.key for entry in self.entries]

    # -- exhibit views ----------------------------------------------------

    def exhibit_plan(self, name: str) -> ExhibitPlan:
        for plan in self.exhibits:
            if plan.name == name:
                return plan
        raise ManifestError(f"exhibit {name!r} is not in this manifest "
                            f"(has: {[p.name for p in self.exhibits]})")

    def exhibit_cells(self, name: str) -> List[SweepCell]:
        """One exhibit's cells, in batch order."""
        wanted = set(self.exhibit_plan(name).cell_keys)
        return [entry.cell for entry in self.entries
                if entry.key in wanted]

    def total_cost(self) -> int:
        """Sum of the entries' primary cost weights (work estimate)."""
        return sum(entry.cost[0] for entry in self.entries)

    # -- sharding ---------------------------------------------------------

    def filter_shard(self, shard: ShardSpec) -> "CampaignManifest":
        """This shard's deterministic slice of the manifest.

        Filters entries by key hash (:meth:`ShardSpec.owns`); the K
        slices of a campaign are disjoint and their union is the whole
        manifest.  Exhibit plans and render keys are kept verbatim —
        they describe the campaign, not the slice.
        """
        if self.shard is not None:
            raise ManifestError(
                f"manifest is already shard {self.shard}; shard the "
                f"full manifest instead")
        return dataclasses.replace(
            self,
            entries=tuple(entry for entry in self.entries
                          if shard.owns(entry.key)),
            shard=str(shard))

    # -- JSON round trip --------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "schema": MANIFEST_SCHEMA,
            "salt": self.salt,
            "shard": self.shard,
            "context": self.context,
            "cells": [entry.to_dict() for entry in self.entries],
            "exhibits": [plan.to_dict() for plan in self.exhibits],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CampaignManifest":
        if data.get("schema") != MANIFEST_SCHEMA:
            raise ManifestError(
                f"not a {MANIFEST_SCHEMA} document "
                f"(schema: {data.get('schema')!r})")
        if data.get("salt") != CODE_VERSION_SALT:
            raise ManifestError(
                f"manifest was planned under code-version salt "
                f"{data.get('salt')!r}, this code is "
                f"{CODE_VERSION_SALT!r} — re-run 'repro plan'")
        return cls(
            entries=tuple(ManifestEntry.from_dict(entry)
                          for entry in data["cells"]),
            exhibits=tuple(ExhibitPlan.from_dict(plan)
                           for plan in data["exhibits"]),
            context=data["context"],
            salt=data["salt"],
            shard=data.get("shard"),
        )

    def to_json(self) -> str:
        """Stable JSON text (round-trips through :meth:`from_json`)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CampaignManifest":
        try:
            data = json.loads(text)
        except ValueError as error:
            raise ManifestError(f"manifest is not valid JSON: {error}") \
                from None
        if not isinstance(data, dict):
            raise ManifestError("manifest must be a JSON object")
        return cls.from_dict(data)
