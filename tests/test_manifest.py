"""Campaign manifests: JSON round trip, sharding, render keys.

The manifest is the serializable *plan* stage of the
plan -> execute -> assemble dataflow (ISSUE 5): planning must be a pure
function of (exhibits, context); the JSON form must round-trip exactly;
the K/N shard filter must partition the entries deterministically; and
the per-exhibit render keys must move whenever the assembled output
could.
"""

import dataclasses
import json

import pytest

from repro.errors import ManifestError
from repro.experiments import Campaign, ExhibitContext
from repro.experiments.registry import get_exhibit
from repro.sim.engine import SimEngine
from repro.sim.manifest import (MANIFEST_SCHEMA, CampaignManifest,
                                ShardSpec, exhibit_render_key)
from repro.sim.runner import RunSpec

TINY = RunSpec(trace_len=200, seed=3, max_cycles=200_000)
CTX = ExhibitContext.make(spec=TINY, classes=("MEM2",),
                          workloads_per_class=1)


@pytest.fixture(scope="module")
def manifest():
    return Campaign(["figure1", "figure3"], ctx=CTX,
                    engine=SimEngine()).plan()


class TestManifestShape:
    def test_sequence_of_cells(self, manifest):
        cells = manifest.cells()
        assert len(manifest) == len(cells) > 0
        assert list(manifest) == cells
        assert manifest[0] == cells[0]
        assert manifest[1:3] == cells[1:3]

    def test_entries_are_deduplicated_and_keyed(self, manifest):
        keys = manifest.keys()
        assert len(set(keys)) == len(keys)
        for entry in manifest.entries:
            assert entry.key == entry.cell.key()
            assert entry.exhibits  # every cell has at least one owner

    def test_cost_ordering_matches_engine_submission(self, manifest):
        costs = [entry.cost for entry in manifest.entries]
        assert costs == sorted(costs, reverse=True)

    def test_exhibit_views(self, manifest):
        plan = manifest.exhibit_plan("figure1")
        assert plan.cell_keys == tuple(sorted(plan.cell_keys))
        cells = manifest.exhibit_cells("figure1")
        assert {cell.key() for cell in cells} == set(plan.cell_keys)
        with pytest.raises(ManifestError):
            manifest.exhibit_plan("figure9")

    def test_planning_is_deterministic(self):
        first = Campaign(["figure1", "figure3"], ctx=CTX,
                         engine=SimEngine()).plan()
        second = Campaign(["figure1", "figure3"], ctx=CTX,
                          engine=SimEngine()).plan()
        assert first.to_json() == second.to_json()


class TestJsonRoundTrip:
    def test_round_trips_byte_identically(self, manifest):
        text = manifest.to_json()
        clone = CampaignManifest.from_json(text)
        assert clone.to_json() == text
        assert clone.keys() == manifest.keys()
        assert [entry.cell for entry in clone.entries] == \
            [entry.cell for entry in manifest.entries]

    def test_schema_is_stamped(self, manifest):
        assert json.loads(manifest.to_json())["schema"] == MANIFEST_SCHEMA

    def test_rejects_garbage(self):
        with pytest.raises(ManifestError):
            CampaignManifest.from_json("{not json")
        with pytest.raises(ManifestError):
            CampaignManifest.from_json("[1, 2]")
        with pytest.raises(ManifestError):
            CampaignManifest.from_json('{"schema": "other"}')

    def test_rejects_foreign_salt(self, manifest):
        data = json.loads(manifest.to_json())
        data["salt"] = "sim-engine-v0"
        with pytest.raises(ManifestError, match="salt"):
            CampaignManifest.from_dict(data)

    def test_rejects_tampered_entry(self, manifest):
        # An edited cell no longer hashes to its recorded key: the
        # manifest must fail loudly instead of executing the wrong cell.
        data = json.loads(manifest.to_json())
        data["cells"][0]["spec"]["trace_len"] += 1
        with pytest.raises(ManifestError, match="stale"):
            CampaignManifest.from_dict(data)


class TestSharding:
    @pytest.mark.parametrize("count", [2, 3, 5])
    def test_shards_partition_the_manifest(self, manifest, count):
        slices = [manifest.filter_shard(ShardSpec(k, count))
                  for k in range(1, count + 1)]
        keys = [key for piece in slices for key in piece.keys()]
        assert sorted(keys) == sorted(manifest.keys())  # disjoint union

    def test_shard_is_recorded_and_final(self, manifest):
        piece = manifest.filter_shard(ShardSpec(1, 2))
        assert piece.shard == "1/2"
        assert json.loads(piece.to_json())["shard"] == "1/2"
        with pytest.raises(ManifestError):
            piece.filter_shard(ShardSpec(1, 2))

    def test_single_shard_is_the_whole_campaign(self, manifest):
        assert manifest.filter_shard(ShardSpec(1, 1)).keys() == \
            manifest.keys()

    def test_shard_round_trips(self, manifest):
        piece = manifest.filter_shard(ShardSpec(2, 3))
        clone = CampaignManifest.from_json(piece.to_json())
        assert clone.keys() == piece.keys()
        assert clone.shard == "2/3"


class TestRenderKeys:
    def test_class_order_changes_render_key(self):
        # Reordering --classes keeps the same cell set but permutes
        # every table's columns — the render key must move.
        spec = RunSpec(trace_len=200, seed=3, max_cycles=200_000)
        forward = ExhibitContext.make(spec=spec,
                                      classes=("MEM2", "ILP2"),
                                      workloads_per_class=1)
        backward = ExhibitContext.make(spec=spec,
                                       classes=("ILP2", "MEM2"),
                                       workloads_per_class=1)
        first = Campaign(["figure1"], ctx=forward,
                         engine=SimEngine()).plan()
        second = Campaign(["figure1"], ctx=backward,
                          engine=SimEngine()).plan()
        assert sorted(first.keys()) == sorted(second.keys())
        assert first.exhibit_plan("figure1").render_key != \
            second.exhibit_plan("figure1").render_key

    def test_version_bump_changes_render_key(self, manifest):
        plan = manifest.exhibit_plan("figure1")
        bumped = exhibit_render_key("figure1", plan.version + 1,
                                    plan.cell_keys, manifest.context)
        assert bumped != plan.render_key

    def test_cell_set_changes_render_key(self, manifest):
        plan = manifest.exhibit_plan("figure1")
        fewer = exhibit_render_key("figure1", plan.version,
                                   plan.cell_keys[:-1], manifest.context)
        assert fewer != plan.render_key

    def test_exhibit_version_attribute_feeds_plan(self):
        exhibit = get_exhibit("figure1")
        original = exhibit.version
        try:
            type(exhibit).version = original + 1
            bumped = Campaign(["figure1"], ctx=CTX,
                              engine=SimEngine()).plan()
        finally:
            type(exhibit).version = original
        base = Campaign(["figure1"], ctx=CTX, engine=SimEngine()).plan()
        assert bumped.exhibit_plan("figure1").render_key != \
            base.exhibit_plan("figure1").render_key
        assert bumped.keys() == base.keys()  # cells are untouched


class TestShardSpec:
    def test_parse(self):
        spec = ShardSpec.parse("2/4")
        assert (spec.index, spec.count) == (2, 4)
        assert str(spec) == "2/4"

    @pytest.mark.parametrize("text", ["", "3", "0/4", "5/4", "a/b",
                                      "1/0", "-1/3"])
    def test_parse_rejects(self, text):
        with pytest.raises(ManifestError):
            ShardSpec.parse(text)

    def test_assignment_is_deterministic_and_total(self):
        keys = [f"{value:064x}" for value in range(0, 7_000_000, 13_337)]
        for count in (1, 2, 3, 7):
            shards = [ShardSpec(k, count) for k in range(1, count + 1)]
            for key in keys:
                owners = [shard for shard in shards if shard.owns(key)]
                assert len(owners) == 1  # exactly one shard owns any key

    def test_frozen_manifest_entries(self, manifest):
        with pytest.raises(dataclasses.FrozenInstanceError):
            manifest.entries[0].key = "x"
