"""Tests for repro.store.store: the content-addressed JSONL campaign store.

Robustness is the contract under test: corrupt lines are skipped with a
warning (the rest of the shard survives), merges deduplicate by fingerprint
with deterministic first-record-wins semantics, and incremental appends are
immediately visible to fresh store instances.
"""

import json
import warnings
from dataclasses import replace

import pytest

from repro.bist import BistConfig, CampaignRunner, ScenarioGrid
from repro.bist.runner import ScenarioOutcome
from repro.errors import ValidationError
from repro.store import SCHEMA_VERSION, CampaignStore, CampaignStoreWarning

#: Small-but-real engine configuration so execution stays fast.
FAST_CONFIG = BistConfig(
    num_samples_fast=128,
    num_samples_slow=64,
    lms_max_iterations=25,
    num_cost_points=60,
    measure_evm_enabled=False,
)


@pytest.fixture(scope="module")
def real_outcome() -> ScenarioOutcome:
    """One real, successful scenario outcome (module-scoped: runs once)."""
    grid = ScenarioGrid().add_profiles("paper-qpsk-1ghz").build()
    execution = CampaignRunner(bist_config=FAST_CONFIG).run(grid)
    outcome = execution.outcomes[0]
    assert outcome.ok
    return outcome


def synthetic_outcomes(base: ScenarioOutcome, count: int) -> list:
    """Distinct outcomes cloned from a real one (cheap, no execution)."""
    return [replace(base, index=i, label=f"clone-{i}") for i in range(count)]


class TestPutGet:
    def test_round_trips_exactly(self, tmp_path, real_outcome):
        store = CampaignStore(tmp_path / "store")
        assert store.put("fp-1", real_outcome)
        loaded = CampaignStore(tmp_path / "store").get("fp-1")
        assert loaded.to_dict() == real_outcome.to_dict()

    def test_contains_len_fingerprints(self, tmp_path, real_outcome):
        store = CampaignStore(tmp_path / "store")
        for index, outcome in enumerate(synthetic_outcomes(real_outcome, 3)):
            store.put(f"fp-{index}", outcome)
        assert len(store) == 3
        assert "fp-1" in store
        assert "fp-9" not in store
        assert store.fingerprints() == ["fp-0", "fp-1", "fp-2"]
        assert store.get("missing") is None

    def test_reput_is_noop(self, tmp_path, real_outcome):
        store = CampaignStore(tmp_path / "store")
        assert store.put("fp-1", real_outcome)
        assert not store.put("fp-1", real_outcome)
        lines = store.shard_path.read_text().splitlines()
        assert len(lines) == 1

    def test_refuses_errored_outcomes(self, tmp_path):
        errored = ScenarioOutcome(index=0, label="bad", error="RuntimeError: boom")
        store = CampaignStore(tmp_path / "store")
        with pytest.raises(ValidationError, match="errored"):
            store.put("fp-err", errored)

    def test_rejects_path_like_shard_names(self, tmp_path):
        with pytest.raises(ValidationError):
            CampaignStore(tmp_path, shard="../escape")
        with pytest.raises(ValidationError):
            CampaignStore(tmp_path, shard="")

    def test_empty_store_reads_cleanly(self, tmp_path):
        store = CampaignStore(tmp_path / "nonexistent")
        assert len(store) == 0
        assert store.load() == {}
        assert store.shard_paths() == []


class TestCorruptionRecovery:
    def _shard_with_lines(self, tmp_path, lines) -> CampaignStore:
        root = tmp_path / "store"
        root.mkdir()
        (root / "campaign.jsonl").write_text("\n".join(lines) + "\n")
        return CampaignStore(root)

    def test_truncated_line_skipped_with_warning(self, tmp_path, real_outcome):
        store = CampaignStore(tmp_path / "store")
        store.put("fp-a", real_outcome)
        store.put("fp-b", replace(real_outcome, label="other"))
        # Simulate a torn final append: truncate the last line mid-record.
        text = store.shard_path.read_text()
        lines = text.splitlines()
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        store.shard_path.write_text("\n".join(lines) + "\n")
        fresh = CampaignStore(tmp_path / "store")
        with pytest.warns(CampaignStoreWarning, match="corrupt record"):
            index = fresh.load()
        assert sorted(index) == ["fp-a"]
        assert index["fp-a"].to_dict() == real_outcome.to_dict()

    @pytest.mark.parametrize("append", ["put", "merge"])
    def test_append_after_torn_tail_keeps_the_new_record(self, tmp_path, real_outcome, append):
        # A crash tore the shard inside its last record (no trailing newline);
        # a resumed instance's first append must not glue onto those bytes.
        store = CampaignStore(tmp_path / "store")
        store.put("fp-a", real_outcome)
        store.put("fp-b", replace(real_outcome, label="torn"))
        text = store.shard_path.read_text()
        last_start = text.rstrip("\n").rfind("\n") + 1
        store.shard_path.write_text(text[: (last_start + len(text)) // 2])
        resumed = CampaignStore(tmp_path / "store")
        new = replace(real_outcome, label="new")
        with pytest.warns(CampaignStoreWarning, match="corrupt record"):
            if append == "put":
                resumed.put("fp-c", new)
            else:
                source = CampaignStore(tmp_path / "source")
                source.put("fp-c", new)
                assert resumed.merge(source) == 1
        assert resumed.fingerprints() == ["fp-a", "fp-c"]
        with pytest.warns(CampaignStoreWarning, match="corrupt record"):
            index = CampaignStore(tmp_path / "store").load()
        assert sorted(index) == ["fp-a", "fp-c"]
        assert index["fp-c"].to_dict() == new.to_dict()

    @pytest.mark.parametrize("append", ["put", "merge"])
    @pytest.mark.parametrize("existing", ["well-formed", "empty"])
    def test_append_to_untorn_shard_adds_only_the_record(
        self, tmp_path, real_outcome, existing, append
    ):
        # The torn-tail repair leaves a shard that already ends in a newline
        # (or holds no bytes at all) alone: the append is exactly one line.
        store = CampaignStore(tmp_path / "store")
        if existing == "well-formed":
            store.put("fp-a", real_outcome)
        else:
            store.shard_path.parent.mkdir(parents=True)
            store.shard_path.write_bytes(b"")
        before = store.shard_path.read_bytes()
        resumed = CampaignStore(tmp_path / "store")
        new = replace(real_outcome, label="new")
        if append == "put":
            assert resumed.put("fp-c", new)
        else:
            source = CampaignStore(tmp_path / "source")
            source.put("fp-c", new)
            assert resumed.merge(source) == 1
        after = store.shard_path.read_bytes()
        assert after.startswith(before)
        added = after[len(before) :].decode("utf-8")
        assert added.endswith("\n") and added.count("\n") == 1
        assert json.loads(added)["fingerprint"] == "fp-c"
        with warnings.catch_warnings():
            warnings.simplefilter("error", CampaignStoreWarning)
            index = CampaignStore(tmp_path / "store").load()
        expected = ["fp-a", "fp-c"] if existing == "well-formed" else ["fp-c"]
        assert sorted(index) == expected

    def test_garbage_between_good_lines_survives(self, tmp_path, real_outcome):
        good_a = CampaignStore._record_line("fp-a", real_outcome)
        good_b = CampaignStore._record_line("fp-b", real_outcome)
        store = self._shard_with_lines(
            tmp_path, [good_a, "{not json at all", good_b, '{"fingerprint": 1}']
        )
        with pytest.warns(CampaignStoreWarning):
            index = store.load()
        assert sorted(index) == ["fp-a", "fp-b"]

    def test_blank_lines_ignored_silently(self, tmp_path, real_outcome):
        good = CampaignStore._record_line("fp-a", real_outcome)
        store = self._shard_with_lines(tmp_path, [good, "", "   ", good])
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            index = store.load()
        assert sorted(index) == ["fp-a"]

    def test_schema_mismatch_not_served(self, tmp_path, real_outcome):
        record = json.loads(CampaignStore._record_line("fp-a", real_outcome))
        record["schema_version"] = SCHEMA_VERSION + 1
        store = self._shard_with_lines(tmp_path, [json.dumps(record)])
        # Another-era record is not corruption: no warning, but also no hit.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.load() == {}


class TestMerge:
    def test_merge_combines_disjoint_shards(self, tmp_path, real_outcome):
        a = CampaignStore(tmp_path / "a", shard="worker-a")
        b = CampaignStore(tmp_path / "b", shard="worker-b")
        a.put("fp-1", real_outcome)
        b.put("fp-2", replace(real_outcome, label="other"))
        destination = CampaignStore(tmp_path / "merged")
        assert destination.merge(a, b) == 2
        assert destination.fingerprints() == ["fp-1", "fp-2"]

    def test_duplicate_fingerprints_keep_first_deterministically(
        self, tmp_path, real_outcome
    ):
        first = replace(real_outcome, label="first")
        second = replace(real_outcome, label="second")
        a = CampaignStore(tmp_path / "a")
        b = CampaignStore(tmp_path / "b")
        a.put("fp-dup", first)
        b.put("fp-dup", second)
        destination = CampaignStore(tmp_path / "merged")
        assert destination.merge(a, b) == 1
        assert destination.get("fp-dup").label == "first"
        # Merging again in any order adds nothing and keeps the winner.
        assert destination.merge(b, a) == 0
        assert destination.get("fp-dup").label == "first"

    def test_own_records_beat_merged_ones(self, tmp_path, real_outcome):
        mine = replace(real_outcome, label="mine")
        theirs = replace(real_outcome, label="theirs")
        destination = CampaignStore(tmp_path / "merged")
        destination.put("fp-dup", mine)
        source = CampaignStore(tmp_path / "source")
        source.put("fp-dup", theirs)
        assert destination.merge(source) == 0
        assert destination.get("fp-dup").label == "mine"

    def test_merge_accepts_paths(self, tmp_path, real_outcome):
        source = CampaignStore(tmp_path / "source")
        source.put("fp-1", real_outcome)
        destination = CampaignStore(tmp_path / "merged")
        assert destination.merge(tmp_path / "source") == 1
        assert "fp-1" in destination


class TestShardsAndCompact:
    def test_reads_cover_every_shard(self, tmp_path, real_outcome):
        root = tmp_path / "store"
        CampaignStore(root, shard="worker-a").put("fp-1", real_outcome)
        CampaignStore(root, shard="worker-b").put("fp-2", real_outcome)
        combined = CampaignStore(root)
        assert combined.fingerprints() == ["fp-1", "fp-2"]

    def test_duplicate_across_shards_resolves_by_shard_order(self, tmp_path, real_outcome):
        # Two workers that filled their shards independently (no shared view,
        # so no put-time dedup) can overlap; write the files directly.
        root = tmp_path / "store"
        root.mkdir()
        (root / "z-late.jsonl").write_text(
            CampaignStore._record_line("fp-dup", replace(real_outcome, label="late")) + "\n"
        )
        (root / "a-early.jsonl").write_text(
            CampaignStore._record_line("fp-dup", replace(real_outcome, label="early")) + "\n"
        )
        # Shards scan in sorted name order, so "a-early" wins regardless of
        # which file was written first.
        assert CampaignStore(root).get("fp-dup").label == "early"

    def test_compact_dedups_and_drops_corruption(self, tmp_path, real_outcome):
        root = tmp_path / "store"
        CampaignStore(root, shard="worker-a").put("fp-1", real_outcome)
        CampaignStore(root, shard="worker-b").put("fp-2", real_outcome)
        with open(root / "worker-b.jsonl", "a") as handle:
            handle.write("garbage\n")
        store = CampaignStore(root, shard="combined")
        with pytest.warns(CampaignStoreWarning):
            assert store.compact() == 2
        assert [path.name for path in store.shard_paths()] == ["combined.jsonl"]
        fresh = CampaignStore(root)
        assert fresh.fingerprints() == ["fp-1", "fp-2"]
        # Compacted shard parses cleanly: no warnings on reload.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fresh.load()
