"""Tests for repro.store.store: the content-addressed JSONL campaign store.

Robustness is the contract under test: corrupt lines are skipped with a
warning (the rest of the shard survives), merges deduplicate by fingerprint
with deterministic first-record-wins semantics, and incremental appends are
immediately visible to fresh store instances.
"""

import base64
import copy
import json
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        newer = dict(record, schema_version=SCHEMA_VERSION + 1)
        # An era whose report layout no longer parses (it lacks "profile"):
        # its outcome must not be decoded at all, let alone warned about.
        older = copy.deepcopy(record)
        older["schema_version"] = 1
        del older["outcome"]["report"]["profile"]
        store = self._shard_with_lines(tmp_path, [json.dumps(newer), json.dumps(older)])
        # Another-era record is not corruption: no warning, but also no hit.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.load() == {}

    @pytest.mark.parametrize(
        "psd",
        ["not base64!", "AAAAAAAA8D8AAAA="],
        ids=["malformed-base64", "partial-float64"],
    )
    def test_undecodable_spectrum_skipped_with_warning(self, tmp_path, real_outcome, psd):
        record = json.loads(CampaignStore._record_line("fp-bad", real_outcome))
        record["outcome"]["report"]["measurements"]["spectrum"]["psd"] = psd
        good = CampaignStore._record_line("fp-good", real_outcome)
        store = self._shard_with_lines(tmp_path, [json.dumps(record), good])
        with pytest.warns(CampaignStoreWarning, match="corrupt record.*ValidationError"):
            index = store.load()
        assert sorted(index) == ["fp-good"]
        assert store.get("fp-bad") is None

    def test_non_finite_frequency_axis_skipped_with_warning(self, tmp_path, real_outcome):
        # The base64 axis decodes any float64 bits; a NaN bin is corruption.
        record = json.loads(CampaignStore._record_line("fp-bad", real_outcome))
        spectrum = record["outcome"]["report"]["measurements"]["spectrum"]
        axis = real_outcome.report.measurements.spectrum.frequencies_hz.astype("<f8")
        axis[axis.size // 2] = np.nan
        spectrum["frequencies_hz"] = base64.b64encode(axis.tobytes()).decode("ascii")
        good = CampaignStore._record_line("fp-good", real_outcome)
        store = self._shard_with_lines(tmp_path, [json.dumps(record), good])
        with pytest.warns(CampaignStoreWarning, match="corrupt record.*ValidationError"):
            index = store.load()
        assert sorted(index) == ["fp-good"]
        assert store.get("fp-bad") is None


@pytest.fixture(scope="module")
def real_shard(tmp_path_factory, real_outcome) -> tuple:
    """``(shard bytes, [(fingerprint, outcome, line end offset)])`` of real puts.

    Two profiles (single-carrier and OFDM) give records of different sizes;
    each is put twice under distinct labels.
    """
    grid = ScenarioGrid().add_profiles("ofdm-uhf-qpsk-400mhz").build()
    ofdm = CampaignRunner(bist_config=FAST_CONFIG).run(grid).outcomes[0]
    assert ofdm.ok
    store = CampaignStore(tmp_path_factory.mktemp("real-shard"))
    records = []
    for index, base in enumerate((real_outcome, ofdm, real_outcome, ofdm)):
        outcome = replace(base, index=index, label=f"record-{index}")
        assert store.put(f"fp-{index}", outcome)
        end = store.shard_path.stat().st_size - 1  # the line's bytes, not its newline
        records.append((f"fp-{index}", outcome, end))
    return store.shard_path.read_bytes(), records


def _assert_same_record(loaded: ScenarioOutcome, expected: ScenarioOutcome) -> None:
    assert loaded.to_dict() == expected.to_dict()
    for name in ("frequencies_hz", "psd"):
        got = getattr(loaded.report.measurements.spectrum, name)
        want = getattr(expected.report.measurements.spectrum, name)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestTruncatedShardProperties:
    """Store fuzz: a shard of real records cut at any byte offset loses at
    most the record the cut tore, and the next append survives it."""

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_load_serves_exactly_the_complete_lines_then_put_survives(
        self, real_shard, data
    ):
        shard, records = real_shard
        line_ends = {end for _, _, end in records}
        near_ends = sorted(cut for end in line_ends for cut in (end - 1, end, end + 1))
        cut = data.draw(
            st.integers(min_value=0, max_value=len(shard)) | st.sampled_from(near_ends),
            label="cut",
        )
        complete = [(fp, outcome) for fp, outcome, end in records if end <= cut]
        # Torn: the cut falls inside a line's bytes, not at its start or end.
        torn = cut > 0 and shard[cut - 1 : cut] != b"\n" and cut not in line_ends
        with tempfile.TemporaryDirectory() as directory:
            root = Path(directory)
            (root / "campaign.jsonl").write_bytes(shard[:cut])
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                index = CampaignStore(root).load()
            assert sorted(index) == [fp for fp, _ in complete]
            for fp, outcome in complete:
                _assert_same_record(index[fp], outcome)
            assert len(caught) == int(torn)
            assert all(issubclass(w.category, CampaignStoreWarning) for w in caught)

            new = replace(records[0][1], index=99, label="after-the-cut")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CampaignStoreWarning)
                assert CampaignStore(root).put("fp-new", new)
                reloaded = CampaignStore(root).load()
            assert sorted(reloaded) == sorted([fp for fp, _ in complete] + ["fp-new"])
            _assert_same_record(reloaded["fp-new"], new)


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

    @pytest.mark.parametrize("rewrite", ["compact", "merge"])
    def test_list_layout_records_are_hits_and_rewrite_as_base64(
        self, tmp_path, real_outcome, rewrite
    ):
        # Earlier versions archived the spectrum arrays as lists of floats.
        record = json.loads(CampaignStore._record_line("fp-old", real_outcome))
        spectrum = real_outcome.report.measurements.spectrum
        record["outcome"]["report"]["measurements"]["spectrum"].update(
            frequencies_hz=spectrum.frequencies_hz.tolist(), psd=spectrum.psd.tolist()
        )
        (tmp_path / "old").mkdir()
        (tmp_path / "old" / "campaign.jsonl").write_text(json.dumps(record) + "\n")
        old = CampaignStore(tmp_path / "old")
        _assert_same_record(old.get("fp-old"), real_outcome)
        if rewrite == "compact":
            assert old.compact() == 1
            target = old
        else:
            target = CampaignStore(tmp_path / "merged")
            assert target.merge(old) == 1
        stored = json.loads(target.shard_path.read_text())["outcome"]["report"]
        arrays = stored["measurements"]["spectrum"]
        assert isinstance(arrays["frequencies_hz"], str) and isinstance(arrays["psd"], str)
        _assert_same_record(CampaignStore(target.root).get("fp-old"), real_outcome)
