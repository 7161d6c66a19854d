"""Tests for shard lifecycle: GC retention, tombstones, compaction."""

import json
import os

import pytest

from repro.bist.measurements import TxMeasurements
from repro.bist.report import BistReport, CheckResult, SkewCalibrationReport, Verdict
from repro.bist.runner import ScenarioOutcome
from repro.dsp.spectrum import SpectrumEstimate
from repro.errors import ValidationError
from repro.service import GcPolicy, GcReport, compact_store, load_tombstones, run_gc
from repro.store import CampaignStore, CampaignStoreWarning
from repro.store.fingerprint import SCHEMA_VERSION


def write_shard(root, name: str, records, mtime: float | None = None) -> None:
    root.mkdir(parents=True, exist_ok=True)
    path = root / f"{name}.jsonl"
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    if mtime is not None:
        os.utime(path, (mtime, mtime))


def record(fingerprint: str, schema_version: int = SCHEMA_VERSION, label: str = "x") -> dict:
    return {
        "fingerprint": fingerprint,
        "schema_version": schema_version,
        "outcome": {"index": 0, "label": label},
    }


NOW = 1_000_000.0


def successful_outcome(label: str = "x") -> ScenarioOutcome:
    """A minimal successful outcome the store will archive (no execution)."""
    report = BistReport(
        profile_name="paper-qpsk-1ghz",
        calibration=SkewCalibrationReport(
            estimated_delay_seconds=1e-10,
            programmed_delay_seconds=1e-10,
            true_delay_seconds=None,
            iterations=1,
            converged=True,
            final_cost=0.0,
            method="lms",
        ),
        measurements=TxMeasurements(
            output_power=1.0,
            acpr_db={"lower_db": -40.0, "upper_db": -40.0, "worst_db": -40.0},
            occupied_bandwidth_hz=1e7,
            evm_percent=None,
            spectrum=SpectrumEstimate(
                frequencies_hz=[1e9 + i * 1e5 for i in range(8)],
                psd=[1e-9] * 8,
                resolution_hz=1e5,
                two_sided=False,
            ),
        ),
        checks=(CheckResult(name="acpr", verdict=Verdict.PASS, measured=-40.0, limit=-30.0),),
    )
    return ScenarioOutcome(index=0, label=label, report=report)


class TestPolicy:
    def test_negative_age_is_rejected(self):
        with pytest.raises(ValidationError, match="max_age_seconds"):
            GcPolicy(max_age_seconds=-1.0)

    def test_policy_type_is_checked(self, tmp_path):
        with pytest.raises(ValidationError, match="GcPolicy"):
            run_gc(tmp_path, {"max_age_seconds": 10})

    def test_protecting_from_a_store_directory(self, tmp_path):
        write_shard(tmp_path / "baseline", "campaign", [record("keep-me")])
        policy = GcPolicy().protecting(tmp_path / "baseline")
        assert "keep-me" in policy.keep_fingerprints

    def test_protecting_from_a_json_file(self, tmp_path):
        listing = tmp_path / "keep.json"
        listing.write_text(json.dumps(["f-a", "f-b"]))
        policy = GcPolicy(keep_fingerprints={"f-c"}).protecting(listing)
        assert policy.keep_fingerprints == {"f-a", "f-b", "f-c"}

    def test_protecting_rejects_missing_sources(self, tmp_path):
        with pytest.raises(ValidationError, match="no baseline store"):
            GcPolicy().protecting(tmp_path / "nowhere")

    def test_protecting_rejects_non_list_files(self, tmp_path):
        listing = tmp_path / "keep.json"
        listing.write_text(json.dumps({"not": "a list"}))
        with pytest.raises(ValidationError, match="JSON list"):
            GcPolicy().protecting(listing)


class TestSchemaTombstones:
    def test_superseded_schema_records_are_collected_and_tombstoned(self, tmp_path):
        write_shard(
            tmp_path, "a", [record("current"), record("old", schema_version=SCHEMA_VERSION - 1)]
        )
        report = run_gc(tmp_path, GcPolicy(), now=NOW)
        assert report.tombstoned == 1
        assert report.records_kept == 1
        tombstones = load_tombstones(CampaignStore(tmp_path))
        assert tombstones["old"]["reason"] == "superseded-schema"
        assert tombstones["old"]["schema_version"] == SCHEMA_VERSION - 1
        remaining = (tmp_path / "a.jsonl").read_text()
        assert "current" in remaining
        assert '"old"' not in remaining

    def test_tombstoning_can_be_disabled(self, tmp_path):
        write_shard(tmp_path, "a", [record("old", schema_version=1_000)])
        report = run_gc(tmp_path, GcPolicy(drop_superseded_schema=False), now=NOW)
        assert report.tombstoned == 0
        assert report.records_kept == 1
        assert load_tombstones(CampaignStore(tmp_path)) == {}

    def test_tombstone_ledger_accumulates_across_passes(self, tmp_path):
        write_shard(tmp_path, "a", [record("first", schema_version=1_000)])
        run_gc(tmp_path, GcPolicy(), now=NOW)
        write_shard(tmp_path, "b", [record("second", schema_version=1_000)])
        run_gc(tmp_path, GcPolicy(), now=NOW)
        tombstones = load_tombstones(CampaignStore(tmp_path))
        assert set(tombstones) == {"first", "second"}

    @pytest.mark.parametrize("ledger", ["", '{"first": {"schema_v', "[]"])
    def test_torn_ledger_warns_and_starts_afresh(self, tmp_path, ledger):
        write_shard(tmp_path, "a", [record("second", schema_version=1_000)])
        (tmp_path / "tombstones.json").write_text(ledger)
        with pytest.warns(CampaignStoreWarning, match="tombstone ledger"):
            report = run_gc(tmp_path, GcPolicy(), now=NOW)
        assert report.tombstoned == 1
        assert set(load_tombstones(CampaignStore(tmp_path))) == {"second"}

    def test_ledger_is_written_through_the_store(self, tmp_path, monkeypatch):
        written = []
        replace_shard = CampaignStore.replace_shard

        def spy(store, path, lines):
            written.append(path.name)
            replace_shard(store, path, lines)

        monkeypatch.setattr(CampaignStore, "replace_shard", spy)
        write_shard(tmp_path, "a", [record("old", schema_version=1_000)])
        run_gc(tmp_path, GcPolicy(), now=NOW)
        assert "tombstones.json" in written
        assert sorted(path.name for path in tmp_path.iterdir()) == ["tombstones.json"]


class TestAgeRetention:
    def test_expired_shards_are_removed(self, tmp_path):
        write_shard(tmp_path, "old", [record("stale")], mtime=NOW - 10_000)
        write_shard(tmp_path, "new", [record("fresh")], mtime=NOW - 10)
        report = run_gc(tmp_path, GcPolicy(max_age_seconds=3_600), now=NOW)
        assert report.expired == 1
        assert report.shards_removed == 1
        assert not (tmp_path / "old.jsonl").exists()
        assert (tmp_path / "new.jsonl").exists()

    def test_protected_fingerprints_survive_expiry(self, tmp_path):
        write_shard(
            tmp_path, "old", [record("stale"), record("golden")], mtime=NOW - 10_000
        )
        policy = GcPolicy(max_age_seconds=3_600, keep_fingerprints={"golden"})
        report = run_gc(tmp_path, policy, now=NOW)
        assert report.expired == 1
        assert report.protected == 1
        remaining = (tmp_path / "old.jsonl").read_text()
        assert "golden" in remaining
        assert "stale" not in remaining

    def test_no_age_limit_keeps_everything(self, tmp_path):
        write_shard(tmp_path, "old", [record("ancient")], mtime=NOW - 1e9)
        report = run_gc(tmp_path, GcPolicy(), now=NOW)
        assert report.records_dropped == 0


class TestStoredAtRetention:
    """Records age by their ``stored_at`` stamp, not the shard's mtime."""

    def test_backdated_records_expire_even_after_compaction(self, tmp_path):
        # Regression: compaction rewrites the shard (fresh mtime), which used
        # to rejuvenate — and effectively immortalise — every record in it.
        store = CampaignStore(tmp_path)
        store.put("stale", successful_outcome("x"), stored_at=NOW - 10_000)
        store.put("fresh", successful_outcome("y"), stored_at=NOW - 10)
        store.compact()
        shard = next(tmp_path.glob("*.jsonl"))
        os.utime(shard, (NOW, NOW))  # the rejuvenated mtime compaction causes
        report = run_gc(tmp_path, GcPolicy(max_age_seconds=3_600), now=NOW)
        assert report.expired == 1
        remaining = shard.read_text()
        assert "fresh" in remaining
        assert "stale" not in remaining

    def test_stamp_survives_merge(self, tmp_path):
        source = CampaignStore(tmp_path / "source")
        source.put("old-record", successful_outcome("x"), stored_at=NOW - 10_000)
        target = CampaignStore(tmp_path / "target")
        target.merge(source)
        assert target.stored_at("old-record") == NOW - 10_000
        os.utime(target.shard_path, (NOW, NOW))  # pin the merged shard's mtime
        report = run_gc(
            tmp_path / "target", GcPolicy(max_age_seconds=3_600), now=NOW
        )
        assert report.expired == 1

    def test_legacy_records_without_stamp_age_by_shard_mtime(self, tmp_path):
        write_shard(tmp_path, "legacy", [record("unstamped")], mtime=NOW - 10_000)
        report = run_gc(tmp_path, GcPolicy(max_age_seconds=3_600), now=NOW)
        assert report.expired == 1

    def test_fresh_stamp_in_an_old_shard_survives(self, tmp_path):
        stamped = dict(record("recent"), stored_at=NOW - 10)
        write_shard(tmp_path, "old", [stamped], mtime=NOW - 10_000)
        report = run_gc(tmp_path, GcPolicy(max_age_seconds=3_600), now=NOW)
        assert report.expired == 0
        assert report.records_kept == 1


class TestNegativeAgeClamp:
    """Clock skew must never expire a freshly-written record."""

    def test_future_record_stamp_warns_and_is_kept(self, tmp_path):
        stamped = dict(record("from-the-future"), stored_at=NOW + 500)
        write_shard(tmp_path, "a", [stamped], mtime=NOW - 10)
        with pytest.warns(RuntimeWarning, match="negative age"):
            report = run_gc(tmp_path, GcPolicy(max_age_seconds=3_600), now=NOW)
        assert report.expired == 0
        assert report.records_kept == 1

    def test_future_shard_mtime_warns_and_keeps_legacy_records(self, tmp_path):
        write_shard(tmp_path, "a", [record("legacy")], mtime=NOW + 500)
        with pytest.warns(RuntimeWarning, match="negative age"):
            report = run_gc(tmp_path, GcPolicy(max_age_seconds=3_600), now=NOW)
        assert report.expired == 0
        assert report.records_kept == 1

    def test_no_age_policy_never_warns(self, tmp_path):
        import warnings

        write_shard(tmp_path, "a", [record("legacy")], mtime=NOW + 500)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_gc(tmp_path, GcPolicy(), now=NOW)
        assert report.records_kept == 1


class TestDryRunAndReport:
    def test_dry_run_changes_nothing(self, tmp_path):
        write_shard(tmp_path, "old", [record("stale", schema_version=1_000)], mtime=NOW - 1e6)
        before = (tmp_path / "old.jsonl").read_text()
        report = run_gc(tmp_path, GcPolicy(max_age_seconds=60), dry_run=True, now=NOW)
        assert report.dry_run
        assert report.records_dropped == 1
        assert (tmp_path / "old.jsonl").read_text() == before
        assert load_tombstones(CampaignStore(tmp_path)) == {}
        assert "would drop" in report.to_text()

    def test_corrupt_lines_are_left_alone(self, tmp_path):
        (tmp_path / "a.jsonl").parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / "a.jsonl").write_text(
            json.dumps(record("ok", schema_version=1_000)) + "\n{torn garbage\n"
        )
        report = run_gc(tmp_path, GcPolicy(), now=NOW)
        assert report.tombstoned == 1
        assert "{torn garbage" in (tmp_path / "a.jsonl").read_text()

    def test_report_round_trips_to_dict(self):
        report = GcReport(records_scanned=5, expired=2, tombstoned=1, records_kept=2)
        payload = report.to_dict()
        assert payload["records_dropped"] == 3
        assert payload["records_scanned"] == 5
        assert "dropped 3" in report.to_text()


class TestCompaction:
    def test_compact_store_collapses_shards(self, tmp_path):
        write_shard(tmp_path, "w1", [record("f-a")])
        write_shard(tmp_path, "w2", [record("f-b")])
        survivors = compact_store(tmp_path)
        assert survivors == 2
        assert [path.name for path in tmp_path.glob("*.jsonl")] == ["campaign.jsonl"]
