"""Tests for repro.faults.coverage and repro.faults.report.

These tests build the dictionary from synthetic signatures, so the
detection / coverage / false-alarm / test-escape arithmetic is pinned down
exactly and independently of the (slow) BIST execution path.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.faults.coverage import DETECTION_THRESHOLD, FAULT_PROBABILITY
from repro.faults import (
    CoverageResult,
    DcdeErrorFault,
    FaultCoverageReport,
    FaultDictionary,
    FaultPoint,
    FaultRecord,
    FaultSignature,
    LoLeakageFault,
    PaCompressionFault,
    TestLimits,
    TiadcSkewFault,
)

PROFILE = "paper-qpsk-1ghz"


def signature(label, failed=False, evm=3.0, acpr=-43.0, obw=14e6, mask=5.0, skew=2.0, executed=True, error=None):
    return FaultSignature(
        label=label,
        profile_name=PROFILE if executed else None,
        executed=executed,
        bist_failed=failed,
        evm_percent=evm,
        acpr_worst_db=acpr,
        occupied_bandwidth_hz=obw,
        mask_margin_db=mask,
        skew_deviation_ps=skew,
        error=error,
    )


def record(fault, label, flags):
    """A record whose repeats fail the BIST according to ``flags``."""
    return FaultRecord(
        point=FaultPoint(label=f"{PROFILE}/{label}", profile_name=PROFILE, fault=fault),
        signatures=tuple(
            signature(f"{PROFILE}/{label}/r{i}", failed=flag) for i, flag in enumerate(flags)
        ),
    )


def make_dictionary():
    """3 faults: always detected, marginal (1/2), never detected."""
    return FaultDictionary(
        records=(
            record(PaCompressionFault(severity=1.0), "pa-compression-s1", [True, True]),
            record(PaCompressionFault(severity=0.5), "pa-compression-s0.5", [True, False]),
            record(DcdeErrorFault(severity=1.0), "dcde-error-s1", [False, False]),
        ),
        references=tuple(signature(f"{PROFILE}/reference/r{i}") for i in range(4)),
    )


class TestTestLimits:
    def test_default_uses_bist_verdict(self):
        limits = TestLimits()
        assert limits.flags(signature("x", failed=True))
        assert not limits.flags(signature("x", failed=False))

    def test_explicit_bounds_tighten(self):
        limits = TestLimits(max_acpr_db=-45.0)
        assert limits.flags(signature("x", acpr=-43.0))
        limits = TestLimits(max_occupied_bandwidth_hz=10e6)
        assert limits.flags(signature("x", obw=14e6))
        limits = TestLimits(max_skew_deviation_ps=1.0)
        assert limits.flags(signature("x", skew=2.0))

    def test_missing_measurements_do_not_flag(self):
        limits = TestLimits(max_acpr_db=-45.0)
        assert not limits.flags(signature("x", acpr=None))

    def test_errored_scenarios_flagged_by_default(self):
        errored = signature("x", executed=False, error="boom")
        assert TestLimits().flags(errored)
        assert TestLimits(use_bist_verdict=False).flags(errored)

    def test_round_trip(self):
        limits = TestLimits(max_skew_deviation_ps=20.0, max_acpr_db=-40.0)
        assert TestLimits.from_dict(json.loads(json.dumps(limits.to_dict()))) == limits

    def test_limits_written_with_removed_bounds_still_load(self):
        data = TestLimits(max_skew_deviation_ps=20.0).to_dict()
        data.update(max_evm_percent=None, min_mask_margin_db=None, flag_errors=True)
        assert TestLimits.from_dict(data) == TestLimits(max_skew_deviation_ps=20.0)

    @pytest.mark.parametrize(
        "removed",
        [{"max_evm_percent": 5.0}, {"min_mask_margin_db": 0.0}, {"flag_errors": False}],
    )
    def test_limits_written_with_a_removed_screen_are_refused(self, removed):
        data = {**TestLimits(max_skew_deviation_ps=20.0).to_dict(), **removed}
        with pytest.raises(ValidationError):
            TestLimits.from_dict(data)


class TestDetectionAndCoverage:
    def test_detection_probability(self):
        probabilities = make_dictionary().coverage().probabilities
        assert probabilities[f"{PROFILE}/pa-compression-s1"] == 1.0
        assert probabilities[f"{PROFILE}/pa-compression-s0.5"] == 0.5
        assert probabilities[f"{PROFILE}/dcde-error-s1"] == 0.0

    def test_unknown_label_rejected(self):
        with pytest.raises(ValidationError):
            make_dictionary().record("nope")

    def test_coverage_classification(self):
        coverage = make_dictionary().coverage()
        assert isinstance(coverage, CoverageResult)
        assert coverage.detection_threshold == DETECTION_THRESHOLD == 0.5
        assert set(coverage.covered) == {
            f"{PROFILE}/pa-compression-s1",
            f"{PROFILE}/pa-compression-s0.5",
        }
        assert set(coverage.uncovered) == {f"{PROFILE}/dcde-error-s1"}
        assert set(coverage.marginal) == {f"{PROFILE}/pa-compression-s0.5"}
        assert coverage.coverage == pytest.approx(2.0 / 3.0)
        assert coverage.weighted_coverage == pytest.approx((1.0 + 0.5 + 0.0) / 3.0)

    def test_false_alarm_rate(self):
        dictionary = FaultDictionary(
            records=(record(PaCompressionFault(), "pa-compression-s1", [True]),),
            references=(
                signature("r0"),
                signature("r1", failed=True),
                signature("r2"),
                signature("r3"),
            ),
        )
        assert dictionary.false_alarm_rate() == pytest.approx(0.25)

    def test_empty_dictionary_rejected(self):
        with pytest.raises(ValidationError):
            FaultDictionary(records=(), references=(signature("r0"),))
        with pytest.raises(ValidationError):
            FaultDictionary(
                records=(record(PaCompressionFault(), "pa", [True]),), references=()
            )


def enumerated_test_escape(dictionary, limits) -> Fraction:
    """Shipped-faulty share of every manufactured unit, weighted exactly.

    A unit is faulty with ``FAULT_PROBABILITY``, its fault point uniform over
    the records and its signature uniform over that point's repeats; a good
    unit's signature is uniform over the references.  Each unit ships when
    the limits do not flag its signature.
    """
    prevalence = Fraction(FAULT_PROBABILITY)
    shipped_faulty = shipped_good = Fraction(0)
    for fault_record in dictionary.records:
        weight = prevalence / len(dictionary.records) / len(fault_record.signatures)
        for item in fault_record.signatures:
            if not limits.flags(item):
                shipped_faulty += weight
    for item in dictionary.references:
        if not limits.flags(item):
            shipped_good += (1 - prevalence) / len(dictionary.references)
    shipped = shipped_faulty + shipped_good
    return shipped_faulty / shipped if shipped else Fraction(0)


def generated_signature(draw, label):
    executed = draw(st.booleans())
    return signature(
        label,
        failed=draw(st.booleans()),
        acpr=draw(st.floats(-60.0, -20.0)),
        obw=draw(st.floats(5e6, 20e6)),
        skew=draw(st.floats(0.0, 40.0)),
        executed=executed,
        error=None if executed else "RuntimeError: boom",
    )


@st.composite
def dictionaries(draw):
    """1-10 records of 1-8 signatures, 1-16 references, errored signatures included."""
    records = []
    for index in range(draw(st.integers(1, 10))):
        label = f"{PROFILE}/pa-compression-{index}"
        records.append(
            FaultRecord(
                point=FaultPoint(label=label, profile_name=PROFILE, fault=PaCompressionFault()),
                signatures=tuple(
                    generated_signature(draw, f"{label}/r{repeat}")
                    for repeat in range(draw(st.integers(1, 8)))
                ),
            )
        )
    references = tuple(
        generated_signature(draw, f"{PROFILE}/reference/r{index}")
        for index in range(draw(st.integers(1, 16)))
    )
    return FaultDictionary(records=tuple(records), references=references)


limit_sets = st.builds(
    TestLimits,
    use_bist_verdict=st.booleans(),
    max_acpr_db=st.none() | st.floats(-60.0, -20.0),
    max_occupied_bandwidth_hz=st.none() | st.floats(5e6, 20e6),
    max_skew_deviation_ps=st.none() | st.floats(0.0, 40.0),
)


class TestTestEscape:
    @settings(max_examples=200, deadline=None)
    @given(dictionary=dictionaries(), limits=limit_sets)
    def test_matches_exact_enumeration(self, dictionary, limits):
        report = FaultCoverageReport.from_dictionary(dictionary, limits)
        expected = enumerated_test_escape(dictionary, limits)
        assert report.test_escape_rate == pytest.approx(float(expected), rel=0.0, abs=1e-12)

    def test_three_record_dictionary(self):
        # Detection 1, 1/2 and 0: a faulty unit passes with q = 1/2, so the
        # escape is p q / (p q + 1 - p) = 0.025 / 0.975.
        report = FaultCoverageReport.from_dictionary(make_dictionary())
        assert report.test_escape_rate == pytest.approx(0.025 / 0.975, rel=0.0, abs=1e-15)

    def test_perfect_screen_has_no_escapes(self):
        dictionary = FaultDictionary(
            records=(record(PaCompressionFault(), "pa-compression-s1", [True, True]),),
            references=tuple(signature(f"r{i}") for i in range(4)),
        )
        assert FaultCoverageReport.from_dictionary(dictionary).test_escape_rate == 0.0

    def test_blind_screen_escapes_at_prevalence(self):
        # Nothing is ever flagged: every unit ships, so the shipped-faulty
        # share is the prevalence itself.
        dictionary = FaultDictionary(
            records=(record(DcdeErrorFault(), "dcde-error-s1", [False, False]),),
            references=tuple(signature(f"r{i}") for i in range(4)),
        )
        report = FaultCoverageReport.from_dictionary(dictionary)
        assert report.false_alarm_rate == 0.0
        assert report.test_escape_rate == pytest.approx(FAULT_PROBABILITY, rel=0.0, abs=1e-15)

    def test_screen_flagging_every_unit_ships_nothing(self):
        dictionary = FaultDictionary(
            records=(record(PaCompressionFault(), "pa-compression-s1", [True, True]),),
            references=tuple(signature(f"r{i}", failed=True) for i in range(4)),
        )
        report = FaultCoverageReport.from_dictionary(dictionary)
        assert report.false_alarm_rate == 1.0
        assert report.test_escape_rate == 0.0


class TestSerialization:
    def test_dictionary_round_trip(self):
        dictionary = make_dictionary()
        payload = json.loads(json.dumps(dictionary.to_dict()))
        rebuilt = FaultDictionary.from_dict(payload)
        assert rebuilt == dictionary

    def test_dictionary_written_with_fault_corner_params_still_loads(self):
        # Fault corners such as the DCDE error's were fields; dictionaries
        # archived with them in the fault parameters still load.
        dictionary = make_dictionary()
        payload = dictionary.to_dict()
        for entry in payload["records"]:
            if entry["point"]["fault"]["family"] == "dcde-error":
                entry["point"]["fault"]["params"]["max_static_error_seconds"] = 8e-12
        assert FaultDictionary.from_dict(payload) == dictionary

    @pytest.mark.parametrize(
        "fault, param, fixed, other",
        [
            (DcdeErrorFault(severity=1.0), "max_static_error_seconds", 8e-12, 5e-12),
            (LoLeakageFault(severity=1.0), "max_q_offset", 0.0, 0.1),
        ],
    )
    def test_fault_corner_loads_only_at_its_fixed_value(self, fault, param, fixed, other):
        data = record(fault, "x", [True]).to_dict()
        data["point"]["fault"]["params"][param] = fixed
        assert FaultRecord.from_dict(data) == record(fault, "x", [True])
        data["point"]["fault"]["params"][param] = other
        with pytest.raises(ValidationError):
            FaultRecord.from_dict(data)

    def test_signature_round_trip(self):
        original = signature("x", failed=True, evm=None)
        assert FaultSignature.from_dict(json.loads(json.dumps(original.to_dict()))) == original


class TestCoverageReport:
    def test_ranking_and_statuses(self):
        report = FaultCoverageReport.from_dictionary(make_dictionary())
        labels = [entry.label for entry in report.entries]
        assert labels == [
            f"{PROFILE}/pa-compression-s1",
            f"{PROFILE}/pa-compression-s0.5",
            f"{PROFILE}/dcde-error-s1",
        ]
        statuses = {entry.label: entry.status for entry in report.entries}
        assert statuses[f"{PROFILE}/pa-compression-s1"] == "covered"
        # Detected on 1 of 2 repeats: covered at threshold 0.5 but marginal.
        assert statuses[f"{PROFILE}/pa-compression-s0.5"] == "covered"
        assert statuses[f"{PROFILE}/dcde-error-s1"] == "uncovered"
        marginal = {entry.label: entry.marginal for entry in report.entries}
        assert marginal == {
            f"{PROFILE}/pa-compression-s1": False,
            f"{PROFILE}/pa-compression-s0.5": True,
            f"{PROFILE}/dcde-error-s1": False,
        }
        assert [entry.label for entry in report.uncovered_faults()] == [
            f"{PROFILE}/dcde-error-s1"
        ]
        assert [entry.label for entry in report.marginal_faults()] == [
            f"{PROFILE}/pa-compression-s0.5"
        ]

    def test_uncovered_list_reconciles_with_coverage_fraction(self):
        # A marginal-but-undetected point (P = 0.25 at threshold 0.5) must
        # appear in the uncovered list, so headline coverage and the lists
        # in the serialized artifact always agree.
        dictionary = FaultDictionary(
            records=(
                record(PaCompressionFault(severity=1.0), "pa-compression-s1", [True] * 4),
                record(
                    PaCompressionFault(severity=0.5),
                    "pa-compression-s0.5",
                    [True, False, False, False],
                ),
                record(DcdeErrorFault(severity=1.0), "dcde-error-s1", [False] * 4),
            ),
            references=tuple(signature(f"{PROFILE}/reference/r{i}") for i in range(4)),
        )
        report = FaultCoverageReport.from_dictionary(dictionary)
        uncovered = [entry.label for entry in report.uncovered_faults()]
        assert set(uncovered) == set(report.coverage_result.uncovered)
        assert f"{PROFILE}/pa-compression-s0.5" in uncovered
        assert report.coverage == pytest.approx(1.0 - len(uncovered) / 3.0)
        payload = report.to_dict()
        assert set(payload["uncovered"]) == set(report.coverage_result.uncovered)
        assert f"{PROFILE}/pa-compression-s0.5" in payload["marginal"]

    def test_to_text_mentions_holes(self):
        report = FaultCoverageReport.from_dictionary(make_dictionary())
        text = report.to_text()
        assert "fault coverage" in text
        assert "false-alarm (yield-loss) rate 0.0%" in text
        assert "test escape 2.56%" in text
        assert "uncovered (test holes)" in text
        assert "dcde-error-s1" in text

    def test_to_dict_is_json_friendly(self):
        report = FaultCoverageReport.from_dictionary(make_dictionary())
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["coverage"] == pytest.approx(2.0 / 3.0)
        assert payload["uncovered"] == [f"{PROFILE}/dcde-error-s1"]
        assert payload["test_escape_rate"] == report.test_escape_rate
        assert payload["fault_probability"] == FAULT_PROBABILITY
        assert "escape" not in payload
