"""Tests for repro.bist.report."""

import numpy as np
import pytest

from repro.bist import BistReport, CheckResult, SkewCalibrationReport, Verdict
from repro.bist.measurements import TxMeasurements
from repro.dsp import SpectrumEstimate
from repro.errors import ValidationError


def dummy_measurements():
    frequencies = np.linspace(0.9e9, 1.1e9, 101)
    psd = np.ones_like(frequencies)
    spectrum = SpectrumEstimate(frequencies, psd, frequencies[1] - frequencies[0], False)
    return TxMeasurements(
        output_power=0.5,
        acpr_db={"lower_db": -45.0, "upper_db": -43.0, "worst_db": -43.0},
        occupied_bandwidth_hz=14e6,
        evm_percent=3.2,
        spectrum=spectrum,
    )


def dummy_calibration(converged=True):
    return SkewCalibrationReport(
        estimated_delay_seconds=187.2e-12,
        programmed_delay_seconds=180e-12,
        true_delay_seconds=187.0e-12,
        iterations=12,
        converged=converged,
        final_cost=1e-6,
    )


def make_report(checks):
    return BistReport(
        profile_name="paper-qpsk-1ghz",
        calibration=dummy_calibration(),
        measurements=dummy_measurements(),
        checks=tuple(checks),
    )


class TestVerdict:
    def test_passed_property(self):
        assert Verdict.PASS.passed
        assert Verdict.SKIPPED.passed
        assert not Verdict.FAIL.passed


class TestSkewCalibrationReport:
    def test_estimation_error(self):
        report = dummy_calibration()
        assert report.estimation_error_seconds == pytest.approx(0.2e-12)

    def test_unknown_true_delay(self):
        report = SkewCalibrationReport(
            estimated_delay_seconds=1e-10,
            programmed_delay_seconds=1e-10,
            true_delay_seconds=None,
            iterations=5,
            converged=True,
            final_cost=0.0,
        )
        assert report.estimation_error_seconds is None


class TestCheckResult:
    def test_summary_contains_fields(self):
        check = CheckResult("acpr", Verdict.PASS, measured=-43.0, limit=-35.0, details="dB")
        text = check.summary()
        assert "acpr" in text and "PASS" in text and "-43.000" in text

    def test_summary_handles_missing_values(self):
        check = CheckResult("evm", Verdict.SKIPPED)
        assert "n/a" in check.summary()


class TestBistReport:
    def test_overall_pass(self):
        report = make_report([CheckResult("acpr", Verdict.PASS), CheckResult("evm", Verdict.PASS)])
        assert report.verdict is Verdict.PASS
        assert report.passed

    def test_single_failure_fails_report(self):
        report = make_report([CheckResult("acpr", Verdict.PASS), CheckResult("evm", Verdict.FAIL)])
        assert report.verdict is Verdict.FAIL
        assert not report.passed

    def test_skipped_does_not_fail(self):
        report = make_report([CheckResult("acpr", Verdict.PASS), CheckResult("evm", Verdict.SKIPPED)])
        assert report.passed

    def test_check_lookup(self):
        report = make_report([CheckResult("acpr", Verdict.PASS, measured=-43.0)])
        assert report.check("acpr").measured == pytest.approx(-43.0)
        with pytest.raises(ValidationError):
            report.check("missing")

    def test_empty_checks_rejected(self):
        with pytest.raises(ValidationError):
            make_report([])

    def test_to_text_mentions_everything(self):
        report = make_report([CheckResult("acpr", Verdict.PASS, measured=-43.0, limit=-35.0)])
        text = report.to_text()
        assert "paper-qpsk-1ghz" in text
        assert "187.20 ps" in text
        assert "acpr" in text

    def test_to_dict_round_trip_fields(self):
        report = make_report([CheckResult("acpr", Verdict.FAIL, measured=-30.0, limit=-35.0)])
        as_dict = report.to_dict()
        assert as_dict["verdict"] == "fail"
        assert as_dict["checks"]["acpr"]["measured"] == pytest.approx(-30.0)
        assert as_dict["calibration"]["iterations"] == 12

    def test_from_dict_rebuilds_identical_report(self):
        import json

        report = make_report(
            [
                CheckResult("acpr", Verdict.FAIL, measured=-30.0, limit=-35.0, details="worst"),
                CheckResult("evm", Verdict.SKIPPED),
            ]
        )
        payload = json.loads(json.dumps(report.to_dict()))
        rebuilt = BistReport.from_dict(payload)
        assert rebuilt.profile_name == report.profile_name
        assert rebuilt.verdict is report.verdict
        assert rebuilt.calibration == report.calibration
        assert rebuilt.checks == report.checks
        assert rebuilt.measurements.acpr_db == report.measurements.acpr_db
        assert np.array_equal(
            rebuilt.measurements.spectrum.psd, report.measurements.spectrum.psd
        )
        # The archive format is stable under a second cycle.
        assert rebuilt.to_dict() == report.to_dict()

    def test_calibration_round_trip_is_exact(self):
        calibration = dummy_calibration()
        rebuilt = SkewCalibrationReport.from_dict(calibration.to_dict())
        assert rebuilt == calibration
