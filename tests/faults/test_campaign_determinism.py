"""Acceptance tests: a real FaultCampaign over >= 5 families x 3 severities.

The campaign executes genuine (small) BIST runs; the tests pin down the
subsystem's headline contract:

* the FaultDictionary and every derived number (coverage, false alarms,
  test escape) is deterministic under a fixed seed;
* serial and process-pool execution produce the identical dictionary;
* a known-undetectable fault (the DCDE static error the LMS calibration is
  designed to absorb) is reported as uncovered.
"""

import json

import pytest

from repro.bist import BistConfig
from repro.faults import (
    FaultCampaign,
    FaultCoverageReport,
    FaultDictionary,
    TestLimits,
    fault_grid,
)

#: >= 5 fault families...
FAMILIES = [
    "pa-compression",
    "iq-imbalance",
    "lo-leakage",
    "tiadc-skew",
    "dcde-error",
]
#: ... x >= 3 severities.
SEVERITIES = [0.25, 0.5, 1.0]

#: Small-but-real engine configuration so the campaign stays fast.
FAST_CONFIG = BistConfig(
    num_samples_fast=128,
    num_samples_slow=64,
    lms_max_iterations=20,
    num_cost_points=40,
    measure_evm_enabled=False,
)

LIMITS = TestLimits(max_skew_deviation_ps=20.0)


def build_campaign():
    return FaultCampaign(
        ["paper-qpsk-1ghz"],
        fault_grid(FAMILIES, SEVERITIES),
        bist_config=FAST_CONFIG,
        num_repeats=1,
        num_reference=2,
    )


@pytest.fixture(scope="module")
def serial_dictionary():
    return build_campaign().run(max_workers=1).dictionary()


@pytest.mark.slow
class TestAcceptance:
    def test_campaign_shape(self, serial_dictionary):
        assert len(serial_dictionary.records) == len(FAMILIES) * len(SEVERITIES)
        assert len(serial_dictionary.references) == 2
        families = {record.point.fault.family for record in serial_dictionary.records}
        assert families == set(FAMILIES)

    def test_every_scenario_executed(self, serial_dictionary):
        for record in serial_dictionary.records:
            for signature in record.signatures:
                assert signature.executed, signature.error

    def test_deterministic_under_fixed_seed(self, serial_dictionary):
        repeat = build_campaign().run(max_workers=1).dictionary()
        assert repeat.to_dict() == serial_dictionary.to_dict()
        assert (
            FaultCoverageReport.from_dictionary(repeat, LIMITS).to_dict()
            == FaultCoverageReport.from_dictionary(serial_dictionary, LIMITS).to_dict()
        )

    def test_parallel_identical_to_serial(self, serial_dictionary):
        parallel = build_campaign().run(max_workers=2).dictionary()
        assert parallel.to_dict() == serial_dictionary.to_dict()
        assert (
            parallel.coverage(LIMITS).to_dict() == serial_dictionary.coverage(LIMITS).to_dict()
        )
        assert (
            FaultCoverageReport.from_dictionary(parallel, LIMITS).to_dict()
            == FaultCoverageReport.from_dictionary(serial_dictionary, LIMITS).to_dict()
        )

    def test_known_undetectable_fault_uncovered(self, serial_dictionary):
        """The LMS calibration absorbs the DCDE static error by design."""
        coverage = serial_dictionary.coverage(LIMITS)
        for severity in SEVERITIES:
            label = f"paper-qpsk-1ghz/dcde-error-s{severity:g}"
            assert coverage.probabilities[label] == 0.0
            assert label in coverage.uncovered

    def test_detectable_fault_covered(self, serial_dictionary):
        """Deep PA compression must trip the ACPR/mask screen."""
        coverage = serial_dictionary.coverage(LIMITS)
        assert coverage.probabilities["paper-qpsk-1ghz/pa-compression-s1"] == 1.0
        # The severe TIADC skew is flagged through the skew-deviation bound.
        assert coverage.probabilities["paper-qpsk-1ghz/tiadc-skew-s1"] == 1.0

    def test_report_numbers_deterministic_and_archivable(self, serial_dictionary):
        a = FaultCoverageReport.from_dictionary(serial_dictionary, LIMITS)
        b = FaultCoverageReport.from_dictionary(serial_dictionary, LIMITS)
        assert a.to_dict() == b.to_dict()
        # The whole analysis survives a JSON archive cycle.
        payload = json.loads(json.dumps(serial_dictionary.to_dict()))
        rebuilt = FaultDictionary.from_dict(payload)
        assert (
            FaultCoverageReport.from_dictionary(rebuilt, LIMITS).to_dict()
            == a.to_dict()
        )
