"""Tests for repro.faults.injection: campaign expansion and plumbing."""

import pytest

from repro.bist import BistConfig, ConverterSpec
from repro.errors import ValidationError
from repro.faults import (
    FaultCampaign,
    PaCompressionFault,
    TiadcBandwidthFault,
    TiadcSkewFault,
    fault_grid,
)
from repro.signals import get_profile


def two_family_campaign(**kwargs):
    defaults = dict(num_repeats=2, num_reference=3)
    defaults.update(kwargs)
    return FaultCampaign(
        ["paper-qpsk-1ghz"],
        fault_grid(["pa-compression", "tiadc-skew"], [0.5, 1.0]),
        **defaults,
    )


class TestMimoOnlyFamilies:
    @pytest.mark.parametrize("family", ["tx-leakage", "shared-lo", "channel-spread"])
    def test_single_chain_campaign_rejects_them(self, family):
        # They act only through apply_mimo: the scenario would be the
        # fault-free one, and the campaign would count a good unit as an
        # undetected fault.
        campaign = FaultCampaign(["paper-qpsk-1ghz"], fault_grid([family], [1.0]))
        with pytest.raises(ValidationError, match="run_channel_matrix"):
            campaign.build_scenarios()


class TestExpansion:
    def test_scenario_count(self):
        campaign = two_family_campaign()
        # 3 references + 2 families x 2 severities x 2 repeats = 11
        assert len(campaign) == 11
        assert len(campaign.build_scenarios()) == 11

    def test_labels_unique_and_structured(self):
        scenarios = two_family_campaign().build_scenarios()
        labels = [scenario.label for scenario in scenarios]
        assert len(set(labels)) == len(labels)
        assert "paper-qpsk-1ghz/reference/r0" in labels
        assert "paper-qpsk-1ghz/pa-compression-s0.5/r1" in labels

    def test_points_bound_per_profile(self):
        campaign = FaultCampaign(
            ["paper-qpsk-1ghz", "uhf-8psk-400mhz"],
            [TiadcBandwidthFault()],
            num_repeats=1,
            num_reference=1,
        )
        points = campaign.points
        assert len(points) == 2
        # The bandwidth fault specialises to each profile's carrier.
        by_profile = {point.profile_name: point.fault for point in points}
        assert by_profile["paper-qpsk-1ghz"].reference_frequency_hz == pytest.approx(1.0e9)
        assert by_profile["uhf-8psk-400mhz"].reference_frequency_hz == pytest.approx(
            get_profile("uhf-8psk-400mhz").carrier_frequency_hz
        )

    def test_fault_scenarios_carry_injected_state(self):
        scenarios = two_family_campaign().build_scenarios()
        by_label = {scenario.label: scenario for scenario in scenarios}
        skew = by_label["paper-qpsk-1ghz/tiadc-skew-s1/r0"]
        assert skew.converter.channel1_skew_seconds == pytest.approx(40e-12)
        reference = by_label["paper-qpsk-1ghz/reference/r0"]
        assert reference.converter == ConverterSpec()


class TestValidation:
    def test_empty_profiles_rejected(self):
        with pytest.raises(ValidationError):
            FaultCampaign([], [PaCompressionFault()])

    def test_empty_faults_rejected(self):
        with pytest.raises(ValidationError):
            FaultCampaign(["paper-qpsk-1ghz"], [])

    def test_non_fault_rejected(self):
        with pytest.raises(ValidationError):
            FaultCampaign(["paper-qpsk-1ghz"], ["pa-compression"])

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValidationError):
            FaultCampaign(["nope"], [PaCompressionFault()])

    def test_bad_repeats_rejected(self):
        with pytest.raises(ValidationError):
            FaultCampaign(["paper-qpsk-1ghz"], [PaCompressionFault()], num_repeats=0)
        with pytest.raises(ValidationError):
            FaultCampaign(["paper-qpsk-1ghz"], [PaCompressionFault()], num_reference=0)

    def test_duplicate_fault_points_rejected(self):
        campaign = FaultCampaign(
            ["paper-qpsk-1ghz"],
            [TiadcSkewFault(), TiadcSkewFault()],
        )
        with pytest.raises(ValidationError, match="duplicate fault point"):
            campaign.points
