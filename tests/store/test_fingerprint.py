"""Tests for repro.store.fingerprint: content-addressed scenario identity.

The fingerprint must change exactly when the execution result could change:
any knob of the transmitter, converter, engine or burst length moves it; a
relabelled but otherwise identical scenario keeps it.
"""

from dataclasses import replace

import pytest

import repro.store.fingerprint as fingerprint_module

from repro.bist import (
    BistConfig,
    CampaignScenario,
    ConverterSpec,
    derive_scenario_seed,
    pa_saturation_sweep,
)
from repro.errors import ConfigurationError, ValidationError
from repro.faults import IqImbalanceFault
from repro.store import canonical_json, fingerprint_payload, scenario_fingerprint
from repro.transmitter import ImpairmentConfig

BASE = CampaignScenario(profile="paper-qpsk-1ghz")
CONFIG = BistConfig(num_samples_fast=128, num_samples_slow=64)


class TestStability:
    def test_deterministic_across_calls(self):
        assert scenario_fingerprint(BASE, CONFIG) == scenario_fingerprint(BASE, CONFIG)

    def test_sha256_hex_shape(self):
        fingerprint = scenario_fingerprint(BASE, CONFIG)
        assert len(fingerprint) == 64
        int(fingerprint, 16)

    def test_canonical_json_ignores_key_order(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_label_does_not_change_identity(self):
        relabelled = replace(BASE, label="some-other-name")
        assert scenario_fingerprint(relabelled, CONFIG) == scenario_fingerprint(BASE, CONFIG)

    def test_equivalent_profile_spellings_share_identity(self):
        from repro.signals.standards import get_profile

        by_object = replace(BASE, profile=get_profile("paper-qpsk-1ghz"))
        assert scenario_fingerprint(by_object, CONFIG) == scenario_fingerprint(BASE, CONFIG)


class TestSensitivity:
    def fingerprints_differ(self, a_kwargs, b_kwargs) -> bool:
        return scenario_fingerprint(**a_kwargs) != scenario_fingerprint(**b_kwargs)

    def test_profile_changes_identity(self):
        other = replace(BASE, profile="uhf-8psk-400mhz")
        assert self.fingerprints_differ(
            dict(scenario=BASE, bist_config=CONFIG), dict(scenario=other, bist_config=CONFIG)
        )

    def test_impairments_change_identity(self):
        faulty = replace(
            BASE,
            impairments=IqImbalanceFault(severity=1.0).apply_transmitter(ImpairmentConfig()),
        )
        assert self.fingerprints_differ(
            dict(scenario=BASE, bist_config=CONFIG), dict(scenario=faulty, bist_config=CONFIG)
        )

    def test_converter_spec_changes_identity(self):
        skewed = replace(BASE, converter=ConverterSpec(channel1_skew_seconds=2e-12))
        assert self.fingerprints_differ(
            dict(scenario=BASE, bist_config=CONFIG), dict(scenario=skewed, bist_config=CONFIG)
        )

    def test_bist_config_changes_identity(self):
        other = replace(CONFIG, num_cost_points=40)
        assert self.fingerprints_differ(
            dict(scenario=BASE, bist_config=CONFIG), dict(scenario=BASE, bist_config=other)
        )

    def test_num_symbols_changes_identity(self):
        longer = replace(BASE, num_symbols=256)
        assert self.fingerprints_differ(
            dict(scenario=BASE, bist_config=CONFIG), dict(scenario=longer, bist_config=CONFIG)
        )

    def test_seed_override_changes_identity(self):
        assert scenario_fingerprint(BASE, CONFIG, seed=1) != scenario_fingerprint(
            BASE, CONFIG, seed=2
        )
        # The ... sentinel (historical seeding) is its own identity too.
        assert scenario_fingerprint(BASE, CONFIG) != scenario_fingerprint(BASE, CONFIG, seed=1)

    def test_schema_version_changes_identity(self, monkeypatch):
        before = scenario_fingerprint(BASE, CONFIG)
        monkeypatch.setattr(fingerprint_module, "SCHEMA_VERSION", 999)
        assert scenario_fingerprint(BASE, CONFIG) != before


class TestPayload:
    def test_payload_captures_effective_configuration(self):
        payload = fingerprint_payload(BASE, CONFIG)
        assert payload["schema_version"] == fingerprint_module.SCHEMA_VERSION
        assert payload["profile"]["name"] == "paper-qpsk-1ghz"
        # The per-scenario bandwidth adaptation must be reflected (narrowband
        # profiles shrink the acquisition below the campaign nominal).
        narrow = CampaignScenario(profile="narrowband-vhf-bpsk")
        narrow_payload = fingerprint_payload(narrow, CONFIG)
        assert (
            narrow_payload["bist"]["acquisition_bandwidth_hz"]
            < payload["bist"]["acquisition_bandwidth_hz"]
        )

    def test_payload_is_json_canonicalisable(self):
        canonical_json(fingerprint_payload(BASE, CONFIG, seed=7))

    def test_arbitrary_callable_factory_rejected(self):
        with pytest.raises(ConfigurationError, match="ConverterSpec"):
            scenario_fingerprint(BASE, CONFIG, converter_factory=lambda bandwidth: None)

    def test_scenario_type_checked(self):
        with pytest.raises(ValidationError):
            scenario_fingerprint("not-a-scenario", CONFIG)


#: Hex digests pinned when scenario resolution moved into
#: ``repro.bist.campaign.resolve_scenario``, re-pinned for ``SCHEMA_VERSION``
#: 10.  A change here re-keys every archived store (all lookups go cold): bump
#: ``SCHEMA_VERSION`` on purpose instead of editing a digest.
PAPER = "paper-qpsk-1ghz"
PINNED = {
    "paper-shared": (
        dict(scenario=CampaignScenario(profile=PAPER)),
        "35cb0df9e46579f8f87992c2645b336315df7ea94cf59773b5ff8080787d7b80",
    ),
    "paper-per-scenario-seed": (
        dict(
            scenario=CampaignScenario(profile=PAPER),
            seed=derive_scenario_seed(BistConfig().seed, 2, PAPER),
        ),
        "a7094d4bffb543daa049aa6168bd0aaf02f573488a3dd0c80fb939da7a986494",
    ),
    "scenario-converter-spec": (
        dict(
            scenario=CampaignScenario(
                profile=PAPER, converter=ConverterSpec(channel1_skew_seconds=2e-12)
            ),
            seed=12345,
        ),
        "bffedac6ebbc9f3d5a666074c4e166951b4d676aae969119ee8c2e81a98dc2e5",
    ),
    "fault-model-impairment": (
        dict(
            scenario=CampaignScenario(
                profile=PAPER, impairments=pa_saturation_sweep([0.75])[0][1]
            )
        ),
        "514d84f2755c9af2e31ac3d3d9e3e46d91df3d04a9276c37e96a1945680acad5",
    ),
    "ofdm-profile": (
        dict(scenario=CampaignScenario(profile="ofdm-uhf-qpsk-400mhz")),
        "460487a16dc1ba580fa81866f87b31c502a1d652b6a3ea45157f87a156e49957",
    ),
    "explicit-num-symbols": (
        dict(scenario=CampaignScenario(profile="uhf-8psk-400mhz", num_symbols=256)),
        "c23e25b27512c7cb386ea0239019730ed8221541917b7e644dedbcc8ada1f361",
    ),
}


class TestPinnedDigests:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_digest_is_unchanged(self, name):
        kwargs, digest = PINNED[name]
        assert scenario_fingerprint(**kwargs) == digest
