"""Tests for CampaignSpec: validation, expansion, JSON portability."""

import pytest

from repro.bist import BistConfig
from repro.bist.runner import pa_saturation_sweep, skew_sweep
from repro.bist.campaign import ConverterSpec
from repro.errors import ValidationError
from repro.service import CampaignSpec
from repro.transmitter import ImpairmentConfig

FAST_CONFIG = BistConfig(
    num_samples_fast=128,
    num_samples_slow=64,
    lms_max_iterations=25,
    num_cost_points=60,
    measure_evm_enabled=False,
)


class TestValidation:
    def test_requires_at_least_one_profile(self):
        with pytest.raises(ValidationError, match="at least one profile"):
            CampaignSpec(profiles=())

    def test_profiles_must_be_names(self):
        with pytest.raises(ValidationError, match="profile names"):
            CampaignSpec(profiles=(123,))

    def test_impairment_axis_must_carry_configs(self):
        with pytest.raises(ValidationError, match="ImpairmentConfig"):
            CampaignSpec(profiles=("paper-qpsk-1ghz",), impairments=(("x", object()),))

    def test_converter_axis_must_carry_specs(self):
        with pytest.raises(ValidationError, match="ConverterSpec"):
            CampaignSpec(profiles=("paper-qpsk-1ghz",), converters=(("x", 1.0),))

    def test_seed_policy_is_checked(self):
        with pytest.raises(ValidationError, match="seed_policy"):
            CampaignSpec(profiles=("paper-qpsk-1ghz",), seed_policy="random")

    def test_bist_config_type_is_checked(self):
        with pytest.raises(ValidationError, match="BistConfig"):
            CampaignSpec(profiles=("paper-qpsk-1ghz",), bist_config={"seed": 1})

    def test_a_bare_profile_string_is_rejected(self):
        # Iterating the string would make one-letter profile names.
        with pytest.raises(ValidationError, match="list of profile names"):
            CampaignSpec(profiles="paper-qpsk-1ghz")

    @pytest.mark.parametrize("entry", [("x",), ("x", ImpairmentConfig(), 1), (1, ImpairmentConfig())])
    def test_axis_entries_are_labelled_pairs(self, entry):
        with pytest.raises(ValidationError, match="pairs"):
            CampaignSpec(profiles=("paper-qpsk-1ghz",), impairments=(entry,))

    @pytest.mark.parametrize("num_symbols", [-5, 0, 2.5, True, "abc"])
    def test_num_symbols_is_a_positive_integer(self, num_symbols):
        with pytest.raises(ValidationError, match="num_symbols"):
            CampaignSpec(profiles=("paper-qpsk-1ghz",), num_symbols=num_symbols)


#: Malformed ``POST /jobs`` bodies; each must fail as a ValidationError (HTTP 400).
MALFORMED_PAYLOADS = [
    {"profiles": ["paper-qpsk-1ghz"], "impairments": [["x"]]},
    {"profiles": ["paper-qpsk-1ghz"], "converters": [["x", {}, 1]]},
    {"profiles": ["paper-qpsk-1ghz"], "converters": [["x", "not an object"]]},
    {"profiles": ["paper-qpsk-1ghz"], "impairments": "x"},
    {"profiles": "paper-qpsk-1ghz"},
    {"profiles": ["paper-qpsk-1ghz"], "num_symbols": -5},
    {"profiles": ["paper-qpsk-1ghz"], "num_symbols": 0},
    {"profiles": ["paper-qpsk-1ghz"], "num_symbols": 2.5},
    {"profiles": ["paper-qpsk-1ghz"], "num_symbols": True},
    {"profiles": ["paper-qpsk-1ghz"], "num_symbols": "abc"},
]


@pytest.mark.parametrize("payload", MALFORMED_PAYLOADS)
def test_from_dict_rejects_malformed_payloads(payload):
    with pytest.raises(ValidationError):
        CampaignSpec.from_dict(payload)


class TestExpansion:
    def test_cartesian_product_size(self):
        spec = CampaignSpec(
            profiles=("paper-qpsk-1ghz", "uhf-8psk-400mhz"),
            impairments=(
                ("nominal", ImpairmentConfig()),
                ("hot", pa_saturation_sweep((1.0,))[0][1]),
            ),
            converters=(("skew", skew_sweep([2e-12])[0][1]),),
        )
        assert len(spec) == 4
        assert len(spec.scenarios()) == 4

    def test_describe_mentions_axes(self):
        spec = CampaignSpec(
            profiles=("paper-qpsk-1ghz",),
            impairments=(("nominal", ImpairmentConfig()),),
        )
        text = spec.describe()
        assert "1 profile(s)" in text
        assert "1 impairment(s)" in text

    def test_scenarios_match_a_hand_built_grid(self):
        from repro.bist import ScenarioGrid

        spec = CampaignSpec(profiles=("paper-qpsk-1ghz",), num_symbols=32)
        manual = ScenarioGrid(num_symbols=32).add_profiles("paper-qpsk-1ghz").build()
        assert spec.scenarios() == manual


class TestRoundTrip:
    def test_full_round_trip(self):
        spec = CampaignSpec(
            profiles=("paper-qpsk-1ghz", "uhf-8psk-400mhz"),
            impairments=(("hot", pa_saturation_sweep((1.0,))[0][1]),),
            converters=(("skew", skew_sweep([2e-12])[0][1]),),
            num_symbols=48,
            bist_config=FAST_CONFIG,
            seed_policy="per-scenario",
            compile_groups=True,
        )
        rebuilt = CampaignSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.to_dict() == spec.to_dict()

    def test_from_dict_rejects_non_objects(self):
        with pytest.raises(ValidationError, match="JSON object"):
            CampaignSpec.from_dict([1, 2, 3])

    def test_from_dict_requires_profiles(self):
        with pytest.raises(ValidationError, match="profiles"):
            CampaignSpec.from_dict({"seed_policy": "shared"})

    def test_defaults_survive_the_round_trip(self):
        spec = CampaignSpec(profiles=("paper-qpsk-1ghz",))
        rebuilt = CampaignSpec.from_dict(spec.to_dict())
        assert rebuilt.bist_config == BistConfig()
        assert rebuilt.seed_policy == "shared"
        assert not rebuilt.compile_groups
