"""Generated test of the fingerprint contract: fingerprint-equal <=> same inputs.

The campaign store serves a fingerprint hit in place of an execution, so a
scenario's fingerprint must move exactly when the effective inputs of its
execution move.  Each example perturbs one field of the campaign's
:class:`BistConfig`, of the scenario's :class:`ConverterSpec` or
:class:`ImpairmentConfig`, or of the scenario itself (``label``,
``num_symbols``), under either seed policy, and checks that the fingerprint
changes if and only if :func:`resolve_scenario`'s effective inputs change.
The inputs are compared as dataclasses, not through the payload the
fingerprint hashes, so a field the payload dropped would show.

Four perturbations are absorbed by the resolution on ``paper-qpsk-1ghz``
(nominal bandwidth 90 -> 100 MHz, 60 MHz effective in both; programmed
delay 180 -> 200 ps, clamped to 165.1 ps in both; a relabel under the
``shared`` seed policy; converter knobs at ``-0.0`` instead of ``0.0``);
those pairs are also executed and must give bit-identical reports.

The generated floats include ``-0.0`` wherever a field's range holds zero.
The dataclasses compare it equal to ``0.0``, so the fingerprint must not
tell the two apart either.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bist import (
    BistConfig,
    CampaignRunner,
    CampaignScenario,
    ConverterSpec,
    derive_scenario_seed,
)
from repro.bist.campaign import resolve_scenario
from repro.rf.impairments import DcOffset, IqImbalance
from repro.store import scenario_fingerprint
from repro.transmitter import ImpairmentConfig

PAPER = "paper-qpsk-1ghz"
PROFILES = (PAPER, "ofdm-uhf-qpsk-400mhz", "narrowband-vhf-bpsk")
#: Grid position the runner would give the scenario (per-scenario seeds use it).
INDEX = 3

FAST_CONFIG = BistConfig(
    num_samples_fast=128,
    num_samples_slow=64,
    lms_max_iterations=25,
    num_cost_points=60,
    measure_evm_enabled=False,
)


def floats(low, high):
    """Floats in ``[low, high]``; a range holding zero draws ``-0.0`` often."""
    values = st.floats(low, high, allow_nan=False)
    return values | st.just(-0.0) if low <= 0.0 <= high else values


BIST_FIELDS = {
    "acquisition_bandwidth_hz": st.sampled_from([20e6, 40e6, 60e6, 90e6, 100e6]) | floats(1e6, 2e8),
    "num_samples_fast": st.integers(64, 2048),
    "num_samples_slow": st.integers(64, 512),
    "programmed_delay_seconds": st.sampled_from([150e-12, 180e-12, 200e-12]) | floats(1e-12, 5e-10),
    "lms_max_iterations": st.integers(1, 100),
    "num_cost_points": st.integers(10, 600),
    "measure_evm_enabled": st.booleans(),
    "seed": st.none() | st.integers(0, 2**32 - 1),
}

CONVERTER_FIELDS = {
    "skew_jitter_rms_seconds": floats(0.0, 1e-11),
    "dcde_static_error_seconds": floats(-1e-11, 1e-11),
    "channel1_skew_seconds": floats(-5e-12, 5e-12),
    "channel1_gain_error": floats(-0.1, 0.1),
    "channel1_offset": floats(-0.1, 0.1),
    "channel1_bandwidth_hz": st.none() | floats(1e8, 1e10),
    "bandwidth_reference_hz": st.none() | floats(1e8, 3e9),
    "seed": st.none() | st.integers(0, 2**32 - 1),
}

IMPAIRMENT_FIELDS = {
    "output_snr_db": st.none() | floats(10.0, 90.0),
    "output_filter_bandwidth_scale": floats(0.2, 3.0),
    "iq_imbalance": st.builds(IqImbalance, floats(-1.0, 1.0), floats(-5.0, 5.0)),
    "dc_offset": st.builds(DcOffset, floats(-0.05, 0.05)),
}

SCENARIO_FIELDS = {
    "label": st.none() | st.sampled_from(["a", "b", PAPER, "skew-2ps"]),
    "num_symbols": st.none() | st.integers(16, 512),
}


def perturbation(target, fields):
    return st.sampled_from(sorted(fields)).flatmap(
        lambda name: fields[name].map(lambda value: (target, name, value))
    )


PERTURBATIONS = st.one_of(
    perturbation("bist", BIST_FIELDS),
    perturbation("converter", CONVERTER_FIELDS),
    perturbation("impairments", IMPAIRMENT_FIELDS),
    perturbation("scenario", SCENARIO_FIELDS),
)


def perturb(scenario, config, change):
    """The scenario and campaign config with one field of one input changed."""
    target, name, value = change
    if target == "bist":
        return scenario, replace(config, **{name: value})
    if target == "converter":
        return replace(scenario, converter=replace(ConverterSpec(), **{name: value})), config
    if target == "impairments":
        return replace(scenario, impairments=replace(scenario.impairments, **{name: value})), config
    return replace(scenario, **{name: value}), config


def task_seed(scenario, config, policy):
    """The seed a :class:`CampaignRunner` with ``policy`` gives the scenario."""
    if policy == "shared":
        return ...
    return derive_scenario_seed(config.seed, INDEX, scenario.resolved_label())


def effective_inputs(scenario, config, policy) -> tuple:
    seed = task_seed(scenario, config, policy)
    return (*resolve_scenario(scenario, bist_config=config, seed=seed), scenario.num_symbols)


def fingerprint(scenario, config, policy) -> str:
    return scenario_fingerprint(scenario, config, seed=task_seed(scenario, config, policy))


@settings(max_examples=300, deadline=None)
@given(
    profile=st.sampled_from(PROFILES),
    policy=st.sampled_from(["shared", "per-scenario"]),
    change=PERTURBATIONS,
)
def test_fingerprint_moves_exactly_with_the_effective_inputs(profile, policy, change):
    base = CampaignScenario(profile=profile)
    config = BistConfig()
    scenario, perturbed_config = perturb(base, config, change)
    same_inputs = effective_inputs(base, config, policy) == effective_inputs(
        scenario, perturbed_config, policy
    )
    same_fingerprint = fingerprint(base, config, policy) == fingerprint(
        scenario, perturbed_config, policy
    )
    assert same_fingerprint == same_inputs


#: Perturbations ``resolve_scenario`` absorbs on ``paper-qpsk-1ghz`` under
#: the ``shared`` seed policy: name -> (base, perturbed), each a
#: ``(scenario, campaign config)`` pair.
ABSORBED = {
    "nominal-bandwidth-90-to-100-mhz": (
        (CampaignScenario(profile=PAPER), FAST_CONFIG),
        (CampaignScenario(profile=PAPER), replace(FAST_CONFIG, acquisition_bandwidth_hz=100e6)),
    ),
    "programmed-delay-180-to-200-ps": (
        (CampaignScenario(profile=PAPER), FAST_CONFIG),
        (CampaignScenario(profile=PAPER), replace(FAST_CONFIG, programmed_delay_seconds=200e-12)),
    ),
    "relabel": (
        (CampaignScenario(profile=PAPER, label="unit-a"), FAST_CONFIG),
        (CampaignScenario(profile=PAPER, label="unit-b"), FAST_CONFIG),
    ),
    "negative-zero-knobs": (
        (CampaignScenario(profile=PAPER), FAST_CONFIG),
        (
            CampaignScenario(
                profile=PAPER,
                converter=ConverterSpec(
                    channel1_skew_seconds=-0.0, dcde_static_error_seconds=-0.0
                ),
            ),
            FAST_CONFIG,
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(ABSORBED))
def test_absorbed_perturbation_keeps_fingerprint_and_report(name):
    pairs = ABSORBED[name]
    resolved = [effective_inputs(scenario, config, "shared") for scenario, config in pairs]
    assert resolved[0] == resolved[1]
    effective = resolved[0][1]
    assert effective.acquisition_bandwidth_hz == 60e6
    assert effective.programmed_delay_seconds == pytest.approx(165.1e-12, abs=0.05e-12)
    fingerprints = {fingerprint(scenario, config, "shared") for scenario, config in pairs}
    assert len(fingerprints) == 1
    reports = [
        CampaignRunner(bist_config=config).run([scenario], indices=[INDEX]).outcomes[0].report
        for scenario, config in pairs
    ]
    assert reports[0] is not None and reports[1] is not None
    assert reports[0].to_dict() == reports[1].to_dict()
