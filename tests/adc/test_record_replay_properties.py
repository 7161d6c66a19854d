"""Generated-input property of the record = replay contract.

Each example resolves a waveform profile through the campaign's
``resolve_scenario`` (so it gets its adapted bandwidth and programmed
delay), runs one BIST with a bare ``BpTiadc`` wrapped in a
``RecordingSource``, saves the capture to ``.npz``, loads it back and
replays it through ``CapturedSamplesSource``.  The replayed report must equal
the recorded one exactly, and a replay whose delay request or carrier moved
must raise ``ConfigurationError`` instead of measuring something else.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adc.acquisition import AcquisitionCapture, CapturedSamplesSource, RecordingSource
from repro.bist import BistConfig, CampaignScenario, ConverterSpec, TransmitterBist
from repro.bist.campaign import resolve_scenario
from repro.errors import ConfigurationError
from repro.transmitter import HomodyneTransmitter

PROFILES = ("paper-qpsk-1ghz", "uhf-8psk-400mhz", "ofdm-uhf-qpsk-400mhz")


@st.composite
def recordings(draw):
    """``(scenario, base config)`` of one small generated BIST run."""
    num_samples_fast = draw(st.integers(96, 192))
    config = BistConfig(
        num_samples_fast=num_samples_fast,
        num_samples_slow=max(64, num_samples_fast // 2),
        lms_max_iterations=draw(st.integers(3, 8)),
        num_cost_points=draw(st.integers(10, 30)),
        measure_evm_enabled=draw(st.booleans()),
    )
    converter = ConverterSpec(
        seed=draw(st.integers(0, 2**16)),
        dcde_static_error_seconds=draw(st.floats(-8e-12, 8e-12)),
        channel1_skew_seconds=draw(st.floats(-3e-12, 3e-12)),
    )
    scenario = CampaignScenario(draw(st.sampled_from(PROFILES)), converter=converter)
    return scenario, config


def run_bist(transmitter_config, source, profile, config):
    engine = TransmitterBist(
        HomodyneTransmitter(transmitter_config), source, profile=profile, config=config
    )
    return engine.run()


@settings(max_examples=10, deadline=None)
@given(case=recordings())
def test_replay_from_disk_equals_the_recorded_run(case, tmp_path_factory):
    scenario, base_config = case
    profile, config, transmitter_config, factory = resolve_scenario(
        scenario, bist_config=base_config
    )
    recorder = RecordingSource(factory(config.acquisition_bandwidth_hz))
    recorded = run_bist(transmitter_config, recorder, profile, config)

    path = tmp_path_factory.mktemp("capture") / "capture.npz"
    recorder.capture().save(path)
    capture = AcquisitionCapture.load(path)

    replayed = run_bist(transmitter_config, CapturedSamplesSource(capture), profile, config)
    assert replayed.to_dict() == recorded.to_dict()

    moved_delay = replace(config, programmed_delay_seconds=1.1 * config.programmed_delay_seconds)
    with pytest.raises(ConfigurationError, match="delay request"):
        run_bist(transmitter_config, CapturedSamplesSource(capture), profile, moved_delay)

    moved_carrier = replace(
        transmitter_config, carrier_frequency_hz=1.05 * transmitter_config.carrier_frequency_hz
    )
    with pytest.raises(ConfigurationError, match="recorded around"):
        run_bist(moved_carrier, CapturedSamplesSource(capture), profile, config)
