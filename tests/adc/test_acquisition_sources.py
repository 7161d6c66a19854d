"""Tests for repro.adc.acquisition: the hardware seam under the BIST engine.

Covers the converter as a source, the record/replay pair, ``.npz``
persistence, the replay-mismatch guard rails (delay request, band centre,
rate, sample count, start time), and the engine-level determinism contract:
a BIST run replayed from its own recorded captures yields a bit-identical
report, and a replay under a drifted configuration raises instead.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.adc import BpTiadc
from repro.adc.acquisition import (
    AcquisitionCapture,
    AcquisitionSource,
    CaptureRecord,
    CapturedSamplesSource,
    RecordingSource,
)
from repro.bist import BistConfig, ConverterSpec, TransmitterBist
from repro.errors import ConfigurationError, ValidationError
from repro.sampling import BandpassBand
from repro.transmitter import HomodyneTransmitter, TransmitterConfig

FAST = BistConfig(
    num_samples_fast=256,
    num_samples_slow=128,
    lms_max_iterations=40,
    num_cost_points=120,
    measure_evm_enabled=False,
)


def make_converter(config: BistConfig = FAST) -> BpTiadc:
    return ConverterSpec(
        dcde_static_error_seconds=5e-12,
        channel1_skew_seconds=2e-12,
        seed=5,
    )(config.acquisition_bandwidth_hz)


#: The band the synthetic capture's records were acquired around.
BAND = BandpassBand(0.96e9, 1.04e9)


def synthetic_capture(num_records: int = 2) -> AcquisitionCapture:
    """A small hand-built capture (no simulation) for replay unit tests."""
    records = []
    for index in range(num_records):
        size = 16
        records.append(
            CaptureRecord(
                sample_rate_hz=80e6 / (index + 1),
                num_samples=size,
                start_time=0.25 * index,
                on_grid=np.linspace(-1.0, 1.0, size) + index,
                delayed=np.linspace(1.0, -1.0, size) - index,
                sample_period=(index + 1) / 80e6,
                delay=100e-12,
                band_f_low=0.96e9,
                band_f_high=1.04e9,
            )
        )
    return AcquisitionCapture(
        records=tuple(records),
        programmed_delay_seconds=100e-12,
        true_delay_seconds=102e-12,
        requested_delay_seconds=100.4e-12,
    )


class TestConverterIsASource:
    def test_bp_tiadc_is_an_acquisition_source(self):
        assert isinstance(make_converter(), AcquisitionSource)

    def test_engine_rejects_other_types(self):
        transmitter = HomodyneTransmitter(TransmitterConfig.paper_default())
        with pytest.raises(ValidationError, match="AcquisitionSource"):
            TransmitterBist(transmitter, "a-device-handle", config=FAST)

    def test_protocol_calls_reach_the_converter(self):
        converter = make_converter()
        programmed = converter.program_delay(100e-12)
        assert programmed == converter.programmed_delay
        assert converter.true_delay != programmed  # static error + skew
        slow = converter.with_sample_rate(0.5 * converter.sample_rate)
        assert isinstance(slow, AcquisitionSource)
        assert slow.sample_rate == 0.5 * converter.sample_rate

    def test_engine_accepts_every_source_kind(self):
        transmitter = HomodyneTransmitter(TransmitterConfig.paper_default())
        replay = CapturedSamplesSource(
            synthetic_capture(), sample_rate=FAST.acquisition_bandwidth_hz
        )
        for source in (make_converter(), RecordingSource(make_converter()), replay):
            TransmitterBist(transmitter, source, config=FAST)


class TestRecordingSource:
    def test_inner_must_be_a_source(self):
        with pytest.raises(ValidationError, match="inner must be an AcquisitionSource"):
            RecordingSource("a-device-handle")

    def test_rate_and_delays_pass_through(self):
        converter = make_converter()
        recorder = RecordingSource(converter)
        assert recorder.sample_rate == converter.sample_rate
        assert recorder.program_delay(180e-12) == converter.programmed_delay
        assert recorder.true_delay == converter.true_delay
        capture = recorder.capture()
        assert capture.requested_delay_seconds == 180e-12
        assert capture.programmed_delay_seconds == converter.programmed_delay
        # The true delay is recorded with the first acquisition.
        assert capture.true_delay_seconds is None

    def test_unprogrammed_recording_is_empty(self):
        capture = RecordingSource(make_converter()).capture()
        assert len(capture) == 0
        assert capture.programmed_delay_seconds is None
        assert capture.true_delay_seconds is None
        assert capture.requested_delay_seconds is None

    def test_re_recording_a_replay_reproduces_the_capture(self):
        capture = synthetic_capture()
        recorder = RecordingSource(CapturedSamplesSource(capture))
        recorder.program_delay(capture.requested_delay_seconds)
        recorder.acquire(None, BAND, 16, start_time=0.0)
        recorder.with_sample_rate(40e6).acquire(None, BAND, 16, start_time=0.25)
        again = recorder.capture()
        assert again.programmed_delay_seconds == capture.programmed_delay_seconds
        assert again.true_delay_seconds == capture.true_delay_seconds
        assert again.requested_delay_seconds == capture.requested_delay_seconds
        assert len(again) == len(capture)
        for original, rebuilt in zip(capture.records, again.records):
            np.testing.assert_array_equal(original.on_grid, rebuilt.on_grid)
            np.testing.assert_array_equal(original.delayed, rebuilt.delayed)
            assert original.sample_rate_hz == rebuilt.sample_rate_hz
            assert original.start_time == rebuilt.start_time


class TestReplaySource:
    def test_replays_records_in_call_order(self):
        capture = synthetic_capture()
        source = CapturedSamplesSource(capture)
        assert source.program_delay(100.4e-12) == 100e-12  # the recorded value
        first = source.acquire(None, BAND, 16, start_time=0.0)
        np.testing.assert_array_equal(first.on_grid, capture.records[0].on_grid)
        slow = source.with_sample_rate(40e6)
        second = slow.acquire(None, BAND, 16, start_time=0.25)
        np.testing.assert_array_equal(second.delayed, capture.records[1].delayed)

    def test_delay_request_mismatch_is_rejected(self):
        source = CapturedSamplesSource(synthetic_capture())
        with pytest.raises(ConfigurationError, match="delay request"):
            source.program_delay(123e-12)

    def test_band_centre_mismatch_is_rejected(self):
        source = CapturedSamplesSource(synthetic_capture())
        moved = BandpassBand.from_centre(1.05e9, BAND.bandwidth)
        with pytest.raises(ConfigurationError, match="recorded around"):
            source.acquire(None, moved, 16, start_time=0.0)

    def test_band_type_is_checked(self):
        source = CapturedSamplesSource(synthetic_capture())
        with pytest.raises(ValidationError, match="BandpassBand"):
            source.acquire(None, None, 16, start_time=0.0)

    def test_rate_mismatch_is_rejected(self):
        source = CapturedSamplesSource(synthetic_capture(), sample_rate=75e6)
        with pytest.raises(ConfigurationError, match="replay mismatch"):
            source.acquire(None, BAND, 16, start_time=0.0)

    def test_sample_count_mismatch_is_rejected(self):
        source = CapturedSamplesSource(synthetic_capture())
        with pytest.raises(ConfigurationError, match="recorded 16 samples"):
            source.acquire(None, BAND, 32, start_time=0.0)

    def test_start_time_mismatch_is_rejected(self):
        source = CapturedSamplesSource(synthetic_capture())
        with pytest.raises(ConfigurationError, match="start time"):
            source.acquire(None, BAND, 16, start_time=0.5)

    def test_exhausted_capture_is_rejected(self):
        source = CapturedSamplesSource(synthetic_capture(num_records=1))
        source.acquire(None, BAND, 16, start_time=0.0)
        with pytest.raises(ConfigurationError, match="exhausted"):
            source.acquire(None, BAND, 16, start_time=0.0)

    def test_empty_capture_is_rejected(self):
        with pytest.raises(ValidationError, match="at least one record"):
            CapturedSamplesSource(AcquisitionCapture())

    def test_source_describes_the_capture(self):
        capture = synthetic_capture()
        source = CapturedSamplesSource(capture)
        assert source.sample_rate == capture.records[0].sample_rate_hz
        assert source.true_delay == 102e-12
        # Clones share the replay cursor: the slow clone replays record #1.
        source.acquire(None, BAND, 16, start_time=0.0)
        second = source.with_sample_rate(40e6).acquire(None, BAND, 16, start_time=0.25)
        np.testing.assert_array_equal(second.on_grid, capture.records[1].on_grid)

    def test_unprogrammed_capture_cannot_program_a_delay(self):
        capture = replace(synthetic_capture(), programmed_delay_seconds=None)
        with pytest.raises(ConfigurationError, match="recorded no programmed delay"):
            CapturedSamplesSource(capture).program_delay(100.4e-12)


class TestPersistence:
    def test_save_load_round_trip_is_exact(self, tmp_path):
        capture = synthetic_capture()
        path = tmp_path / "capture.npz"
        capture.save(path)
        loaded = AcquisitionCapture.load(path)
        assert len(loaded) == len(capture)
        assert loaded.programmed_delay_seconds == capture.programmed_delay_seconds
        assert loaded.true_delay_seconds == capture.true_delay_seconds
        assert loaded.requested_delay_seconds == capture.requested_delay_seconds
        for original, rebuilt in zip(capture.records, loaded.records):
            np.testing.assert_array_equal(original.on_grid, rebuilt.on_grid)
            np.testing.assert_array_equal(original.delayed, rebuilt.delayed)
            assert original.sample_rate_hz == rebuilt.sample_rate_hz
            assert original.start_time == rebuilt.start_time

    def test_unprogrammed_delays_round_trip_as_none(self, tmp_path):
        capture = replace(
            synthetic_capture(num_records=1),
            programmed_delay_seconds=None,
            true_delay_seconds=None,
            requested_delay_seconds=None,
        )
        path = tmp_path / "capture.npz"
        capture.save(path)
        loaded = AcquisitionCapture.load(path)
        assert loaded.programmed_delay_seconds is None
        assert loaded.true_delay_seconds is None
        assert loaded.requested_delay_seconds is None
        assert len(loaded) == 1

    def test_records_must_be_capture_records(self):
        with pytest.raises(ValidationError, match="CaptureRecord instances"):
            AcquisitionCapture(records=("not-a-record",))


class TestEngineDeterminism:
    """Record one BIST run, replay it: the reports must be bit-identical."""

    @pytest.fixture(scope="class")
    def recorded_run(self):
        transmitter = HomodyneTransmitter(TransmitterConfig.paper_default(seed=21))
        recorder = RecordingSource(make_converter())
        engine = TransmitterBist(transmitter, recorder, config=FAST)
        report = engine.run()
        return report, recorder.capture()

    def test_recording_is_transparent(self, recorded_run):
        report, capture = recorded_run
        transmitter = HomodyneTransmitter(TransmitterConfig.paper_default(seed=21))
        baseline = TransmitterBist(transmitter, make_converter(), config=FAST).run()
        assert baseline.to_dict() == report.to_dict()
        # One fast and one slow acquisition per run.
        assert len(capture) == 2

    def test_replay_reproduces_the_report_bit_for_bit(self, recorded_run):
        report, capture = recorded_run
        transmitter = HomodyneTransmitter(TransmitterConfig.paper_default(seed=21))
        engine = TransmitterBist(
            transmitter, CapturedSamplesSource(capture), config=FAST
        )
        assert engine.run().to_dict() == report.to_dict()

    def test_replay_survives_a_disk_round_trip(self, recorded_run, tmp_path):
        report, capture = recorded_run
        path = tmp_path / "capture.npz"
        capture.save(path)
        transmitter = HomodyneTransmitter(TransmitterConfig.paper_default(seed=21))
        engine = TransmitterBist(
            transmitter,
            CapturedSamplesSource(AcquisitionCapture.load(path)),
            config=FAST,
        )
        assert engine.run().to_dict() == report.to_dict()


class TestReplayDrift:
    """A replay under a configuration other than the recorded one must raise."""

    CONFIG = BistConfig(
        num_samples_fast=128,
        num_samples_slow=64,
        lms_max_iterations=10,
        num_cost_points=20,
        measure_evm_enabled=False,
    )

    @pytest.fixture(scope="class")
    def capture(self):
        recorder = RecordingSource(ConverterSpec().build(90e6))
        transmitter = HomodyneTransmitter(TransmitterConfig.paper_default())
        TransmitterBist(transmitter, recorder, config=self.CONFIG).run()
        return recorder.capture()

    def test_capture_records_the_delay_request(self, capture):
        assert capture.requested_delay_seconds == self.CONFIG.programmed_delay_seconds

    @pytest.mark.parametrize("carrier_hz", [1.05e9, 1.1e9])
    def test_moved_carrier_is_rejected(self, capture, carrier_hz):
        config = replace(TransmitterConfig.paper_default(), carrier_frequency_hz=carrier_hz)
        engine = TransmitterBist(
            HomodyneTransmitter(config), CapturedSamplesSource(capture), config=self.CONFIG
        )
        with pytest.raises(ConfigurationError, match="recorded around"):
            engine.run()

    def test_moved_delay_request_is_rejected(self, capture):
        config = replace(self.CONFIG, programmed_delay_seconds=150e-12)
        engine = TransmitterBist(
            HomodyneTransmitter(TransmitterConfig.paper_default()),
            CapturedSamplesSource(capture),
            config=config,
        )
        with pytest.raises(ConfigurationError, match="delay request"):
            engine.run()
