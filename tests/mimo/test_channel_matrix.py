"""Tests for repro.mimo.matrix: the per-TX×RX full-BIST verdict grid.

The acceptance scenario of the 2T2R campaign: a fault injected into chain 1
only (TX2) must fail every TX2 combination while TX1 stays green, and a
matrix replayed through recorded captures must be bit-identical to the
simulated run it recorded.
"""

import pytest

from repro.adc.acquisition import CapturedSamplesSource, RecordingSource
from repro.bist import BistConfig, ConverterSpec
from repro.errors import ValidationError
from repro.mimo import (
    ChannelMatrixReport,
    MimoSpec,
    MimoTransmitter,
    derive_matrix_seed,
    run_channel_matrix,
)
from repro.rf import RappAmplifier
from repro.transmitter import ImpairmentConfig, TransmitterConfig

#: Reduced-size engine configuration: large enough for reliable spectral
#: estimation, small enough to keep a 4-combination matrix around a second.
FAST = BistConfig(
    num_samples_fast=512,
    num_samples_slow=256,
    lms_max_iterations=40,
    num_cost_points=120,
    measure_evm_enabled=False,
)

#: Receive-path spec with low skew jitter, so healthy margins clear the
#: spectral mask for every derived per-combination converter seed.
QUIET = ConverterSpec(skew_jitter_rms_seconds=1.0e-12)


def faulty_transmitter() -> MimoTransmitter:
    """A 2T2R array with a saturating PA on chain 1 (TX2) only."""
    impaired = ImpairmentConfig().with_amplifier(
        RappAmplifier(gain_db=0.0, saturation_amplitude=0.75, smoothness=1.2)
    )
    return MimoTransmitter(
        base_config=TransmitterConfig.paper_default(),
        spec=MimoSpec(num_chains=2),
        chain_overrides=[None, {"impairments": impaired}],
    )


@pytest.fixture(scope="module")
def healthy_matrix() -> ChannelMatrixReport:
    transmitter = MimoTransmitter(
        base_config=TransmitterConfig.paper_default(), spec=MimoSpec(num_chains=2)
    )
    return run_channel_matrix(transmitter, config=FAST, rx_specs=QUIET, seed=7)


@pytest.fixture(scope="module")
def recorded_faulty_run() -> tuple:
    """One faulty-TX2 matrix run recorded at the acquisition seam."""
    recorders = {}

    def recording_factory(tx_index, rx_index, spec, bandwidth):
        source = RecordingSource(spec.build(bandwidth))
        recorders[(tx_index, rx_index)] = source
        return source

    report = run_channel_matrix(
        faulty_transmitter(),
        config=FAST,
        rx_specs=QUIET,
        seed=7,
        source_factory=recording_factory,
    )
    captures = {key: source.capture() for key, source in recorders.items()}
    return report, captures


class TestHealthyMatrix:
    def test_all_four_combinations_pass(self, healthy_matrix):
        assert healthy_matrix.num_tx == 2
        assert healthy_matrix.num_rx == 2
        assert healthy_matrix.all_passed
        assert healthy_matrix.failures() == []

    def test_entries_cover_every_combination(self, healthy_matrix):
        labels = {entry.label for entry in healthy_matrix.entries}
        assert labels == {"TX1/RX1", "TX1/RX2", "TX2/RX1", "TX2/RX2"}

    def test_entries_carry_power_and_margins(self, healthy_matrix):
        for entry in healthy_matrix.entries:
            assert entry.output_power > 0.0
            assert entry.worst_margin is not None
            assert entry.worst_margin[1] > 0.0

    def test_table_renders_the_grid(self, healthy_matrix):
        table = healthy_matrix.to_table()
        assert "channel matrix (2 TX x 2 RX)" in table
        assert "TX1" in table and "RX2" in table
        assert "FAIL" not in table

    def test_round_trips_through_dict(self, healthy_matrix):
        rebuilt = ChannelMatrixReport.from_dict(healthy_matrix.to_dict())
        assert rebuilt.to_dict() == healthy_matrix.to_dict()


class TestFaultyTx2Matrix:
    def test_tx2_fails_tx1_passes(self, recorded_faulty_run):
        report, _ = recorded_faulty_run
        assert not report.all_passed
        assert set(report.failures()) == {"TX2/RX1", "TX2/RX2"}
        assert report.entry(1, 1).passed and report.entry(1, 2).passed
        assert not report.entry(2, 1).passed and not report.entry(2, 2).passed

    def test_summary_lists_every_combination_verdict(self, recorded_faulty_run):
        report, _ = recorded_faulty_run
        summary = report.summary()
        assert (summary["num_tx"], summary["num_rx"], summary["all_passed"]) == (2, 2, False)
        failed = [combo["label"] for combo in summary["combinations"] if not combo["passed"]]
        assert failed == ["TX2/RX1", "TX2/RX2"]

    def test_replay_is_bit_identical_to_the_recorded_run(self, recorded_faulty_run):
        report, captures = recorded_faulty_run

        def replay_factory(tx_index, rx_index, spec, bandwidth):
            return CapturedSamplesSource(captures[(tx_index, rx_index)])

        replayed = run_channel_matrix(
            faulty_transmitter(),
            config=FAST,
            rx_specs=QUIET,
            seed=7,
            source_factory=replay_factory,
        )
        assert replayed.to_dict() == report.to_dict()


class TestMatrixSeeds:
    def test_every_cell_draws_a_distinct_seed(self):
        seeds = {
            derive_matrix_seed(7, tx, rx) for tx in range(2) for rx in range(2)
        }
        assert len(seeds) == 4

    def test_none_base_seed_stays_none(self):
        assert derive_matrix_seed(None, 1, 1) is None


class TestValidation:
    def test_transmitter_type_is_checked(self):
        with pytest.raises(ValidationError, match="MimoTransmitter"):
            run_channel_matrix("not-a-transmitter")

    def test_rx_specs_entries_are_type_checked(self):
        transmitter = MimoTransmitter(spec=MimoSpec(num_chains=2))
        with pytest.raises(ValidationError, match="ConverterSpec"):
            run_channel_matrix(transmitter, rx_specs=["not-a-spec"])
