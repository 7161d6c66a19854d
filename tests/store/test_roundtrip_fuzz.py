"""Seeded round-trip fuzz of every serializable archive dataclass.

The campaign store persists outcomes as JSON; these tests generate random
(but valid) instances of every dataclass in the archive graph and assert
``from_dict(to_dict(x))`` is an exact round trip, that the dictionaries
survive a real ``json.dumps``/``json.loads`` cycle, and that every
``from_dict`` tolerates unknown keys (forward compatibility with archives
written by newer library versions).
"""

import json
import random

import pytest

from repro.bist import BistConfig, ConverterSpec
from repro.bist.masks import MaskCheckResult, MaskViolation
from repro.bist.measurements import TxMeasurements
from repro.bist.report import BistReport, CheckResult, SkewCalibrationReport, Verdict
from repro.bist.runner import CampaignExecution, ScenarioOutcome
from repro.dsp.spectrum import SpectrumEstimate
from repro.faults import (
    AdaptiveConfig,
    FamilyThreshold,
    FaultSignature,
    ProbeResult,
    TestLimits,
    ThresholdReport,
)
from repro.mimo import ChannelMatrixEntry, ChannelMatrixReport, MimoSpec
from repro.rf.amplifier import (
    IdealAmplifier,
    PolynomialAmplifier,
    RappAmplifier,
    SalehAmplifier,
)
from repro.rf.impairments import DcOffset, IqImbalance
from repro.rf.oscillator import PhaseNoiseModel
from repro.signals import WaveformProfile
from repro.signals.ofdm import OfdmParams
from repro.transmitter import ImpairmentConfig, TransmitterConfig
from repro.transmitter.dac import TransmitDac

SEEDS = range(8)


def maybe(rng: random.Random, value, probability: float = 0.3):
    """``value`` or ``None`` with the given probability."""
    return None if rng.random() < probability else value


def random_amplifier(rng: random.Random):
    kind = rng.randrange(4)
    if kind == 0:
        return IdealAmplifier(gain_db=rng.uniform(-3.0, 20.0))
    if kind == 1:
        return RappAmplifier(
            gain_db=rng.uniform(0.0, 10.0),
            saturation_amplitude=rng.uniform(0.5, 3.0),
            smoothness=rng.uniform(1.0, 4.0),
        )
    if kind == 2:
        return SalehAmplifier()
    return PolynomialAmplifier()


def random_impairments(rng: random.Random) -> ImpairmentConfig:
    return ImpairmentConfig(
        amplifier=random_amplifier(rng),
        iq_imbalance=IqImbalance(
            gain_imbalance_db=rng.uniform(-1.0, 1.0),
            phase_imbalance_deg=rng.uniform(-10.0, 10.0),
        ),
        dc_offset=DcOffset(i_offset=rng.uniform(-0.05, 0.05)),
        phase_noise=PhaseNoiseModel(
            linewidth_hz=rng.uniform(0.0, 1e4),
            rms_jitter_seconds=rng.uniform(0.0, 1e-12),
        ),
        output_snr_db=maybe(rng, rng.uniform(20.0, 60.0)),
        dac=maybe(rng, TransmitDac(resolution_bits=rng.randrange(6, 16)), probability=0.5),
        output_filter_bandwidth_scale=rng.uniform(0.5, 1.5),
    )


def random_ofdm_params(rng: random.Random) -> OfdmParams:
    fft_size = rng.choice([16, 32, 64, 128])
    num_subcarriers = 2 * rng.randrange(1, (fft_size - 2) // 2 + 1)
    return OfdmParams(
        fft_size=fft_size,
        num_subcarriers=num_subcarriers,
        cp_length=rng.randrange(1, fft_size),
        pilot_spacing=rng.randrange(2, max(3, num_subcarriers + 1)),
    )


def random_transmitter_config(rng: random.Random) -> TransmitterConfig:
    return TransmitterConfig(
        carrier_frequency_hz=rng.uniform(0.4e9, 2.0e9),
        symbol_rate_hz=rng.uniform(1.0e6, 20.0e6),
        modulation=rng.choice(["qpsk", "16qam", "8psk"]),
        rolloff=rng.uniform(0.1, 0.9),
        samples_per_symbol=rng.randrange(4, 17),
        pulse_span_symbols=rng.randrange(4, 12),
        impairments=random_impairments(rng),
        seed=maybe(rng, rng.randrange(2**31)),
        ofdm=maybe(rng, random_ofdm_params(rng), probability=0.6),
    )


def random_profile(rng: random.Random) -> WaveformProfile:
    """A random (but valid) waveform profile, either family."""
    ofdm = maybe(rng, random_ofdm_params(rng), probability=0.5)
    num_points = rng.randrange(0, 5)
    offsets = sorted(rng.uniform(0.0, 50e6) for _ in range(num_points))
    mask = tuple(
        (offset, rng.uniform(-60.0, 0.0)) for offset in offsets
    )
    return WaveformProfile(
        name=f"fuzz-profile-{rng.randrange(10**6)}",
        carrier_frequency_hz=rng.uniform(0.4e9, 2.0e9),
        symbol_rate_hz=rng.uniform(1.0e6, 40.0e6),
        modulation=rng.choice(["qpsk", "16qam", "8psk", "64qam"]),
        rolloff=0.0 if ofdm is not None else rng.uniform(0.1, 0.9),
        channel_bandwidth_hz=rng.uniform(1.0e6, 40.0e6),
        channel_spacing_hz=rng.uniform(1.0e6, 50.0e6),
        acpr_limit_db=rng.uniform(-60.0, -10.0),
        evm_limit_percent=rng.uniform(2.0, 20.0),
        mask_points_db=mask,
        family="single-carrier" if ofdm is None else "ofdm",
        ofdm=ofdm,
        flatness_limit_db=maybe(rng, rng.uniform(1.0, 10.0)),
    )


def random_converter_spec(rng: random.Random) -> ConverterSpec:
    reference = maybe(rng, rng.uniform(0.5e9, 1.5e9), probability=0.5)
    return ConverterSpec(
        skew_jitter_rms_seconds=rng.uniform(0.0, 5e-12),
        dcde_static_error_seconds=rng.uniform(-5e-12, 5e-12),
        channel1_skew_seconds=rng.uniform(-5e-12, 5e-12),
        channel1_gain_error=rng.uniform(-0.05, 0.05),
        channel1_offset=rng.uniform(-0.05, 0.05),
        channel1_bandwidth_hz=None if reference is None else rng.uniform(1e9, 5e9),
        bandwidth_reference_hz=reference,
        seed=maybe(rng, rng.randrange(2**31)),
    )


def random_bist_config(rng: random.Random) -> BistConfig:
    return BistConfig(
        acquisition_bandwidth_hz=rng.uniform(50e6, 120e6),
        num_samples_fast=rng.randrange(64, 512),
        num_samples_slow=rng.randrange(64, 256),
        programmed_delay_seconds=rng.uniform(50e-12, 300e-12),
        lms_max_iterations=rng.randrange(1, 100),
        num_cost_points=rng.randrange(10, 500),
        measure_evm_enabled=rng.random() < 0.5,
        seed=maybe(rng, rng.randrange(2**31)),
    )


def random_spectrum(rng: random.Random) -> SpectrumEstimate:
    size = rng.randrange(8, 32)
    start = rng.uniform(0.9e9, 1.1e9)
    step = rng.uniform(1e4, 1e6)
    return SpectrumEstimate(
        frequencies_hz=[start + i * step for i in range(size)],
        psd=[rng.uniform(1e-12, 1e-3) for _ in range(size)],
        resolution_hz=step,
        two_sided=rng.random() < 0.5,
    )


def random_measurements(rng: random.Random) -> TxMeasurements:
    lower = rng.uniform(-60.0, -20.0)
    upper = rng.uniform(-60.0, -20.0)
    return TxMeasurements(
        output_power=rng.uniform(0.1, 3.0),
        acpr_db={"lower_db": lower, "upper_db": upper, "worst_db": max(lower, upper)},
        occupied_bandwidth_hz=rng.uniform(5e6, 40e6),
        evm_percent=maybe(rng, rng.uniform(0.1, 20.0)),
        spectrum=random_spectrum(rng),
    )


def random_calibration(rng: random.Random) -> SkewCalibrationReport:
    return SkewCalibrationReport(
        estimated_delay_seconds=rng.uniform(50e-12, 300e-12),
        programmed_delay_seconds=rng.uniform(50e-12, 300e-12),
        true_delay_seconds=maybe(rng, rng.uniform(50e-12, 300e-12)),
        iterations=rng.randrange(1, 100),
        converged=rng.random() < 0.8,
        final_cost=rng.uniform(0.0, 1.0),
        method=rng.choice(["lms", "sine-fit"]),
    )


def random_check(rng: random.Random, name: str) -> CheckResult:
    return CheckResult(
        name=name,
        verdict=rng.choice(list(Verdict)),
        measured=maybe(rng, rng.uniform(-60.0, 60.0)),
        limit=maybe(rng, rng.uniform(-60.0, 60.0)),
        details=rng.choice(["", "within limits", "marginal"]),
    )


def random_mask_result(rng: random.Random) -> MaskCheckResult:
    violations = tuple(
        MaskViolation(
            frequency_offset_hz=rng.uniform(-40e6, 40e6),
            measured_db=rng.uniform(-80.0, 0.0),
            limit_db=rng.uniform(-60.0, 0.0),
        )
        for _ in range(rng.randrange(0, 3))
    )
    return MaskCheckResult(
        passed=not violations,
        worst_margin_db=rng.uniform(-10.0, 10.0),
        worst_offset_hz=rng.uniform(-40e6, 40e6),
        violations=violations,
    )


def random_report(rng: random.Random) -> BistReport:
    names = rng.sample(["acpr", "occupied_bandwidth", "evm", "spectral_mask"], k=rng.randrange(1, 5))
    return BistReport(
        profile_name=rng.choice(["paper-qpsk-1ghz", "uhf-8psk-400mhz"]),
        calibration=random_calibration(rng),
        measurements=random_measurements(rng),
        checks=tuple(random_check(rng, name) for name in names),
        mask_result=maybe(rng, random_mask_result(rng), probability=0.5),
    )


def random_outcome(rng: random.Random, index: int = 0) -> ScenarioOutcome:
    if rng.random() < 0.25:
        return ScenarioOutcome(
            index=index,
            label=f"scenario-{index}",
            error="RuntimeError: synthetic failure",
            traceback_text="Traceback (most recent call last): ...",
            duration_seconds=rng.uniform(0.0, 5.0),
            worker=f"pid-{rng.randrange(1000, 9999)}",
        )
    return ScenarioOutcome(
        index=index,
        label=f"scenario-{index}",
        report=random_report(rng),
        duration_seconds=rng.uniform(0.0, 5.0),
        worker=f"pid-{rng.randrange(1000, 9999)}",
        cached=rng.random() < 0.3,
    )


def random_execution(rng: random.Random) -> CampaignExecution:
    return CampaignExecution(
        outcomes=tuple(random_outcome(rng, index) for index in range(rng.randrange(1, 5)))
    )


def random_signature(rng: random.Random) -> FaultSignature:
    return FaultSignature(
        label=f"point-{rng.randrange(100)}",
        profile_name=maybe(rng, "paper-qpsk-1ghz"),
        executed=rng.random() < 0.9,
        bist_failed=rng.random() < 0.3,
        evm_percent=maybe(rng, rng.uniform(0.1, 20.0)),
        acpr_worst_db=maybe(rng, rng.uniform(-60.0, -20.0)),
        occupied_bandwidth_hz=maybe(rng, rng.uniform(5e6, 40e6)),
        mask_margin_db=maybe(rng, rng.uniform(-10.0, 10.0)),
        skew_deviation_ps=maybe(rng, rng.uniform(0.0, 10.0)),
        error=maybe(rng, "RuntimeError: synthetic", probability=0.8),
    )


def random_limits(rng: random.Random) -> TestLimits:
    return TestLimits(
        use_bist_verdict=rng.random() < 0.5,
        max_acpr_db=maybe(rng, rng.uniform(-60.0, -20.0)),
        max_occupied_bandwidth_hz=maybe(rng, rng.uniform(5e6, 40e6)),
        max_skew_deviation_ps=maybe(rng, rng.uniform(0.5, 10.0)),
    )


def random_adaptive_config(rng: random.Random) -> AdaptiveConfig:
    return AdaptiveConfig(
        num_steps=rng.randrange(2, 64),
        repeats_per_round=rng.randrange(1, 6),
        max_rounds_per_probe=rng.randrange(1, 4),
        strategy=rng.choice(["bisection", "probabilistic"]),
    )


def random_probe_result(rng: random.Random) -> ProbeResult:
    trials = rng.randrange(1, 12)
    ci_low, ci_high = sorted((rng.random(), rng.random()))
    return ProbeResult(
        severity=rng.uniform(0.0, 1.0),
        num_detected=rng.randrange(0, trials + 1),
        num_trials=trials,
        ci_low=ci_low,
        ci_high=ci_high,
        decision=rng.choice(["detected", "undetected"]),
        conclusive=rng.random() < 0.7,
    )


def random_family_threshold(rng: random.Random) -> FamilyThreshold:
    grid_size = rng.randrange(2, 33)
    probes = tuple(random_probe_result(rng) for _ in range(rng.randrange(1, 5)))
    found = rng.random() < 0.7
    if found:
        threshold_index = rng.randrange(0, grid_size)
        threshold = rng.uniform(0.0, 1.0)
        ci_low, ci_high = sorted((rng.random(), rng.random()))
    else:
        threshold_index = threshold = ci_low = ci_high = None
    return FamilyThreshold(
        family=rng.choice(["pa-compression", "dcde-error", "fuzz-family"]),
        profile_name=rng.choice(["paper-qpsk-1ghz", "synthetic"]),
        found=found,
        threshold=threshold,
        threshold_index=threshold_index,
        ci_low=ci_low,
        ci_high=ci_high,
        scenarios_spent=sum(probe.num_trials for probe in probes),
        grid_size=grid_size,
        strategy=rng.choice(["bisection", "probabilistic"]),
        probes=probes,
        posterior_confidence=maybe(rng, rng.uniform(0.5, 1.0)),
    )


def random_threshold_report(rng: random.Random) -> ThresholdReport:
    return ThresholdReport(
        config=random_adaptive_config(rng),
        thresholds=tuple(
            random_family_threshold(rng) for _ in range(rng.randrange(1, 4))
        ),
    )


def random_mimo_spec(rng: random.Random) -> MimoSpec:
    return MimoSpec(
        num_chains=rng.randrange(1, 5),
        tx_leakage_db=maybe(rng, rng.uniform(-60.0, -10.0)),
        shared_lo_correlation=rng.uniform(0.0, 1.0),
        shared_lo_linewidth_hz=rng.uniform(0.0, 1e5),
        gain_spread_db=rng.uniform(0.0, 6.0),
        skew_spread_seconds=rng.uniform(0.0, 100e-12),
        seed=maybe(rng, rng.randrange(2**31)),
    )


def random_matrix_entry(rng: random.Random, tx: int = 1, rx: int = 1) -> ChannelMatrixEntry:
    return ChannelMatrixEntry(tx=tx, rx=rx, report=random_report(rng))


def random_channel_matrix(rng: random.Random) -> ChannelMatrixReport:
    num_tx, num_rx = rng.randrange(1, 4), rng.randrange(1, 4)
    return ChannelMatrixReport(
        num_tx=num_tx,
        num_rx=num_rx,
        entries=tuple(
            random_matrix_entry(rng, tx, rx)
            for tx in range(1, num_tx + 1)
            for rx in range(1, num_rx + 1)
        ),
    )


#: Every fuzzed dataclass: (generator, from_dict caller, exact-equality safe).
#: Classes whose fields hold arrays/dicts compare via to_dict only.
CASES = {
    "WaveformProfile": (random_profile, WaveformProfile.from_dict, True),
    "OfdmParams": (random_ofdm_params, OfdmParams.from_dict, True),
    "TransmitterConfig": (random_transmitter_config, TransmitterConfig.from_dict, True),
    "ImpairmentConfig": (random_impairments, ImpairmentConfig.from_dict, True),
    "ConverterSpec": (random_converter_spec, ConverterSpec.from_dict, True),
    "BistConfig": (random_bist_config, BistConfig.from_dict, True),
    "SpectrumEstimate": (random_spectrum, SpectrumEstimate.from_dict, False),
    "TxMeasurements": (random_measurements, TxMeasurements.from_dict, False),
    "SkewCalibrationReport": (random_calibration, SkewCalibrationReport.from_dict, True),
    "MaskCheckResult": (random_mask_result, MaskCheckResult.from_dict, True),
    "BistReport": (random_report, BistReport.from_dict, False),
    "ScenarioOutcome": (random_outcome, ScenarioOutcome.from_dict, False),
    "CampaignExecution": (random_execution, CampaignExecution.from_dict, False),
    "FaultSignature": (random_signature, FaultSignature.from_dict, True),
    "TestLimits": (random_limits, TestLimits.from_dict, True),
    "AdaptiveConfig": (random_adaptive_config, AdaptiveConfig.from_dict, True),
    "ProbeResult": (random_probe_result, ProbeResult.from_dict, True),
    "FamilyThreshold": (random_family_threshold, FamilyThreshold.from_dict, True),
    "ThresholdReport": (random_threshold_report, ThresholdReport.from_dict, True),
    "MimoSpec": (random_mimo_spec, MimoSpec.from_dict, True),
    "ChannelMatrixEntry": (random_matrix_entry, ChannelMatrixEntry.from_dict, False),
    "ChannelMatrixReport": (random_channel_matrix, ChannelMatrixReport.from_dict, False),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("seed", SEEDS)
class TestRoundTrip:
    def test_from_dict_to_dict_is_idempotent(self, case, seed):
        generator, from_dict, exact = CASES[case]
        original = generator(random.Random(seed))
        # Push through real JSON so only JSON-representable state survives.
        data = json.loads(json.dumps(original.to_dict()))
        rebuilt = from_dict(data)
        assert rebuilt.to_dict() == original.to_dict()
        if exact:
            assert rebuilt == original
        # Second generation of the cycle changes nothing (idempotence).
        assert from_dict(json.loads(json.dumps(rebuilt.to_dict()))).to_dict() == data

    def test_unknown_keys_are_tolerated(self, case, seed):
        generator, from_dict, _ = CASES[case]
        original = generator(random.Random(seed))
        data = json.loads(json.dumps(original.to_dict()))
        data["__introduced_by_a_newer_version__"] = {"nested": [1, 2, 3]}
        rebuilt = from_dict(data)
        assert rebuilt.to_dict() == original.to_dict()


class TestCheckResultRoundTrip:
    """CheckResult serializes name-externally (keyed in the report dict)."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_round_trip(self, seed):
        check = random_check(random.Random(seed), "acpr")
        data = json.loads(json.dumps(check.to_dict()))
        data["__future__"] = True
        assert CheckResult.from_dict("acpr", data) == check
