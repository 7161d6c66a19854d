"""Multistandard BIST campaigns.

An SDR must be verified under every waveform it supports; a campaign runs
the BIST engine across a set of waveform profiles and impairment scenarios
(fault injection) and aggregates the reports.  This is the "flexible,
scalable across a large set of complex specifications" promise of the paper:
the same hardware and the same DSP pipeline are reused for every profile by
merely re-parameterising the acquisition.

This module holds the campaign *data model* (scenarios, converter
specifications, per-scenario execution); the orchestration machinery lives
in :mod:`repro.bist.runner`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from ..adc.adc import AdcChannel
from ..adc.mismatch import ChannelMismatch
from ..adc.quantizer import UniformQuantizer
from ..adc.tiadc import BpTiadc, DigitallyControlledDelayElement
from ..errors import ConfigurationError, ValidationError
from ..signals.standards import WaveformProfile, get_profile
from ..transmitter.chain import HomodyneTransmitter
from ..transmitter.config import ImpairmentConfig, TransmitterConfig
from ..utils.serialization import field_dict, known_field_kwargs
from ..utils.validation import check_finite, check_integer, check_non_negative, check_positive
from .engine import BistConfig, TransmitterBist
from .report import BistReport

__all__ = [
    "CampaignScenario",
    "ConverterSpec",
    "scenario_bandwidth",
    "scenario_num_samples_fast",
    "scenario_bist_config",
    "resolve_scenario",
    "build_scenario_engine",
    "execute_scenario",
    "MIN_OFDM_SYMBOLS_IN_WINDOW",
]


@dataclass(frozen=True)
class ConverterSpec:
    """Declarative, picklable description of the BIST acquisition converter.

    Campaigns take their converter as this *value*, not as a callable: it
    crosses process boundaries, fingerprints by content and reseeds per
    scenario.  A ``ConverterSpec`` captures the paper's
    BP-TIADC (two 10-bit channels, 3 ps rms skew jitter) with the unknown
    timing errors that make the programmed delay differ from the physical
    one (``dcde_static_error_seconds``, ``channel1_skew_seconds``) — the
    situation the LMS calibration exists to handle — plus the channel-1
    static gain/offset mismatch and an optional channel-1 input-bandwidth
    limitation (``channel1_bandwidth_hz`` with the ``bandwidth_reference_hz``
    carrier it is evaluated at).  It is itself the factory: calling it with
    the acquisition bandwidth returns the :class:`~repro.adc.tiadc.BpTiadc`.
    """

    skew_jitter_rms_seconds: float = 3.0e-12
    dcde_static_error_seconds: float = 0.0
    channel1_skew_seconds: float = 0.0
    channel1_gain_error: float = 0.0
    channel1_offset: float = 0.0
    channel1_bandwidth_hz: float | None = None
    bandwidth_reference_hz: float | None = None
    seed: int | None = 99

    #: Resolution and full-scale amplitude of both channels' quantizers.
    resolution_bits: ClassVar[int] = 10
    full_scale: ClassVar[float] = 3.0

    def __post_init__(self) -> None:
        check_non_negative(self.skew_jitter_rms_seconds, "skew_jitter_rms_seconds")
        for name in (
            "dcde_static_error_seconds",
            "channel1_skew_seconds",
            "channel1_gain_error",
            "channel1_offset",
        ):
            check_finite(getattr(self, name), name)
        for name in ("channel1_bandwidth_hz", "bandwidth_reference_hz"):
            if getattr(self, name) is not None:
                check_positive(getattr(self, name), name)
        if self.seed is not None:
            check_integer(self.seed, "seed", minimum=0)

    def build(self, acquisition_bandwidth_hz: float) -> BpTiadc:
        """Construct the converter for the given per-channel rate."""
        channel1_mismatch = ChannelMismatch(
            offset=self.channel1_offset,
            gain_error=self.channel1_gain_error,
            skew_seconds=self.channel1_skew_seconds,
        )
        if self.channel1_bandwidth_hz is not None:
            # Channel-1 input-bandwidth limitation, folded into an equivalent
            # gain/skew mismatch at the acquisition carrier (see
            # ChannelMismatch.with_input_bandwidth).
            if self.bandwidth_reference_hz is None:
                raise ConfigurationError(
                    "channel1_bandwidth_hz needs bandwidth_reference_hz (the acquisition "
                    "carrier the single-pole rolloff is evaluated at)"
                )
            channel1_mismatch = channel1_mismatch.with_input_bandwidth(
                self.channel1_bandwidth_hz, self.bandwidth_reference_hz
            )
        return BpTiadc(
            sample_rate=acquisition_bandwidth_hz,
            dcde=DigitallyControlledDelayElement(
                static_error_seconds=self.dcde_static_error_seconds
            ),
            channel0=AdcChannel(
                quantizer=UniformQuantizer(self.resolution_bits, self.full_scale),
                mismatch=ChannelMismatch(),
            ),
            channel1=AdcChannel(
                quantizer=UniformQuantizer(self.resolution_bits, self.full_scale),
                mismatch=channel1_mismatch,
            ),
            skew_jitter_rms_seconds=self.skew_jitter_rms_seconds,
            seed=self.seed,
        )

    def __call__(self, acquisition_bandwidth_hz: float) -> BpTiadc:
        return self.build(acquisition_bandwidth_hz)

    def to_dict(self) -> dict:
        """Plain JSON-friendly dictionary (exact round trip via :meth:`from_dict`).

        Every field is a scalar, so the dictionary doubles as the spec's
        canonical form for campaign-store fingerprinting (see
        :mod:`repro.store.fingerprint`).
        """
        return field_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ConverterSpec":
        """Rebuild a spec serialized with :meth:`to_dict` (unknown keys ignored)."""
        return cls(**known_field_kwargs(cls, data))


@dataclass(frozen=True)
class CampaignScenario:
    """One campaign entry: a waveform profile plus an impairment scenario.

    Attributes
    ----------
    profile:
        The waveform profile (or its name) to test under.
    impairments:
        Transmitter impairments to inject; the fault-free default exercises
        the "good unit" path.
    label:
        Human-readable scenario label (defaults to the profile name).
    num_symbols:
        Optional explicit burst length in symbols.
    converter:
        Optional per-scenario converter specification; when set it overrides
        the campaign-level converter factory, which lets a scenario grid
        sweep acquisition-side faults (channel skew, DCDE error, gain/offset
        mismatch) alongside transmitter-side ones.
    """

    profile: WaveformProfile | str
    impairments: ImpairmentConfig = field(default_factory=ImpairmentConfig)
    label: str | None = None
    num_symbols: int | None = None
    converter: ConverterSpec | None = None

    def resolved_profile(self) -> WaveformProfile:
        """The profile object (resolving a name if necessary)."""
        if isinstance(self.profile, str):
            return get_profile(self.profile)
        return self.profile

    def resolved_label(self) -> str:
        """The label shown in the campaign summary."""
        return self.label if self.label is not None else self.resolved_profile().name


def scenario_bandwidth(profile: WaveformProfile, bist_config: BistConfig) -> float:
    """Acquisition bandwidth used for a profile.

    The configuration's bandwidth is used whenever it comfortably contains
    the profile's occupied bandwidth; narrowband profiles scale the
    acquisition down to keep the two-rate scheme meaningful.
    """
    nominal = bist_config.acquisition_bandwidth_hz
    needed = 4.0 * profile.occupied_bandwidth_hz
    return min(nominal, max(needed, 2.5 * profile.occupied_bandwidth_hz))


#: Whole OFDM symbols the fast acquisition window is sized to contain (the
#: per-subcarrier EVM averages over them; fewer than two is unusable).
MIN_OFDM_SYMBOLS_IN_WINDOW = 6


def scenario_num_samples_fast(
    profile: WaveformProfile, bandwidth_hz: float, base_config: BistConfig
) -> int:
    """Fast-acquisition sample count adapted to the profile's waveform family.

    Single-carrier profiles keep the configured count.  OFDM symbols are
    long compared to the acquisition window (one symbol spans
    ``fft + cp`` critical samples at a rate comparable to the acquisition
    bandwidth), so the window is grown — never shrunk — until it holds
    :data:`MIN_OFDM_SYMBOLS_IN_WINDOW` whole symbols plus the
    reconstruction-kernel margin the valid interval loses at each edge.
    """
    if profile.family != "ofdm":
        return base_config.num_samples_fast
    symbol_duration = profile.ofdm.symbol_duration_seconds(profile.symbol_rate_hz)
    needed = int(
        np.ceil(MIN_OFDM_SYMBOLS_IN_WINDOW * symbol_duration * bandwidth_hz)
    ) + base_config.num_taps + 16
    return max(base_config.num_samples_fast, needed)


def scenario_bist_config(
    scenario: CampaignScenario,
    base_config: BistConfig,
    seed: int | None | type(...) = ...,
) -> BistConfig:
    """The per-scenario engine configuration derived from a campaign-level one.

    The acquisition bandwidth adapts to the profile (see
    :func:`scenario_bandwidth`) and the programmed DCDE delay is clamped so
    the Kohlenberg reconstruction filter stays away from its poles for the
    profile's carrier.  ``seed`` (when not left at the ``...`` sentinel)
    overrides the base configuration's seed, which is how the runner applies
    deterministic per-scenario seeding.
    """
    profile = scenario.resolved_profile()
    bandwidth = scenario_bandwidth(profile, base_config)
    clamped_delay = min(
        base_config.programmed_delay_seconds,
        0.35 / ((2.0 * profile.carrier_frequency_hz / bandwidth + 2.0) * bandwidth),
    )
    config = replace(
        base_config,
        acquisition_bandwidth_hz=bandwidth,
        programmed_delay_seconds=clamped_delay,
        num_samples_fast=scenario_num_samples_fast(profile, bandwidth, base_config),
    )
    if seed is not ...:
        config = replace(config, seed=seed)
    return config


def resolve_scenario(
    scenario: CampaignScenario,
    bist_config: BistConfig | None = None,
    converter_factory: ConverterSpec | None = None,
    seed: int | None | type(...) = ...,
) -> tuple:
    """The effective inputs of one scenario execution.

    Returns ``(profile, config, transmitter_config, factory)``: the resolved
    profile, the per-scenario :func:`scenario_bist_config`, the transmitter
    configuration and the converter :class:`ConverterSpec` (the scenario's
    own, else ``converter_factory``, else a nominal spec).  A converter that
    is not a ``ConverterSpec`` raises :class:`~repro.errors.ValidationError`.
    A ``seed`` override reseeds the transmitter and the converter jitter,
    each on its own derived stream.  Execution
    (:func:`build_scenario_engine`) and the campaign-store fingerprint
    (:func:`repro.store.fingerprint_payload`) both resolve here, so a
    fingerprint covers exactly what the execution uses.
    """
    if not isinstance(scenario, CampaignScenario):
        raise ValidationError("scenario must be a CampaignScenario")
    for spec in (scenario.converter, converter_factory):
        if spec is not None and not isinstance(spec, ConverterSpec):
            raise ValidationError(
                f"a campaign converter must be a ConverterSpec, got {type(spec).__name__}"
            )
    base_config = bist_config if bist_config is not None else BistConfig()
    profile = scenario.resolved_profile()
    config = scenario_bist_config(scenario, base_config, seed=seed)
    factory = scenario.converter
    if factory is None:
        factory = converter_factory if converter_factory is not None else ConverterSpec()
    if seed is ...:
        transmitter_config = TransmitterConfig.from_profile(profile, impairments=scenario.impairments)
    else:
        transmitter_seed = None if seed is None else (int(seed) + 0x5DEECE66) % (2**32)
        transmitter_config = TransmitterConfig.from_profile(
            profile, impairments=scenario.impairments, seed=transmitter_seed
        )
        converter_seed = None if seed is None else (int(seed) + 0x2545F491) % (2**32)
        factory = replace(factory, seed=converter_seed)
    return profile, config, transmitter_config, factory


def build_scenario_engine(
    scenario: CampaignScenario,
    bist_config: BistConfig | None = None,
    converter_factory: ConverterSpec | None = None,
    seed: int | None | type(...) = ...,
    plan_structure_cache=None,
):
    """Construct the engine and burst for one scenario without running it.

    The inputs come from :func:`resolve_scenario`; ``plan_structure_cache``
    is handed to the engine (see
    :class:`~repro.bist.engine.TransmitterBist`).  Returns
    ``(engine, burst)`` where ``burst`` is ``None`` unless the scenario pins
    an explicit ``num_symbols`` (the engine otherwise transmits for its
    required duration).
    """
    profile, config, transmitter_config, factory = resolve_scenario(
        scenario, bist_config=bist_config, converter_factory=converter_factory, seed=seed
    )
    transmitter = HomodyneTransmitter(transmitter_config)
    engine = TransmitterBist(
        transmitter,
        factory(config.acquisition_bandwidth_hz),
        profile=profile,
        config=config,
        plan_structure_cache=plan_structure_cache,
    )
    if scenario.num_symbols is not None:
        burst = transmitter.transmit(num_symbols=scenario.num_symbols)
    else:
        burst = None
    return engine, burst


def execute_scenario(
    scenario: CampaignScenario,
    bist_config: BistConfig | None = None,
    converter_factory: ConverterSpec | None = None,
    seed: int | None | type(...) = ...,
    plan_structure_cache=None,
) -> BistReport:
    """Run the complete BIST for one campaign scenario.

    This is the (pure, picklable-argument) unit of work the campaign runner
    distributes: it builds a fresh transmitter and converter for the
    scenario, derives the per-scenario engine configuration and executes the
    full acquisition/calibration/measurement loop.

    Parameters
    ----------
    scenario:
        The scenario to execute.
    bist_config:
        Campaign-level engine configuration (defaults to ``BistConfig()``).
    converter_factory:
        The :class:`ConverterSpec` used when the scenario carries none of its
        own.  Defaults to a nominal spec.
    seed:
        Optional override of the run's randomness (the ``...`` sentinel keeps
        the historical defaults).  The override reseeds the engine's
        cost-function instants, the transmitter (symbols, noise, phase noise)
        and the converter's jitter realisation, each on a distinct derived
        stream.
    plan_structure_cache:
        Optional :class:`~repro.sampling.reconstruction.PlanStructureCache`
        shared with other scenarios (the campaign compiler passes one per
        run); the report is bit-identical with and without it.
    """
    engine, burst = build_scenario_engine(
        scenario,
        bist_config=bist_config,
        converter_factory=converter_factory,
        seed=seed,
        plan_structure_cache=plan_structure_cache,
    )
    return engine.run(burst)
