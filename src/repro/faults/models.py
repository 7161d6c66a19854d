"""Parametric fault models and the fault-family registry.

The paper's argument is that the loopback BIST *detects transmitter faults*
without RF instrumentation; quantifying that claim needs faults as
first-class objects rather than hand-rolled parameter sweeps.  A
:class:`FaultModel` is a picklable, frozen description of one physical
defect of the chain, parameterised by a normalised ``severity`` in
``[0, 1]`` (0 = nominal hardware, 1 = the family's worst modelled corner).
Each family maps severity onto its physical parameters (saturation
headroom, imbalance angle, resolution bits, ...) and knows how to inject
itself into the campaign data model:

* :meth:`FaultModel.apply_transmitter` patches an
  :class:`~repro.transmitter.config.ImpairmentConfig` (transmitter-side
  faults: PA, modulator, LO, DAC, output filter);
* :meth:`FaultModel.apply_converter` patches a
  :class:`~repro.bist.campaign.ConverterSpec` (acquisition-side faults:
  TIADC skew / gain / offset / bandwidth mismatch, DCDE error);
* :meth:`FaultModel.apply_mimo` patches a
  :class:`~repro.mimo.transmitter.MimoSpec` (cross-channel faults of a
  multi-chain front end: TX-to-TX leakage, shared-LO phase-noise
  correlation, per-channel gain/skew spread);
* :meth:`FaultModel.apply_scenario` injects both single-channel sides into
  a base :class:`~repro.bist.campaign.CampaignScenario` (and rejects the
  cross-channel families, which have neither side).

Families register themselves in :data:`FAULT_FAMILIES` via
:func:`register_fault`, so campaigns can be described by family name plus a
severity grid (:func:`fault_grid`).  Everything is a plain frozen dataclass:
models pickle across process-pool workers and serialise to JSON through
:meth:`FaultModel.describe`.
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass, fields, replace
from typing import ClassVar

from ..bist.campaign import CampaignScenario, ConverterSpec
from ..errors import ConfigurationError, ValidationError
from ..rf.amplifier import RappAmplifier
from ..rf.impairments import DcOffset, IqImbalance
from ..rf.oscillator import PhaseNoiseModel
from ..signals.standards import WaveformProfile
from ..transmitter.config import ImpairmentConfig
from ..transmitter.dac import TransmitDac

__all__ = [
    "FaultModel",
    "FAULT_FAMILIES",
    "register_fault",
    "get_fault_family",
    "fault_grid",
    "PaCompressionFault",
    "IqImbalanceFault",
    "LoLeakageFault",
    "PhaseNoiseFault",
    "DacResolutionFault",
    "FilterDriftFault",
    "TiadcSkewFault",
    "TiadcMismatchFault",
    "TiadcBandwidthFault",
    "DcdeErrorFault",
    "TxLeakageFault",
    "SharedLoCorrelationFault",
    "ChannelSpreadFault",
]


def _lerp(nominal: float, worst: float, severity: float) -> float:
    """Linear nominal→worst interpolation at the given severity."""
    return nominal + severity * (worst - nominal)


@dataclass(frozen=True)
class FaultModel(ABC):
    """Base class of every parametric fault model.

    Attributes
    ----------
    severity:
        Normalised fault magnitude in ``[0, 1]``: 0 keeps the hardware
        nominal, 1 is the family's worst modelled corner.  Families
        interpolate their physical parameters between the two; a corner
        that no campaign varies is a class constant, not a field.
    """

    severity: float = 1.0

    #: Registry key of the family; overridden by every concrete subclass.
    family: ClassVar[str] = "abstract"

    def __post_init__(self) -> None:
        if not 0.0 <= self.severity <= 1.0:
            raise ValidationError(
                f"fault severity must lie in [0, 1], got {self.severity!r}"
            )

    # -- identity ---------------------------------------------------------- #
    @property
    def label(self) -> str:
        """Stable, human-readable identifier (``family-s<severity>``)."""
        return f"{self.family}-s{self.severity:g}"

    @classmethod
    def from_severity(cls, severity: float) -> "FaultModel":
        """The family's default parameterisation at the given severity."""
        return cls(severity=float(severity))

    def with_severity(self, severity: float) -> "FaultModel":
        """Copy of this fault at a different severity."""
        return replace(self, severity=float(severity))

    # -- injection --------------------------------------------------------- #
    def apply_transmitter(self, impairments: ImpairmentConfig) -> ImpairmentConfig:
        """Inject the transmitter-side effect (identity for converter faults)."""
        return impairments

    def apply_converter(self, spec: ConverterSpec) -> ConverterSpec:
        """Inject the acquisition-side effect (identity for transmitter faults)."""
        return spec

    def apply_mimo(self, spec):
        """Inject the cross-channel effect into a MIMO coupling spec.

        ``spec`` is a :class:`~repro.mimo.transmitter.MimoSpec`; the default
        is the identity (single-channel faults leave the coupling alone).
        Implementations patch the spec with :func:`dataclasses.replace` so
        this module never needs to import :mod:`repro.mimo`.
        """
        return spec

    def for_profile(self, profile: WaveformProfile) -> "FaultModel":
        """Profile-specialised copy (hook for carrier-dependent faults)."""
        return self

    def apply_scenario(self, scenario: CampaignScenario, label: str | None = None) -> CampaignScenario:
        """Inject this fault into a base campaign scenario.

        The transmitter impairments are always patched; a converter spec is
        attached to the scenario only when the fault actually touches the
        acquisition side (or the base scenario already carried one), so
        transmitter faults keep using the campaign-level converter factory.

        Raises :class:`~repro.errors.ValidationError` for a fault that acts
        on neither side (a cross-channel family that only overrides
        :meth:`apply_mimo`): its scenario would be the fault-free one, and a
        campaign would report a good unit as an undetected fault.
        """
        if not isinstance(scenario, CampaignScenario):
            raise ValidationError("scenario must be a CampaignScenario")
        cls = type(self)
        if (
            cls.apply_transmitter is FaultModel.apply_transmitter
            and cls.apply_converter is FaultModel.apply_converter
        ):
            raise ValidationError(
                f"fault family {self.family!r} acts only on a multi-chain front end "
                "(apply_mimo), so a single-chain scenario cannot carry it; run it "
                "through repro.mimo.run_channel_matrix"
            )
        base_spec = scenario.converter if scenario.converter is not None else ConverterSpec()
        patched_spec = self.apply_converter(base_spec)
        converter = patched_spec if (scenario.converter is not None or patched_spec != base_spec) else None
        return replace(
            scenario,
            impairments=self.apply_transmitter(scenario.impairments),
            converter=converter,
            label=label if label is not None else f"{scenario.resolved_label()}/{self.label}",
        )

    # -- serialisation ----------------------------------------------------- #
    def describe(self) -> dict:
        """JSON-friendly description: family, type, severity and parameters."""
        return {
            "family": self.family,
            "type": type(self).__name__,
            "params": {spec.name: getattr(self, spec.name) for spec in fields(self)},
        }


#: Registered fault families, keyed by family name.
FAULT_FAMILIES: dict[str, type] = {}


def register_fault(cls: type) -> type:
    """Class decorator adding a :class:`FaultModel` subclass to the registry."""
    if not (isinstance(cls, type) and issubclass(cls, FaultModel)):
        raise ConfigurationError("register_fault expects a FaultModel subclass")
    family = cls.family
    if family in FAULT_FAMILIES and FAULT_FAMILIES[family] is not cls:
        raise ConfigurationError(f"fault family {family!r} is already registered")
    FAULT_FAMILIES[family] = cls
    return cls


def get_fault_family(name: str) -> type:
    """Look up a registered fault family by name."""
    try:
        return FAULT_FAMILIES[name]
    except KeyError:
        raise ValidationError(
            f"unknown fault family {name!r}; available: {sorted(FAULT_FAMILIES)}"
        ) from None


def fault_grid(families, severities) -> list[FaultModel]:
    """Expand family names (or model classes/instances) × severities.

    Parameters
    ----------
    families:
        Iterable of family names, :class:`FaultModel` subclasses, or template
        instances (an instance is re-parameterised with
        :meth:`FaultModel.with_severity`).
    severities:
        Severity values applied to every family.

    Returns
    -------
    list of :class:`FaultModel`, families × severities, in order.
    """
    severities = [float(severity) for severity in severities]
    if not severities:
        raise ValidationError("fault_grid needs at least one severity")
    models: list[FaultModel] = []
    for entry in families:
        if isinstance(entry, str):
            cls = get_fault_family(entry)
            models.extend(cls.from_severity(severity) for severity in severities)
        elif isinstance(entry, type) and issubclass(entry, FaultModel):
            models.extend(entry.from_severity(severity) for severity in severities)
        elif isinstance(entry, FaultModel):
            models.extend(entry.with_severity(severity) for severity in severities)
        else:
            raise ValidationError(
                "fault_grid entries must be family names, FaultModel classes or instances"
            )
    return models


# --------------------------------------------------------------------------- #
# Transmitter-side families
# --------------------------------------------------------------------------- #
@register_fault
@dataclass(frozen=True)
class PaCompressionFault(FaultModel):
    """PA compression: a Rapp amplifier whose saturation headroom shrinks.

    Severity interpolates the saturation amplitude from
    ``nominal_saturation`` (barely compressing) down to ``worst_saturation``
    (deep compression, heavy spectral regrowth).  Primary signatures: ACPR
    and spectral-mask margins, secondarily EVM.
    """

    family: ClassVar[str] = "pa-compression"

    nominal_saturation: float = 2.5
    worst_saturation: float = 0.5
    smoothness: float = 2.0

    @property
    def saturation_amplitude(self) -> float:
        """Rapp saturation amplitude at this severity."""
        return _lerp(self.nominal_saturation, self.worst_saturation, self.severity)

    def apply_transmitter(self, impairments: ImpairmentConfig) -> ImpairmentConfig:
        return impairments.with_amplifier(
            RappAmplifier(
                gain_db=0.0,
                saturation_amplitude=self.saturation_amplitude,
                smoothness=self.smoothness,
            )
        )


@register_fault
@dataclass(frozen=True)
class IqImbalanceFault(FaultModel):
    """Quadrature-modulator gain/phase imbalance scaling with severity.

    Primary signature: EVM (the conjugate image lands inside the channel for
    a symmetric baseband spectrum); strong imbalance also perturbs ACPR.
    """

    family: ClassVar[str] = "iq-imbalance"

    max_gain_imbalance_db: float = 3.0
    max_phase_imbalance_deg: float = 20.0

    @property
    def gain_imbalance_db(self) -> float:
        return self.severity * self.max_gain_imbalance_db

    @property
    def phase_imbalance_deg(self) -> float:
        return self.severity * self.max_phase_imbalance_deg

    def apply_transmitter(self, impairments: ImpairmentConfig) -> ImpairmentConfig:
        return replace(
            impairments,
            iq_imbalance=IqImbalance(
                gain_imbalance_db=self.gain_imbalance_db,
                phase_imbalance_deg=self.phase_imbalance_deg,
            ),
        )


@register_fault
@dataclass(frozen=True)
class LoLeakageFault(FaultModel):
    """LO leakage: branch DC offsets producing a carrier spur.

    Primary signature: EVM (the constellation is displaced); the carrier
    spur also concentrates power at the channel centre.
    """

    family: ClassVar[str] = "lo-leakage"

    max_i_offset: ClassVar[float] = 0.4

    @property
    def i_offset(self) -> float:
        return self.severity * self.max_i_offset

    def apply_transmitter(self, impairments: ImpairmentConfig) -> ImpairmentConfig:
        return replace(impairments, dc_offset=DcOffset(i_offset=self.i_offset))


@register_fault
@dataclass(frozen=True)
class PhaseNoiseFault(FaultModel):
    """Degraded LO phase noise: linewidth and white jitter scale together.

    Primary signature: EVM (common phase error); extreme severities also
    broaden the occupied bandwidth.
    """

    family: ClassVar[str] = "phase-noise"

    max_linewidth_hz: ClassVar[float] = 50.0e3
    max_rms_jitter_seconds: ClassVar[float] = 30.0e-12

    @property
    def linewidth_hz(self) -> float:
        return self.severity * self.max_linewidth_hz

    @property
    def rms_jitter_seconds(self) -> float:
        return self.severity * self.max_rms_jitter_seconds

    def apply_transmitter(self, impairments: ImpairmentConfig) -> ImpairmentConfig:
        return replace(
            impairments,
            phase_noise=PhaseNoiseModel(
                linewidth_hz=self.linewidth_hz,
                rms_jitter_seconds=self.rms_jitter_seconds,
            ),
        )


@register_fault
@dataclass(frozen=True)
class DacResolutionFault(FaultModel):
    """Transmit-DAC degradation: effective resolution loss.

    Severity interpolates the resolution from ``nominal_resolution_bits``
    down to ``worst_resolution_bits`` (rounded).  Mild severities are
    *intentionally* invisible to the BIST — the extra quantisation noise
    stays far below the acquisition's jitter-limited noise floor — which
    makes this family the canonical "known-undetectable at low severity"
    coverage probe.
    """

    family: ClassVar[str] = "dac-resolution"

    nominal_resolution_bits: ClassVar[int] = 14
    worst_resolution_bits: ClassVar[int] = 4

    @property
    def resolution_bits(self) -> int:
        return int(round(_lerp(self.nominal_resolution_bits, self.worst_resolution_bits, self.severity)))

    def apply_transmitter(self, impairments: ImpairmentConfig) -> ImpairmentConfig:
        return replace(impairments, dac=TransmitDac(resolution_bits=self.resolution_bits))


@register_fault
@dataclass(frozen=True)
class FilterDriftFault(FaultModel):
    """Output-filter cutoff drift: the band-pass narrows into the signal.

    Severity interpolates the bandwidth scale from 1.0 down to
    ``worst_bandwidth_scale``; once the filter edge crosses the occupied
    bandwidth the matched-filter response is destroyed.  Primary signature:
    EVM (in-band distortion); the occupied bandwidth *shrinks*, so OBW/ACPR
    limits do not flag this family.
    """

    family: ClassVar[str] = "filter-drift"

    worst_bandwidth_scale: ClassVar[float] = 0.06

    @property
    def bandwidth_scale(self) -> float:
        return _lerp(1.0, self.worst_bandwidth_scale, self.severity)

    def apply_transmitter(self, impairments: ImpairmentConfig) -> ImpairmentConfig:
        return replace(impairments, output_filter_bandwidth_scale=self.bandwidth_scale)


# --------------------------------------------------------------------------- #
# Acquisition-side (converter) families
# --------------------------------------------------------------------------- #
@register_fault
@dataclass(frozen=True)
class TiadcSkewFault(FaultModel):
    """Channel-1 deterministic sampling skew of the BP-TIADC.

    The LMS calibration *estimates* the extra skew, so the reconstruction
    (and hence the RF measurements) stays clean; the fault is visible only
    as a deviation of the estimated delay from the programmed one, which is
    why the coverage limits carry an explicit skew-deviation bound.
    """

    family: ClassVar[str] = "tiadc-skew"

    max_skew_seconds: float = 40.0e-12

    @property
    def skew_seconds(self) -> float:
        return self.severity * self.max_skew_seconds

    def apply_converter(self, spec: ConverterSpec) -> ConverterSpec:
        return replace(spec, channel1_skew_seconds=self.skew_seconds)


@register_fault
@dataclass(frozen=True)
class TiadcMismatchFault(FaultModel):
    """Channel-1 static gain/offset mismatch of the BP-TIADC.

    Gain mismatch amplitude-modulates every second sample, spraying
    interleaving images across the reconstructed band; signatures: mask
    margin and EVM.
    """

    family: ClassVar[str] = "tiadc-mismatch"

    max_gain_error: ClassVar[float] = 0.15
    max_offset: ClassVar[float] = 0.2

    @property
    def gain_error(self) -> float:
        return self.severity * self.max_gain_error

    @property
    def offset(self) -> float:
        return self.severity * self.max_offset

    def apply_converter(self, spec: ConverterSpec) -> ConverterSpec:
        return replace(spec, channel1_gain_error=self.gain_error, channel1_offset=self.offset)


@register_fault
@dataclass(frozen=True)
class TiadcBandwidthFault(FaultModel):
    """Channel-1 input-bandwidth mismatch of the BP-TIADC.

    Severity interpolates the sample-and-hold bandwidth geometrically from
    ``nominal_bandwidth_hz`` down to ``worst_bandwidth_hz``; the single-pole
    rolloff at the acquisition carrier turns into an equivalent gain *and*
    timing mismatch (see
    :meth:`~repro.adc.mismatch.ChannelMismatch.with_input_bandwidth`).
    :meth:`for_profile` pins the evaluation carrier to the profile's.
    """

    family: ClassVar[str] = "tiadc-bandwidth"

    nominal_bandwidth_hz: ClassVar[float] = 30.0e9
    worst_bandwidth_hz: ClassVar[float] = 1.2e9
    reference_frequency_hz: float = 1.0e9

    @property
    def bandwidth_hz(self) -> float:
        """Geometrically interpolated sample-and-hold bandwidth."""
        ratio = self.worst_bandwidth_hz / self.nominal_bandwidth_hz
        return self.nominal_bandwidth_hz * ratio**self.severity

    def for_profile(self, profile: WaveformProfile) -> "TiadcBandwidthFault":
        return replace(self, reference_frequency_hz=profile.carrier_frequency_hz)

    def apply_converter(self, spec: ConverterSpec) -> ConverterSpec:
        if self.severity == 0.0:
            return spec
        return replace(
            spec,
            channel1_bandwidth_hz=self.bandwidth_hz,
            bandwidth_reference_hz=self.reference_frequency_hz,
        )


@register_fault
@dataclass(frozen=True)
class DcdeErrorFault(FaultModel):
    """DCDE static delay error (programmed vs physically realised delay).

    The paper's central claim is that the LMS calibration *absorbs* exactly
    this error: the estimate tracks the physical delay and reconstruction
    stays accurate.  A moderate DCDE error is therefore undetectable by
    design — the campaign reports it as uncovered, which is the correct
    engineering answer, and it doubles as the known-undetectable control in
    the coverage tests.
    """

    family: ClassVar[str] = "dcde-error"

    max_static_error_seconds: ClassVar[float] = 8.0e-12

    @property
    def static_error_seconds(self) -> float:
        return self.severity * self.max_static_error_seconds

    def apply_converter(self, spec: ConverterSpec) -> ConverterSpec:
        return replace(spec, dcde_static_error_seconds=self.static_error_seconds)


# --------------------------------------------------------------------------- #
# Cross-channel (MIMO) families
# --------------------------------------------------------------------------- #
@register_fault
@dataclass(frozen=True)
class TxLeakageFault(FaultModel):
    """TX-to-TX leakage: finite isolation between the chains of a 2T2R die.

    Severity interpolates the coupling magnitude from ``floor_db`` (isolation
    so deep the leakage vanishes in the noise) up to ``worst_coupling_db``.
    Primary signature: ACPR/mask margins of the *victim* chain, since the
    aggressor's spectrum lands inside and beside the victim's channel.
    """

    family: ClassVar[str] = "tx-leakage"

    floor_db: ClassVar[float] = -70.0
    worst_coupling_db: ClassVar[float] = -12.0

    @property
    def coupling_db(self) -> float:
        """Coupling magnitude at this severity (dB)."""
        return _lerp(self.floor_db, self.worst_coupling_db, self.severity)

    def apply_mimo(self, spec):
        if self.severity == 0.0:
            return spec
        return replace(spec, tx_leakage_db=self.coupling_db)


@register_fault
@dataclass(frozen=True)
class SharedLoCorrelationFault(FaultModel):
    """Shared-LO phase noise: one degraded oscillator jitters every chain.

    Severity scales both the correlation (how much of the common realisation
    each chain sees) and the shared oscillator's linewidth.  Primary
    signature: EVM on *every* combination simultaneously — the tell that
    distinguishes a common-LO defect from a per-chain one.
    """

    family: ClassVar[str] = "shared-lo"

    max_correlation: ClassVar[float] = 1.0
    max_linewidth_hz: ClassVar[float] = 80.0e3

    @property
    def correlation(self) -> float:
        return self.severity * self.max_correlation

    @property
    def linewidth_hz(self) -> float:
        return self.severity * self.max_linewidth_hz

    def apply_mimo(self, spec):
        if self.severity == 0.0:
            return spec
        return replace(
            spec,
            shared_lo_correlation=self.correlation,
            shared_lo_linewidth_hz=self.linewidth_hz,
        )


@register_fault
@dataclass(frozen=True)
class ChannelSpreadFault(FaultModel):
    """Per-channel gain/skew spread across the chains (process mismatch).

    Severity scales the peak-to-peak gain and timing spreads applied
    symmetrically across the chains.  Primary signatures: per-combination
    output-power imbalance in the channel matrix, and skew-estimate spread.
    """

    family: ClassVar[str] = "channel-spread"

    max_gain_spread_db: ClassVar[float] = 6.0
    max_skew_spread_seconds: ClassVar[float] = 80.0e-12

    @property
    def gain_spread_db(self) -> float:
        return self.severity * self.max_gain_spread_db

    @property
    def skew_spread_seconds(self) -> float:
        return self.severity * self.max_skew_spread_seconds

    def apply_mimo(self, spec):
        if self.severity == 0.0:
            return spec
        return replace(
            spec,
            gain_spread_db=self.gain_spread_db,
            skew_spread_seconds=self.skew_spread_seconds,
        )
