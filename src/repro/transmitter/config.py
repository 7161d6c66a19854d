"""Configuration objects for the behavioural homodyne transmitter.

The transmitter chain is assembled from a :class:`TransmitterConfig`, which
mirrors the paper's simulation setup (Section V): 10 MHz QPSK symbols shaped
by an SRRC filter with roll-off 0.5, upconverted to a 1 GHz carrier.  An
:class:`ImpairmentConfig` collects the analog non-idealities so that the BIST
campaign can inject faults by swapping a single object.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar

from ..errors import ConfigurationError
from ..rf.amplifier import (
    Amplifier,
    IdealAmplifier,
    PolynomialAmplifier,
    RappAmplifier,
    SalehAmplifier,
)
from ..rf.impairments import DcOffset, IqImbalance
from ..rf.oscillator import PhaseNoiseModel
from ..signals.ofdm import OfdmParams
from ..signals.standards import WaveformProfile
from ..utils.serialization import field_dict, known_field_kwargs
from ..utils.validation import check_integer, check_positive
from .dac import TransmitDac

__all__ = ["ImpairmentConfig", "TransmitterConfig"]

#: Amplifier dataclasses reconstructable from their serialized form.
_AMPLIFIER_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in (IdealAmplifier, RappAmplifier, SalehAmplifier, PolynomialAmplifier)
}


#: Settings earlier archives stored for an impairment model that now fixes
#: them, at their fixed values (a ``ClassVar`` constant needs no entry).
_FIXED_MODEL_SETTINGS: dict[type, dict] = {
    DcOffset: {"q_offset": 0.0},
    TransmitDac: {
        "apply_zero_order_hold_droop": False,
        "reconstruction_cutoff_hz": None,
        "reconstruction_order": 5,
        "inl_fraction_lsb": 0.0,
    },
}


def _decode_dataclass(cls: type, data: dict):
    """Rebuild a flat dataclass from its field dict.

    ``[re, im]`` pairs, which earlier archives wrote for the polynomial PA's
    complex coefficients, turn back into complex numbers.  Unknown keys are
    ignored; a key for a setting the model now fixes loads only at its fixed
    value (see :func:`~repro.utils.serialization.known_field_kwargs`).
    """
    decoded = {
        key: complex(value[0], value[1])
        if isinstance(value, (list, tuple)) and len(value) == 2
        else value
        for key, value in data.items()
    }
    return cls(**known_field_kwargs(cls, decoded, fixed=_FIXED_MODEL_SETTINGS.get(cls)))


@dataclass(frozen=True)
class ImpairmentConfig:
    """Analog impairments injected into the transmitter chain.

    Attributes
    ----------
    amplifier:
        Behavioural PA model (the fault-free default is an ideal amplifier
        with 0 dB gain so output power equals the configured power).
    iq_imbalance:
        Quadrature modulator gain/phase imbalance.
    dc_offset:
        Branch DC offsets (LO leakage).
    phase_noise:
        LO phase-noise description.
    output_snr_db:
        If finite, additive white noise is injected at the PA output to
        produce this in-band SNR; ``None`` disables the noise.
    dac:
        Optional transmit-DAC model override.  ``None`` keeps the
        transmitter's default (transparent 14-bit) DAC; setting it lets a
        fault campaign inject DAC resolution faults through the same
        single-object swap as every other impairment.
    output_filter_bandwidth_scale:
        Multiplicative drift of the output band-pass filter's bandwidth
        (1.0 = nominal).  Values well below 1 narrow the filter into the
        modulated signal and model a baseband/RF filter whose cutoff has
        drifted low (component ageing, process corner).
    """

    amplifier: Amplifier = field(default_factory=lambda: IdealAmplifier(gain_db=0.0))
    iq_imbalance: IqImbalance = field(default_factory=IqImbalance)
    dc_offset: DcOffset = field(default_factory=DcOffset)
    phase_noise: PhaseNoiseModel = field(default_factory=PhaseNoiseModel)
    output_snr_db: float | None = None
    dac: TransmitDac | None = None
    output_filter_bandwidth_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.dac is not None and not isinstance(self.dac, TransmitDac):
            raise ConfigurationError("dac must be a TransmitDac (or None for the default)")
        check_positive(self.output_filter_bandwidth_scale, "output_filter_bandwidth_scale")

    @classmethod
    def ideal(cls) -> "ImpairmentConfig":
        """A completely impairment-free configuration."""
        return cls()

    def with_amplifier(self, amplifier: Amplifier) -> "ImpairmentConfig":
        """Copy of this configuration with a different PA model."""
        return replace(self, amplifier=amplifier)

    def to_dict(self) -> dict:
        """Render as a plain JSON-friendly dictionary (see :meth:`from_dict`).

        The amplifier is stored as ``{"type": class name, "params": fields}``
        so any of the built-in behavioural PA models round-trips.
        """
        amplifier = self.amplifier
        if type(amplifier).__name__ not in _AMPLIFIER_TYPES:
            raise ConfigurationError(
                f"amplifier type {type(amplifier).__name__!r} is not serializable; "
                f"known types: {sorted(_AMPLIFIER_TYPES)}"
            )
        return {
            "amplifier": {
                "type": type(amplifier).__name__,
                "params": field_dict(amplifier),
            },
            "iq_imbalance": field_dict(self.iq_imbalance),
            "dc_offset": field_dict(self.dc_offset),
            "phase_noise": field_dict(self.phase_noise),
            "output_snr_db": self.output_snr_db,
            "dac": None if self.dac is None else field_dict(self.dac),
            "output_filter_bandwidth_scale": self.output_filter_bandwidth_scale,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ImpairmentConfig":
        """Rebuild a configuration serialized with :meth:`to_dict`.

        Unknown keys, top-level or inside a model, are ignored; a model
        archived with a setting that is now fixed at another value (a Saleh
        or polynomial PA coefficient, a DAC's full scale, droop, low-pass or
        INL, a Q-branch DC offset) raises ``ValidationError``.
        """
        amplifier_data = data.get("amplifier", {"type": "IdealAmplifier", "params": {"gain_db": 0.0}})
        type_name = amplifier_data.get("type")
        if type_name not in _AMPLIFIER_TYPES:
            raise ConfigurationError(
                f"unknown amplifier type {type_name!r}; known types: "
                f"{sorted(_AMPLIFIER_TYPES)}"
            )
        dac_data = data.get("dac")
        return cls(
            amplifier=_decode_dataclass(_AMPLIFIER_TYPES[type_name], amplifier_data.get("params", {})),
            iq_imbalance=_decode_dataclass(IqImbalance, data.get("iq_imbalance", {})),
            dc_offset=_decode_dataclass(DcOffset, data.get("dc_offset", {})),
            phase_noise=_decode_dataclass(PhaseNoiseModel, data.get("phase_noise", {})),
            output_snr_db=data.get("output_snr_db"),
            dac=None if dac_data is None else _decode_dataclass(TransmitDac, dac_data),
            output_filter_bandwidth_scale=data.get("output_filter_bandwidth_scale", 1.0),
        )


@dataclass(frozen=True)
class TransmitterConfig:
    """Full configuration of the behavioural homodyne transmitter.

    Attributes
    ----------
    carrier_frequency_hz:
        RF carrier frequency ``fc``.
    symbol_rate_hz:
        Modulation symbol rate.  For an OFDM configuration (``ofdm`` set)
        this is the critically sampled baseband rate — the subcarrier
        spacing times the FFT size.
    modulation:
        Constellation name (``"qpsk"``, ``"16qam"``, ...).  For OFDM this
        is the constellation carried by the data subcarriers.
    rolloff:
        SRRC excess-bandwidth factor ``alpha`` (unused by OFDM).
    samples_per_symbol:
        Envelope oversampling ratio.  Must leave comfortable margin for
        PA-induced spectral regrowth (the default 16 covers fifth-order
        regrowth of an SRRC signal; OFDM signals are already nearly
        critically dense, so 4 suffices there).
    pulse_span_symbols:
        SRRC filter span in symbols (unused by OFDM).
    impairments:
        Analog impairment configuration.
    seed:
        Base seed controlling every stochastic element of the chain.
    ofdm:
        :class:`~repro.signals.ofdm.OfdmParams` selecting the OFDM
        waveform family; ``None`` (the default) keeps the single-carrier
        SRRC chain.
    """

    carrier_frequency_hz: float = 1.0e9
    symbol_rate_hz: float = 10.0e6
    modulation: str = "qpsk"
    rolloff: float = 0.5
    samples_per_symbol: int = 16
    pulse_span_symbols: int = 10
    impairments: ImpairmentConfig = field(default_factory=ImpairmentConfig)
    seed: int | None = 2014
    ofdm: OfdmParams | None = None

    #: Mean envelope power at the PA output (normalised units).
    output_power: ClassVar[float] = 1.0

    def __post_init__(self) -> None:
        check_positive(self.carrier_frequency_hz, "carrier_frequency_hz")
        check_positive(self.symbol_rate_hz, "symbol_rate_hz")
        check_integer(self.samples_per_symbol, "samples_per_symbol", minimum=2)
        check_integer(self.pulse_span_symbols, "pulse_span_symbols", minimum=2)
        if not 0.0 <= self.rolloff <= 1.0:
            raise ConfigurationError("rolloff must lie in [0, 1]")
        if self.ofdm is not None and not isinstance(self.ofdm, OfdmParams):
            raise ConfigurationError("ofdm must be an OfdmParams (or None for single-carrier)")
        if self.envelope_sample_rate / 2.0 >= self.carrier_frequency_hz:
            raise ConfigurationError(
                "envelope sample rate must be far below the carrier frequency; "
                "reduce samples_per_symbol or raise the carrier"
            )

    @property
    def waveform_family(self) -> str:
        """The waveform family of the configuration."""
        return "single-carrier" if self.ofdm is None else "ofdm"

    @property
    def envelope_sample_rate(self) -> float:
        """Sample rate of the simulated complex envelope."""
        return self.symbol_rate_hz * self.samples_per_symbol

    @property
    def occupied_bandwidth_hz(self) -> float:
        """Nominal occupied RF bandwidth of the modulated signal."""
        if self.ofdm is not None:
            return self.ofdm.occupied_bandwidth_hz(self.symbol_rate_hz)
        return (1.0 + self.rolloff) * self.symbol_rate_hz

    @classmethod
    def paper_default(cls, impairments: ImpairmentConfig | None = None, seed: int | None = 2014) -> "TransmitterConfig":
        """The simulation setup of Section V of the paper."""
        return cls(
            carrier_frequency_hz=1.0e9,
            symbol_rate_hz=10.0e6,
            modulation="qpsk",
            rolloff=0.5,
            impairments=impairments if impairments is not None else ImpairmentConfig(),
            seed=seed,
        )

    @classmethod
    def from_profile(
        cls,
        profile: WaveformProfile,
        impairments: ImpairmentConfig | None = None,
        seed: int | None = 2014,
    ) -> "TransmitterConfig":
        """Build a transmitter configuration from a multistandard waveform profile.

        ``samples_per_symbol`` is set per family: 16 for single-carrier
        (regrowth headroom for SRRC) and 4 for OFDM (the comb is already
        nearly critically dense).
        """
        samples_per_symbol = 4 if profile.family == "ofdm" else 16
        return cls(
            carrier_frequency_hz=profile.carrier_frequency_hz,
            symbol_rate_hz=profile.symbol_rate_hz,
            modulation=profile.modulation,
            rolloff=profile.rolloff,
            samples_per_symbol=samples_per_symbol,
            impairments=impairments if impairments is not None else ImpairmentConfig(),
            seed=seed,
            ofdm=profile.ofdm,
        )

    def to_dict(self) -> dict:
        """Render as a plain JSON-friendly dictionary (see :meth:`from_dict`).

        The ``ofdm`` key is only present for OFDM configurations, so
        single-carrier dictionaries keep their familiar shape (note that
        archived *fingerprints* from earlier library versions miss
        regardless: the store schema version participates in every
        fingerprint and was bumped with the waveform-family change).
        """
        data = {
            "carrier_frequency_hz": self.carrier_frequency_hz,
            "symbol_rate_hz": self.symbol_rate_hz,
            "modulation": self.modulation,
            "rolloff": self.rolloff,
            "samples_per_symbol": self.samples_per_symbol,
            "pulse_span_symbols": self.pulse_span_symbols,
            "impairments": self.impairments.to_dict(),
            "seed": self.seed,
        }
        if self.ofdm is not None:
            data["ofdm"] = self.ofdm.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "TransmitterConfig":
        """Rebuild a configuration serialized with :meth:`to_dict`.

        Unknown keys are ignored; a configuration archived with an output
        power other than 1.0 raises ``ValidationError``.
        """
        kwargs = known_field_kwargs(cls, data)
        impairments = kwargs.pop("impairments", None)
        if impairments is not None:
            kwargs["impairments"] = ImpairmentConfig.from_dict(impairments)
        ofdm = kwargs.get("ofdm")
        if ofdm is not None and not isinstance(ofdm, OfdmParams):
            kwargs["ofdm"] = OfdmParams.from_dict(ofdm)
        return cls(**kwargs)
