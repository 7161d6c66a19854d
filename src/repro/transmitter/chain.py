"""The behavioural homodyne transmitter of Fig. 1.

:class:`HomodyneTransmitter` assembles the full chain

    symbols -> baseband modulator -> I/Q DAC -> quadrature modulator
    (IQ imbalance, DC offset, LO phase noise) -> PA -> output band-pass filter

and produces both the RF passband signal seen by the BIST sampler and the
reference information (transmitted symbols, ideal envelope) the measurement
code needs to compute EVM and reconstruction errors against ground truth.

The baseband modulator dispatches on the configuration's waveform family:
single-carrier configurations shape their symbols with an SRRC
:class:`~repro.signals.pulse_shaping.PulseShaper`; OFDM configurations map
them onto subcarriers through an
:class:`~repro.signals.ofdm.OfdmModulator` (guard bands, DC null, pilots,
cyclic prefix).  Everything downstream of the baseband envelope — DAC,
quadrature modulator, PA, output filter, noise — is family-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, ValidationError
from ..rf.filters import AnalogBandpass
from ..rf.mixer import QuadratureModulator
from ..rf.noise import add_noise_for_snr
from ..rf.oscillator import LocalOscillator
from ..signals.baseband import ComplexEnvelope
from ..signals.constellations import Constellation, get_constellation
from ..signals.ofdm import OfdmModulator
from ..signals.passband import ModulatedPassbandSignal
from ..signals.pulse_shaping import PulseShaper, root_raised_cosine_taps
from ..signals.symbols import SymbolSource
from ..utils.rng import spawn_generators
from ..utils.validation import check_integer
from .config import TransmitterConfig
from .dac import TransmitDac

__all__ = ["TransmissionResult", "HomodyneTransmitter"]


@dataclass(frozen=True)
class TransmissionResult:
    """Everything produced by one transmission burst.

    Attributes
    ----------
    rf_output:
        The passband signal at the PA / band-pass filter output (what the
        BIST sampler digitises).
    output_envelope:
        The complex envelope of :attr:`rf_output`.
    ideal_envelope:
        The impairment-free pulse-shaped envelope (EVM reference).
    symbols:
        The transmitted constellation symbols.
    symbol_indices:
        The integer symbol values that were mapped.
    constellation:
        The constellation used for mapping.
    config:
        The transmitter configuration that produced this burst.
    """

    rf_output: ModulatedPassbandSignal
    output_envelope: ComplexEnvelope
    ideal_envelope: ComplexEnvelope
    symbols: np.ndarray
    symbol_indices: np.ndarray
    constellation: Constellation
    config: TransmitterConfig

    @property
    def carrier_frequency(self) -> float:
        """Carrier frequency of the burst."""
        return self.rf_output.carrier_frequency

    @property
    def duration(self) -> float:
        """Burst duration in seconds."""
        return self.output_envelope.duration


class HomodyneTransmitter:
    """Behavioural model of the homodyne (direct-conversion) transmitter.

    Parameters
    ----------
    config:
        Transmitter configuration (waveform, impairments, seed).  Its
        ``impairments.dac`` is the transmit DAC model; a transparent
        high-resolution DAC when unset.

    Examples
    --------
    >>> from repro.transmitter import HomodyneTransmitter, TransmitterConfig
    >>> tx = HomodyneTransmitter(TransmitterConfig.paper_default())
    >>> burst = tx.transmit(num_symbols=256)
    >>> burst.rf_output.carrier_frequency
    1000000000.0
    """

    def __init__(self, config: TransmitterConfig) -> None:
        if not isinstance(config, TransmitterConfig):
            raise ValidationError("config must be a TransmitterConfig")
        self._config = config
        # The impairment configuration may carry a faulty DAC model
        # (resolution / INL fault injection).
        dac = config.impairments.dac
        self._dac = dac if dac is not None else TransmitDac()
        self._constellation = get_constellation(config.modulation)
        if config.ofdm is not None:
            self._ofdm = OfdmModulator(config.ofdm, oversampling=config.samples_per_symbol)
            self._shaper = None
        else:
            self._ofdm = None
            self._shaper = PulseShaper(
                samples_per_symbol=config.samples_per_symbol,
                taps=root_raised_cosine_taps(
                    config.samples_per_symbol, config.pulse_span_symbols, config.rolloff
                ),
            )
        # Independent random streams: symbols, phase noise, output noise.
        symbol_rng, phase_rng, noise_rng = spawn_generators(config.seed, 3)
        self._symbol_source = SymbolSource(self._constellation, seed=symbol_rng)
        self._phase_rng = phase_rng
        self._noise_rng = noise_rng
        impairments = config.impairments
        self._modulator = QuadratureModulator(
            local_oscillator=LocalOscillator(
                frequency_hz=config.carrier_frequency_hz,
                phase_noise=impairments.phase_noise,
                seed=self._phase_rng,
            ),
            iq_imbalance=impairments.iq_imbalance,
            dc_offset=impairments.dc_offset,
        )
        # The nominal output band-pass tracks the envelope bandwidth; the
        # impairment scale models a filter whose cutoff has drifted.
        self._output_filter = AnalogBandpass(
            bandwidth_hz=config.envelope_sample_rate * 0.9 * impairments.output_filter_bandwidth_scale,
            centre_offset_hz=0.0,
            order=4,
        )

    # ------------------------------------------------------------------ #
    # Public attributes
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> TransmitterConfig:
        """The transmitter configuration."""
        return self._config

    @property
    def waveform_family(self) -> str:
        """The active waveform family (``"single-carrier"`` or ``"ofdm"``)."""
        return self._config.waveform_family

    @property
    def carrier_frequency(self) -> float:
        """Carrier frequency of the transmitter."""
        return self._config.carrier_frequency_hz

    # ------------------------------------------------------------------ #
    # Transmission
    # ------------------------------------------------------------------ #
    def transmit(self, num_symbols: int = 512, symbol_indices=None) -> TransmissionResult:
        """Generate one burst and run it through the whole chain.

        Parameters
        ----------
        num_symbols:
            Number of constellation symbols to transmit (ignored when
            explicit ``symbol_indices`` are provided).
        symbol_indices:
            Optional explicit integer symbol values, for deterministic or
            directed tests.
        """
        config = self._config
        if symbol_indices is None:
            num_symbols = check_integer(num_symbols, "num_symbols", minimum=16)
            if self._ofdm is not None:
                # OFDM fills whole symbols: round the draw up to a complete
                # grid so every subcarrier of every symbol carries data.
                num_symbols = self._ofdm.round_up_data_symbols(num_symbols)
            symbol_indices = self._symbol_source.draw_indices(num_symbols)
        else:
            symbol_indices = np.asarray(symbol_indices, dtype=np.int64)
            if symbol_indices.ndim != 1 or symbol_indices.size < 16:
                raise ConfigurationError("symbol_indices must be a 1-D array of at least 16 symbols")
            if (
                self._ofdm is not None
                and symbol_indices.size % self._ofdm.params.num_data_subcarriers != 0
            ):
                raise ConfigurationError(
                    "explicit OFDM symbol_indices must fill whole OFDM symbols: "
                    f"size must be a multiple of {self._ofdm.params.num_data_subcarriers}"
                )
        symbols = self._constellation.map(symbol_indices)

        if self._ofdm is not None:
            # Subcarrier mapping, pilots, oversampled IFFT, cyclic prefix.
            shaped = self._ofdm.modulate(symbols)
        else:
            # Pulse shaping at the envelope rate; trim the filter transients
            # so the burst duration is exactly num_symbols / symbol_rate.
            shaped = self._shaper.shape_trimmed(symbols)
        ideal_envelope = ComplexEnvelope(
            samples=shaped,
            sample_rate=config.envelope_sample_rate,
            start_time=0.0,
        ).scaled_to_power(config.output_power)

        # DAC conversion and modulator impairments.
        analog_envelope = self._dac.convert(ideal_envelope)
        impaired_envelope = self._modulator.impair_envelope(analog_envelope)

        # Power amplifier (operates on the envelope) and output filtering.
        amplified = config.impairments.amplifier.apply(impaired_envelope)
        filtered = self._output_filter.apply(amplified)

        if config.impairments.output_snr_db is not None:
            filtered = add_noise_for_snr(
                filtered, config.impairments.output_snr_db, seed=self._noise_rng
            )

        rf_output = ModulatedPassbandSignal(
            envelope=filtered,
            carrier_frequency=config.carrier_frequency_hz,
            occupied_bandwidth=config.envelope_sample_rate,
        )
        return TransmissionResult(
            rf_output=rf_output,
            output_envelope=filtered,
            ideal_envelope=ideal_envelope,
            symbols=symbols,
            symbol_indices=symbol_indices,
            constellation=self._constellation,
            config=config,
        )

    def transmit_for_duration(self, duration_seconds: float) -> TransmissionResult:
        """Generate a burst long enough to cover ``duration_seconds``."""
        if duration_seconds <= 0.0:
            raise ConfigurationError("duration_seconds must be positive")
        if self._ofdm is not None:
            # One OFDM symbol spans (fft + cp) critical samples; request
            # exactly the data needed to fill enough whole symbols.
            params = self._ofdm.params
            symbol_duration = params.symbol_duration_seconds(self._config.symbol_rate_hz)
            num_ofdm_symbols = int(np.ceil(duration_seconds / symbol_duration)) + 1
            num_symbols = num_ofdm_symbols * params.num_data_subcarriers
        else:
            num_symbols = int(np.ceil(duration_seconds * self._config.symbol_rate_hz)) + 1
        return self.transmit(num_symbols=max(num_symbols, 16))
