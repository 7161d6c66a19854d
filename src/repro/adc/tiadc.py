"""The BP-TIADC acquisition front-end of Fig. 4.

The proposed architecture reuses the two receiver-side I/Q ADCs as a
two-channel bandpass time-interleaved converter.  The only added hardware is
the Digitally Controlled Delay Element (DCDE) that offsets the second
channel's clock by the programmable delay ``D``; the rest of the work
(reconstruction, calibration, measurement) happens in DSP.

* :class:`DigitallyControlledDelayElement` — a programmable delay line with a
  finite resolution and range, plus an (unknown to the DSP) static error that
  models why the *actual* delay must be estimated rather than read back.
* :class:`BpTiadc` — the two-channel nonuniform sampler: channel 0 converts
  at ``t0 + n/fs``, channel 1 at ``t0 + n/fs + D_actual``.  Acquisition
  returns a :class:`~repro.sampling.reconstruction.NonuniformSampleSet`
  whose ``delay`` field carries the *true* (impaired) delay so simulations
  can quantify estimation error, exactly like the paper's Table I.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ..errors import ConfigurationError, ValidationError
from ..sampling.bandpass import BandpassBand
from ..sampling.reconstruction import NonuniformSampleSet
from ..signals.passband import AnalogSignal
from ..utils.rng import SeedLike, spawn_generators
from ..utils.validation import check_integer, check_non_negative, check_positive
from .adc import AdcChannel
from .quantizer import UniformQuantizer

__all__ = ["DigitallyControlledDelayElement", "BpTiadc"]


@dataclass(frozen=True)
class DigitallyControlledDelayElement:
    """A programmable delay line (the DCDE of Fig. 4).

    Parameters
    ----------
    resolution_seconds:
        Smallest programmable delay step.
    static_error_seconds:
        Difference between the programmed and the physically realised delay.
        This is the quantity the calibration of Section IV must absorb: the
        DSP knows only the programmed value.
    """

    resolution_seconds: float = 1.0e-12
    static_error_seconds: float = 0.0

    #: Largest programmable delay.
    max_delay_seconds: ClassVar[float] = 2.0e-9

    def __post_init__(self) -> None:
        check_positive(self.resolution_seconds, "resolution_seconds")

    @property
    def num_codes(self) -> int:
        """Number of distinct programmable codes."""
        return int(np.floor(self.max_delay_seconds / self.resolution_seconds)) + 1

    def code_for_delay(self, target_delay_seconds: float) -> int:
        """The programming code whose nominal delay is closest to the target."""
        target_delay_seconds = check_non_negative(target_delay_seconds, "target_delay_seconds")
        if target_delay_seconds > self.max_delay_seconds:
            raise ConfigurationError(
                f"requested delay {target_delay_seconds} s exceeds the DCDE range "
                f"{self.max_delay_seconds} s"
            )
        return int(round(target_delay_seconds / self.resolution_seconds))

    def programmed_delay(self, code: int) -> float:
        """Nominal delay for a programming code."""
        code = check_integer(code, "code", minimum=0)
        if code >= self.num_codes:
            raise ConfigurationError(f"code {code} out of range (max {self.num_codes - 1})")
        return code * self.resolution_seconds

    def actual_delay(self, code: int) -> float:
        """Physically realised delay for a programming code (includes the static error)."""
        return self.programmed_delay(code) + self.static_error_seconds


@dataclass
class BpTiadc:
    """Two-channel bandpass time-interleaved ADC with a programmable delay.

    Parameters
    ----------
    sample_rate:
        Per-channel conversion rate ``fs`` (the paper's experiments use
        ``fs = B = 90 MHz``; the second acquisition of the LMS scheme reruns
        the same hardware at ``fs = B/2``).
    dcde:
        The digitally controlled delay element driving channel 1's clock.
    channel0, channel1:
        The two converter channels (10-bit by default).
    clock_jitter_rms_seconds:
        RMS Gaussian jitter of the shared sampling clock (common to both
        channels).
    skew_jitter_rms_seconds:
        RMS Gaussian jitter of the *delay path only* (the DCDE / channel-1
        clock), i.e. a random perturbation of the inter-channel skew on every
        conversion.  This is the paper's "time-skew jitter of 3 ps rms".
    seed:
        Randomness control of the clock jitter.
    """

    sample_rate: float
    dcde: DigitallyControlledDelayElement = field(default_factory=DigitallyControlledDelayElement)
    channel0: AdcChannel | None = None
    channel1: AdcChannel | None = None
    clock_jitter_rms_seconds: float = 0.0
    skew_jitter_rms_seconds: float = 0.0
    seed: SeedLike = None

    def __post_init__(self) -> None:
        check_positive(self.sample_rate, "sample_rate")
        check_non_negative(self.clock_jitter_rms_seconds, "clock_jitter_rms_seconds")
        check_non_negative(self.skew_jitter_rms_seconds, "skew_jitter_rms_seconds")
        # The clock stream is the first of three children: seeded runs,
        # goldens and archived reports rest on it, and a generator seed
        # advances by all three draws.
        self._clock_rng = spawn_generators(self.seed, 3)[0]
        if self.channel0 is None:
            self.channel0 = AdcChannel(quantizer=UniformQuantizer())
        if self.channel1 is None:
            self.channel1 = AdcChannel(quantizer=UniformQuantizer())
        self._programmed_code: int | None = None

    # ------------------------------------------------------------------ #
    # Delay programming
    # ------------------------------------------------------------------ #
    @property
    def sample_period(self) -> float:
        """Per-channel sampling period."""
        return 1.0 / self.sample_rate

    def program_delay(self, target_delay_seconds: float) -> float:
        """Program the DCDE to the code nearest ``target_delay_seconds``.

        Returns the *programmed* (nominal) delay.  The physically realised
        delay additionally includes the DCDE static error and channel 1's
        deterministic skew, neither of which is visible to the DSP.
        """
        self._programmed_code = self.dcde.code_for_delay(target_delay_seconds)
        return self.dcde.programmed_delay(self._programmed_code)

    @property
    def programmed_delay(self) -> float:
        """The currently programmed (nominal) delay."""
        if self._programmed_code is None:
            raise ConfigurationError("no delay has been programmed; call program_delay() first")
        return self.dcde.programmed_delay(self._programmed_code)

    @property
    def true_delay(self) -> float:
        """The physically realised inter-channel delay.

        Includes the DCDE static error and the difference of the two
        channels' deterministic skews.  A real BIST cannot read this value —
        estimating it is the calibration problem.
        """
        if self._programmed_code is None:
            raise ConfigurationError("no delay has been programmed; call program_delay() first")
        skew_difference = self.channel1.mismatch.skew_seconds - self.channel0.mismatch.skew_seconds
        return self.dcde.actual_delay(self._programmed_code) + skew_difference

    # ------------------------------------------------------------------ #
    # Acquisition
    # ------------------------------------------------------------------ #
    def acquire(
        self,
        signal: AnalogSignal,
        band: BandpassBand,
        num_samples: int,
        start_time: float = 0.0,
    ) -> NonuniformSampleSet:
        """Digitise ``signal`` into a nonuniform sample set.

        Parameters
        ----------
        signal:
            The analog waveform at the PA output.
        band:
            The bandpass support the acquisition targets (used downstream by
            the reconstruction kernel).  The reconstructable bandwidth is
            limited to the per-channel rate, so the sample set's band spans
            ``[band.f_low, band.f_low + sample_rate]``.
        num_samples:
            Number of sample pairs.
        start_time:
            Time of the first channel-0 conversion.
        """
        if not isinstance(signal, AnalogSignal):
            raise ValidationError("signal must be an AnalogSignal")
        if not isinstance(band, BandpassBand):
            raise ValidationError("band must be a BandpassBand")
        num_samples = check_integer(num_samples, "num_samples", minimum=2)
        if self._programmed_code is None:
            raise ConfigurationError("no delay has been programmed; call program_delay() first")

        nominal = float(start_time) + np.arange(num_samples) * self.sample_period
        if self.clock_jitter_rms_seconds > 0.0:
            # The shared clock jitter displaces each edge; both channels see the
            # same edge jitter because they are driven from the same generator.
            edge_jitter = self._clock_rng.normal(
                0.0, self.clock_jitter_rms_seconds, size=num_samples
            )
        else:
            edge_jitter = np.zeros(num_samples)
        if self.skew_jitter_rms_seconds > 0.0:
            # Jitter on the delay path only: channel 1's edge wanders around the
            # programmed skew while channel 0 keeps the clean clock.
            skew_jitter = self._clock_rng.normal(
                0.0, self.skew_jitter_rms_seconds, size=num_samples
            )
        else:
            skew_jitter = np.zeros(num_samples)

        channel0_times = nominal + edge_jitter
        channel1_times = (
            nominal + edge_jitter + skew_jitter + self.dcde.actual_delay(self._programmed_code)
        )

        on_grid = self.channel0.convert(signal, channel0_times)
        delayed = self.channel1.convert(signal, channel1_times)

        # The reconstructable bandwidth equals the per-channel rate; when the
        # converter runs below the requested band's width (the B1 = B/2
        # acquisition of the LMS calibration) the effective band stays centred
        # on the requested band so the signal remains inside it.
        if np.isclose(self.sample_rate, band.bandwidth):
            effective_band = band
        else:
            effective_band = BandpassBand.from_centre(band.centre, self.sample_rate)
        return NonuniformSampleSet(
            on_grid=on_grid,
            delayed=delayed,
            sample_period=self.sample_period,
            delay=self.true_delay,
            start_time=float(start_time),
            band=effective_band,
        )

    def with_sample_rate(self, sample_rate: float) -> "BpTiadc":
        """A copy of this converter reconfigured to a different per-channel rate.

        The underlying hardware (channels, DCDE, jitter) is shared; only the
        conversion rate changes.  This models the paper's second acquisition
        at ``B1 = B/2`` for the LMS cost function.
        """
        clone = BpTiadc(
            sample_rate=check_positive(sample_rate, "sample_rate"),
            dcde=self.dcde,
            channel0=self.channel0,
            channel1=self.channel1,
            clock_jitter_rms_seconds=self.clock_jitter_rms_seconds,
            skew_jitter_rms_seconds=self.skew_jitter_rms_seconds,
            seed=self._clock_rng,
        )
        clone._programmed_code = self._programmed_code
        return clone
