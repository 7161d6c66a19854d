"""Continuous-time passband signal abstractions.

The nonuniform sampler needs to evaluate the transmitter output at arbitrary
time instants with picosecond timing accuracy.  Rather than brute-forcing a
dense passband grid at several times the carrier frequency, the library keeps
the *complex envelope* on a modest grid and represents the carrier
analytically:

``f(t) = Re{ env(t) * exp(j * (2*pi*fc*t + phi)) }``

Evaluating ``f`` at any ``t`` then only needs band-limited interpolation of
the (narrowband) envelope plus an exact carrier evaluation, which is both
faster and more timing-accurate than interpolating a dense passband grid.
This is the standard behavioural-passband modelling approach the paper uses.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..utils.validation import check_positive
from .baseband import ComplexEnvelope

__all__ = [
    "AnalogSignal",
    "ModulatedPassbandSignal",
    "CompositeSignal",
]


class AnalogSignal(ABC):
    """A real-valued continuous-time signal that can be evaluated anywhere.

    Concrete implementations must provide :meth:`evaluate`; the sampler,
    reconstruction and calibration code only ever interact with signals
    through this interface, so synthetic test signals (exact tones) and
    behavioural transmitter outputs are interchangeable.
    """

    @abstractmethod
    def evaluate(self, times) -> np.ndarray:
        """Evaluate the signal at the given time instants (seconds)."""

    @property
    @abstractmethod
    def band(self) -> tuple[float, float]:
        """The ``(f_low, f_high)`` band (Hz) that contains the signal energy."""

    @property
    def bandwidth(self) -> float:
        """Width of :attr:`band`."""
        low, high = self.band
        return high - low

    def __call__(self, times) -> np.ndarray:
        return self.evaluate(times)

    def __add__(self, other: "AnalogSignal") -> "AnalogSignal":
        if not isinstance(other, AnalogSignal):
            return NotImplemented
        return CompositeSignal([self, other])


@dataclass(frozen=True)
class ModulatedPassbandSignal(AnalogSignal):
    """A passband signal defined by a complex envelope and an analytic carrier.

    Attributes
    ----------
    envelope:
        The complex envelope (I/Q) of the signal.
    carrier_frequency:
        Carrier frequency ``fc`` in Hz (zero carrier phase).
    occupied_bandwidth:
        Bandwidth (Hz) declared for :attr:`band`.  Defaults to the envelope
        sample rate (a conservative bound: the envelope cannot represent
        content beyond it).
    """

    envelope: ComplexEnvelope
    carrier_frequency: float
    occupied_bandwidth: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.envelope, ComplexEnvelope):
            raise ValidationError("envelope must be a ComplexEnvelope")
        fc = check_positive(self.carrier_frequency, "carrier_frequency")
        bandwidth = (
            self.envelope.sample_rate
            if self.occupied_bandwidth is None
            else check_positive(self.occupied_bandwidth, "occupied_bandwidth")
        )
        if bandwidth / 2.0 >= fc:
            raise ValidationError(
                "occupied bandwidth must be smaller than twice the carrier frequency "
                "for a physically meaningful passband signal"
            )
        object.__setattr__(self, "carrier_frequency", fc)
        object.__setattr__(self, "occupied_bandwidth", bandwidth)

    @property
    def band(self) -> tuple[float, float]:
        half = self.occupied_bandwidth / 2.0
        return (self.carrier_frequency - half, self.carrier_frequency + half)

    def evaluate(self, times) -> np.ndarray:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        envelope_values = self.envelope.evaluate(times)
        carrier = np.exp(1j * (2.0 * np.pi * self.carrier_frequency * times))
        return np.real(envelope_values * carrier)

    def mean_power(self) -> float:
        """Mean passband power (half the mean envelope power)."""
        return self.envelope.mean_power() / 2.0


@dataclass(frozen=True)
class CompositeSignal(AnalogSignal):
    """Sum of several analog signals (e.g. wanted signal plus interferers)."""

    components: tuple

    def __init__(self, components) -> None:
        components = tuple(components)
        if not components:
            raise ValidationError("a composite signal needs at least one component")
        for component in components:
            if not isinstance(component, AnalogSignal):
                raise ValidationError("all components must be AnalogSignal instances")
        object.__setattr__(self, "components", components)

    @property
    def band(self) -> tuple[float, float]:
        lows, highs = zip(*(component.band for component in self.components))
        return (min(lows), max(highs))

    def evaluate(self, times) -> np.ndarray:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        total = np.zeros(times.shape, dtype=float)
        for component in self.components:
            total = total + component.evaluate(times)
        return total
