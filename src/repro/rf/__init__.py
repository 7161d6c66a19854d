"""Behavioural RF blocks: PA models, IQ impairments, noise, LO and the output filter."""

from .amplifier import (
    Amplifier,
    IdealAmplifier,
    PolynomialAmplifier,
    RappAmplifier,
    SalehAmplifier,
)
from .filters import AnalogBandpass
from .impairments import DcOffset, IqImbalance
from .mixer import QuadratureModulator
from .noise import AdditiveWhiteNoise, add_noise_for_snr
from .oscillator import LocalOscillator, PhaseNoiseModel

__all__ = [
    "Amplifier",
    "IdealAmplifier",
    "PolynomialAmplifier",
    "RappAmplifier",
    "SalehAmplifier",
    "AnalogBandpass",
    "DcOffset",
    "IqImbalance",
    "QuadratureModulator",
    "AdditiveWhiteNoise",
    "add_noise_for_snr",
    "LocalOscillator",
    "PhaseNoiseModel",
]
