"""Waveform generation: constellations, symbol sources, pulse shaping, signals."""

from .baseband import ComplexEnvelope
from .constellations import (
    AVAILABLE_CONSTELLATIONS,
    Constellation,
    bpsk,
    get_constellation,
    psk,
    qam,
    qpsk,
)
from .multitone import ToneSignal, multitone_in_band, single_tone
from .ofdm import (
    OfdmDemodulator,
    OfdmGridMetrics,
    OfdmModulator,
    OfdmParams,
    build_used_grid,
    ofdm_grid_metrics,
)
from .passband import AnalogSignal, CompositeSignal, ModulatedPassbandSignal
from .pulse_shaping import PulseShaper, root_raised_cosine_taps
from .standards import (
    PROFILES,
    WAVEFORM_FAMILIES,
    WaveformProfile,
    get_profile,
    list_profiles,
)
from .symbols import SymbolSource

__all__ = [
    "ComplexEnvelope",
    "AVAILABLE_CONSTELLATIONS",
    "Constellation",
    "bpsk",
    "get_constellation",
    "psk",
    "qam",
    "qpsk",
    "ToneSignal",
    "multitone_in_band",
    "single_tone",
    "OfdmDemodulator",
    "OfdmGridMetrics",
    "OfdmModulator",
    "OfdmParams",
    "build_used_grid",
    "ofdm_grid_metrics",
    "AnalogSignal",
    "CompositeSignal",
    "ModulatedPassbandSignal",
    "PulseShaper",
    "root_raised_cosine_taps",
    "PROFILES",
    "WAVEFORM_FAMILIES",
    "WaveformProfile",
    "get_profile",
    "list_profiles",
    "SymbolSource",
]
