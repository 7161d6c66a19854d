"""repro: reproduction of "A flexible BIST strategy for SDR transmitters" (DATE 2014).

The library implements the paper's RF BIST architecture for software-defined
radio transmitters end to end:

* :mod:`repro.signals` — waveform generation (constellations, SRRC pulse
  shaping, multistandard profiles, exact tone stimuli);
* :mod:`repro.dsp` — spectral estimation, filtering, interpolation and
  signal-quality metrics;
* :mod:`repro.sampling` — uniform (PBS) and second-order nonuniform (PNBS /
  Kohlenberg) bandpass sampling theory, reconstruction and sensitivity
  analysis;
* :mod:`repro.rf`, :mod:`repro.transmitter` — behavioural homodyne
  transmitter with PA nonlinearity, IQ impairments and phase noise;
* :mod:`repro.adc` — the BP-TIADC acquisition path (sample-and-hold with
  jitter, quantisation, channel mismatch, digitally controlled delay);
* :mod:`repro.calibration` — the paper's LMS-based time-skew estimator and
  the sine-fit baseline it is compared against;
* :mod:`repro.bist` — the complete transmitter BIST: spectral-mask / ACPR /
  EVM measurements, verdicts and multistandard campaigns;
* :mod:`repro.faults` — fault models, fault-injection campaigns, the fault
  dictionary and coverage / test-escape / yield-loss analytics;
* :mod:`repro.store` — persistent content-addressed campaign store:
  resumable execution, shard merging and golden-baseline regression gating.
"""

from . import adc, bist, calibration, dsp, faults, rf, sampling, signals, store, transmitter, utils
from .errors import (
    AliasingError,
    CalibrationError,
    ConfigurationError,
    ConvergenceError,
    DelayConstraintError,
    MaskError,
    MeasurementError,
    ReconstructionError,
    ReproError,
    SamplingError,
    ValidationError,
)

__version__ = "1.0.0"

__all__ = [
    "adc",
    "bist",
    "calibration",
    "dsp",
    "faults",
    "rf",
    "sampling",
    "signals",
    "store",
    "transmitter",
    "utils",
    "ReproError",
    "ConfigurationError",
    "ValidationError",
    "SamplingError",
    "AliasingError",
    "DelayConstraintError",
    "ReconstructionError",
    "CalibrationError",
    "ConvergenceError",
    "MeasurementError",
    "MaskError",
    "__version__",
]
