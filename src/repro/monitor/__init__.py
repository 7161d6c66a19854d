"""Streaming/online BIST monitoring.

The batch pipeline answers "is the transmitter healthy *now*?" once per
campaign run.  This package answers the deployed question — "is it *still*
healthy, and when did it stop?" — by running the same measurement DSP
continuously over a sample stream, in the spirit of the low-cost loopback
monitoring of Negreiros et al. (PAPERS.md):

* :mod:`repro.monitor.accumulator` — :class:`StreamingAccumulator`,
  incremental Welch PSD state bit-identical to batch
  :func:`repro.dsp.welch_psd` on the concatenated record;
* :mod:`repro.monitor.detector` — :class:`DriftDetector`, per-metric
  CUSUM/EWMA charts normalised by the
  :class:`~repro.store.BaselineComparator` tolerance model, emitting
  :class:`DriftAlarm` records with tested alarm latency / false-alarm rate;
* :mod:`repro.monitor.evm` — standalone per-window EVM against the known
  transmitted symbols;
* :mod:`repro.monitor.monitor` — :class:`StreamingMonitor`, the façade
  carving blocks into measurement windows and feeding the detector;
* :mod:`repro.monitor.drift` — seeded gain/noise drift injection for
  validating the alarm metrics;
* :mod:`repro.monitor.cli` — the ``python -m repro.monitor`` command
  (monitored session against a waveform profile with injected slow drift,
  JSON alarm log on stdout).

Entry points: :meth:`StreamingMonitor.from_transmission` for an existing
burst, or :meth:`repro.bist.TransmitterBist.stream` to monitor the engine's
calibrated reconstruction.
"""

from .accumulator import StreamingAccumulator
from .detector import MONITORED_METRICS, DriftAlarm, DriftDetector, DriftDetectorConfig
from .drift import apply_gain_drift, apply_noise_drift, gain_drift_profile
from .evm import (
    OfdmSymbolReference,
    SymbolKernelTable,
    SymbolReference,
    windowed_evm,
    windowed_ofdm_evm,
)
from .monitor import (
    ChannelSpec,
    MonitorConfig,
    MonitorReport,
    StreamingMonitor,
    WindowMetrics,
    iter_blocks,
)

__all__ = [
    "StreamingAccumulator",
    "MONITORED_METRICS",
    "DriftAlarm",
    "DriftDetector",
    "DriftDetectorConfig",
    "apply_gain_drift",
    "apply_noise_drift",
    "gain_drift_profile",
    "SymbolReference",
    "SymbolKernelTable",
    "OfdmSymbolReference",
    "windowed_evm",
    "windowed_ofdm_evm",
    "ChannelSpec",
    "MonitorConfig",
    "MonitorReport",
    "StreamingMonitor",
    "WindowMetrics",
    "iter_blocks",
]
