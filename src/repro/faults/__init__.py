"""Fault injection and test-coverage analytics for the transmitter BIST.

The paper validates its BIST by arguing it can screen transmitter faults
with no RF instrumentation; this package quantifies that claim:

* :mod:`repro.faults.models` — parametric, picklable fault models (PA
  compression, IQ imbalance, LO leakage, phase noise, DAC resolution/INL,
  output-filter drift, TIADC skew/gain/offset/bandwidth mismatch, DCDE
  error) with a severity axis and a family registry;
* :mod:`repro.faults.injection` — :class:`FaultCampaign`, expanding fault ×
  severity × profile grids (plus a fault-free reference population) and
  executing them through the parallel campaign runner;
* :mod:`repro.faults.coverage` — the :class:`FaultDictionary`: measurement
  signatures per fault point, detection probabilities under a
  :class:`TestLimits` screen, fault coverage, false alarms, and the
  test-escape / yield-loss Monte Carlo;
* :mod:`repro.faults.report` — :class:`FaultCoverageReport`, the ranked,
  JSON-serialisable detectability report;
* :mod:`repro.faults.adaptive` — :class:`AdaptivePlanner`, locating each
  family's minimal detectable severity by (probabilistic) bisection with
  CI-based early stopping, plus the importance-sampled escape/yield Monte
  Carlo; every adaptive step runs as an ordinary fingerprinted scenario
  through the campaign runner and store;
* :mod:`repro.faults.stats` — the 95 % Wilson binomial interval (no SciPy
  dependency) backing the early-stopping rules.
"""

from .adaptive import (
    SEARCH_STRATEGIES,
    AdaptiveCampaignResult,
    AdaptiveConfig,
    AdaptivePlanner,
    CampaignProbeBackend,
    FamilyThreshold,
    ImportanceEscapeEstimate,
    ProbeBackend,
    ProbeResult,
    SyntheticFamily,
    SyntheticProbeBackend,
    ThresholdReport,
    importance_monte_carlo,
)
from .coverage import (
    CoverageResult,
    EscapeYieldEstimate,
    FaultDictionary,
    FaultRecord,
    FaultSignature,
    TestLimits,
)
from .injection import REFERENCE_FAMILY, FaultCampaign, FaultCampaignResult, FaultPoint
from .models import (
    FAULT_FAMILIES,
    ChannelSpreadFault,
    DacResolutionFault,
    DcdeErrorFault,
    FaultModel,
    FilterDriftFault,
    IqImbalanceFault,
    LoLeakageFault,
    PaCompressionFault,
    PhaseNoiseFault,
    SharedLoCorrelationFault,
    TiadcBandwidthFault,
    TiadcMismatchFault,
    TiadcSkewFault,
    TxLeakageFault,
    fault_grid,
    get_fault_family,
    register_fault,
)
from .report import FaultCoverageReport, FaultReportEntry

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
    "FaultCampaign",
    "FaultCampaignResult",
    "FaultPoint",
    "REFERENCE_FAMILY",
    "FaultSignature",
    "TestLimits",
    "FaultRecord",
    "CoverageResult",
    "EscapeYieldEstimate",
    "FaultDictionary",
    "FaultCoverageReport",
    "FaultReportEntry",
    "AdaptiveConfig",
    "AdaptivePlanner",
    "AdaptiveCampaignResult",
    "CampaignProbeBackend",
    "FamilyThreshold",
    "ImportanceEscapeEstimate",
    "ProbeBackend",
    "ProbeResult",
    "SEARCH_STRATEGIES",
    "SyntheticFamily",
    "SyntheticProbeBackend",
    "ThresholdReport",
    "importance_monte_carlo",
]
