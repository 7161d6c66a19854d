"""The complete RF BIST: masks, measurements, engine, reports and campaigns."""

from .campaign import (
    CampaignScenario,
    ConverterSpec,
    build_scenario_engine,
    execute_scenario,
    scenario_bandwidth,
    scenario_bist_config,
    scenario_num_samples_fast,
)
from .compiler import CampaignCompiler, CompilerStats
from .engine import BistConfig, BistStage, TransmitterBist
from .masks import MaskCheckResult, MaskViolation, SpectralMask
from .measurements import (
    TxMeasurements,
    measure_acpr,
    measure_evm,
    measure_occupied_bandwidth,
    measure_ofdm_evm,
    measure_spectrum_from_samples,
    reconstructed_envelope,
    render_uniform,
)
from .report import (
    BistReport,
    CampaignSummary,
    CheckResult,
    ProfileSummary,
    SkewCalibrationReport,
    Verdict,
)
from .runner import (
    CampaignExecution,
    CampaignRunner,
    ScenarioGrid,
    ScenarioOutcome,
    derive_scenario_seed,
    iq_imbalance_sweep,
    pa_saturation_sweep,
    skew_sweep,
)

__all__ = [
    "CampaignScenario",
    "ConverterSpec",
    "build_scenario_engine",
    "execute_scenario",
    "scenario_bandwidth",
    "scenario_bist_config",
    "scenario_num_samples_fast",
    "CampaignCompiler",
    "CompilerStats",
    "BistConfig",
    "BistStage",
    "TransmitterBist",
    "MaskCheckResult",
    "MaskViolation",
    "SpectralMask",
    "TxMeasurements",
    "measure_acpr",
    "measure_evm",
    "measure_occupied_bandwidth",
    "measure_ofdm_evm",
    "measure_spectrum_from_samples",
    "reconstructed_envelope",
    "render_uniform",
    "BistReport",
    "CampaignSummary",
    "CheckResult",
    "ProfileSummary",
    "SkewCalibrationReport",
    "Verdict",
    "CampaignExecution",
    "CampaignRunner",
    "ScenarioGrid",
    "ScenarioOutcome",
    "derive_scenario_seed",
    "iq_imbalance_sweep",
    "pa_saturation_sweep",
    "skew_sweep",
]
