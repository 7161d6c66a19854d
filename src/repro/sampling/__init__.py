"""Bandpass sampling theory: uniform (PBS) and second-order nonuniform (PNBS)."""

from .bandpass import (
    BandpassBand,
    SamplingRateRange,
    alias_free_grid,
    folded_frequency,
    is_alias_free,
    minimum_sampling_rate,
    rate_margin,
    required_rate_precision,
    valid_rate_ranges,
    wedge_index,
)
from .nonuniform import (
    KohlenbergKernel,
    band_order,
    check_delay,
    delay_upper_bound,
    forbidden_delays,
    integer_band_positioning,
    optimal_delay,
)
from .reconstruction import (
    IdealNonuniformSampler,
    NonuniformReconstructor,
    NonuniformSampleSet,
    PlanStructureCache,
    ReconstructionPlan,
    evaluate_stacked,
    reference_evaluate,
)
from .sensitivity import (
    max_delay_error_for_relative_error,
    paper_example_delay_requirement,
    relative_error_for_delay_error,
)

__all__ = [
    "BandpassBand",
    "SamplingRateRange",
    "alias_free_grid",
    "folded_frequency",
    "is_alias_free",
    "minimum_sampling_rate",
    "rate_margin",
    "required_rate_precision",
    "valid_rate_ranges",
    "wedge_index",
    "KohlenbergKernel",
    "band_order",
    "check_delay",
    "delay_upper_bound",
    "forbidden_delays",
    "integer_band_positioning",
    "optimal_delay",
    "IdealNonuniformSampler",
    "NonuniformReconstructor",
    "NonuniformSampleSet",
    "PlanStructureCache",
    "ReconstructionPlan",
    "evaluate_stacked",
    "reference_evaluate",
    "max_delay_error_for_relative_error",
    "paper_example_delay_requirement",
    "relative_error_for_delay_error",
]
