"""Analog design analysis: eq. 4/5 trade-offs, ADCs, noise, circuits."""

from .tradeoff import (
    TradeoffPoint,
    accuracy_from_bits,
    bits_from_accuracy,
    limit_gap,
    minimum_power,
    mismatch_constant,
    power_trend_fixed_spec,
    thermal_noise_constant,
    tradeoff_plane,
)
from .adc import (
    SURVEY,
    AdcDesign,
    minimum_adc_power,
    resolution_speed_frontier,
    sample_synthetic_survey,
    survey_points,
    survey_vs_limits,
)
from .supply_scaling import (
    analog_power_trend,
    digital_power_trend,
    headroom_trend,
    mismatch_limited_power,
    power_ratio,
)
from .noise import (
    capacitance_for_snr,
    corner_frequency,
    enob_from_snr,
    flicker_noise_density,
    ktc_noise_voltage,
    noise_budget,
    snr_from_enob,
    snr_from_noise,
    thermal_noise_density_mosfet,
)
from .adc_behavioral import (
    AdcTestResult,
    PipelineAdc,
    PipelineStage,
    enob_vs_device_area,
    sine_test,
)
from .switched_capacitor import (
    ScAmplifier,
    design_sc_stage,
    settling_budget_sweep,
    speed_accuracy_power_point,
)
from .yield_analysis import (
    OtaYieldAnalyzer,
    YieldReport,
    area_for_offset_yield,
    offset_yield,
    yield_vs_area,
)
from .circuits import (
    DetectorFrontend,
    DetectorFrontendDesign,
    FrontendPerformance,
    MillerOta,
    OtaDesign,
    OtaPerformance,
    SingleStageOta,
)
from .metrics import (
    LinearityReport,
    SpectralReport,
    count_linearity,
    histogram_linearity,
    histogram_linearity_batch,
    spectral_metrics,
    spectral_metrics_batch,
    transfer_linearity,
    transfer_linearity_batch,
)
from .chain import (
    ChainDesign,
    ChainSignoff,
    ChainSpec,
    R2rDac,
    SarAdc,
    SignalChain,
    chain_signoff,
    chain_signoff_batch,
    chain_yield_vs_node,
)

__all__ = [
    "TradeoffPoint", "accuracy_from_bits", "bits_from_accuracy",
    "limit_gap", "minimum_power", "mismatch_constant",
    "power_trend_fixed_spec", "thermal_noise_constant", "tradeoff_plane",
    "SURVEY", "AdcDesign", "minimum_adc_power",
    "resolution_speed_frontier", "sample_synthetic_survey",
    "survey_points", "survey_vs_limits",
    "analog_power_trend", "digital_power_trend", "headroom_trend",
    "mismatch_limited_power", "power_ratio",
    "capacitance_for_snr", "corner_frequency", "enob_from_snr",
    "flicker_noise_density", "ktc_noise_voltage", "noise_budget",
    "snr_from_enob", "snr_from_noise", "thermal_noise_density_mosfet",
    "ScAmplifier", "design_sc_stage", "settling_budget_sweep",
    "speed_accuracy_power_point",
    "AdcTestResult", "PipelineAdc", "PipelineStage",
    "enob_vs_device_area", "sine_test",
    "OtaYieldAnalyzer", "YieldReport", "area_for_offset_yield",
    "offset_yield", "yield_vs_area",
    "DetectorFrontend", "DetectorFrontendDesign", "FrontendPerformance",
    "MillerOta", "OtaDesign", "OtaPerformance", "SingleStageOta",
    "LinearityReport", "SpectralReport",
    "count_linearity", "histogram_linearity", "histogram_linearity_batch",
    "spectral_metrics", "spectral_metrics_batch",
    "transfer_linearity", "transfer_linearity_batch",
    "ChainDesign", "ChainSignoff", "ChainSpec",
    "R2rDac", "SarAdc", "SignalChain",
    "chain_signoff", "chain_signoff_batch", "chain_yield_vs_node",
]
