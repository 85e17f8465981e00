"""The paper's primary contribution: the posit DNN training methodology.

Contains the posit transformation insertion (Fig. 3), the warm-up schedule,
the distribution-based shifting of Eq. (2)/(3), the per-layer/per-role format
policies of Table III, the dynamic-range / es-selection criterion, and the
trainer that assembles them.
"""

from .inference import evaluate_quantized, inference_sweep, quantize_model_weights
from .metrics import AverageMeter, EpochRecord, TrainingHistory
from .policy import QuantizationPolicy, RoleFormats, TensorFormat
from .range_analysis import (
    RangeObservation,
    RangeTracker,
    covered_log2_range,
    log2_range,
    recommend_es,
)
from .scaling import (
    ScaleEstimator,
    ScaleFactor,
    compute_scale_factor,
    log2_center,
    log2_magnitudes,
)
from .trainer import PositTrainer
from .transform import (
    LayerQuantContext,
    Quantizer,
    RoleStats,
    apply_scaled_quantization,
    fake_quantize,
    grad_quantize,
)
from .warmup import WarmupSchedule

__all__ = [
    "PositTrainer",
    "quantize_model_weights",
    "evaluate_quantized",
    "inference_sweep",
    "QuantizationPolicy",
    "RoleFormats",
    "TensorFormat",
    "WarmupSchedule",
    "ScaleEstimator",
    "ScaleFactor",
    "compute_scale_factor",
    "log2_center",
    "log2_magnitudes",
    "LayerQuantContext",
    "RoleStats",
    "Quantizer",
    "fake_quantize",
    "grad_quantize",
    "apply_scaled_quantization",
    "log2_range",
    "covered_log2_range",
    "recommend_es",
    "RangeTracker",
    "RangeObservation",
    "TrainingHistory",
    "EpochRecord",
    "AverageMeter",
]
