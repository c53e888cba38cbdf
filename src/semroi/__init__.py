"""Transformation-robust RoI feature extraction with semantic attention
masks, a dynamic grid sampler, hand-derived gradients, reference pooling
baselines, and a synthetic evaluation harness."""

from .baselines import roi_align, roi_pool
from .core import (
    ExtractResult,
    SraConfig,
    SraParams,
    init_params,
    param_leaves,
    parameter_count,
    sra_backward,
    sra_extract,
    sra_extract_recorded,
)
from .embeddings import area_embedding_raw, position_embedding_raw
from .evaluate import (
    DiversityReport,
    FlopsEstimate,
    InvarianceReport,
    flops_estimate,
    invariance_eval,
    make_feature_fn,
    mask_diversity,
)
from .numerics import (
    ConfigError,
    GradCheckReport,
    LayerNormParams,
    LinearParams,
    ShapeError,
    VjpRecord,
    check_vjp,
)
from .sampler import FIXED_GRID, GridSize, RoIBox, dynamic_grid_size
from .synthetic import (
    Pose,
    SyntheticInstance,
    apply_transform,
    generate_dataset,
)
from .train import TrainState, TrainingDiverged, compare_extractors, harness_splits, train_toy

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DiversityReport",
    "ExtractResult",
    "FIXED_GRID",
    "FlopsEstimate",
    "GradCheckReport",
    "GridSize",
    "InvarianceReport",
    "LayerNormParams",
    "LinearParams",
    "Pose",
    "RoIBox",
    "ShapeError",
    "SraConfig",
    "SraParams",
    "SyntheticInstance",
    "TrainState",
    "TrainingDiverged",
    "VjpRecord",
    "apply_transform",
    "area_embedding_raw",
    "check_vjp",
    "compare_extractors",
    "dynamic_grid_size",
    "flops_estimate",
    "generate_dataset",
    "harness_splits",
    "init_params",
    "invariance_eval",
    "make_feature_fn",
    "mask_diversity",
    "param_leaves",
    "parameter_count",
    "position_embedding_raw",
    "roi_align",
    "roi_pool",
    "sra_backward",
    "sra_extract",
    "sra_extract_recorded",
    "train_toy",
]
