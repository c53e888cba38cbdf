"""Invariance protocol, mask-diversity statistics, and analytic op counts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .baselines import DEFAULT_OUT, roi_align, roi_pool
from .core import SraConfig, SraParams, sra_extract
from .numerics import Array, ConfigError
from .synthetic import Pose, SyntheticInstance, TransformRanges, apply_transform

TRANSFORM_FAMILIES = ("identity", "rotation", "reflection", "scale_pan")

FeatureFn = Callable[[SyntheticInstance], Array]


def make_feature_fn(
    kind: str,
    params: SraParams | None = None,
    config: SraConfig | None = None,
    out: tuple[int, int] = DEFAULT_OUT,
) -> FeatureFn:
    """Flattened-RoI-feature closure for an extractor kind."""
    if kind == "sra":
        if params is None or config is None:
            raise ValueError("sra extractor needs params and config")
        return lambda inst: sra_extract(
            inst.feature_map, inst.box, params, config
        ).feature.ravel()
    if kind == "roi_align":
        return lambda inst: roi_align(inst.feature_map, inst.box, out).ravel()
    if kind == "roi_pool":
        return lambda inst: roi_pool(inst.feature_map, inst.box, out).ravel()
    raise ValueError(f"unknown extractor kind {kind!r}")


def random_delta(family: str, rng: np.random.Generator, ranges: TransformRanges) -> Pose:
    if family == "identity":
        return Pose()
    if family == "rotation":
        return Pose(rotation_deg=float(rng.uniform(-ranges.rotation_max_deg, ranges.rotation_max_deg)))
    if family == "reflection":
        return Pose(reflected=True)
    if family == "scale_pan":
        return Pose(
            scale=float(rng.uniform(ranges.scale_lo, ranges.scale_hi)),
            pan_x=float(rng.uniform(-ranges.pan_frac, ranges.pan_frac)),
            pan_y=float(rng.uniform(-ranges.pan_frac, ranges.pan_frac)),
        )
    raise ValueError(f"unknown transform family {family!r} (choose from {TRANSFORM_FAMILIES})")


def cosine(a: Array, b: Array) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 1.0 if na == nb else 0.0
    return float(a @ b) / (na * nb)


@dataclass
class InvarianceReport:
    family: str
    mean_cosine: float
    n_samples: int


def invariance_eval(
    feature_fn: FeatureFn,
    dataset: list[SyntheticInstance],
    family: str,
    n_samples: int,
    rng: np.random.Generator,
    ranges: TransformRanges = TransformRanges(),
) -> InvarianceReport:
    """Mean cosine between features before and after a random transform.

    Pairing contract: the draws (all instance picks, then one delta per pick)
    depend on ``rng`` and never on ``feature_fn``, and rendering is pure, so
    generators in the same state give every extractor the same instances
    under the same deltas."""
    if not dataset:
        raise ValueError("invariance_eval: empty dataset")
    if n_samples < 1:
        raise ConfigError(f"invariance_eval: n_samples must be >= 1, got {n_samples}")
    picks = rng.integers(0, len(dataset), size=n_samples)
    total = 0.0
    for idx in picks:
        inst = dataset[int(idx)]
        before = feature_fn(inst)
        after = feature_fn(apply_transform(inst, random_delta(family, rng, ranges)))
        total += cosine(before, after)
    return InvarianceReport(family=family, mean_cosine=total / n_samples, n_samples=n_samples)


@dataclass
class DiversityReport:
    mean_matrix: Array  # (N, N) mean pairwise cosine of flattened masks
    fraction_below: float  # off-diagonal entries under the threshold
    threshold: float
    n_samples: int


def pairwise_mask_cosines(masks: Array) -> Array:
    """(N, N) cosine matrix between flattened mask slices."""
    rows = masks.reshape(masks.shape[0], -1)
    rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    return rows @ rows.T


def require_mask_pairs(config: SraConfig) -> None:
    """Raise ``ConfigError`` unless the bank has a pair of masks to compare;
    callers that train before measuring diversity check this first."""
    if config.n_masks < 2:
        raise ConfigError(f"mask diversity needs at least 2 masks, got n_masks={config.n_masks}")


def mask_diversity(
    params: SraParams,
    config: SraConfig,
    dataset: list[SyntheticInstance],
    n_samples: int,
    rng: np.random.Generator,
    threshold: float = 0.3,
) -> DiversityReport:
    require_mask_pairs(config)
    if not dataset:
        raise ValueError("mask_diversity: empty dataset")
    if n_samples < 1:
        raise ConfigError(f"mask_diversity: n_samples must be >= 1, got {n_samples}")
    picks = rng.integers(0, len(dataset), size=n_samples)
    acc = np.zeros((config.n_masks, config.n_masks))
    for idx in picks:
        inst = dataset[int(idx)]
        masks = sra_extract(inst.feature_map, inst.box, params, config).masks
        acc += pairwise_mask_cosines(masks)
    mean_matrix = acc / n_samples
    off = ~np.eye(config.n_masks, dtype=bool)
    fraction = float((mean_matrix[off] < threshold).mean())
    return DiversityReport(
        mean_matrix=mean_matrix,
        fraction_below=fraction,
        threshold=threshold,
        n_samples=n_samples,
    )


# ---------------------------------------------------------------------------
# analytic cost model


@dataclass
class FlopsEstimate:
    per_roi: int
    per_300_rois: int
    breakdown: dict[str, int]


def flops_estimate(config: SraConfig, channels: int, grid: tuple[int, int]) -> FlopsEstimate:
    """Multiply-add count of one extraction at the given grid.

    Conventions: a linear map in->out over r rows counts r*(out*in + out);
    a layer norm over r rows of width d counts 5*r*d, of which 4*r*d are
    the statistics and normalization and r*d the gain and shift; softmax
    counts 4 ops per mask cell.  Pooling counts the point form's
    arithmetic, 16 corner multiply-adds plus 4 accumulations per pooled
    value, not the dense matmuls of the separable operator that computes
    it (whose count depends on the box's pixel window, not only on the
    grid).  Only the extractor is counted; anything upstream (backbone) or
    downstream (heads) is out of scope.
    """
    h, w = grid
    hw = h * w
    k = config.descriptor_dim
    n = config.n_masks
    hid = config.hidden
    p = config.embed_channels if config.embedding_mode != "none" else 0
    d_in = config.trunk_in_dim

    def lin(rows: int, in_dim: int, out_dim: int) -> int:
        return rows * (out_dim * in_dim + out_dim)

    breakdown = {
        "pool": hw * channels * 20,
        "descriptor_reduce": 0 if config.descriptor_mode == "concatenation" else channels * hw,
        "descriptor_psi": lin(1, channels * hw if config.descriptor_mode == "concatenation" else channels, k),
        "semantic_conv": lin(hw, channels, k),
        "embedding": 0,
        "mask_mlp": 5 * hw * d_in  # trunk norm
        + hw * d_in  # relu
        + lin(hw, d_in, hid)
        + 5 * hw * hid  # head norm
        + hw * hid  # relu
        + lin(hw, hid, n),
        "softmax": n * hw * 4,
        "weighted_sum": n * channels * hw,
    }
    if config.embedding_mode == "position":
        breakdown["embedding"] = 2 * hw + lin(hw, 2, p)
    elif config.embedding_mode == "area":
        d_raw = config.embed_raw_dim
        breakdown["embedding"] = 2 * d_raw * hw + lin(hw, d_raw, p)

    per_roi = int(sum(breakdown.values()))
    return FlopsEstimate(per_roi=per_roi, per_300_rois=per_roi * 300, breakdown=breakdown)
