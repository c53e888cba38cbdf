"""Per-RoI grid selection and block-average feature pooling.

``dynamic_grid_size`` picks the integer grid whose row/column ratio best
matches the box's height/width ratio under an area budget, scoring a few
candidate widths for every row count in one vectorized pass;
``block_average_pool`` cuts the box into that many equal blocks and averages
2x2 bilinear samples per block.  ``interp_weights`` is the one
linear-interpolation hat the pool and the area embedding both build their
matrices from.  The 2x2 samples are an outer product of two rows and two
columns and a bilinear weight is a row weight times a column weight, so the
pool is separable: ``out[c] = Ry @ F[c, window] @ Rx.T`` with two small
interpolation matrices over the box's pixel window, and its backward is
``Ry.T @ G @ Rx`` written into that window.  The point-sampling form it
replaces is the reference in :mod:`semroi.oracles`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import Array, ShapeError, VjpRecord

# fixed-size mode used by the fixed-vs-dynamic sampler ablation
FIXED_GRID = (8, 8)


@dataclass(frozen=True)
class RoIBox:
    """Continuous box in feature-map coordinates, corners (x0, y0), (x1, y1)."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError(f"degenerate box: {self}")
        if not all(map(math.isfinite, (self.x0, self.y0, self.x1, self.y1))):
            raise ValueError(f"non-finite box: {self}")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0


class GridSize(NamedTuple):
    h: int
    w: int

    @property
    def area(self) -> int:
        return self.h * self.w


def dynamic_grid_size(box: RoIBox, budget: int) -> GridSize:
    """Grid (h, w) with h*w <= budget minimizing |h/w - box.height/box.width|.

    Ties go to the larger area, then the larger h.  For each row count h the
    unconstrained optimum is w = h/ratio and |h/w - ratio| is unimodal in w,
    so only the floor/ceil of that optimum and the two ends 1 and
    budget // h need checking.  All rows are searched at once: 4 candidates
    per row, ranked by one lexsort, so memory stays O(budget); the
    test-suite oracle enumerates every pair instead.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    ratio = box.height / box.width
    h = np.arange(1, budget + 1)
    w_max = budget // h
    w_star = h / ratio
    ws = np.clip([np.ones(budget), w_max, np.floor(w_star), np.ceil(w_star)], 1, w_max).ravel()
    hs = np.tile(h, 4)
    best = np.lexsort((-hs, -(hs * ws), np.abs(hs / ws - ratio)))[0]
    return GridSize(int(hs[best]), int(ws[best]))


# fractions of a block at which its two samples per axis sit
SAMPLE_OFFSETS = np.array([0.25, 0.75])


def interp_weights(t: Array, pixels: Array) -> Array:
    """Linear-interpolation weight of each pixel for each sample position:
    the hat ``max(0, 1 - |t - p|)``, shape ``t.shape + pixels.shape``.

    For t within ``[pixels[0], pixels[-1]]`` each sample's weights sum to 1
    over its two bracketing pixels; callers clamp t to the map first.
    """
    return np.maximum(1.0 - np.abs(t[..., None] - pixels), 0.0)


def _block_interp(start: float, length: float, blocks: int, size: int) -> tuple[int, Array]:
    """First pixel of the window and the ``(blocks, window)`` matrix whose
    row i is the mean of the linear-interpolation weights of block i's two
    samples along one axis of ``size`` pixels.

    Samples clamp to ``[0, size - 1]`` and weigh pixels by
    :func:`interp_weights`.
    """
    t = start + (np.arange(blocks)[:, None] + SAMPLE_OFFSETS) * (length / blocks)
    t = np.clip(t, 0.0, size - 1.0)  # (blocks, 2)
    first = int(np.floor(t.min()))
    pixels = np.arange(first, int(np.ceil(t.max())) + 1)
    return first, interp_weights(t, pixels).mean(axis=1)


def block_average_pool_vjp(
    fmap: Array, box: RoIBox, grid: GridSize
) -> tuple[Array, VjpRecord]:
    """Pool ``fmap`` (C, H, W) over the box into a (C, h, w) grid.

    Each output value is the mean of 4 bilinear samples at the (1/4, 3/4)
    fractions of its block; samples outside the map clamp to the border.
    Computed as ``Ry @ F[c, window] @ Rx.T``; the backward writes
    ``Ry.T @ G @ Rx`` into the window of a zero map.
    """
    if fmap.ndim != 3:
        raise ShapeError(f"block_average_pool: expected fmap (C, H, W), got {fmap.shape}")
    C, H, W = fmap.shape
    h, w = grid
    y0, ry = _block_interp(box.y0, box.height, h, H)
    x0, rx = _block_interp(box.x0, box.width, w, W)
    rows, cols = ry.shape[1], rx.shape[1]
    window = fmap[:, y0 : y0 + rows, x0 : x0 + cols]
    out = ry @ window @ rx.T

    def backward(gy: Array) -> tuple[Array]:
        gmap = np.zeros((C, H, W))
        gmap[:, y0 : y0 + rows, x0 : x0 + cols] = ry.T @ gy @ rx
        return (gmap,)

    return out, VjpRecord("block_average_pool", backward)


def block_average_pool(fmap: Array, box: RoIBox, grid: GridSize) -> Array:
    return block_average_pool_vjp(fmap, box, grid)[0]
