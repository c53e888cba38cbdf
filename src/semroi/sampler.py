"""Per-RoI grid selection and block-average feature pooling.

``dynamic_grid_size`` picks the integer grid whose row/column ratio best
matches the box's height/width ratio under an area budget.  It looks the
box's ratio up in a per-budget table of every feasible grid ratio, built
once per budget, so a query is one bisection and a comparison of the two
neighbours; the exhaustive enumeration it replaces is the reference in
:mod:`semroi.oracles`.  ``block_average_pool`` cuts the box into that many
equal blocks and averages 2x2 bilinear samples per block.
``interp_weights`` is the one linear-interpolation hat the pool and the area
embedding both build their matrices from.  The 2x2 samples are an outer
product of two rows and two columns and a bilinear weight is a row weight
times a column weight, so the pool is separable: ``out[c] = Ry @ F[c,
window] @ Rx.T`` with two small interpolation matrices over the box's pixel
window, and its backward is ``Ry.T @ G @ Rx`` written into that window.  The
point-sampling form it replaces is the reference in :mod:`semroi.oracles`.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import Array, ShapeError, VjpRecord

# the grid the descriptor ablation pins for the concatenation descriptor,
# whose input size cannot follow a dynamic grid
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
        # finite corners can still overflow the width or height
        extents = (self.x0, self.y0, self.x1, self.y1, self.width, self.height)
        if not all(map(math.isfinite, extents)):
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


@functools.lru_cache(maxsize=8)
def _grid_table(budget: int) -> tuple[list[float], list[tuple[int, int]], list[GridSize]]:
    """Every feasible grid ratio ``h/w`` for ``h*w <= budget``, ascending,
    one entry per distinct float ratio: the grid with the largest area, then
    the largest h.  Returns the ratios, each entry's tie-break rank
    ``(-area, -h)`` and its grid."""
    rows = np.arange(1, budget + 1)
    h = np.repeat(rows, budget // rows)
    w = np.concatenate([np.arange(1, budget // r + 1) for r in rows])
    ratio = h / w
    order = np.lexsort((-h, -(h * w), ratio))
    ratio, h, w = ratio[order], h[order], w[order]
    first = np.ones(len(ratio), dtype=bool)
    first[1:] = ratio[1:] != ratio[:-1]
    hs, ws = h[first].tolist(), w[first].tolist()
    return (
        ratio[first].tolist(),
        [(-a * b, -a) for a, b in zip(hs, ws)],
        [GridSize(a, b) for a, b in zip(hs, ws)],
    )


def dynamic_grid_size(box: RoIBox, budget: int) -> GridSize:
    """Grid (h, w) with h*w <= budget minimizing |h/w - box.height/box.width|.

    Ties go to the larger area, then the larger h.  The box's ratio is
    bisected into the budget's table of feasible ratios, and the two
    neighbours are ranked by (distance, -area, -h).  Division is correctly
    rounded, so grids with equal rationals share one float ratio, and float
    subtraction is monotone, so the nearest entry is a neighbour.  Below the
    table's top, rounding cannot make an entry further out tie a
    neighbour's distance: distinct entries differ by at least 1/budget**2,
    far above the rounding of distances under the budget (for any budget
    under 2**17).  Above the top the neighbour is (budget, 1), whose area
    and h no entry exceeds, so it wins any tie.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    ratios, ranks, grids = _grid_table(budget)
    ratio = box.height / box.width
    i = bisect.bisect_left(ratios, ratio)
    above, below = min(i, len(ratios) - 1), max(i - 1, 0)
    if (abs(ratios[below] - ratio), ranks[below]) < (abs(ratios[above] - ratio), ranks[above]):
        return grids[below]
    return grids[above]


# fractions of a block at which its two samples per axis sit
SAMPLE_OFFSETS = np.array([0.25, 0.75])


def interp_weights(t: Array, pixels: Array) -> Array:
    """Linear-interpolation weight of each pixel for each sample position:
    the hat ``max(0, 1 - |t - p|)``, shape ``t.shape + pixels.shape``.

    For t within ``[pixels[0], pixels[-1]]`` each sample's weights sum to 1
    over its two bracketing pixels; callers clamp t to the map first.
    """
    out = t[..., None] - pixels
    np.abs(out, out=out)
    np.subtract(1.0, out, out=out)
    return np.maximum(out, 0.0, out=out)


@functools.lru_cache(maxsize=256)
def _sample_fractions(blocks: int) -> Array:
    """(blocks, 2) sample positions in units of one block."""
    fractions = np.arange(blocks)[:, None] + SAMPLE_OFFSETS
    fractions.setflags(write=False)
    return fractions


def _block_interp(start: float, length: float, blocks: int, size: int) -> tuple[int, Array]:
    """First pixel of the window and the ``(blocks, window)`` matrix whose
    row i is the mean of the linear-interpolation weights of block i's two
    samples along one axis of ``size`` pixels.

    Samples clamp to ``[0, size - 1]`` and weigh pixels by
    :func:`interp_weights`.  The samples ascend with the block index, so
    the window runs from the first sample's pixel to the last one's.
    """
    t = start + _sample_fractions(blocks) * (length / blocks)  # (blocks, 2)
    last = size - 1.0
    lo, hi = t.item(0), t.item(-1)
    if lo < 0.0 or hi > last:
        np.clip(t, 0.0, last, out=t)
        lo, hi = t.item(0), t.item(-1)
    first = math.floor(lo)
    weights = interp_weights(t, np.arange(first, math.ceil(hi) + 1))
    return first, (weights[:, 0] + weights[:, 1]) * 0.5


def block_average_pool_vjp(
    fmap: Array, box: RoIBox, grid: GridSize
) -> tuple[Array, VjpRecord]:
    """Pool ``fmap`` (C, H, W) over the box into a (C, h, w) grid.

    Each output value is the mean of 4 bilinear samples at the (1/4, 3/4)
    fractions of its block; samples outside the map clamp to the border.
    Computed as ``Ry @ F[c, window] @ Rx.T``; the backward writes
    ``Ry.T @ G @ Rx`` into the window of a zero map.  Raises ``ValueError``
    when the pooled grid is not finite, as a NaN or an infinity on any pixel
    the samples weigh makes it; checking the (C, h, w) grid costs a small
    fraction of checking the whole map.  An infinity times a zero weight
    makes numpy warn inside the matmul; where warnings are errors, that
    ``RuntimeWarning`` becomes the same ``ValueError``.  Silencing it with
    ``np.errstate`` would enter and leave a context manager on every call
    for the sake of the error path.
    """
    if fmap.ndim != 3:
        raise ShapeError(f"block_average_pool: expected fmap (C, H, W), got {fmap.shape}")
    C, H, W = fmap.shape
    h, w = grid
    if h < 1 or w < 1:
        raise ShapeError(f"block_average_pool: grid sides must be >= 1, got {h}x{w}")
    y0, ry = _block_interp(box.y0, box.height, h, H)
    x0, rx = _block_interp(box.x0, box.width, w, W)
    rows, cols = ry.shape[1], rx.shape[1]
    window = fmap[:, y0 : y0 + rows, x0 : x0 + cols]
    try:
        out = ry @ window @ rx.T
        finite = np.isfinite(out).all()
    except RuntimeWarning:  # warnings as errors: an infinity times a zero weight
        finite = False
    if not finite:
        raise ValueError(f"block_average_pool: non-finite values pooled from the window of {box}")

    def backward(gy: Array) -> tuple[Array]:
        gmap = np.zeros((C, H, W))
        gmap[:, y0 : y0 + rows, x0 : x0 + cols] = ry.T @ gy @ rx
        return (gmap,)

    return out, VjpRecord("block_average_pool", backward)


def block_average_pool(fmap: Array, box: RoIBox, grid: GridSize) -> Array:
    return block_average_pool_vjp(fmap, box, grid)[0]
