"""Reference RoI feature extractors: quantized max pooling and aligned
bilinear averaging, both producing a fixed (out_h, out_w, C) grid."""

from __future__ import annotations

import numpy as np

from .numerics import Array, ShapeError, VjpRecord
from .sampler import GridSize, RoIBox, block_average_pool_vjp

DEFAULT_OUT = (7, 7)


def _bins(start: float, length: float, n: int, size: int) -> tuple[Array, Array, Array, Array]:
    """Per-bin integer pixel ranges [lo, hi] along one axis, clipped to the
    map; whether each bin is empty; and the pixel nearest each bin's center
    (``np.round`` rounds half to even, as ``round`` does), which is an empty
    bin's range."""
    step = length / n
    edges = np.ceil(start + np.arange(n + 1) * step).astype(int)
    lo = np.maximum(edges[:-1], 0)
    hi = np.minimum(edges[1:] - 1, size - 1)
    empty = lo > hi
    nearest = np.clip(np.round(start + (np.arange(n) + 0.5) * step), 0, size - 1).astype(int)
    return np.where(empty, nearest, lo), np.where(empty, nearest, hi), empty, nearest


def _bin_max(slabs: Array, lo: Array, hi: Array, out: Array) -> Array:
    """Write the running max of ``slabs[lo[i] : hi[i] + 1]`` into
    ``out[..., i]`` for every bin i.  One ``np.maximum`` per slab is several
    times faster than ``.max(axis=0)`` on these short strided reductions."""
    for i in range(len(lo)):
        acc = slabs[lo[i]].copy()
        for r in range(lo[i] + 1, hi[i] + 1):
            np.maximum(acc, slabs[r], out=acc)
        out[..., i] = acc
    return out


def roi_pool(fmap: Array, box: RoIBox, out: tuple[int, int] = DEFAULT_OUT) -> Array:
    """Max-pool integer pixels per quantized bin -> (out_h, out_w, C).

    A bin with no integer pixel inside, along either axis, falls back to the
    pixel nearest its center, so tiny boxes replicate their pixel.  The max
    is separable: over each row bin first, then over each column bin.
    """
    oh, ow = out
    if fmap.ndim != 3 or oh < 1 or ow < 1:
        raise ShapeError(
            f"roi_pool: expected fmap (C, H, W) and an output grid of sides >= 1, "
            f"got {fmap.shape} and {oh}x{ow}"
        )
    c, height, width = fmap.shape
    # the returned buffer comes before the temporaries: allocated after
    # them, callers that keep many results fragment the heap (+10 MB peak
    # over 300 kept RoIs at C=256)
    pooled = np.empty((c, oh, ow))
    y_lo, y_hi, y_empty, py = _bins(box.y0, box.height, oh, height)
    x_lo, x_hi, x_empty, px = _bins(box.x0, box.width, ow, width)
    x0 = x_lo.min()  # only the columns some bin reads
    cols = x_hi.max() + 1 - x0
    rows = _bin_max(
        fmap[:, :, x0 : x0 + cols].transpose(1, 0, 2), y_lo, y_hi, np.empty((c, cols, oh))
    )
    result = _bin_max(rows.transpose(1, 0, 2), x_lo - x0, x_hi - x0, pooled).transpose(1, 2, 0)
    # a bin empty along exactly one axis takes its center pixel, not the
    # max along the other axis
    bj, bk = np.nonzero(y_empty[:, None] ^ x_empty[None, :])
    result[bj, bk] = fmap[:, py[bj], px[bk]].T
    return result


def roi_align_vjp(
    fmap: Array, box: RoIBox, out: tuple[int, int] = DEFAULT_OUT
) -> tuple[Array, VjpRecord]:
    """Average 2x2 bilinear samples per bin -> (out_h, out_w, C).

    Shares the sampling kernel with the dynamic-grid pooler, so the two are
    identical (up to layout) whenever the requested grids coincide.
    """
    pooled, rec = block_average_pool_vjp(fmap, box, GridSize(*out))
    result = np.transpose(pooled, (1, 2, 0))

    def backward(gy: Array) -> tuple[Array]:
        return rec.backward(np.transpose(gy, (2, 0, 1)))

    return result, VjpRecord("roi_align", backward)


def roi_align(fmap: Array, box: RoIBox, out: tuple[int, int] = DEFAULT_OUT) -> Array:
    return roi_align_vjp(fmap, box, out)[0]
