"""Positional information for mask regression.

Two raw variants: a 2-channel center-position embedding (each grid cell's
normalized row/column coordinate) and an area embedding that represents the
full sampled interval per axis as a linearly upsampled one-hot vector of a
fixed length; the upsampling matrix is the pool's interpolation hat
(``sampler.interp_weights``) evaluated at the clamped target centers.
Either is mapped to P channels by a per-position projection.
"""

from __future__ import annotations

import functools

import numpy as np

from .numerics import Array, ConfigError, LinearParams, conv1x1_vjp
from .sampler import GridSize, interp_weights


def position_embedding_raw(grid: GridSize) -> Array:
    """(2, h, w) center-position embedding.

    Channel 0 holds j/h*2-1 for 1-based row j, channel 1 the same for
    columns.  The 1-based convention makes the value range (2/h - 1, 1]
    rather than a symmetric [-1, 1]; kept as-is so the largest index always
    maps to exactly 1.
    """
    h, w = grid
    rows = np.arange(1, h + 1) / h * 2.0 - 1.0
    cols = np.arange(1, w + 1) / w * 2.0 - 1.0
    out = np.empty((2, h, w))
    out[0] = rows[:, None]
    out[1] = cols[None, :]
    return out


@functools.lru_cache(maxsize=128)
def upsample_matrix(src_len: int, dst_len: int) -> Array:
    """(dst_len, src_len) linear-interpolation weights between cell centers.

    Target cell t sits at source coordinate (t+0.5)*src_len/dst_len - 0.5,
    clamped to the source centers [0, src_len - 1], and weighs each source
    cell by the hat of :func:`semroi.sampler.interp_weights`.  Memoized: the
    same read-only array is returned for equal arguments.
    """
    # multiply before dividing: keeps pos integral when the lengths match,
    # making same-length upsampling a true identity
    pos = (np.arange(dst_len) + 0.5) * src_len / dst_len - 0.5
    mat = interp_weights(np.clip(pos, 0.0, src_len - 1.0), np.arange(src_len))
    mat.setflags(write=False)
    return mat


def area_embedding_raw(grid: GridSize, m_axis: int) -> Array:
    """(2*m_axis, h, w) area embedding.

    Rows [0, m_axis) at position (j, k) hold the one-hot of j upsampled from
    length h to m_axis; rows [m_axis, 2*m_axis) hold the same for k and w.
    Upsampling a one-hot column is exactly one column of ``upsample_matrix``.
    """
    h, w = grid
    if h > m_axis or w > m_axis:
        raise ConfigError(
            f"area embedding: grid {h}x{w} exceeds axis length {m_axis}"
        )
    vert = upsample_matrix(h, m_axis)  # (m_axis, h); column j = upsampled onehot(j)
    horz = upsample_matrix(w, m_axis)
    out = np.empty((2 * m_axis, h, w))
    out[:m_axis] = vert[:, :, None]
    out[m_axis:] = horz[:, None, :]
    return out


def project_embedding(raw: Array, proj: LinearParams) -> Array:
    """Kept for ``perfbench/checks.py``; goes with ROADMAP item 1."""
    return conv1x1_vjp(raw, proj)[0]
