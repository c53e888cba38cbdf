import math

import numpy as np
import pytest

from semroi.embeddings import (
    area_embedding_raw,
    position_embedding_raw,
    project_embedding,
    upsample_matrix,
)
from semroi.numerics import ConfigError, LinearParams, check_vjp, conv1x1_vjp
from semroi.sampler import GridSize


def test_position_embedding_two_rows():
    emb = position_embedding_raw(GridSize(2, 3))
    np.testing.assert_array_equal(np.unique(emb[0]), [0.0, 1.0])


def test_position_embedding_single_cell_is_one():
    emb = position_embedding_raw(GridSize(1, 1))
    np.testing.assert_array_equal(emb, np.ones((2, 1, 1)))


def test_position_embedding_four_rows():
    emb = position_embedding_raw(GridSize(4, 2))
    np.testing.assert_allclose(emb[0, :, 0], [-0.5, 0.0, 0.5, 1.0], atol=1e-15)


def test_position_embedding_row_column_structure():
    emb = position_embedding_raw(GridSize(3, 5))
    # channel 0 constant across columns, channel 1 constant across rows
    assert (np.ptp(emb[0], axis=1) == 0).all()
    assert (np.ptp(emb[1], axis=0) == 0).all()


def test_area_embedding_identity_when_lengths_match():
    emb = area_embedding_raw(GridSize(4, 4), 4)
    for j in range(4):
        np.testing.assert_array_equal(emb[:4, j, 0], np.eye(4)[:, j])
        np.testing.assert_array_equal(emb[4:, 0, j], np.eye(4)[:, j])


def test_area_embedding_hand_linear_case():
    emb = area_embedding_raw(GridSize(2, 2), 4)
    np.testing.assert_allclose(emb[:4, 0, 0], [1.0, 0.75, 0.25, 0.0], atol=1e-15)
    np.testing.assert_allclose(emb[:4, 1, 0], [0.0, 0.25, 0.75, 1.0], atol=1e-15)


def test_area_embedding_rows_constant_along_other_axis():
    emb = area_embedding_raw(GridSize(3, 5), 8)
    assert (np.ptp(emb[:8], axis=2) == 0).all()  # vertical rows ignore k
    assert (np.ptp(emb[8:], axis=1) == 0).all()  # horizontal rows ignore j


def test_area_embedding_reflection_equivariance():
    m_axis = 16
    for h in (2, 3, 5, 7, 11):
        emb = area_embedding_raw(GridSize(h, 2), m_axis)
        for j in range(h):
            np.testing.assert_array_equal(
                emb[:m_axis, j, 0], emb[:m_axis, h - 1 - j, 0][::-1]
            )


def test_area_embedding_mass_preservation_divisor_grids():
    # exact when the grid length divides the axis length; non-divisor pairs
    # only preserve mass approximately (e.g. h=3, M=4 sums to 1.25 != 4/3)
    m_axis = 128
    for h in (4, 8, 16, 32):
        mat = upsample_matrix(h, m_axis)
        sums = mat.sum(axis=0)
        np.testing.assert_allclose(sums[1:-1], m_axis / h, atol=1e-9)
        assert sums[0] >= m_axis / h - 1e-9
        assert sums[-1] >= m_axis / h - 1e-9


def _upsample_loop(src_len, dst_len):
    # per target: bracket the source coordinate between two source centers,
    # or clamp it to an edge center
    mat = np.zeros((dst_len, src_len))
    for t in range(dst_len):
        pos = (t + 0.5) * src_len / dst_len - 0.5
        if pos <= 0.0:
            mat[t, 0] = 1.0
        elif pos >= src_len - 1:
            mat[t, src_len - 1] = 1.0
        else:
            b = math.floor(pos)
            mat[t, b] = 1.0 - (pos - b)
            mat[t, b + 1] = pos - b
    return mat


@pytest.mark.parametrize("dst_len", [1, 4, 32, 128])
def test_upsample_matrix_equals_bracketing_loop(dst_len):
    for src_len in range(1, dst_len + 1):
        np.testing.assert_array_equal(
            upsample_matrix(src_len, dst_len), _upsample_loop(src_len, dst_len)
        )


def test_upsample_matrix_is_shared_and_read_only():
    mat = upsample_matrix(5, 16)
    assert upsample_matrix(5, 16) is mat
    assert not mat.flags.writeable
    with pytest.raises(ValueError):
        mat[0, 0] = 2.0


def test_area_embedding_is_fresh_and_writable():
    first = area_embedding_raw(GridSize(3, 5), 8)
    second = area_embedding_raw(GridSize(3, 5), 8)
    assert first is not second and not np.shares_memory(first, second)
    assert first.flags.writeable
    first[:] = 0.0
    np.testing.assert_array_equal(second, area_embedding_raw(GridSize(3, 5), 8))


def test_area_embedding_rejects_oversized_grid():
    with pytest.raises(ConfigError, match="exceeds"):
        area_embedding_raw(GridSize(9, 2), 8)


def test_project_identity():
    raw = np.random.default_rng(0).standard_normal((3, 2, 2))
    proj = LinearParams(np.eye(3), np.zeros(3))
    np.testing.assert_array_equal(project_embedding(raw, proj), raw)


def test_project_zero_weight_gives_bias():
    raw = np.random.default_rng(1).standard_normal((3, 2, 4))
    proj = LinearParams(np.zeros((2, 3)), np.array([0.5, -1.5]))
    out = project_embedding(raw, proj)
    np.testing.assert_array_equal(out[0], np.full((2, 4), 0.5))
    np.testing.assert_array_equal(out[1], np.full((2, 4), -1.5))


def test_project_matches_loop_oracle():
    rng = np.random.default_rng(2)
    raw = rng.standard_normal((6, 3, 4))
    proj = LinearParams(rng.standard_normal((2, 6)), rng.standard_normal(2))
    out = project_embedding(raw, proj)
    for j in range(3):
        for k in range(4):
            np.testing.assert_allclose(
                out[:, j, k], proj.weight @ raw[:, j, k] + proj.bias, atol=1e-12
            )


def test_project_gradient():
    rng = np.random.default_rng(3)
    args = {
        "raw": rng.standard_normal((3, 2, 2)),
        "weight": rng.standard_normal((2, 3)),
        "bias": rng.standard_normal(2),
    }

    def fn(raw, weight, bias):
        y, rec = conv1x1_vjp(raw, LinearParams(weight, bias))
        return y, lambda g: dict(zip(("raw", "weight", "bias"), rec.backward(g)))

    assert check_vjp(fn, args, seed=3).passed
