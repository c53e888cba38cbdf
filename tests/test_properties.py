"""Property tests: the grid table lookup against exhaustive search
over the whole (h, w) lattice, the adjointness of every kernel's backward
pass, the fused norm-relu-linear block against its composition, mask
normalization over the amplification range, and the masks' permutation
equivariance."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from semroi.core import (
    SraConfig,
    extract_on_grid,
    init_params,
    roi_descriptor_vjp,
    sample_roi_feature_vjp,
    sra_extract,
)
from semroi.numerics import (
    LayerNormParams, LinearParams, conv1x1_vjp, linear_vjp, norm_relu_linear_vjp,
)
from semroi.oracles import grid_size_exhaustive, norm_relu_linear_composed
from semroi.sampler import RoIBox, dynamic_grid_size

# derandomized, so every run of the suite draws the same examples
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(
    log_aspect=st.floats(-12.0, 12.0),
    width=st.floats(0.5, 100.0),
    budget=st.integers(1, 1024),
)
def test_grid_matches_exhaustive_over_aspect_ratios(log_aspect, width, budget):
    box = RoIBox(0.0, 0.0, width, width * 10.0**log_aspect)
    assert dynamic_grid_size(box, budget) == grid_size_exhaustive(box, budget)


@PROPERTY
@given(
    rows=st.integers(1, 64),
    cols=st.integers(1, 64),
    budget=st.integers(1, 1024),
)
def test_grid_matches_exhaustive_at_exact_ratios(rows, cols, budget):
    # integer sides make rows/cols exact, where several grids tie on the
    # ratio and only the area and row tie-breaks decide
    box = RoIBox(1.0, 2.0, 1.0 + cols, 2.0 + rows)
    assert dynamic_grid_size(box, budget) == grid_size_exhaustive(box, budget)


# ---------------------------------------------------------------------------
# adjointness: for a kernel A linear in one argument with the others fixed,
# <A u, v> = <u, A^T v>, with A^T its backward pass.  Affine kernels are made
# linear by differencing from the zero input, which removes the bias.

ADJOINT = settings(max_examples=40, deadline=None, derandomize=True, database=None)
seeds = st.integers(0, 2**32 - 1)


def assert_adjoint(forward, backward, u, rng):
    au = forward(u)
    v = rng.standard_normal(au.shape)
    lhs, rhs = float((au * v).sum()), float((u * backward(v)).sum())
    # Cauchy-Schwarz bounds both sides by |Au| |v| (and |u| |A^T v|)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(au) * np.linalg.norm(v))


def random_linear(rng, in_dim, out_dim):
    return LinearParams(rng.standard_normal((out_dim, in_dim)), rng.standard_normal(out_dim))


@ADJOINT
@given(seed=seeds, rows=st.integers(1, 9))
def test_linear_backward_is_adjoint_in_x(seed, rows):
    rng = np.random.default_rng(seed)
    p = random_linear(rng, 7, 5)
    shape = (rows, 7)
    zero = linear_vjp(np.zeros(shape), p)[0]
    assert_adjoint(
        lambda u: linear_vjp(u, p)[0] - zero,
        lambda v: linear_vjp(np.zeros(shape), p)[1].backward(v)[0],
        rng.standard_normal(shape), rng,
    )


@ADJOINT
@given(seed=seeds)
def test_linear_vector_backward_is_adjoint_in_x(seed):
    rng = np.random.default_rng(seed)
    p = random_linear(rng, 6, 4)
    zero = linear_vjp(np.zeros(6), p)[0]
    assert_adjoint(
        lambda u: linear_vjp(u, p)[0] - zero,
        lambda v: linear_vjp(np.zeros(6), p)[1].backward(v)[0],
        rng.standard_normal(6), rng,
    )


@ADJOINT
@given(seed=seeds, h=st.integers(1, 6), w=st.integers(1, 6))
def test_conv1x1_backward_is_adjoint(seed, h, w):
    rng = np.random.default_rng(seed)
    p = random_linear(rng, 5, 3)
    zero, rec = conv1x1_vjp(np.zeros((5, h, w)), p)
    assert_adjoint(lambda u: conv1x1_vjp(u, p)[0] - zero, lambda v: rec.backward(v)[0],
                   rng.standard_normal((5, h, w)), rng)


@ADJOINT
@given(seed=seeds, h=st.integers(1, 6), w=st.integers(1, 6))
def test_sample_roi_feature_backward_is_adjoint_in_each_argument(seed, h, w):
    rng = np.random.default_rng(seed)
    f, masks = rng.standard_normal((4, h, w)), rng.standard_normal((3, h, w))
    # in the feature grid, masks fixed
    assert_adjoint(lambda u: sample_roi_feature_vjp(u, masks)[0],
                   lambda v: sample_roi_feature_vjp(f, masks)[1].backward(v)[0],
                   rng.standard_normal(f.shape), rng)
    # in the masks, feature grid fixed
    assert_adjoint(lambda u: sample_roi_feature_vjp(f, u)[0],
                   lambda v: sample_roi_feature_vjp(f, masks)[1].backward(v)[1],
                   rng.standard_normal(masks.shape), rng)


@ADJOINT
@given(seed=seeds, mode=st.sampled_from(["average", "concatenation"]),
       h=st.integers(1, 5), w=st.integers(1, 5))
def test_roi_descriptor_backward_is_adjoint(seed, mode, h, w):
    rng = np.random.default_rng(seed)
    c = 3
    psi = random_linear(rng, c * h * w if mode == "concatenation" else c, 6)
    zero, rec = roi_descriptor_vjp(np.zeros((c, h, w)), mode, psi)
    assert_adjoint(lambda u: roi_descriptor_vjp(u, mode, psi)[0] - zero,
                   lambda v: rec.backward(v)[0], rng.standard_normal((c, h, w)), rng)


# ---------------------------------------------------------------------------
# the fused norm-relu-linear block equals its three composed kernels, forward
# and every gradient; they sum in another order, so not bit for bit


@ADJOINT
@given(seed=seeds, rows=st.integers(1, 9), dim=st.integers(2, 12), out=st.integers(1, 5))
def test_norm_relu_linear_matches_composed(seed, rows, dim, out):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, dim))
    norm = LayerNormParams(*rng.standard_normal((2, dim)))
    lin = random_linear(rng, dim, out)
    got, rec = norm_relu_linear_vjp(x, norm, lin)
    want, rec_composed = norm_relu_linear_composed(x, norm, lin)
    gy = rng.standard_normal(want.shape)
    for g, w in zip((got, *rec.backward(gy)), (want, *rec_composed.backward(gy))):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= 1e-12 * max(1.0, np.abs(w).max())


# ---------------------------------------------------------------------------
# mask normalization: every mask slice is a distribution over the grid, from
# nearly uniform (small gamma) to nearly one-hot (large gamma)

MASK_CFG = SraConfig(n_masks=5, budget=32, descriptor_dim=8, embed_channels=4, hidden=8)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(log_gamma=st.floats(-3.0, 4.0), seed=seeds)
def test_masks_normalized_over_gamma(log_gamma, seed):
    rng = np.random.default_rng(seed)
    cfg = replace(MASK_CFG, gamma=10.0**log_gamma)
    params = init_params(cfg, 6, rng)
    x0, y0 = rng.uniform(0, 8, 2)
    box = RoIBox(x0, y0, x0 + rng.uniform(1, 7), y0 + rng.uniform(1, 7))
    masks = sra_extract(rng.standard_normal((6, 16, 16)), box, params, cfg).masks
    assert np.isfinite(masks).all() and (masks >= 0).all()
    np.testing.assert_allclose(masks.sum(axis=(1, 2)), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# permutation equivariance: with no positional embedding and an
# order-blind descriptor, every stage after the pool is per position or a
# reduction over positions, so shuffling the pooled grid's positions
# shuffles every mask slice the same way


@ADJOINT
@given(seed=seeds, mode=st.sampled_from(["average", "maximum"]),
       h=st.integers(1, 6), w=st.integers(1, 6))
def test_masks_are_permutation_equivariant(seed, mode, h, w):
    rng = np.random.default_rng(seed)
    cfg = replace(MASK_CFG, embedding_mode="none", descriptor_mode=mode)
    params = init_params(cfg, 4, rng)
    f = rng.standard_normal((4, h, w))
    perm = rng.permutation(h * w)
    _, masks = extract_on_grid(f, params, cfg)
    _, masks_p = extract_on_grid(f.reshape(4, -1)[:, perm].reshape(4, h, w), params, cfg)
    want = masks.reshape(cfg.n_masks, -1)[:, perm].reshape(masks.shape)
    assert np.abs(masks_p - want).max() <= 1e-12
