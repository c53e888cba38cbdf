import json
from dataclasses import replace

import numpy as np
import pytest

from semroi.core import (
    SraConfig,
    choose_grid,
    descriptor_in_dim,
    extract_on_grid,
    extract_on_grid_recorded,
    init_params,
    mask_logits,
    param_leaves,
    parameter_count,
    roi_descriptor,
    roi_descriptor_vjp,
    sample_roi_feature,
    sample_roi_feature_vjp,
    semantic_feature_map,
    sra_backward,
    sra_extract,
    sra_extract_recorded,
)
from semroi.numerics import ConfigError, LinearParams, ShapeError, softmax_spatial
from semroi.oracles import (
    full_pipeline_gradcheck,
    mask_logits_loop,
    sample_roi_feature_loop,
)
from semroi.reporting import load_checkpoint, save_checkpoint, assign_leaves
from semroi.sampler import GridSize, RoIBox

TINY = SraConfig(n_masks=3, budget=16, descriptor_dim=5, embed_channels=3, hidden=6)


def tiny_params(seed=0, config=TINY, channels=4):
    return init_params(config, channels, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults_follow_reference_settings():
    cfg = SraConfig()
    assert (cfg.n_masks, cfg.budget, cfg.descriptor_dim, cfg.gamma) == (49, 128, 256, 50.0)


def test_config_rejects_bad_values():
    for gamma in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match="gamma"):
            SraConfig(gamma=gamma)
    with pytest.raises(ConfigError):
        SraConfig(n_masks=0)
    with pytest.raises(ConfigError):
        SraConfig(descriptor_mode="median")
    with pytest.raises(ConfigError):
        SraConfig(embedding_mode="fourier")


def test_config_has_no_independent_heads_option():
    with pytest.raises(TypeError, match="independent_heads"):
        SraConfig(independent_heads=True)


def test_concatenation_requires_fixed_grid():
    with pytest.raises(ConfigError, match="fixed"):
        SraConfig(descriptor_mode="concatenation")
    cfg = SraConfig(descriptor_mode="concatenation", fixed_grid=(4, 4))
    assert cfg.fixed_grid == (4, 4)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"fixed_grid": (0, 4)},
        {"fixed_grid": (4, -1)},
        {"fixed_grid": (17, 4), "budget": 16},
        {"fixed_grid": (4, 17), "budget": 16},
    ],
)
def test_config_rejects_bad_fixed_grid(kwargs):
    with pytest.raises(ConfigError, match="fixed_grid"):
        SraConfig(**kwargs)


def test_choose_grid_fixed_override():
    cfg = SraConfig(fixed_grid=(8, 8))
    assert choose_grid(RoIBox(0, 0, 100, 10), cfg) == GridSize(8, 8)


# ---------------------------------------------------------------------------
# descriptor


def test_descriptor_average_constant_channels():
    psi = LinearParams(np.random.default_rng(0).standard_normal((4, 3)), np.zeros(4))
    f = np.stack([np.full((2, 2), c) for c in (1.0, -2.0, 0.5)])
    want = psi.weight @ np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(roi_descriptor(f, "average", psi), want, atol=1e-12)


def test_descriptor_max_equals_average_on_single_cell():
    rng = np.random.default_rng(1)
    psi = LinearParams(rng.standard_normal((4, 3)), rng.standard_normal(4))
    f = rng.standard_normal((3, 1, 1))
    np.testing.assert_allclose(
        roi_descriptor(f, "maximum", psi), roi_descriptor(f, "average", psi), atol=1e-14
    )


def test_descriptor_average_matches_loop():
    rng = np.random.default_rng(2)
    psi = LinearParams(rng.standard_normal((6, 5)), rng.standard_normal(6))
    f = rng.standard_normal((5, 3, 4))
    mean = np.zeros(5)
    for j in range(3):
        for k in range(4):
            mean += f[:, j, k]
    want = psi.weight @ (mean / 12.0) + psi.bias
    np.testing.assert_allclose(roi_descriptor(f, "average", psi), want, atol=1e-12)


def test_descriptor_concatenation_flattens_row_major():
    rng = np.random.default_rng(3)
    f = rng.standard_normal((2, 2, 2))
    psi = LinearParams(np.eye(8), np.zeros(8))
    np.testing.assert_array_equal(roi_descriptor(f, "concatenation", psi), f.ravel())


def test_descriptor_max_gradient_hits_argmax_only():
    rng = np.random.default_rng(4)
    f = rng.standard_normal((2, 2, 3))
    psi = LinearParams(np.eye(2), np.zeros(2))
    d, rec = roi_descriptor_vjp(f, "maximum", psi)
    gf, _, _ = rec.backward(np.array([1.0, 1.0]))
    assert np.count_nonzero(gf) == 2
    for c in range(2):
        j, k = np.unravel_index(f[c].argmax(), f[c].shape)
        assert gf[c, j, k] == 1.0


# ---------------------------------------------------------------------------
# semantic features and mask logits


def test_semantic_identity_conv():
    f = np.random.default_rng(5).standard_normal((3, 2, 4))
    conv = LinearParams(np.eye(3), np.zeros(3))
    np.testing.assert_array_equal(semantic_feature_map(f, conv), f)


def test_semantic_zero_weight_constant_bias():
    f = np.random.default_rng(6).standard_normal((3, 2, 2))
    conv = LinearParams(np.zeros((2, 3)), np.array([2.0, -1.0]))
    out = semantic_feature_map(f, conv)
    np.testing.assert_array_equal(out[0], np.full((2, 2), 2.0))
    np.testing.assert_array_equal(out[1], np.full((2, 2), -1.0))


def test_semantic_shape_error():
    conv = LinearParams(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ShapeError):
        semantic_feature_map(np.zeros((4, 2, 2)), conv)


def test_mask_logits_zero_params_zero_output():
    params = tiny_params()
    for _, arr in param_leaves(params.mask_mlp):
        arr[...] = 0.0
    rng = np.random.default_rng(7)
    out = mask_logits(rng.standard_normal(5), rng.standard_normal((5, 2, 3)),
                      rng.standard_normal((3, 2, 3)), params)
    np.testing.assert_array_equal(out, np.zeros((3, 2, 3)))


def test_mask_logits_spatial_permutation_equivariance():
    params = tiny_params(8)
    rng = np.random.default_rng(8)
    d = rng.standard_normal(5)
    s = rng.standard_normal((5, 2, 3))
    p = rng.standard_normal((3, 2, 3))
    base = mask_logits(d, s, p, params).reshape(3, 6)
    perm = rng.permutation(6)
    s_p = s.reshape(5, 6)[:, perm].reshape(5, 2, 3)
    p_p = p.reshape(3, 6)[:, perm].reshape(3, 2, 3)
    permuted = mask_logits(d, s_p, p_p, params).reshape(3, 6)
    np.testing.assert_allclose(permuted, base[:, perm], atol=1e-12)


def test_mask_logits_matches_position_loop():
    params = tiny_params(9)
    rng = np.random.default_rng(9)
    d = rng.standard_normal(5)
    s = rng.standard_normal((5, 3, 3))
    p = rng.standard_normal((3, 3, 3))
    np.testing.assert_allclose(
        mask_logits(d, s, p, params), mask_logits_loop(d, s, p, params), atol=1e-10
    )


def test_masks_zero_logits_uniform():
    out = softmax_spatial(np.zeros((2, 3, 4)), gamma=50.0)
    np.testing.assert_allclose(out, 1.0 / 12.0, atol=1e-12)


def test_masks_vanishing_gamma_uniform():
    logits = np.random.default_rng(11).standard_normal((3, 4, 4))
    out = softmax_spatial(logits, gamma=1e-9)
    assert np.abs(out - 1.0 / 16.0).max() < 1e-6


def test_masks_dominant_logit_saturates():
    logits = np.zeros((1, 3, 3))
    logits[0, 1, 2] = 0.5  # margin 0.5 over every other cell
    out = softmax_spatial(logits, gamma=50.0)
    assert out[0, 1, 2] > 0.999


def test_masks_gamma_logit_product_invariance():
    logits = np.random.default_rng(12).standard_normal((2, 3, 3))
    a = softmax_spatial(logits, gamma=50.0)
    b = softmax_spatial(logits / 10.0, gamma=500.0)
    np.testing.assert_allclose(a, b, atol=1e-12)


# ---------------------------------------------------------------------------
# feature sampling


def test_sampling_delta_mask_picks_position():
    rng = np.random.default_rng(13)
    f = rng.standard_normal((4, 3, 3))
    masks = np.zeros((2, 3, 3))
    masks[0, 1, 2] = 1.0
    masks[1, 0, 0] = 1.0
    y = sample_roi_feature(f, masks)
    np.testing.assert_array_equal(y[0], f[:, 1, 2])
    np.testing.assert_array_equal(y[1], f[:, 0, 0])


def test_sampling_uniform_masks_give_spatial_mean():
    rng = np.random.default_rng(14)
    f = rng.standard_normal((4, 2, 5))
    masks = np.full((3, 2, 5), 0.1)
    y = sample_roi_feature(f, masks)
    for n in range(3):
        np.testing.assert_allclose(y[n], f.mean(axis=(1, 2)), atol=1e-12)


def test_sampling_matches_triple_loop():
    rng = np.random.default_rng(15)
    f = rng.standard_normal((5, 4, 3))
    masks = rng.random((4, 4, 3))
    np.testing.assert_allclose(
        sample_roi_feature(f, masks), sample_roi_feature_loop(f, masks), atol=1e-12
    )


def test_sampling_gradient_wrt_features_is_mask_weights():
    # with masks held fixed, d y[n0, c0] / d f[c0, j, k] = m[n0, j, k]
    rng = np.random.default_rng(16)
    f = rng.standard_normal((3, 2, 2))
    masks = rng.random((2, 2, 2))
    _, rec = sample_roi_feature_vjp(f, masks)
    cot = np.zeros((2, 3))
    cot[1, 0] = 1.0
    gf, _ = rec.backward(cot)
    np.testing.assert_array_equal(gf[0], masks[1])
    np.testing.assert_array_equal(gf[1], 0.0)


def test_sampling_shape_error():
    with pytest.raises(ShapeError):
        sample_roi_feature(np.zeros((2, 3, 3)), np.zeros((2, 2, 3)))


# ---------------------------------------------------------------------------
# full extraction


def test_extract_zero_regressor_gives_uniform_masks_and_mean_rows():
    cfg = TINY
    params = tiny_params(17, cfg)
    for _, arr in param_leaves(params.mask_mlp):
        arr[...] = 0.0
    rng = np.random.default_rng(17)
    fmap = rng.standard_normal((4, 12, 12))
    box = RoIBox(1.0, 2.0, 9.5, 8.0)
    result = sra_extract(fmap, box, params, cfg)
    h, w = result.grid
    np.testing.assert_allclose(result.masks, 1.0 / (h * w), atol=1e-12)
    from semroi.sampler import block_average_pool

    f = block_average_pool(fmap, box, result.grid)
    for n in range(cfg.n_masks):
        np.testing.assert_allclose(result.feature[n], f.mean(axis=(1, 2)), atol=1e-10)


def test_extract_channel_mismatch_names_both_counts():
    params = tiny_params(17, TINY)  # 4 channels
    with pytest.raises(ShapeError, match="5 channels.*expect 4"):
        sra_extract(np.zeros((5, 12, 12)), RoIBox(1.0, 2.0, 9.5, 8.0), params, TINY)


def test_extract_permutation_invariance_without_embedding():
    cfg = SraConfig(
        n_masks=4, budget=16, descriptor_dim=5, embed_channels=3, hidden=6,
        embedding_mode="none", descriptor_mode="average",
    )
    params = init_params(cfg, 4, np.random.default_rng(18))
    rng = np.random.default_rng(18)
    f = rng.standard_normal((4, 3, 4))
    y, masks = extract_on_grid(f, params, cfg)
    for _ in range(10):
        perm = rng.permutation(12)
        f_p = f.reshape(4, 12)[:, perm].reshape(4, 3, 4)
        y_p, masks_p = extract_on_grid(f_p, params, cfg)
        np.testing.assert_allclose(y_p, y, atol=1e-9)
        np.testing.assert_allclose(
            masks_p.reshape(4, 12), masks.reshape(4, 12)[:, perm], atol=1e-9
        )


def test_extract_mask_normalization_and_convexity():
    cfg = TINY
    params = tiny_params(19, cfg)
    rng = np.random.default_rng(19)
    from semroi.sampler import block_average_pool

    for _ in range(20):
        fmap = rng.standard_normal((4, 14, 14))
        x0, y0 = rng.uniform(0, 8, 2)
        box = RoIBox(x0, y0, x0 + rng.uniform(1, 6), y0 + rng.uniform(1, 6))
        result = sra_extract(fmap, box, params, cfg)
        assert (result.masks >= 0).all()
        np.testing.assert_allclose(result.masks.sum(axis=(1, 2)), 1.0, atol=1e-6)
        f = block_average_pool(fmap, box, result.grid)
        lo = f.min(axis=(1, 2)) - 1e-9
        hi = f.max(axis=(1, 2)) + 1e-9
        assert (result.feature >= lo).all() and (result.feature <= hi).all()


def test_extract_concatenation_needs_static_grid():
    cfg = SraConfig(descriptor_mode="concatenation", fixed_grid=(3, 3),
                    n_masks=2, budget=16, descriptor_dim=4, hidden=4,
                    embedding_mode="none")
    params = init_params(cfg, 2, np.random.default_rng(20))
    fmap = np.random.default_rng(20).standard_normal((2, 10, 10))
    result = sra_extract(fmap, RoIBox(1, 1, 8, 6), params, cfg)
    assert result.grid == GridSize(3, 3)
    assert params.psi.in_dim == descriptor_in_dim(cfg, 2) == 2 * 9


# ---------------------------------------------------------------------------
# backward


def test_backward_zero_cotangent_zero_gradients():
    cfg = TINY
    params = tiny_params(21, cfg)
    fmap = np.random.default_rng(21).standard_normal((4, 10, 10))
    result, tape = sra_extract_recorded(fmap, RoIBox(0.5, 0.5, 8.0, 7.0), params, cfg)
    grads, gmap = sra_backward(np.zeros_like(result.feature), tape)
    assert np.array_equal(gmap, np.zeros_like(fmap))
    for name, arr in param_leaves(grads):
        assert not arr.any(), name


def test_backward_requires_tape():
    with pytest.raises(ValueError, match="forward"):
        sra_backward(np.zeros((2, 2)), None)


def test_full_pipeline_gradcheck_single_seed():
    report = full_pipeline_gradcheck(5)
    assert report.passed, report


def test_full_pipeline_gradcheck_worst_index_is_plain_ints():
    # numpy 2 reprs np.unravel_index's scalars as np.int64(1)
    assert full_pipeline_gradcheck(1).worst == "semantic_conv_bias[(1,)]"


# ---------------------------------------------------------------------------
# parameter accounting


def test_parameter_count_hand_golden():
    # psi 1*1+1, semantic 1*1+1, trunk_norm 2*2, trunk_linear 1*2+1,
    # head_norm 2*1, head_linear 1*1+1  -> 15
    cfg = SraConfig(n_masks=1, budget=1, descriptor_dim=1, embed_channels=1,
                    hidden=1, embedding_mode="none")
    assert parameter_count(cfg, 1) == 15


def test_parameter_count_defaults_in_budget():
    assert 150_000 <= parameter_count(SraConfig(), 256) <= 350_000


def test_parameter_count_doubling_masks():
    base = SraConfig(n_masks=49)
    doubled = SraConfig(n_masks=98)
    diff = parameter_count(doubled, 256) - parameter_count(base, 256)
    assert diff == 49 * (base.hidden + 1)


@pytest.mark.parametrize("embedded", [False, True])
def test_parameter_count_matches_leaf_sizes(embedded):
    cfg = replace(TINY, embedding_mode="area" if embedded else "none")
    params = init_params(cfg, 4, np.random.default_rng(22))
    assert (params.embed_proj is not None) == embedded
    total = sum(arr.size for _, arr in param_leaves(params))
    assert total == parameter_count(cfg, 4)


def test_mask_regressor_bank_is_one_shared_trunk():
    mlp = init_params(TINY, 4, np.random.default_rng(22)).mask_mlp
    d_in = TINY.trunk_in_dim
    assert [arr.shape for _, arr in param_leaves(mlp)] == [
        (d_in,), (d_in,), (6, d_in), (6,), (6,), (6,), (3, 6), (3,)
    ]
    assert parameter_count(SraConfig(), 256) == 217_233


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip(tmp_path):
    cfg = TINY
    params = tiny_params(23, cfg)
    path = tmp_path / "params.tjson"
    save_checkpoint(path, param_leaves(params), meta={"channels": 4})
    tensors, meta = load_checkpoint(path)
    assert meta == {"channels": 4}
    fresh = tiny_params(99, cfg)
    assign_leaves(param_leaves(fresh), tensors)
    fmap = np.random.default_rng(23).standard_normal((4, 10, 10))
    box = RoIBox(1, 1, 8, 8)
    a = sra_extract(fmap, box, params, cfg)
    b = sra_extract(fmap, box, fresh, cfg)
    np.testing.assert_array_equal(a.feature, b.feature)


def test_checkpoint_rejects_mismatch(tmp_path):
    params = tiny_params(24)
    path = tmp_path / "params.tjson"
    save_checkpoint(path, param_leaves(params))
    tensors, _ = load_checkpoint(path)
    tensors.pop("psi.weight")
    with pytest.raises(ValueError, match="psi.weight"):
        assign_leaves(param_leaves(tiny_params(25)), tensors)


def test_checkpoint_of_the_stacked_heads_format_is_rejected(tmp_path):
    # semroi-params/2 stored every mask-regressor tensor with a heads axis
    path = tmp_path / "params.tjson"
    save_checkpoint(path, param_leaves(tiny_params(26)))
    doc = json.loads(path.read_text())
    doc["format"] = "semroi-params/2"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="semroi-params/2.*semroi-params/3"):
        load_checkpoint(path)
