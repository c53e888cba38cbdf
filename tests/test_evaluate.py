import numpy as np
import pytest

from semroi.core import SraConfig, init_params, param_leaves
from semroi.evaluate import (
    cosine,
    flops_estimate,
    invariance_eval,
    make_feature_fn,
    mask_diversity,
    pairwise_mask_cosines,
    random_delta,
)
from semroi.numerics import ConfigError
from semroi.synthetic import TransformRanges, generate_dataset

CFG = SraConfig(n_masks=4, budget=16, descriptor_dim=6, embed_channels=3, hidden=5)


def dataset():
    return generate_dataset(3, 12, seed=31)


def test_cosine_identical_is_one():
    v = np.random.default_rng(0).standard_normal(10)
    assert cosine(v, v) == pytest.approx(1.0)
    assert cosine(v, -v) == pytest.approx(-1.0)


def test_identity_family_similarity_is_one():
    ds = dataset()
    for kind in ("roi_align", "roi_pool"):
        report = invariance_eval(
            make_feature_fn(kind), ds, "identity", 6, np.random.default_rng(1)
        )
        assert abs(report.mean_cosine - 1.0) < 1e-9
    params = init_params(CFG, 16, np.random.default_rng(2))
    report = invariance_eval(
        make_feature_fn("sra", params, CFG), ds, "identity", 6, np.random.default_rng(3)
    )
    assert abs(report.mean_cosine - 1.0) < 1e-9


def test_zero_rotation_family_is_identity():
    ds = dataset()
    ranges = TransformRanges(rotation_max_deg=0.0)
    report = invariance_eval(
        make_feature_fn("roi_align"), ds, "rotation", 6, np.random.default_rng(4), ranges
    )
    assert abs(report.mean_cosine - 1.0) < 1e-9


def test_invariance_rejects_empty_dataset():
    with pytest.raises(ValueError, match="empty"):
        invariance_eval(make_feature_fn("roi_align"), [], "rotation", 3, np.random.default_rng(0))


def test_invariance_rejects_fewer_than_one_sample():
    with pytest.raises(ConfigError, match="n_samples"):
        invariance_eval(
            make_feature_fn("roi_align"), dataset(), "rotation", 0, np.random.default_rng(0)
        )


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="family"):
        random_delta("shear", np.random.default_rng(0), TransformRanges())


def test_pairwise_cosines_identical_masks():
    masks = np.tile(np.random.default_rng(5).random((1, 3, 3)), (4, 1, 1))
    mat = pairwise_mask_cosines(masks)
    np.testing.assert_allclose(mat, 1.0, atol=1e-12)


def test_pairwise_cosines_orthogonal_deltas():
    masks = np.zeros((4, 2, 2))
    for i in range(4):
        masks[i, i // 2, i % 2] = 1.0
    mat = pairwise_mask_cosines(masks)
    np.testing.assert_allclose(mat, np.eye(4), atol=1e-12)
    off = mat[~np.eye(4, dtype=bool)]
    assert (off < 0.3).mean() == 1.0


def test_mask_diversity_uniform_masks_fraction_zero():
    params = init_params(CFG, 16, np.random.default_rng(6))
    for _, arr in param_leaves(params.mask_mlp):
        arr[...] = 0.0  # zero regressor -> uniform masks -> all cosines 1
    report = mask_diversity(params, CFG, dataset(), 4, np.random.default_rng(7))
    np.testing.assert_allclose(report.mean_matrix, 1.0, atol=1e-12)
    assert report.fraction_below == 0.0
    assert np.array_equal(report.mean_matrix, report.mean_matrix.T)
    np.testing.assert_allclose(np.diag(report.mean_matrix), 1.0, atol=1e-12)


def test_mask_diversity_needs_two_masks():
    cfg = SraConfig(n_masks=1, budget=4, descriptor_dim=4, hidden=4, embedding_mode="none")
    params = init_params(cfg, 16, np.random.default_rng(8))
    with pytest.raises(ConfigError, match="2 masks"):
        mask_diversity(params, cfg, dataset(), 2, np.random.default_rng(9))


def test_mask_diversity_rejects_fewer_than_one_sample():
    params = init_params(CFG, 16, np.random.default_rng(8))
    with pytest.raises(ConfigError, match="n_samples"):
        mask_diversity(params, CFG, dataset(), 0, np.random.default_rng(9))


# ---------------------------------------------------------------------------
# cost model


def test_flops_hand_golden():
    # pool 20 + reduce 1 + psi 2 + semantic 2 + trunk_norm 10 + relu 2
    # + trunk_linear 3 + head_norm 5 + relu 1 + head_linear 2
    # + softmax 4 + weighted sum 1 = 53
    cfg = SraConfig(n_masks=1, budget=1, descriptor_dim=1, embed_channels=1,
                    hidden=1, embedding_mode="none")
    est = flops_estimate(cfg, 1, (1, 1))
    assert est.per_roi == 53
    assert est.per_300_rois == 300 * 53


def test_flops_descriptor_term_constant_under_grid_growth():
    cfg = SraConfig(n_masks=3, budget=256, descriptor_dim=8, embed_channels=4, hidden=6)
    small = flops_estimate(cfg, 5, (4, 4))
    large = flops_estimate(cfg, 5, (4, 8))
    assert large.breakdown["descriptor_psi"] == small.breakdown["descriptor_psi"]
    for key, value in small.breakdown.items():
        if key != "descriptor_psi":
            assert large.breakdown[key] == 2 * value
    assert large.per_roi == 2 * small.per_roi - small.breakdown["descriptor_psi"]
