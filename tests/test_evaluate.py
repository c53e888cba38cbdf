import re

import numpy as np
import pytest

from semroi import evaluate, synthetic
from semroi.core import SraConfig, init_params, param_leaves
from semroi.evaluate import (
    TRANSFORM_FAMILIES,
    cosine,
    flops_estimate,
    invariance_eval,
    make_feature_fn,
    mask_diversity,
    pairwise_mask_cosines,
    random_delta,
)
from semroi.numerics import ConfigError
from semroi.oracles import invariance_eval_loop
from semroi.synthetic import generate_dataset, render_maps

CFG = SraConfig(n_masks=4, budget=16, descriptor_dim=6, embed_channels=3, hidden=5)


def dataset():
    # rendered, so a render_batch in the protocol holds re-poses only
    ds = generate_dataset(3, 12, seed=31)
    render_maps(ds)
    return ds


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


def test_zero_rotation_family_is_identity(monkeypatch):
    from semroi import evaluate

    ds = dataset()
    monkeypatch.setattr(evaluate, "ROTATION_MAX_DEG", 0.0)
    report = invariance_eval(
        make_feature_fn("roi_align"), ds, "rotation", 6, np.random.default_rng(4)
    )
    assert abs(report.mean_cosine - 1.0) < 1e-9


def test_invariance_rejects_empty_dataset():
    with pytest.raises(ConfigError, match="empty"):
        invariance_eval(make_feature_fn("roi_align"), [], "rotation", 3, np.random.default_rng(0))


def test_sra_feature_fn_needs_params_and_config():
    params = init_params(CFG, 16, np.random.default_rng(8))
    for args in ((), (params,), (None, CFG)):
        with pytest.raises(ConfigError, match="params and config"):
            make_feature_fn("sra", *args)


def test_invariance_rejects_fewer_than_one_sample():
    with pytest.raises(ConfigError, match="n_samples"):
        invariance_eval(
            make_feature_fn("roi_align"), dataset(), "rotation", 0, np.random.default_rng(0)
        )


# a family name matches exactly: case counts, and a non-string names none
@pytest.mark.parametrize("family", ["shear", "Rotation", None])
def test_invariance_rejects_an_unknown_family_before_its_first_draw(family):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ConfigError, match=re.escape(repr(family))):
        invariance_eval(make_feature_fn("roi_align"), dataset(), family, 3, rng)
    assert rng.bit_generator.state == state


# counts that are not ints; a bool is not a count either
NOT_INTS = [2.5, True, "3", None]


@pytest.mark.parametrize("n_samples", NOT_INTS)
def test_invariance_rejects_a_sample_count_that_is_not_an_int(n_samples):
    with pytest.raises(ConfigError, match="n_samples"):
        invariance_eval(
            make_feature_fn("roi_align"), dataset(), "rotation", n_samples, np.random.default_rng(0)
        )


def test_invariance_accepts_a_numpy_sample_count():
    ds = dataset()
    fn = make_feature_fn("roi_align")
    got = invariance_eval(fn, ds, "rotation", np.int64(3), np.random.default_rng(5))
    assert got == invariance_eval(fn, ds, "rotation", 3, np.random.default_rng(5))


@pytest.mark.parametrize("n_samples", [3, 11, 70])
@pytest.mark.parametrize("family", TRANSFORM_FAMILIES)
@pytest.mark.parametrize("kind", ["roi_align", "sra"])
def test_invariance_eval_matches_the_per_pick_loop(kind, family, n_samples, n_threads, batches):
    ds = dataset()
    params = init_params(CFG, 16, np.random.default_rng(2))
    fn = make_feature_fn(kind, params, CFG)
    want = invariance_eval_loop(fn, ds, family, n_samples, np.random.default_rng(n_samples))
    seen = []

    def fn_recorded(inst):
        seen.append(inst)
        return fn(inst)

    batches.clear()  # the fixture's render
    got = invariance_eval(fn_recorded, ds, family, n_samples, np.random.default_rng(n_samples))
    assert got == want
    sources, moved = seen[0::2], seen[1::2]
    assert len(moved) == n_samples
    shared = [np.shares_memory(a.feature_map, b.feature_map) for a, b in zip(sources, moved)]
    if family in ("identity", "scale_pan"):
        # nothing to render makes no batch
        assert batches == [] and all(shared)
    else:
        # the sources are rendered, so the one batch holds the re-poses
        assert batches == [n_samples] and not any(shared)


def test_the_protocol_draws_form_one_batch_at_sixteen_channels(batches):
    # the protocol's 60 re-poses of 512 KiB maps, 30 MiB, in one batch
    n = evaluate.INVARIANCE_SAMPLES
    ds = dataset()
    assert ds[0].feature_map.nbytes == 512 << 10
    batches.clear()  # the fixture's render
    fn = make_feature_fn("roi_align")
    got = invariance_eval(fn, ds, "reflection", n, np.random.default_rng(6))
    assert batches == [n] == [60]
    assert got == invariance_eval_loop(fn, ds, "reflection", n, np.random.default_rng(6))


@pytest.mark.parametrize("family", TRANSFORM_FAMILIES)
def test_invariance_eval_renders_its_sources_with_its_re_poses_in_one_batch(
    family, n_threads, batches, monkeypatch
):
    ds = generate_dataset(3, 12, seed=31)
    fn = make_feature_fn("roi_align")
    want = invariance_eval_loop(fn, dataset(), family, 11, np.random.default_rng(8))
    extracting = []
    body = synthetic._render

    def render_checked(*job):
        assert not extracting, "a map was rendered during an extraction"
        return body(*job)

    def fn_checked(inst):
        extracting.append(inst)
        out = fn(inst)
        extracting.pop()
        return out

    monkeypatch.setattr(synthetic, "_render", render_checked)
    batches.clear()  # the render of the loop's dataset
    got = invariance_eval(fn_checked, ds, family, 11, np.random.default_rng(8))
    assert got == want
    # each distinct pick once, and a re-render per pick unless it keeps the map
    picks = set(np.random.default_rng(8).integers(0, 12, size=11).tolist())
    re_renders = 0 if family in ("identity", "scale_pan") else 11
    assert batches == [len(picks) + re_renders]


def test_mask_diversity_renders_its_picks_in_one_batch_first(batches, monkeypatch):
    params = init_params(CFG, 16, np.random.default_rng(6))
    want = mask_diversity(params, CFG, dataset(), 6, np.random.default_rng(9))
    batches.clear()  # the render of the reference's dataset
    batches_before_extract = []
    extract = evaluate.sra_extract

    def extract_recorded(*args):
        batches_before_extract.append(len(batches))
        return extract(*args)

    monkeypatch.setattr(evaluate, "sra_extract", extract_recorded)
    got = mask_diversity(params, CFG, generate_dataset(3, 12, seed=31), 6, np.random.default_rng(9))
    picks = set(np.random.default_rng(9).integers(0, 12, size=6).tolist())
    assert batches == [len(picks)]
    assert batches_before_extract == [1] * 6
    assert np.array_equal(got.mean_matrix, want.mean_matrix)


def test_unknown_family_rejected():
    with pytest.raises(ConfigError, match="family"):
        random_delta("shear", np.random.default_rng(0))


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


def test_mask_diversity_rejects_empty_dataset():
    params = init_params(CFG, 16, np.random.default_rng(8))
    with pytest.raises(ConfigError, match="empty"):
        mask_diversity(params, CFG, [], 2, np.random.default_rng(9))


def test_mask_diversity_rejects_fewer_than_one_sample():
    params = init_params(CFG, 16, np.random.default_rng(8))
    with pytest.raises(ConfigError, match="n_samples"):
        mask_diversity(params, CFG, dataset(), 0, np.random.default_rng(9))


@pytest.mark.parametrize("n_samples", NOT_INTS)
def test_mask_diversity_rejects_a_sample_count_that_is_not_an_int(n_samples):
    params = init_params(CFG, 16, np.random.default_rng(8))
    with pytest.raises(ConfigError, match="n_samples"):
        mask_diversity(params, CFG, dataset(), n_samples, np.random.default_rng(9))


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
