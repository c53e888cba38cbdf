"""Acceptance suite: one test per criterion, each at its stated tolerance.

A one-line verdict per criterion is printed in the pytest terminal summary.
The trained-model criteria (8-10) share one 3-seed comparison run via a
session fixture; it takes a few minutes on a laptop CPU.
"""

import time

import numpy as np
import pytest

from conftest import record_criterion

from semroi.core import (
    SraConfig,
    extract_on_grid_recorded,
    init_params,
    parameter_count,
    sample_roi_feature_vjp,
    sra_extract,
)
from semroi.embeddings import area_embedding_raw
from semroi.evaluate import TRANSFORM_FAMILIES
from semroi.oracles import (
    GRADCHECK_CHANNELS,
    GRADCHECK_CONFIG,
    full_pipeline_gradcheck,
    sample_roi_feature_loop,
)
from semroi.sampler import GridSize, RoIBox, dynamic_grid_size
from semroi.train import compare_extractors

COMPARISON_SEEDS = [0, 1, 2]
# desk-scale profile: reference mask count, budget and amplification are
# kept; descriptor/embedding/hidden widths are shrunk so the 3-seed run
# stays minutes, not hours
COMPARISON_CONFIG = SraConfig(descriptor_dim=64, budget=128, embed_channels=16, hidden=64)


@pytest.fixture(scope="session")
def comparison():
    start = time.time()
    result = compare_extractors(
        {"sra": ("sra", COMPARISON_CONFIG), "roi_align": ("roi_align", COMPARISON_CONFIG)},
        seeds=COMPARISON_SEEDS,
        n_per_class=200,
        epochs=30,
    )
    result["elapsed_s"] = time.time() - start
    return result


def test_criterion_1_dynamic_sampler_matches_exhaustive_search():
    # independent vectorized enumeration of every feasible pair
    def exhaustive(box: RoIBox, budget: int, pairs) -> tuple[int, int]:
        hs, ws = pairs
        diffs = np.abs(hs / ws - box.height / box.width)
        order = np.lexsort((-hs, -(hs * ws), diffs))
        return int(hs[order[0]]), int(ws[order[0]])

    rng = np.random.default_rng(2024)
    start = time.time()
    checked = 0
    for budget in (1, 32, 64, 128, 256):
        hs, ws = [], []
        for h in range(1, budget + 1):
            for w in range(1, budget // h + 1):
                hs.append(h)
                ws.append(w)
        pairs = (np.array(hs, dtype=float), np.array(ws, dtype=float))
        for _ in range(1000):
            x0, y0 = rng.uniform(0, 50, 2)
            box = RoIBox(x0, y0, x0 + rng.uniform(0.3, 90), y0 + rng.uniform(0.3, 90))
            assert tuple(dynamic_grid_size(box, budget)) == exhaustive(box, budget, pairs)
            checked += 1
    elapsed = time.time() - start
    passed = checked == 5000 and elapsed < 5.0
    record_criterion(1, "dynamic sampler equals exhaustive search",
                     passed, f"{checked} boxes, {elapsed:.2f}s")
    assert elapsed < 5.0


def test_criterion_2_mask_normalization():
    cfg = SraConfig(n_masks=5, budget=32, descriptor_dim=8, embed_channels=4, hidden=8)
    rng = np.random.default_rng(7)
    worst = 0.0
    for i in range(100):
        params = init_params(cfg, 6, np.random.default_rng(1000 + i))
        fmap = rng.standard_normal((6, 16, 16))
        x0, y0 = rng.uniform(0, 8, 2)
        box = RoIBox(x0, y0, x0 + rng.uniform(1, 7), y0 + rng.uniform(1, 7))
        masks = sra_extract(fmap, box, params, cfg).masks
        assert (masks >= 0).all()
        worst = max(worst, float(np.abs(masks.sum(axis=(1, 2)) - 1.0).max()))
    record_criterion(2, "mask slices nonnegative and sum to 1",
                     worst < 1e-6, f"worst deviation {worst:.2e} over 100 extractions")
    assert worst < 1e-6


def test_criterion_3_permutation_invariance():
    cfg = SraConfig(
        n_masks=6, budget=32, descriptor_dim=8, embed_channels=4, hidden=8,
        embedding_mode="none", descriptor_mode="average",
    )
    params = init_params(cfg, 5, np.random.default_rng(11))
    rng = np.random.default_rng(11)
    f = rng.standard_normal((5, 4, 5))
    y, _ = extract_on_grid_recorded(f, params, cfg)[:2]
    worst = 0.0
    for _ in range(50):
        perm = rng.permutation(20)
        f_p = f.reshape(5, 20)[:, perm].reshape(5, 4, 5)
        y_p, _ = extract_on_grid_recorded(f_p, params, cfg)[:2]
        worst = max(worst, float(np.abs(y_p - y).max()))
    record_criterion(3, "spatial permutations leave features unchanged",
                     worst < 1e-9, f"worst |dy| {worst:.2e} over 50 permutations")
    assert worst < 1e-9


def test_criterion_4_full_pipeline_gradients():
    # C=4, K=8, N=3, 3x3 grid, P=4, gamma=50 (config default), 20 seeds
    cfg = SraConfig(
        n_masks=3, budget=9, descriptor_dim=8, embed_channels=4, hidden=8,
        fixed_grid=(3, 3),
    )
    # the extractor full_pipeline_gradcheck differentiates is this one
    assert GRADCHECK_CONFIG == cfg and GRADCHECK_CHANNELS == 4
    start = time.time()
    worst = 0.0
    for seed in range(20):
        report = full_pipeline_gradcheck(seed)
        worst = max(worst, report.max_rel_err)
    elapsed = time.time() - start
    passed = worst < 1e-4 and elapsed < 60.0
    record_criterion(4, "finite-difference gradient check",
                     passed, f"max rel err {worst:.2e}, {elapsed:.1f}s, 20 seeds")
    assert worst < 1e-4
    assert elapsed < 60.0


def test_criterion_5_parameter_budget():
    count = parameter_count(SraConfig(), 256)
    tiny = parameter_count(
        SraConfig(n_masks=1, budget=1, descriptor_dim=1, embed_channels=1,
                  hidden=1, embedding_mode="none"),
        1,
    )
    passed = 150_000 <= count <= 350_000 and tiny == 15
    record_criterion(5, "parameter budget",
                     passed, f"defaults {count:,} scalars; hand-summed tiny case {tiny}")
    assert 150_000 <= count <= 350_000
    assert tiny == 15


def test_criterion_6_weighted_sampling_oracle():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(100):
        c, h, w, n = rng.integers(1, 6, size=4)
        f = rng.standard_normal((c, h, w))
        masks = rng.random((n, h, w))
        masks /= masks.sum(axis=(1, 2), keepdims=True)
        got = sample_roi_feature_vjp(f, masks)[0]
        want = sample_roi_feature_loop(f, masks)
        worst = max(worst, float(np.abs(got - want).max()))
    record_criterion(6, "mask-weighted sampling equals triple loop",
                     worst < 1e-12, f"worst |dy| {worst:.2e} over 100 cases")
    assert worst < 1e-12


def test_criterion_7_area_embedding():
    ident = area_embedding_raw(GridSize(6, 6), 6)
    identity_exact = all(
        np.array_equal(ident[:6, j, 0], np.eye(6)[:, j]) for j in range(6)
    )
    hand = area_embedding_raw(GridSize(2, 2), 4)
    hand_err = float(np.abs(hand[:4, 0, 0] - np.array([1.0, 0.75, 0.25, 0.0])).max())
    reflect_exact = True
    for h in (2, 3, 5, 8):
        emb = area_embedding_raw(GridSize(h, 1), 16)
        for j in range(h):
            if not np.array_equal(emb[:16, j, 0], emb[:16, h - 1 - j, 0][::-1]):
                reflect_exact = False
    passed = identity_exact and hand_err == 0.0 and reflect_exact
    record_criterion(7, "area embedding identity/linear/reflection",
                     passed, f"identity {identity_exact}, hand err {hand_err:.1e}, "
                             f"reflection {reflect_exact}")
    assert passed


def test_criterion_8_toy_training_margin(comparison):
    summary = comparison["summary"]
    margins = [
        run["sra"]["final_test_accuracy"] - run["roi_align"]["final_test_accuracy"]
        for run in comparison["runs"]
    ]
    mean_margin = summary["mean_sra_test_accuracy"] - summary["mean_roi_align_test_accuracy"]
    elapsed = comparison["elapsed_s"]
    detail = (
        f"mean acc {summary['mean_sra_test_accuracy']:.3f} vs "
        f"{summary['mean_roi_align_test_accuracy']:.3f} (margin {mean_margin*100:+.1f} pts, "
        f"per-seed {[f'{m*100:+.1f}' for m in margins]}), {elapsed:.0f}s"
    )
    passed = mean_margin >= 0.02 and any(m > 0 for m in margins) and elapsed < 900
    record_criterion(8, "toy training beats aligned-grid baseline", passed, detail)
    assert any(m > 0 for m in margins), "no seed shows a positive margin"
    assert mean_margin >= 0.02, detail
    assert elapsed < 900, f"comparison took {elapsed:.0f}s"
    # smoke property: first five epochs of the default run descend monotonically
    losses = comparison["runs"][0]["sra"]["loss_curve"][:5]
    assert all(b < a for a, b in zip(losses, losses[1:])), losses


def test_criterion_9_invariance_protocol(comparison):
    summary = comparison["summary"]
    sra = summary["mean_sra_rotation_cosine"]
    align = summary["mean_roi_align_rotation_cosine"]
    # only rotation is gated; the other families are reported beside it
    others = ", ".join(
        f"{family} {summary[f'mean_sra_{family}_cosine']:.3f} vs "
        f"{summary[f'mean_roi_align_{family}_cosine']:.3f}"
        for family in TRANSFORM_FAMILIES
        if family != "rotation"
    )
    record_criterion(9, "trained rotation invariance exceeds baseline",
                     sra > align, f"rotation cosine {sra:.3f} vs {align:.3f} ({others})")
    assert sra > align


def test_criterion_10_mask_diversity(comparison):
    fractions = [run["sra"]["mask_diversity_fraction"] for run in comparison["runs"]]
    mean_fraction = comparison["summary"]["mean_sra_mask_diversity_fraction"]
    record_criterion(10, "trained mask diversity",
                     mean_fraction > 0.5,
                     f"fraction of pairwise cosines < 0.3: {mean_fraction:.3f} "
                     f"(per-seed {[f'{f:.3f}' for f in fractions]})")
    assert mean_fraction > 0.5
