import math
import warnings

import numpy as np
import pytest

from semroi.baselines import roi_align
from semroi.core import SraConfig, init_params, sra_extract
from semroi.numerics import ConfigError, ShapeError, check_vjp
from semroi.oracles import check_pool_operator_vs_points, grid_size_exhaustive
from semroi.sampler import (
    FIXED_GRID,
    MAX_BUDGET,
    GridSize,
    RoIBox,
    block_average_pool,
    block_average_pool_vjp,
    dynamic_grid_size,
)


def random_box(rng, lo=0.5, hi=80.0):
    x0, y0 = rng.uniform(0, 40, 2)
    bw, bh = rng.uniform(lo, hi, 2)
    return RoIBox(x0, y0, x0 + bw, y0 + bh)


def test_box_validation():
    with pytest.raises(ValueError):
        RoIBox(3.0, 0.0, 3.0, 5.0)
    with pytest.raises(ValueError):
        RoIBox(0.0, 0.0, 1.0, float("nan"))
    with pytest.raises(ValueError, match="non-finite"):
        RoIBox(-1e308, 0.0, 1e308, 1.0)  # finite corners, width overflows


def test_budget_below_one_raises():
    with pytest.raises(ValueError, match="budget"):
        dynamic_grid_size(RoIBox(0, 0, 4, 2), 0)


def test_budget_above_the_exactness_bound_raises_on_every_call():
    # an error is not cached, so the second call raises too
    assert MAX_BUDGET == 2**17 - 1
    for _ in range(2):
        with pytest.raises(ConfigError, match=f"MAX_BUDGET={MAX_BUDGET}, got {2**17}"):
            dynamic_grid_size(RoIBox(0, 0, 4, 2), 2**17)


def test_config_budget_is_bounded_by_the_sampler():
    with pytest.raises(ConfigError, match=f"MAX_BUDGET={MAX_BUDGET}\\], got {2**17}"):
        SraConfig(budget=2**17)
    # the bound itself constructs; its table is not built here
    assert SraConfig(budget=2**17 - 1).budget == MAX_BUDGET


@pytest.mark.parametrize("budget", [2.5, True, "4"])
def test_budget_that_is_not_an_int_raises(budget):
    with pytest.raises(ConfigError, match="budget must be an int"):
        dynamic_grid_size(RoIBox(0, 0, 4, 2), budget)


def test_square_box_default_budget():
    # all square grids tie at ratio diff 0; the largest one under the budget
    # wins: 11*11 = 121 <= 128
    assert dynamic_grid_size(RoIBox(0, 0, 100, 100), 128) == GridSize(11, 11)


def test_budget_one_only_feasible_pair():
    rng = np.random.default_rng(0)
    for _ in range(10):
        assert dynamic_grid_size(random_box(rng), 1) == GridSize(1, 1)


def test_wide_box_exact_ratio():
    # height/width = 0.25 is exactly achievable; largest such area is 5*20
    assert dynamic_grid_size(RoIBox(0, 0, 200, 50), 128) == GridSize(5, 20)


@pytest.mark.parametrize("budget", [1, 32, 64, 128, 256])
def test_matches_exhaustive_search(budget):
    rng = np.random.default_rng(100 + budget)
    for _ in range(150):
        box = random_box(rng)
        assert tuple(dynamic_grid_size(box, budget)) == tuple(
            grid_size_exhaustive(box, budget)
        )


def test_ratios_midway_between_feasible_grids():
    # a box whose ratio sits midway between two adjacent feasible ratios is
    # as near to one as to the other whenever the midpoint rounds exactly,
    # and then only the area and row tie-breaks decide
    budget = 16
    ratios = sorted({h / w for h in range(1, budget + 1) for w in range(1, budget // h + 1)})
    ties = 0
    for lo, hi in zip(ratios, ratios[1:]):
        mid = (lo + hi) / 2
        ties += mid - lo == hi - mid
        box = RoIBox(0.0, 0.0, 1.0, mid)
        assert dynamic_grid_size(box, budget) == grid_size_exhaustive(box, budget), (lo, hi)
    assert ties > len(ratios) // 2


@pytest.mark.parametrize("height, width", [
    (1e300, 1e-300),  # ratio overflows to inf
    (1e-300, 1e300),  # ratio underflows to 0
    (1e20, 1.0),  # far enough above the table that rounded distances tie
    (1e-20, 1.0),
])
@pytest.mark.parametrize("budget", [1, 2, 7, 16, 128])
def test_ratios_beyond_the_table_ends(height, width, budget):
    box = RoIBox(0.0, 0.0, width, height)
    assert dynamic_grid_size(box, budget) == grid_size_exhaustive(box, budget)


def test_grid_respects_budget():
    rng = np.random.default_rng(7)
    for budget in (1, 32, 64, 128, 256):
        for _ in range(50):
            g = dynamic_grid_size(random_box(rng), budget)
            assert g.h * g.w <= budget


@pytest.mark.parametrize("budget", [4, 9, 50, 128, 256])
def test_square_box_yields_largest_square(budget):
    k = int(math.isqrt(budget))
    assert dynamic_grid_size(RoIBox(2, 3, 52, 53), budget) == GridSize(k, k)


def test_exact_ratio_boxes_transpose():
    # boxes whose aspect ratio is exactly achievable transpose exactly;
    # knife-edge ratios between two achievable grids do not (the pinned
    # objective weighs |h/w - r| asymmetrically), so the property is tested
    # where it is a theorem
    rng = np.random.default_rng(11)
    for _ in range(60):
        a, b = rng.integers(1, 12, size=2)
        scale = rng.uniform(2.0, 20.0)
        box = RoIBox(0, 0, float(b * scale), float(a * scale))  # height/width = a/b
        swapped = RoIBox(0, 0, float(a * scale), float(b * scale))
        g = dynamic_grid_size(box, 128)
        gs = dynamic_grid_size(swapped, 128)
        assert (gs.h, gs.w) == (g.w, g.h)


def test_fixed_grid_constant():
    assert FIXED_GRID == (8, 8)


# ---------------------------------------------------------------------------
# block average pooling


def test_pool_constant_field():
    fmap = np.full((3, 10, 10), 4.25)
    out = block_average_pool(fmap, RoIBox(1.2, 2.3, 8.9, 7.1), GridSize(3, 5))
    np.testing.assert_allclose(out, 4.25, atol=1e-12)


def test_pool_hand_bilinear_case():
    # [[0,1],[2,3]] interpolates the plane x + 2y; quarter-point samples of
    # the unit box average to the center value 1.5
    fmap = np.array([[[0.0, 1.0], [2.0, 3.0]]])
    out = block_average_pool(fmap, RoIBox(0, 0, 1, 1), GridSize(1, 1))
    np.testing.assert_allclose(out, [[[1.5]]], atol=1e-14)


def test_pool_degenerate_box_clamps_to_pixel():
    fmap = np.random.default_rng(1).standard_normal((2, 5, 5))
    tiny = 1e-9
    box = RoIBox(2.0 - tiny, 3.0 - tiny, 2.0 + tiny, 3.0 + tiny)
    out = block_average_pool(fmap, box, GridSize(1, 1))
    np.testing.assert_allclose(out[:, 0, 0], fmap[:, 3, 2], atol=1e-7)


def test_pool_convex_range():
    rng = np.random.default_rng(2)
    for _ in range(20):
        fmap = rng.standard_normal((4, 12, 12))
        box = random_box(rng, lo=0.5, hi=10.0)
        out = block_average_pool(fmap, box, dynamic_grid_size(box, 32))
        for c in range(4):
            assert out[c].min() >= fmap[c].min() - 1e-12
            assert out[c].max() <= fmap[c].max() + 1e-12


def test_pool_gradient():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        box = RoIBox(0.6, 1.1, 4.7, 3.9)

        def fn(fmap):
            y, rec = block_average_pool_vjp(fmap, box, GridSize(2, 3))
            return y, lambda g: {"fmap": rec.backward(g)[0]}

        report = check_vjp(fn, {"fmap": rng.standard_normal((2, 6, 6))}, seed=seed)
        worst = max(worst, report.max_rel_err)
        assert report.passed, report
    assert worst < 1e-4


def test_pool_rejects_map_that_is_not_3d():
    with pytest.raises(ShapeError, match="C, H, W"):
        block_average_pool_vjp(np.zeros((10, 10)), RoIBox(1, 1, 5, 5), GridSize(2, 2))


@pytest.mark.parametrize("seed", range(5))
def test_pool_operator_matches_point_form(seed):
    result = check_pool_operator_vs_points(seed)
    assert result.passed, result


def test_pool_backward_is_adjoint():
    # <A u, v> = <u, A^T v> for the pool A and its backward A^T, on a box
    # inside the map, boxes hanging off its edges and a sub-pixel box
    rng = np.random.default_rng(21)
    boxes = [
        RoIBox(0.6, 1.1, 7.7, 5.9),
        RoIBox(-3.0, 4.5, 5.0, 11.0),
        RoIBox(6.5, -2.0, 12.0, 3.0),
        RoIBox(2.2, 3.3, 2.5, 3.4),
    ]
    for box in boxes:
        for grid in (GridSize(1, 1), GridSize(3, 4), dynamic_grid_size(box, 32)):
            u = rng.standard_normal((3, 8, 9))
            au, rec = block_average_pool_vjp(u, box, grid)
            v = rng.standard_normal(au.shape)
            (atv,) = rec.backward(v)
            lhs, rhs = float((au * v).sum()), float((u * atv).sum())
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs)), (box, grid)


# ---------------------------------------------------------------------------
# non-finite input


def _extract(extractor, fmap, box):
    if extractor == "roi_align":
        return roi_align(fmap, box)
    cfg = SraConfig(n_masks=2, budget=16, descriptor_dim=4, embed_channels=2, hidden=4)
    return sra_extract(fmap, box, init_params(cfg, fmap.shape[0], np.random.default_rng(0)), cfg)


@pytest.mark.parametrize("extractor", ["sra_extract", "roi_align"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_value_in_the_window_raises(extractor, bad):
    fmap = np.random.default_rng(1).standard_normal((3, 12, 12))
    box = RoIBox(2.0, 3.0, 8.0, 9.0)
    _extract(extractor, fmap, box)
    fmap[1, 6, 5] = bad  # a pixel inside the box
    # an infinity times a zero weight is NaN: the caller sees the ValueError,
    # not a RuntimeWarning from the matmul
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite.*RoIBox"):
            _extract(extractor, fmap, box)


@pytest.mark.parametrize("extractor", ["sra_extract", "roi_align"])
def test_non_finite_value_outside_the_window_is_not_read(extractor):
    fmap = np.random.default_rng(2).standard_normal((3, 12, 12))
    fmap[:, 11, 11] = np.nan
    fmap[0, 0, :] = np.inf
    _extract(extractor, fmap, RoIBox(2.0, 3.0, 8.0, 9.0))
