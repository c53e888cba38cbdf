import numpy as np
import pytest

from semroi.baselines import roi_align, roi_pool
from semroi.numerics import ShapeError
from semroi.oracles import roi_pool_loop
from semroi.sampler import GridSize, RoIBox, block_average_pool


@pytest.mark.parametrize("extractor", [roi_pool, roi_align])
@pytest.mark.parametrize("shape, out", [((3, 9, 9), (0, 7)), ((3, 9, 9), (7, 0)), ((9, 9), (7, 7))])
def test_extractors_reject_bad_map_or_grid(extractor, shape, out):
    with pytest.raises(ShapeError):
        extractor(np.ones(shape), RoIBox(1.1, 0.7, 7.8, 8.2), out)


def test_roi_pool_constant_map():
    fmap = np.full((3, 9, 9), 2.5)
    out = roi_pool(fmap, RoIBox(1.1, 0.7, 7.8, 8.2), (3, 3))
    np.testing.assert_array_equal(out, np.full((3, 3, 3), 2.5))


def test_roi_pool_single_pixel_box_replicates():
    fmap = np.random.default_rng(0).standard_normal((2, 6, 6))
    out = roi_pool(fmap, RoIBox(3.1, 2.2, 3.3, 2.4), (2, 2))
    for bj in range(2):
        for bk in range(2):
            np.testing.assert_array_equal(out[bj, bk], fmap[:, 2, 3])


def test_roi_pool_matches_membership_oracle():
    rng = np.random.default_rng(1)
    for _ in range(25):
        fmap = rng.standard_normal((3, 8, 8))
        x0, y0 = rng.uniform(0, 4, 2)
        box = RoIBox(x0, y0, x0 + rng.uniform(1, 4), y0 + rng.uniform(1, 4))
        got = roi_pool(fmap, box, (2, 2))
        want = roi_pool_loop(fmap, box, (2, 2))
        np.testing.assert_array_equal(got, want)


def test_roi_pool_outputs_are_map_elements():
    rng = np.random.default_rng(2)
    fmap = rng.standard_normal((2, 10, 10))
    out = roi_pool(fmap, RoIBox(0.3, 1.9, 8.7, 9.1), (4, 4))
    values = set(fmap.ravel().tolist())
    assert all(v in values for v in out.ravel().tolist())


def test_roi_align_constant_map_exact():
    fmap = np.full((2, 8, 8), -3.75)
    out = roi_align(fmap, RoIBox(0.4, 1.6, 6.9, 7.7), (7, 7))
    np.testing.assert_array_equal(out, np.full((7, 7, 2), -3.75))


def test_roi_align_linear_ramp_hits_bin_centers():
    yy, xx = np.mgrid[0:12, 0:12]
    fmap = (xx + 2.0 * yy).astype(float)[None]
    box = RoIBox(1.5, 2.25, 9.5, 8.75)
    out = roi_align(fmap, box, (3, 4))
    bh, bw = box.height / 3, box.width / 4
    for j in range(3):
        for k in range(4):
            cy = box.y0 + (j + 0.5) * bh
            cx = box.x0 + (k + 0.5) * bw
            assert abs(out[j, k, 0] - (cx + 2.0 * cy)) < 1e-10


def test_roi_align_shares_pool_kernel():
    rng = np.random.default_rng(3)
    fmap = rng.standard_normal((4, 10, 10))
    box = RoIBox(1.2, 0.8, 8.6, 7.9)
    aligned = roi_align(fmap, box, (3, 5))
    pooled = block_average_pool(fmap, box, GridSize(3, 5))
    np.testing.assert_array_equal(aligned, np.transpose(pooled, (1, 2, 0)))


def test_roi_pool_bins_empty_along_one_axis_take_the_center_pixel():
    # thin boxes: every column bin (or row bin) holds no integer pixel while
    # the other axis does; such a bin is the pixel nearest its center, not a
    # max along the non-empty axis
    rng = np.random.default_rng(4)
    fmap = rng.standard_normal((3, 9, 10))
    cases = [
        (RoIBox(3.2, 0.5, 3.6, 7.5), (3, 2)),  # columns empty, rows not
        (RoIBox(0.4, 5.1, 8.8, 5.3), (2, 4)),  # rows empty, columns not
        (RoIBox(1.5, 2.5, 3.0, 8.0), (4, 3)),  # some column bins empty
        (RoIBox(-3.0, 7.6, 4.0, 7.9), (1, 5)),  # off the map, rows empty
    ]
    for box, out in cases:
        got = roi_pool(fmap, box, out)
        np.testing.assert_array_equal(got, roi_pool_loop(fmap, box, out))
    got = roi_pool(fmap, RoIBox(3.2, 0.5, 3.6, 7.5), (3, 2))
    # row bin 1 covers rows 3..5 and is centered on 4; column bin 0 centers
    # on x = 3.3 -> pixel 3
    np.testing.assert_array_equal(got[1, 0], fmap[:, 4, 3])


def test_roi_pool_matches_membership_oracle_on_mixed_outputs():
    rng = np.random.default_rng(5)
    for i in range(60):
        fmap = rng.standard_normal((2, 7, 9))
        x0, y0 = rng.uniform(-3, 9, 2)
        box = RoIBox(x0, y0, x0 + rng.uniform(0.05, 8), y0 + rng.uniform(0.05, 8))
        out = [(7, 7), (3, 5), (1, 1), (9, 2)][i % 4]
        np.testing.assert_array_equal(roi_pool(fmap, box, out), roi_pool_loop(fmap, box, out))
