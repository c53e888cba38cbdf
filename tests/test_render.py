"""The matmul renderer against its loop references, and its independence
from the BLAS thread count."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from semroi.oracles import apply_stem_einsum, render_map_loop
from semroi.synthetic import Pose, apply_stem, make_render_context, render_instance


def rel_err(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


@pytest.mark.parametrize("channels", [1, 3, 16])
def test_stem_matches_einsum_on_non_square_map(channels):
    rng = np.random.default_rng(channels)
    fmap = rng.standard_normal((channels, 6, 11))
    stem = rng.standard_normal((channels, channels, 3, 3))
    got = apply_stem(fmap, stem)
    assert got.shape == fmap.shape
    assert rel_err(got, apply_stem_einsum(fmap, stem)) < 1e-12


@pytest.mark.parametrize("height, width", [(1, 5), (2, 7), (9, 1), (4, 2), (1, 1), (2, 2)])
def test_stem_matches_einsum_on_thin_maps(height, width):
    # a tap's flat run spans whole padded rows, so one- and two-pixel
    # extents exercise the ends of the runs
    rng = np.random.default_rng(height * 10 + width)
    fmap = rng.standard_normal((3, height, width))
    stem = rng.standard_normal((3, 3, 3, 3))
    got = apply_stem(fmap, stem)
    assert got.shape == fmap.shape and got.flags.c_contiguous
    assert rel_err(got, apply_stem_einsum(fmap, stem)) < 1e-12


def test_stem_zero_pads_the_border():
    # a lone tap at (dy, dx) = (0, 0) reads the pixel up and to the left, so
    # the first row and column see only padding
    fmap = np.arange(1.0, 13.0).reshape(1, 3, 4)
    stem = np.zeros((1, 1, 3, 3))
    stem[0, 0, 0, 0] = 1.0
    got = apply_stem(fmap, stem)[0]
    np.testing.assert_array_equal(got[0], 0.0)
    np.testing.assert_array_equal(got[:, 0], 0.0)
    np.testing.assert_array_equal(got[1:, 1:], fmap[0, :-1, :-1])


@pytest.mark.parametrize(
    "pose",
    [Pose(), Pose(rotation_deg=37.0), Pose(reflected=True), Pose(rotation_deg=-150.0, reflected=True)],
    ids=["identity", "rotated", "reflected", "rotated_reflected"],
)
def test_render_matches_part_loop(pose):
    ctx = make_render_context(3, seed=5)
    for label in range(3):
        got = render_instance(ctx, label, pose, seed=40 + label).feature_map
        assert rel_err(got, render_map_loop(ctx, label, pose, 40 + label)) < 1e-12


def test_render_is_pure():
    ctx = make_render_context(3, seed=5)
    pose = Pose(rotation_deg=12.5, reflected=True, scale=1.1, pan_x=0.05)
    a = render_instance(ctx, 1, pose, seed=8)
    b = render_instance(ctx, 1, pose, seed=8)
    assert np.array_equal(a.feature_map, b.feature_map)
    assert a.box == b.box


DIGEST_SCRIPT = """
import hashlib
from semroi.synthetic import generate_dataset
h = hashlib.sha256()
for inst in generate_dataset(3, 6, seed=11):
    h.update(inst.feature_map.tobytes())
print(h.hexdigest())
"""


def test_render_digest_does_not_depend_on_blas_threads():
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", DIGEST_SCRIPT], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]
