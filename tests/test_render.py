"""The matmul renderer against its loop references, the batch renderer
against one render after another, and the bits' independence from the BLAS
thread count."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from semroi import synthetic
from semroi.evaluate import random_delta
from semroi.oracles import apply_stem_einsum, render_map_loop
from semroi.reporting import derive_seed, stream_rng
from semroi.synthetic import (
    Pose,
    apply_stem,
    apply_transform,
    generate_dataset,
    make_render_context,
    random_pose,
    render_batch,
    render_instance,
)
from semroi.train import augment_rotation


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


def assert_same_instance(got, want):
    assert np.array_equal(got.feature_map, want.feature_map)
    assert (got.box, got.pose, got.label, got.seed) == (want.box, want.pose, want.label, want.seed)


def test_generate_dataset_matches_a_render_loop(n_threads):
    # 7 instances: the threads' shares differ in length
    seed, n_classes = 3, 3
    ctx = make_render_context(n_classes, seed)
    pose_rng = np.random.default_rng(derive_seed(seed, "poses"))
    dataset = generate_dataset(n_classes, 7, seed)
    synthetic.render_maps(dataset)
    assert len(dataset) == 7
    for i, inst in enumerate(dataset):
        pose = random_pose(pose_rng)
        assert_same_instance(inst, render_instance(ctx, i % n_classes, pose, derive_seed(seed, f"instance/{i}")))


def test_augment_rotation_matches_per_instance_transforms(n_threads):
    dataset = generate_dataset(3, 9, seed=4)
    rng = stream_rng(4, "test-augment")
    got = augment_rotation(dataset, 4)
    assert len(got) == len(dataset)
    for inst, out in zip(dataset, got):
        assert_same_instance(out, apply_transform(inst, random_delta("rotation", rng)))


def test_job_k_is_rendered_by_thread_k_mod_w(n_threads, monkeypatch):
    body = synthetic._render
    threads = {}

    def recorded(ctx, label, pose, seed, stem_fn):
        threads[seed] = threading.get_ident()
        return body(ctx, label, pose, seed, stem_fn)

    monkeypatch.setattr(synthetic, "_render", recorded)
    ctx = make_render_context(2, seed=1)
    before = threading.active_count()
    render_batch([(ctx, k % 2, Pose(), k) for k in range(5)])
    assert threading.active_count() == before
    assert threads[0] == threading.get_ident()
    for k in range(5):
        assert threads[k] == threads[k % n_threads]
    assert len(set(threads.values())) == n_threads


def test_the_lowest_failing_job_raises_as_in_the_loop(n_threads, monkeypatch):
    # with two threads job 1 fails on the worker and job 2 on the caller;
    # a loop would stop at job 1, so its exception is the one raised
    body = synthetic._render

    def failing(ctx, label, pose, seed, stem_fn):
        if seed in (1, 2):
            raise RuntimeError(f"job {seed} failed")
        return body(ctx, label, pose, seed, stem_fn)

    monkeypatch.setattr(synthetic, "_render", failing)
    ctx = make_render_context(2, seed=1)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="job 1 failed"):
        render_batch([(ctx, 0, Pose(), k) for k in range(4)])
    assert threading.active_count() == before


def test_a_bad_job_raises_what_render_instance_raises(n_threads):
    ctx = make_render_context(2, seed=1)
    with pytest.raises(IndexError) as want:
        render_instance(ctx, 5, Pose(), 0)
    with pytest.raises(IndexError) as got:
        render_batch([(ctx, 0, Pose(), 0), (ctx, 5, Pose(), 1), (ctx, 1, Pose(), 2)])
    assert str(got.value) == str(want.value)


def test_batch_survives_frequent_thread_switches(monkeypatch):
    # the threads share the output list; a lost or misplaced write would
    # show as a wrong or missing instance
    monkeypatch.setattr(synthetic, "_cpu_count", lambda: 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = generate_dataset(3, 8, seed=6)
        synthetic.render_maps(got)
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(synthetic, "_cpu_count", lambda: 1)
    for out, want in zip(got, generate_dataset(3, 8, seed=6), strict=True):
        assert_same_instance(out, want)


def test_empty_batch():
    assert render_batch([]) == []


# the batch runs on two threads whatever the host has; the loop renders the
# same instances one at a time through the public single-render path
DIGEST_SCRIPT = """
import hashlib
from semroi import synthetic
synthetic._cpu_count = lambda: 2
dataset = synthetic.generate_dataset(3, 6, seed=11)
synthetic.render_maps(dataset)
for maps in (
    [inst.feature_map for inst in dataset],
    [synthetic.render_instance(i.ctx, i.label, i.pose, i.seed).feature_map for i in dataset],
):
    h = hashlib.sha256()
    for fmap in maps:
        h.update(fmap.tobytes())
    print(h.hexdigest())
"""


def test_render_digest_does_not_depend_on_blas_threads():
    # tested at C=16, 64x64; at some other shapes OpenBLAS sums the tail
    # columns of a small product in another order at 1 and 2 threads
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", DIGEST_SCRIPT], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        digests.extend(out.stdout.split())
    # batch and loop, at 1 and at 2 BLAS threads
    assert len(digests) == 4 and len(digests[0]) == 64
    assert set(digests) == {digests[0]}
