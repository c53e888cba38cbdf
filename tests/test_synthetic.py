import numpy as np
import pytest

from semroi import synthetic
from semroi.evaluate import TRANSFORM_FAMILIES, random_delta
from semroi.numerics import ConfigError
from semroi.synthetic import (
    MAX_CROSS_CLASS_COSINE,
    Pose,
    apply_transform,
    compose_pose,
    generate_dataset,
    make_render_context,
    render_instance,
)


def small_dataset(seed=7, n=24):
    return generate_dataset(3, n, seed)


def test_same_seed_bitwise_identical():
    a = small_dataset()
    b = small_dataset()
    for ia, ib in zip(a, b):
        assert np.array_equal(ia.feature_map, ib.feature_map)
        assert ia.box == ib.box and ia.label == ib.label and ia.pose == ib.pose


def test_different_seed_differs():
    a = small_dataset(seed=7)
    b = small_dataset(seed=8)
    assert not np.array_equal(a[0].feature_map, b[0].feature_map)


def test_label_histogram_round_robin():
    ds = generate_dataset(4, 29, seed=0)
    counts = np.bincount([inst.label for inst in ds], minlength=4)
    assert counts.max() - counts.min() <= 1


def test_cross_class_signature_cosines_bounded():
    ctx = make_render_context(4, seed=99)
    sigs = [(ci, p.signature) for ci, c in enumerate(ctx.classes) for p in c.parts]
    for i, (ca, a) in enumerate(sigs):
        for cb, b in sigs[i + 1 :]:
            if ca != cb:
                cos = float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
                assert cos < MAX_CROSS_CLASS_COSINE


def test_class_signature_sums_collide():
    # the class-identifying information must not survive position-summing
    ctx = make_render_context(4, seed=99)
    sums = [np.sum([p.signature for p in c.parts], axis=0) for c in ctx.classes]
    for s in sums[1:]:
        np.testing.assert_allclose(s, sums[0], atol=1e-12)


def test_parts_per_class_in_range():
    ctx = make_render_context(5, seed=3)
    assert all(3 <= len(c.parts) <= 5 for c in ctx.classes)


def test_boxes_inside_map():
    size = synthetic.MAP_SIZE
    for inst in small_dataset():
        assert inst.feature_map.shape[1:] == (size, size)
        assert 0 <= inst.box.x0 < inst.box.x1 <= size - 1
        assert 0 <= inst.box.y0 < inst.box.y1 <= size - 1


def test_identity_transform_is_exact():
    inst = small_dataset()[0]
    again = apply_transform(inst, Pose())
    assert np.array_equal(inst.feature_map, again.feature_map)
    assert inst.box == again.box


def test_two_half_turns_restore_layout():
    inst = small_dataset()[1]
    spun = apply_transform(apply_transform(inst, Pose(rotation_deg=180.0)), Pose(rotation_deg=180.0))
    assert np.abs(spun.feature_map - inst.feature_map).max() < 1e-9


def test_reflection_is_involution():
    inst = small_dataset()[2]
    back = apply_transform(apply_transform(inst, Pose(reflected=True)), Pose(reflected=True))
    assert np.array_equal(back.feature_map, inst.feature_map)


def test_scale_pan_moves_box_not_content():
    inst = small_dataset()[3]
    moved = apply_transform(inst, Pose(scale=1.2, pan_x=0.05, pan_y=-0.04))
    assert np.array_equal(moved.feature_map, inst.feature_map)
    assert moved.box != inst.box


def test_rotation_moves_content_not_box():
    inst = small_dataset()[4]
    rotated = apply_transform(inst, Pose(rotation_deg=30.0))
    assert not np.array_equal(rotated.feature_map, inst.feature_map)
    assert rotated.box == inst.box


def test_pose_composition_is_dihedral():
    base = Pose(rotation_deg=30.0, reflected=False)
    # a reflection delta negates the already-applied rotation
    flipped = compose_pose(base, Pose(reflected=True))
    assert flipped.reflected and flipped.rotation_deg == -30.0


def test_generate_rejects_single_class():
    # a ConfigError, so the CLI reports it as a usage error (exit 2)
    with pytest.raises(ConfigError, match="2 classes"):
        generate_dataset(1, 10, seed=0)


@pytest.mark.parametrize("family", TRANSFORM_FAMILIES)
def test_transform_equals_render_at_the_composed_pose(family):
    # the box-only shortcut and the re-render agree bit for bit with a
    # fresh render at the composed pose, for random base poses
    rng = np.random.default_rng(31)
    for inst in small_dataset(seed=12, n=6):
        delta = random_delta(family, rng)
        got = apply_transform(inst, delta)
        want = render_instance(inst.ctx, inst.label, compose_pose(inst.pose, delta), inst.seed)
        assert np.array_equal(got.feature_map, want.feature_map)
        assert got.box == want.box and got.pose == want.pose
        assert (got.label, got.seed, got.ctx) == (inst.label, inst.seed, inst.ctx)


@pytest.mark.parametrize(
    "delta",
    [Pose(), Pose(scale=0.8), Pose(scale=1.2, pan_x=0.05, pan_y=-0.04)],
    ids=["identity", "scale", "scale_pan"],
)
def test_box_only_transform_shares_the_map(delta, renders):
    inst = small_dataset()[5]
    moved = apply_transform(inst, delta)
    assert np.shares_memory(moved.feature_map, inst.feature_map)
    assert renders == [(inst.label, inst.pose, inst.seed)]


def test_a_map_renders_on_its_first_read_only(renders):
    inst = small_dataset(n=3)[0]
    assert renders == []
    first = inst.feature_map
    assert inst.feature_map is first
    assert renders == [(inst.label, inst.pose, inst.seed)]


def test_a_scale_pan_re_pose_shares_the_unrendered_slot(renders):
    inst = small_dataset(n=3)[1]
    moved = apply_transform(inst, Pose(scale=1.2, pan_x=0.05, pan_y=-0.04))
    assert renders == []
    assert np.shares_memory(moved.feature_map, inst.feature_map)
    assert renders == [(inst.label, inst.pose, inst.seed)]


def test_rendered_map_is_read_only():
    inst = small_dataset()[0]
    with pytest.raises(ValueError, match="read-only"):
        inst.feature_map[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        inst.feature_map += 1.0


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"channels": 0}, "channels"),
    ],
)
def test_render_context_rejects_bad_arguments(kwargs, match):
    with pytest.raises(ConfigError, match=match):
        make_render_context(3, seed=0, **kwargs)


@pytest.mark.parametrize(
    "args, kwargs, match",
    [
        ((2, 2.5, 0), {}, "n_instances"),
        ((2, True, 0), {}, "n_instances"),
        ((2, 0, 0), {}, "n_instances"),
        ((2, -1, 0), {}, "n_instances"),
        ((2.5, 4, 0), {}, "2 classes"),
        ((2, 4, 0), {"channels": 2.5}, "channels"),
        ((2, 4, 0), {"channels": True}, "channels"),
    ],
)
def test_generate_rejects_bad_counts(args, kwargs, match):
    with pytest.raises(ConfigError, match=match):
        generate_dataset(*args, **kwargs)
