import gc
import mmap
import sys
import threading
import time
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from semroi import synthetic, train
from semroi.baselines import roi_align
from semroi.core import SraConfig, param_leaves, sra_backward, sra_extract_recorded
from semroi.evaluate import (
    TRANSFORM_FAMILIES, invariance_eval, make_feature_fn, mask_diversity, random_delta,
)
from semroi.numerics import ConfigError
from semroi.reporting import stream_rng
from semroi.train import (
    TrainingDiverged,
    accuracy,
    augment_rotation,
    harness_splits,
    init_train_state,
    split_dataset,
    train_step,
    train_toy,
)
from semroi.synthetic import Pose, apply_transform, compose_pose, generate_dataset, render_maps

CFG = SraConfig(n_masks=4, budget=16, descriptor_dim=6, embed_channels=3, hidden=5)


def dataset(n=32, seed=17):
    return generate_dataset(4, n, seed)


def snapshot(state):
    return {name: arr.copy() for name, arr in state.leaves()}


def test_zero_learning_rate_freezes_parameters():
    ds = dataset()
    state = init_train_state("sra", CFG, 16, 4, seed=0)
    before = snapshot(state)
    for inst in ds[:5]:
        train_step(state, inst, lr=0.0, momentum=0.9)
    for name, arr in state.leaves():
        np.testing.assert_array_equal(arr, before[name])


def test_single_step_matches_hand_sgd_update():
    ds = dataset()
    inst = ds[0]
    lr, momentum = 0.05, 0.9
    state = init_train_state("sra", CFG, 16, 4, seed=1)
    before = snapshot(state)

    # independent gradient computation through the recorded forward
    result, tape = sra_extract_recorded(inst.feature_map, inst.box, state.params, state.config)
    feat = result.feature.ravel()
    logits = state.classifier.weight @ feat + state.classifier.bias
    z = logits - logits.max()
    probs = np.exp(z) / np.exp(z).sum()
    dlogits = probs.copy()
    dlogits[inst.label] -= 1.0
    want = {
        "classifier.weight": np.outer(dlogits, feat),
        "classifier.bias": dlogits.copy(),
    }
    dfeat = (state.classifier.weight.T @ dlogits).reshape(result.feature.shape)
    grads, _ = sra_backward(dfeat, tape)
    want.update(dict(param_leaves(grads, "params")))

    train_step(state, inst, lr=lr, momentum=momentum)
    for name, arr in state.leaves():
        # fresh momentum buffers: v = g, p = p0 - lr * g
        np.testing.assert_allclose(arr, before[name] - lr * want[name], atol=1e-12)


def test_momentum_accumulates_across_steps():
    ds = dataset()
    state = init_train_state("roi_align", CFG, 16, 4, seed=2)
    inst = ds[0]
    train_step(state, inst, lr=0.01, momentum=0.5)
    v_after_first = {k: v.copy() for k, v in state.momenta.items()}
    train_step(state, inst, lr=0.01, momentum=0.5)
    for name, buf in state.momenta.items():
        # second buffer = 0.5 * first + fresh gradient; changed unless grad is 0
        if v_after_first[name].any():
            assert not np.array_equal(buf, v_after_first[name])


def test_same_seed_identical_curves():
    ds = dataset(n=24)
    _, hist_a = train_toy("sra", CFG, split_dataset(ds, 5)[0], epochs=2, seed=5)
    _, hist_b = train_toy("sra", CFG, split_dataset(ds, 5)[0], epochs=2, seed=5)
    assert hist_a == hist_b


def test_different_seed_differs():
    ds = dataset(n=24)
    _, hist_a = train_toy("sra", CFG, split_dataset(ds, 5)[0], epochs=1, seed=5)
    _, hist_b = train_toy("sra", CFG, split_dataset(ds, 6)[0], epochs=1, seed=6)
    assert hist_a != hist_b


def test_divergence_aborts_with_diagnostic():
    ds = dataset()
    state = init_train_state("sra", CFG, 16, 4, seed=3)
    state.classifier.weight[...] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(TrainingDiverged, match="step"):
        train_step(state, ds[0], lr=0.02, momentum=0.9)


def test_non_finite_gradient_aborts_before_the_update(monkeypatch):
    from semroi import train

    ds = dataset()
    state = init_train_state("sra", CFG, 16, 4, seed=3)
    train_step(state, ds[0], lr=0.02, momentum=0.9)  # non-zero momenta
    before = [(name, arr.copy()) for name, arr in state.leaves()]
    momenta = {name: buf.copy() for name, buf in state.momenta.items()}
    real_backward = train.sra_backward

    def infinite_backward(cotangent, tape):
        grads, gmap = real_backward(cotangent, tape)
        grads.mask_mlp.head_linear.bias[1] = np.inf
        return grads, gmap

    monkeypatch.setattr(train, "sra_backward", infinite_backward)
    with pytest.raises(TrainingDiverged, match=r"params\.mask_mlp\.head_linear\.bias at step 1"):
        train_step(state, ds[1], lr=0.02, momentum=0.9)
    assert state.step == 1
    for (name, arr), (_, old) in zip(state.leaves(), before):
        np.testing.assert_array_equal(arr, old, err_msg=name)
        np.testing.assert_array_equal(state.momenta[name], momenta[name], err_msg=name)


def test_split_is_stratified_and_deterministic():
    ds = dataset(n=40)
    train_a, test_a = split_dataset(ds, seed=9)
    train_b, test_b = split_dataset(ds, seed=9)
    assert [i.seed for i in train_a] == [i.seed for i in train_b]
    assert [i.seed for i in test_a] == [i.seed for i in test_b]
    assert len(train_a) + len(test_a) == len(ds)
    test_labels = np.bincount([i.label for i in test_a], minlength=4)
    assert test_labels.max() - test_labels.min() <= 1
    train_seeds = {i.seed for i in train_a}
    assert all(i.seed not in train_seeds for i in test_a)


def jobs(instances):
    return [(inst.label, inst.pose, inst.seed) for inst in instances]


def test_split_dataset_renders_the_train_split_in_one_batch(renders, batches):
    # nothing renders at the split; the first training step renders the
    # whole train split in one batch, and no later step renders
    ds = dataset(12, seed=5)
    train_set, _ = split_dataset(ds, 5)
    assert renders == [] and batches == []
    state = init_train_state("roi_align", CFG, 16, 4, seed=0)
    for inst in train_set:
        train_step(state, inst, lr=0.01, momentum=0.9)
    assert batches == [len(train_set)]
    assert Counter(renders) == Counter(jobs(train_set))


def test_lone_reads_render_only_their_own_maps_and_no_test_original(renders, batches):
    # a read outside training renders the one map it reads, in a batch of
    # one; the split waits for a training step
    ds = dataset(12, seed=5)
    train_set, test_set = split_dataset(ds, 5)
    assert renders == [] and batches == []
    train_set[3].feature_map
    assert batches == [1]
    assert renders == jobs([train_set[3]])
    for inst in train_set:
        inst.feature_map
    assert batches == [1] * len(train_set)
    assert Counter(renders) == Counter(jobs(train_set))
    assert not set(jobs(test_set)) & set(renders)


def test_a_lone_read_renders_one_map_and_the_next_step_the_rest(renders, batches):
    # a check that reads one unrendered train map must not render its
    # split-mates; the first training step renders them in one batch
    ds = dataset(12, seed=5)
    train_set, _ = split_dataset(ds, 5)
    train_set[3].feature_map
    assert batches == [1]
    assert renders == jobs([train_set[3]])
    state = init_train_state("roi_align", CFG, 16, 4, seed=0)
    train_step(state, train_set[0], lr=0.01, momentum=0.9)
    assert batches == [1, len(train_set) - 1]
    assert Counter(renders) == Counter(jobs(train_set))
    for inst in train_set + train_set:
        train_step(state, inst, lr=0.01, momentum=0.9)
    assert batches == [1, len(train_set) - 1]
    assert len(renders) == len(train_set)


def test_harness_splits_renders_no_test_split_original(renders):
    ds = dataset(12, seed=5)
    train_set, test_set = harness_splits(ds, 5)
    kept = {id(inst) for inst in train_set}
    originals = [inst for inst in ds if id(inst) not in kept]
    assert len(originals) == len(test_set)
    # the rotated re-poses only; the train split waits for its first step
    assert Counter(renders) == Counter(jobs(test_set))
    state = init_train_state("roi_align", CFG, 16, 4, seed=0)
    train_step(state, train_set[0], lr=0.01, momentum=0.9)
    assert Counter(renders) == Counter(jobs(train_set) + jobs(test_set))
    assert not set(jobs(originals)) & set(renders)


def test_render_maps_on_a_subset_renders_it_alone_then_a_step_renders_the_rest(renders, batches):
    train_set, _ = split_dataset(dataset(12, seed=5), 5)
    picks = train_set[2:5]
    render_maps(picks)
    assert batches == [len(picks)]
    assert Counter(renders) == Counter(jobs(picks))
    state = init_train_state("roi_align", CFG, 16, 4, seed=0)
    train_step(state, train_set[-1], lr=0.01, momentum=0.9)
    assert batches == [len(picks), len(train_set) - len(picks)]
    assert Counter(renders) == Counter(jobs(train_set))


def test_a_kept_train_instance_does_not_keep_its_split_mates(renders, batches):
    ds = dataset(12, seed=5)
    train_set, test_set = split_dataset(ds, 5)
    kept = train_set[4]
    mates = [weakref.ref(inst) for inst in train_set if inst is not kept]
    del ds, train_set, test_set
    gc.collect()
    assert all(ref() is None for ref in mates)
    state = init_train_state("roi_align", CFG, 16, 4, seed=0)
    train_step(state, kept, lr=0.01, momentum=0.9)
    assert renders == jobs([kept])
    assert batches == [1]


def test_every_render_runs_inside_a_batch(n_threads, monkeypatch):
    # a lone read, render_instance, render_maps and a split's first step
    # all render through render_batch
    body = synthetic._render
    batch = synthetic.render_batch
    open_batches = []
    rendered = []

    def render_checked(*job):
        rendered.append(bool(open_batches))
        return body(*job)

    def batch_recorded(jobs):
        open_batches.append(len(jobs))
        try:
            return batch(jobs)
        finally:
            open_batches.pop()

    monkeypatch.setattr(synthetic, "_render", render_checked)
    monkeypatch.setattr(synthetic, "render_batch", batch_recorded)
    ds = dataset(12, seed=5)
    train_set, _ = split_dataset(ds, 5)
    ds[0].feature_map
    posed = synthetic.render_instance(ds[1].ctx, 1, Pose(rotation_deg=10.0), 99)
    render_maps(train_set[:3])
    train_step(init_train_state("roi_align", CFG, 16, 4, seed=0), train_set[-1], 0.01, 0.9)
    assert posed.slot.map is not None
    assert all(inst.slot.map is not None for inst in train_set)
    # the re-posed render, the lone read, and the train split's maps
    assert len(rendered) == 1 + len({inst.seed for inst in train_set} | {ds[0].seed})
    assert all(rendered)


def test_two_threads_reading_different_members_get_the_same_bits(n_threads, batches):
    # one thread takes the split and renders it in one batch; the other may
    # find it taken and render its own map alone, or read the one the batch
    # kept: the bits are the same
    want = {inst.seed: inst.feature_map for inst in dataset(12, seed=5)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            train_set, _ = split_dataset(dataset(12, seed=5), 5)
            n = len(train_set)
            batches.clear()
            start = threading.Barrier(2)

            def step(inst):
                state = init_train_state("roi_align", CFG, 16, 4, seed=0)
                start.wait()
                train_step(state, inst, lr=0.01, momentum=0.9)

            pair = (train_set[0], train_set[-1])
            steppers = [threading.Thread(target=step, args=(inst,)) for inst in pair]
            for stepper in steppers:
                stepper.start()
            for stepper in steppers:
                stepper.join()
            assert sorted(batches) in ([n], [1, n], [1, n - 1])
            for inst in train_set:
                np.testing.assert_array_equal(inst.feature_map, want[inst.seed])
    finally:
        sys.setswitchinterval(interval)


def test_an_eval_pass_renders_only_the_maps_it_reads(renders):
    # split, augment the test split, then the protocol's picks: of the
    # dataset's own maps, only the picked ones render
    n, seed, n_invariance, n_diversity = 40, 7, 6, 4
    ds = dataset(n, seed=seed)
    train_set, test_set = split_dataset(ds, seed)
    test_set = augment_rotation(test_set, seed)
    params = init_train_state("sra", CFG, 16, 4, seed=0).params
    invariance_eval(make_feature_fn("roi_align"), ds, "rotation", n_invariance,
                    np.random.default_rng(1))
    mask_diversity(params, CFG, ds, n_diversity, np.random.default_rng(2))
    inv_rng = np.random.default_rng(1)
    inv_picks = inv_rng.integers(0, n, size=n_invariance).tolist()
    deltas = [random_delta("rotation", inv_rng) for _ in inv_picks]
    div_picks = np.random.default_rng(2).integers(0, n, size=n_diversity).tolist()
    picked = {ds[k].seed for k in inv_picks + div_picks}
    unread = [inst for inst in train_set if inst.seed not in picked]
    assert unread  # the seed leaves some of the train split unread
    want = Counter(jobs(test_set) + jobs(ds[k] for k in sorted(set(inv_picks + div_picks))))
    want.update((ds[k].label, compose_pose(ds[k].pose, d), ds[k].seed)
                for k, d in zip(inv_picks, deltas))
    assert Counter(renders) == want


def test_augment_rotation_changes_content_keeps_labels():
    ds = dataset(n=8)
    rotated = augment_rotation(ds, seed=4)
    assert [i.label for i in rotated] == [i.label for i in ds]
    changed = [
        not np.array_equal(a.feature_map, b.feature_map) for a, b in zip(ds, rotated)
    ]
    assert any(changed)


def test_train_toy_head_has_an_output_per_class_of_the_context():
    # a train set without the top class still gets a logit for it
    ds = dataset(16, seed=5)
    state, _ = train_toy("roi_align", CFG, [inst for inst in ds if inst.label != 3], epochs=1)
    assert state.classifier.weight.shape[0] == state.classifier.bias.shape[0]
    assert state.classifier.bias.shape[0] == len(ds[0].ctx.classes) == 4


def test_loss_decreases_over_first_epochs_smoke():
    ds = dataset(n=48, seed=23)
    _, hist = train_toy("sra", CFG, split_dataset(ds, 0)[0], epochs=5, seed=0)
    losses = [h["train_loss"] for h in hist]
    assert all(b < a for a, b in zip(losses, losses[1:])), losses


def test_roi_align_training_matches_pooling_every_step(monkeypatch):
    train_set = split_dataset(dataset(n=24, seed=31), 31)[0]
    memo_state, memo_hist = train_toy("roi_align", CFG, train_set, epochs=3, seed=2)
    monkeypatch.setattr(
        train, "_roi_align_feature", lambda inst: roi_align(inst.feature_map, inst.box).ravel()
    )
    ref_state, ref_hist = train_toy("roi_align", CFG, train_set, epochs=3, seed=2)
    assert memo_hist == ref_hist
    for (name, got), (_, want) in zip(memo_state.leaves(), ref_state.leaves()):
        np.testing.assert_array_equal(got, want, err_msg=name)


def test_roi_align_training_pools_each_instance_once(monkeypatch):
    train_set = split_dataset(dataset(n=24, seed=32), 32)[0]
    boxes = []

    def counted(fmap, box):
        boxes.append(id(box))
        return roi_align(fmap, box)

    monkeypatch.setattr(train, "roi_align", counted)
    train_toy("roi_align", CFG, train_set, epochs=3, seed=0)
    assert Counter(boxes) == Counter(id(inst.box) for inst in train_set)


def test_a_memoized_feature_is_a_read_only_row_of_an_anonymous_mapping():
    inst = dataset(n=4, seed=33)[0]
    row = train._roi_align_feature(inst)
    assert train._roi_align_feature(inst) is row
    np.testing.assert_array_equal(row, roi_align(inst.feature_map, inst.box).ravel())
    assert not row.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        row[0] = 1.0
    base = row
    while isinstance(base, np.ndarray):
        base = base.base
    assert isinstance(base.obj if isinstance(base, memoryview) else base, mmap.mmap)


def test_a_repose_sharing_a_map_slot_gets_its_own_feature():
    inst = dataset(n=4, seed=34)[0]
    moved = apply_transform(inst, Pose(scale=1.3, pan_x=0.1))
    assert moved.slot is inst.slot and moved.box != inst.box
    for each in (inst, moved):
        want = roi_align(each.feature_map, each.box).ravel()
        np.testing.assert_array_equal(train._roi_align_feature(each), want)


def test_a_memo_entry_dies_with_its_instance():
    ds = dataset(n=4, seed=35)
    row = train._roi_align_feature(ds[0])
    alive = weakref.ref(ds[0])
    del ds
    gc.collect()
    assert alive() is None
    assert all(kept is not row for kept in train._roi_align_rows.values())


def test_threads_taking_rows_never_share_one(monkeypatch):
    class Yielding(dict):
        """Hands the interpreter to another thread between reading the
        open block and recording the row taken from it."""

        def get(self, *args):
            out = super().get(*args)
            time.sleep(1e-4)
            return out

    monkeypatch.setattr(train, "_open_blocks", Yielding())
    taken = [[] for _ in range(4)]

    def take(t):
        for _ in range(100):
            taken[t].append(train._block_row(5))

    threads = [threading.Thread(target=take, args=(t,)) for t in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    # the rows are all alive, so no two may start at one address
    addresses = [row.__array_interface__["data"][0] for each in taken for row in each]
    assert len(set(addresses)) == len(addresses) == 4 * 100


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError, match="kind"):
        init_train_state("deformable", CFG, 16, 4, seed=0)
    with pytest.raises(ConfigError, match="kind"):
        make_feature_fn("deformable")


@pytest.mark.parametrize("epochs", [0, 1.5, True])
def test_train_toy_rejects_a_bad_epoch_count_before_rendering(epochs, renders):
    with pytest.raises(ConfigError, match="epochs"):
        train_toy("sra", CFG, dataset(8), epochs=epochs)
    assert renders == []


def test_train_toy_rejects_an_empty_train_set():
    with pytest.raises(ConfigError, match="training instance"):
        train_toy("sra", CFG, [], epochs=1)


def test_accuracy_rejects_no_instances():
    state = init_train_state("roi_align", CFG, 16, 4, seed=0)
    with pytest.raises(ConfigError, match="at least one instance"):
        accuracy(state, [])


TWO_KINDS = {"sra": ("sra", CFG), "roi_align": ("roi_align", CFG)}
# three sra variants and roi_align, which is not last, so that its place in
# the order shows
VARIANTS = {
    "average": ("sra", CFG),
    "maximum": ("sra", replace(CFG, descriptor_mode="maximum")),
    "roi_align": ("roi_align", CFG),
    "position": ("sra", replace(CFG, embedding_mode="position")),
}


def shrink_protocol(monkeypatch, invariance, diversity):
    from semroi import evaluate

    monkeypatch.setattr(evaluate, "INVARIANCE_SAMPLES", invariance)
    monkeypatch.setattr(evaluate, "DIVERSITY_SAMPLES", diversity)


def test_compare_extractors_scores_every_variant_on_the_same_draws(monkeypatch):
    from semroi import evaluate, train

    scored = []  # per variant trained: its kind, invariance draws and render batches
    fit = train.train_toy
    transform = evaluate.apply_transform
    render = evaluate.render_maps

    def fit_marked(kind, *args, **kwargs):
        scored.append((kind, [], []))
        return fit(kind, *args, **kwargs)

    def transform_recorded(inst, delta):
        scored[-1][1].append((inst.seed, delta))
        return transform(inst, delta)

    def render_recorded(instances):
        scored[-1][2].append([(inst.seed, inst.pose) for inst in instances])
        return render(instances)

    monkeypatch.setattr(train, "train_toy", fit_marked)
    monkeypatch.setattr(evaluate, "apply_transform", transform_recorded)
    monkeypatch.setattr(evaluate, "render_maps", render_recorded)
    shrink_protocol(monkeypatch, 5, 2)
    result = train.compare_extractors(VARIANTS, seeds=[3], n_per_class=4, epochs=1)
    assert [kind for kind, _, _ in scored] == [kind for kind, _ in VARIANTS.values()]
    # every family, in order, each on its own stream
    want = []
    for family in TRANSFORM_FAMILIES:
        rng = stream_rng(3, f"invariance/{family}")
        picks = rng.integers(0, 16, size=5)
        want += [random_delta(family, rng) for _ in picks]
    sra = [(draws, batches) for kind, draws, batches in scored if kind == "sra"]
    draws, batches = sra[0]
    assert len(draws) == len(TRANSFORM_FAMILIES) * 5
    assert [delta for _, delta in draws] == want
    assert all(other == sra[0] for other in sra[1:])
    # roi_align reads the same draws, and only sra measures diversity: on
    # the same picks, rendered in the last batch
    _, align_draws, align_batches = scored[2]
    assert align_draws == draws and align_batches == batches[:-1]
    ds = train.harness_dataset(3, 4)
    picks = stream_rng(3, "diversity").integers(0, 16, size=2)
    assert batches[-1] == [(ds[k].seed, ds[k].pose) for k in picks]
    for name, (kind, _) in VARIANTS.items():
        assert ("mask_diversity_fraction" in result["runs"][0][name]) == (kind == "sra")
        assert (f"mean_{name}_mask_diversity_fraction" in result["summary"]) == (kind == "sra")
        assert {f"mean_{name}_{family}_cosine" for family in TRANSFORM_FAMILIES} <= set(
            result["summary"]
        )


def test_a_variants_entry_is_the_same_alone_or_beside_others(monkeypatch):
    from semroi import train

    shrink_protocol(monkeypatch, 4, 3)
    sizes = dict(seeds=[5], n_per_class=4, epochs=1)
    beside = train.compare_extractors(VARIANTS, **sizes)
    for name in ("maximum", "roi_align"):
        alone = train.compare_extractors({name: VARIANTS[name]}, **sizes)
        assert alone["runs"][0][name] == beside["runs"][0][name]
        assert alone["summary"].items() <= beside["summary"].items()


def test_compare_extractors_renders_the_test_split_once_per_seed(renders, monkeypatch):
    # both kinds score the one rotation-augmented test split: one re-render
    # per test instance and seed, not one per kind; the train split renders
    # once per seed, in one batch at the first kind's first step
    from semroi import train

    seeds = [3, 4]
    splits = [split_dataset(train.harness_dataset(seed, 4), seed) for seed in seeds]
    batches = []
    render = train.render_maps

    def render_counted(instances):
        batches.append([inst.seed for inst in instances])
        return render(instances)

    monkeypatch.setattr(train, "render_maps", render_counted)
    shrink_protocol(monkeypatch, 2, 2)
    train.compare_extractors(TWO_KINDS, seeds=seeds, n_per_class=4, epochs=1)
    # per seed: augment_rotation's batch of the test split, then the train
    # split's batch at the first step
    assert batches == [
        [inst.seed for inst in split] for train_set, test_set in splits
        for split in (test_set, train_set)
    ]
    rendered = Counter(renders)
    assert all(rendered[job] == 1 for train_set, _ in splits for job in jobs(train_set))


def test_compare_extractors_renders_a_test_original_only_when_a_pick_reads_it(renders,
                                                                              monkeypatch):
    from semroi import train

    seed, n_instances, n_invariance, n_diversity = 9, 16, 5, 2
    shrink_protocol(monkeypatch, n_invariance, n_diversity)
    train.compare_extractors(TWO_KINDS, seeds=[seed], n_per_class=4, epochs=1)
    got = Counter(renders)
    ds = train.harness_dataset(seed, 4)
    train_set, test_set = split_dataset(ds, seed)
    kept = {id(inst) for inst in train_set}
    originals = {k for k, inst in enumerate(ds) if id(inst) not in kept}
    picks = set(stream_rng(seed, "diversity").integers(0, n_instances, size=n_diversity).tolist())
    re_poses = []
    for family in TRANSFORM_FAMILIES:
        inv_rng = stream_rng(seed, f"invariance/{family}")
        inv_picks = inv_rng.integers(0, n_instances, size=n_invariance).tolist()
        deltas = [random_delta(family, inv_rng) for _ in inv_picks]
        picks.update(inv_picks)
        # identity and scale_pan keep the rotation and reflection, so their
        # re-poses share the source's map and render nothing of their own
        if family in ("rotation", "reflection"):
            re_poses += [
                (ds[k].label, compose_pose(ds[k].pose, d), ds[k].seed)
                for k, d in zip(inv_picks, deltas)
            ]
    read = originals & picks
    # the seed exercises both cases: a test original read, and one never read
    assert read and originals - read
    want = Counter(jobs(train_set) + jobs(augment_rotation(test_set, seed)))
    want.update(jobs(ds[k] for k in read))
    want.update(2 * re_poses)  # both kinds re-pose the same draws
    assert got == want


def test_compare_extractors_scores_the_test_split_once_per_kind(monkeypatch):
    # training reports train statistics only; the test split is scored once,
    # after the last epoch: one prediction per test instance, kind and seed
    from semroi import train

    predicted = []
    predict = train.predict

    def predict_counted(state, inst):
        predicted.append((state.kind, inst.seed))
        return predict(state, inst)

    monkeypatch.setattr(train, "predict", predict_counted)
    shrink_protocol(monkeypatch, 2, 2)
    seeds = [3, 4]
    result = train.compare_extractors(TWO_KINDS, seeds=seeds, n_per_class=4, epochs=2)
    test_splits = [
        split_dataset(train.harness_dataset(seed, 4), seed)[1] for seed in seeds
    ]
    assert predicted == [
        (kind, inst.seed) for split in test_splits for kind in TWO_KINDS for inst in split
    ]
    scored = {
        "final_test_accuracy", "final_train_accuracy", "loss_curve", "train_accuracy_curve",
        "invariance",
    }
    for run in result["runs"]:
        assert set(run["roi_align"]) == scored
        assert set(run["sra"]) == scored | {"mask_diversity_fraction", "mask_diversity_mean_cosine"}
        for kind in TWO_KINDS:
            assert len(run[kind]["loss_curve"]) == len(run[kind]["train_accuracy_curve"]) == 2


def test_compare_extractors_rejects_no_seeds_before_rendering(renders, monkeypatch):
    from semroi import train
    from semroi.numerics import ConfigError

    monkeypatch.setattr(train, "train_toy", lambda *a, **k: pytest.fail("trained"))
    with pytest.raises(ConfigError, match="seed"):
        train.compare_extractors(TWO_KINDS, seeds=[])
    assert renders == []


@pytest.mark.parametrize("variants,match", [
    ({}, "at least one variant"),
    ({**TWO_KINDS, "one_mask": ("sra", replace(CFG, n_masks=1))}, "2 masks"),
    ({**TWO_KINDS, "deformable": ("deformable", CFG)}, "kind 'deformable'"),
    ({"seed": ("roi_align", CFG)}, "named 'seed'"),
], ids=["empty", "one_mask", "unknown_kind", "named_seed"])
def test_compare_extractors_rejects_bad_variants_before_rendering(variants, match, renders,
                                                                   monkeypatch):
    from semroi import train

    monkeypatch.setattr(train, "train_toy", lambda *a, **k: pytest.fail("trained"))
    with pytest.raises(ConfigError, match=match):
        train.compare_extractors(variants, seeds=[0])
    assert renders == []


@pytest.mark.parametrize("value", [0, 1.5])
def test_compare_extractors_rejects_a_bad_count_before_rendering(value, monkeypatch):
    from semroi import train

    monkeypatch.setattr(train, "generate_dataset", lambda *a, **k: pytest.fail("rendered"))
    with pytest.raises(ConfigError, match="epochs"):
        train.compare_extractors(TWO_KINDS, seeds=[0], epochs=value)


def _compare_keeping_states(monkeypatch, seed, epochs):
    """A tiny ``compare_extractors`` run at ``seed``, and each kind's trained
    state."""
    from semroi import train

    states = {}
    fit = train.train_toy

    def fit_kept(kind, *args, **kwargs):
        states[kind], history = fit(kind, *args, **kwargs)
        return states[kind], history

    monkeypatch.setattr(train, "train_toy", fit_kept)
    shrink_protocol(monkeypatch, 4, 3)
    result = train.compare_extractors(
        TWO_KINDS, seeds=[seed], n_per_class=4, epochs=epochs
    )
    return result, states


def test_train_toy_reproduces_the_sra_half_of_a_comparison(monkeypatch):
    # train_toy on the harness splits at the seed is the comparison's sra run
    from semroi import train

    seed = 4
    run = _compare_keeping_states(monkeypatch, seed, epochs=2)[0]["runs"][0]
    train_set, test_set = harness_splits(train.harness_dataset(seed, 4), seed)
    state, history = train_toy("sra", CFG, train_set, epochs=2, seed=seed)
    assert [h["train_loss"] for h in history] == run["sra"]["loss_curve"]
    assert [h["train_accuracy"] for h in history] == run["sra"]["train_accuracy_curve"]
    assert accuracy(state, test_set) == run["sra"]["final_test_accuracy"]


def test_compare_extractors_reports_the_mean_mask_cosine(monkeypatch):
    # the mean off-diagonal mask cosine, recomputed on the diversity stream
    from semroi import train

    seed = 5
    result, states = _compare_keeping_states(monkeypatch, seed, epochs=1)
    run = result["runs"][0]["sra"]
    report = mask_diversity(
        states["sra"].params, CFG, train.harness_dataset(seed, 4), 3,
        stream_rng(seed, "diversity"),
    )
    off_diagonal = ~np.eye(CFG.n_masks, dtype=bool)
    assert run["mask_diversity_mean_cosine"] == float(report.mean_matrix[off_diagonal].mean())
    assert run["mask_diversity_fraction"] == report.fraction_below


def test_compare_extractors_reports_every_family_on_its_own_stream(monkeypatch):
    # one non-rotation value, recomputed from the trained extractor on the
    # family's own stream, is the reported one bit for bit
    from semroi import train

    seed = 5
    result, states = _compare_keeping_states(monkeypatch, seed, epochs=1)
    for kind in TWO_KINDS:
        assert list(result["runs"][0][kind]["invariance"]) == list(TRANSFORM_FAMILIES)
    state = states["sra"]
    want = invariance_eval(
        make_feature_fn("sra", state.params, state.config), train.harness_dataset(seed, 4),
        "reflection", 4, stream_rng(seed, "invariance/reflection"),
    ).mean_cosine
    assert result["runs"][0]["sra"]["invariance"]["reflection"] == want
    assert result["summary"]["mean_sra_reflection_cosine"] == want


@pytest.mark.parametrize("n_per_class", [2.5, True, "4"])
def test_harness_dataset_rejects_a_bad_class_size(n_per_class):
    from semroi import train
    from semroi.numerics import ConfigError

    with pytest.raises(ConfigError, match="n_per_class"):
        train.harness_dataset(0, n_per_class)


def test_harness_dataset_draws_the_recipes_classes_and_channels():
    from semroi import train

    ds = train.harness_dataset(2, 3)
    assert Counter(inst.label for inst in ds) == {c: 3 for c in range(train.N_CLASSES)}
    assert ds[0].feature_map.shape[0] == train.CHANNELS


def test_train_toy_steps_at_the_recipes_rate_and_momentum(monkeypatch):
    from semroi import train

    steps = []

    def recorded(state, inst, lr, momentum):
        steps.append((lr, momentum))
        return train_step(state, inst, lr, momentum)

    monkeypatch.setattr(train, "train_step", recorded)
    train_set = split_dataset(dataset(n=8, seed=3), 0)[0]
    train_toy("sra", CFG, train_set, epochs=2, seed=0)
    assert steps == [(train.LR, train.MOMENTUM)] * (2 * len(train_set))


def test_the_harness_data_can_be_drawn_at_every_seed_tried():
    # the CLI has no class or channel key, so whether a run's dataset can be
    # drawn must not depend on its seed
    from semroi import train
    from semroi.reporting import derive_seed
    from semroi.synthetic import make_render_context

    for seed in range(200):
        ctx = make_render_context(train.N_CLASSES, derive_seed(seed, "data"), train.CHANNELS)
        assert len(ctx.classes) == train.N_CLASSES, seed
