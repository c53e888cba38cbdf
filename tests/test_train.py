from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

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
from semroi.synthetic import compose_pose, generate_dataset

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
    ds = dataset(12, seed=5)
    train_set, _ = split_dataset(ds, 5)
    assert batches == [len(train_set)]
    assert Counter(renders) == Counter(jobs(train_set))
    for inst in train_set:
        inst.feature_map
    assert len(renders) == len(train_set)


def test_harness_splits_renders_no_test_split_original(renders):
    ds = dataset(12, seed=5)
    train_set, test_set = harness_splits(ds, 5)
    kept = {id(inst) for inst in train_set}
    originals = [inst for inst in ds if id(inst) not in kept]
    assert len(originals) == len(test_set)
    # the train split and the rotated re-poses, each once
    assert Counter(renders) == Counter(jobs(train_set) + jobs(test_set))
    assert not set(jobs(originals)) & set(renders)


def test_augment_rotation_changes_content_keeps_labels():
    ds = dataset(n=8)
    rotated = augment_rotation(ds, seed=4)
    assert [i.label for i in rotated] == [i.label for i in ds]
    changed = [
        not np.array_equal(a.feature_map, b.feature_map) for a, b in zip(ds, rotated)
    ]
    assert any(changed)


def test_loss_decreases_over_first_epochs_smoke():
    ds = dataset(n=48, seed=23)
    _, hist = train_toy("sra", CFG, split_dataset(ds, 0)[0], epochs=5, seed=0)
    losses = [h["train_loss"] for h in hist]
    assert all(b < a for a, b in zip(losses, losses[1:])), losses


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


def test_compare_extractors_renders_the_test_split_once_per_seed(monkeypatch):
    # both kinds score the one rotation-augmented test split: one re-render
    # per test instance and seed, not one per kind
    from semroi import train

    augmented = []
    transforms = train.apply_transforms

    def transforms_counted(instances, deltas):
        augmented.extend(inst.seed for inst in instances)
        return transforms(instances, deltas)

    monkeypatch.setattr(train, "apply_transforms", transforms_counted)
    shrink_protocol(monkeypatch, 2, 2)
    seeds = [3, 4]
    train.compare_extractors(TWO_KINDS, seeds=seeds, n_per_class=4, epochs=1)
    test_splits = [
        split_dataset(train.harness_dataset(seed, 4), seed)[1] for seed in seeds
    ]
    assert augmented == [inst.seed for split in test_splits for inst in split]


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
