import numpy as np
import pytest

from semroi.core import SraConfig, param_leaves, sra_backward, sra_extract_recorded
from semroi.train import (
    TrainingDiverged,
    augment_rotation,
    harness_splits,
    init_train_state,
    split_dataset,
    train_step,
    train_toy,
)
from semroi.synthetic import generate_dataset

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
    _, hist_a = train_toy("sra", CFG, *harness_splits(ds, 5), epochs=2, seed=5)
    _, hist_b = train_toy("sra", CFG, *harness_splits(ds, 5), epochs=2, seed=5)
    assert hist_a == hist_b


def test_different_seed_differs():
    ds = dataset(n=24)
    _, hist_a = train_toy("sra", CFG, *harness_splits(ds, 5), epochs=1, seed=5)
    _, hist_b = train_toy("sra", CFG, *harness_splits(ds, 6), epochs=1, seed=6)
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
    _, hist = train_toy("sra", CFG, *harness_splits(ds, 0), epochs=5, lr=0.02, momentum=0.9, seed=0)
    losses = [h["train_loss"] for h in hist]
    assert all(b < a for a, b in zip(losses, losses[1:])), losses


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        init_train_state("deformable", CFG, 16, 4, seed=0)


def test_compare_extractors_scores_both_kinds_on_the_same_draws(monkeypatch):
    from semroi import evaluate, train

    events = []
    fit = train.train_toy
    transform = evaluate.apply_transform

    def fit_marked(kind, *args, **kwargs):
        events.append(kind)
        return fit(kind, *args, **kwargs)

    def transform_recorded(inst, delta):
        events.append((inst.seed, delta))
        return transform(inst, delta)

    monkeypatch.setattr(train, "train_toy", fit_marked)
    monkeypatch.setattr(evaluate, "apply_transform", transform_recorded)
    result = train.compare_extractors(
        CFG, seeds=[3], n_classes=3, n_per_class=4, epochs=1,
        invariance_samples=5, diversity_samples=2,
    )
    assert events[0] == "sra" and events.count("roi_align") == 1
    split = events.index("roi_align")
    sra_draws, align_draws = events[1:split], events[split + 1:]
    assert len(sra_draws) == 5
    assert sra_draws == align_draws
    assert {"mean_sra_rotation_cosine", "mean_align_rotation_cosine"} <= set(result["summary"])


def test_compare_extractors_renders_the_test_split_once_per_seed(monkeypatch):
    # both kinds score the one rotation-augmented test split: one re-render
    # per test instance and seed, not one per kind
    from semroi import train

    augmented = []
    transform = train.apply_transform

    def transform_counted(inst, delta):
        augmented.append(inst.seed)
        return transform(inst, delta)

    monkeypatch.setattr(train, "apply_transform", transform_counted)
    seeds = [3, 4]
    train.compare_extractors(
        CFG, seeds=seeds, n_classes=3, n_per_class=4, epochs=1,
        invariance_samples=2, diversity_samples=2,
    )
    test_splits = [
        split_dataset(train.harness_dataset(seed, 3, 4), seed)[1] for seed in seeds
    ]
    assert augmented == [inst.seed for split in test_splits for inst in split]


def test_compare_extractors_rejects_unknown_family_before_training(monkeypatch):
    from semroi import train
    from semroi.numerics import ConfigError

    monkeypatch.setattr(train, "train_toy", lambda *a, **k: pytest.fail("trained"))
    with pytest.raises(ConfigError, match="shear"):
        train.compare_extractors(CFG, seeds=[0], families=("rotation", "shear"))
