"""Toy classification training: SGD with momentum on a linear head over
extracted RoI features, with the semantic extractor's own parameters trained
through the hand-derived backward pass."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .baselines import DEFAULT_OUT, roi_align
from .core import (
    SraConfig,
    SraParams,
    init_params,
    param_leaves,
    sra_backward,
    sra_extract_recorded,
)
from .evaluate import invariance_eval, make_feature_fn, mask_diversity, random_delta
from .numerics import Array, LinearParams, init_linear
from .reporting import derive_seed, stream_rng
from .synthetic import (
    SyntheticInstance,
    TransformRanges,
    apply_transform,
    generate_dataset,
)


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainState:
    kind: str  # "sra" | "roi_align"
    config: SraConfig | None
    params: SraParams | None
    classifier: LinearParams
    momenta: dict[str, Array] = field(default_factory=dict)
    step: int = 0

    def leaves(self) -> list[tuple[str, Array]]:
        out = param_leaves(self.classifier, "classifier")
        if self.params is not None:
            out += param_leaves(self.params, "params")
        return out


def softmax_cross_entropy(logits: Array, label: int) -> tuple[float, Array]:
    z = logits - logits.max()
    e = np.exp(z)
    probs = e / e.sum()
    loss = -float(np.log(probs[label]))
    dlogits = probs.copy()
    dlogits[label] -= 1.0
    return loss, dlogits


def init_train_state(
    kind: str, config: SraConfig, channels: int, n_classes: int, seed: int
) -> TrainState:
    if kind == "sra":
        params = init_params(config, channels, stream_rng(seed, "params"))
        feat_dim = config.n_masks * channels
    elif kind == "roi_align":
        params = None
        feat_dim = DEFAULT_OUT[0] * DEFAULT_OUT[1] * channels
    else:
        raise ValueError(f"unknown extractor kind {kind!r}")
    classifier = init_linear(stream_rng(seed, "classifier"), feat_dim, n_classes)
    state = TrainState(kind=kind, config=config, params=params, classifier=classifier)
    state.momenta = {name: np.zeros_like(arr) for name, arr in state.leaves()}
    return state


def sgd_update(
    state: TrainState, grads: list[tuple[str, Array]], lr: float, momentum: float
) -> None:
    """v <- momentum*v + g;  p <- p - lr*v  (in place, per leaf)."""
    params = dict(state.leaves())
    for name, g in grads:
        buf = state.momenta[name]
        buf *= momentum
        buf += g
        params[name] -= lr * buf


def train_step(
    state: TrainState, inst: SyntheticInstance, lr: float, momentum: float
) -> tuple[float, int]:
    """One SGD step on one instance; returns (loss, predicted label)."""
    if state.kind == "sra":
        result, tape = sra_extract_recorded(
            inst.feature_map, inst.box, state.params, state.config
        )
        feat = result.feature.ravel()
    else:
        feat = roi_align(inst.feature_map, inst.box).ravel()
    logits = state.classifier.weight @ feat + state.classifier.bias
    loss, dlogits = softmax_cross_entropy(logits, inst.label)
    if not np.isfinite(loss):
        raise TrainingDiverged(
            f"non-finite loss at step {state.step} (kind={state.kind}, "
            f"label={inst.label}, |logits|max={np.abs(logits).max():.3g})"
        )
    grads: list[tuple[str, Array]] = [
        ("classifier.weight", np.outer(dlogits, feat)),
        ("classifier.bias", dlogits),
    ]
    if state.kind == "sra":
        dfeat = (state.classifier.weight.T @ dlogits).reshape(result.feature.shape)
        param_grads, _ = sra_backward(dfeat, tape)
        grads += param_leaves(param_grads, "params")
    sgd_update(state, grads, lr, momentum)
    state.step += 1
    return loss, int(np.argmax(logits))


def predict(state: TrainState, inst: SyntheticInstance) -> int:
    feature_fn = make_feature_fn(state.kind, state.params, state.config)
    logits = state.classifier.weight @ feature_fn(inst) + state.classifier.bias
    return int(np.argmax(logits))


def accuracy(state: TrainState, instances: list[SyntheticInstance]) -> float:
    hits = sum(predict(state, inst) == inst.label for inst in instances)
    return hits / len(instances)


def split_dataset(
    dataset: list[SyntheticInstance], seed: int, test_fraction: float = 0.25
) -> tuple[list[SyntheticInstance], list[SyntheticInstance]]:
    """Stratified split, deterministic per seed."""
    rng = stream_rng(seed, "split")
    by_label: dict[int, list[int]] = {}
    for i, inst in enumerate(dataset):
        by_label.setdefault(inst.label, []).append(i)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for label in sorted(by_label):
        idx = np.array(by_label[label])
        idx = idx[rng.permutation(len(idx))]
        n_test = max(1, int(round(test_fraction * len(idx))))
        test_idx.extend(idx[:n_test].tolist())
        train_idx.extend(idx[n_test:].tolist())
    return [dataset[i] for i in sorted(train_idx)], [dataset[i] for i in sorted(test_idx)]


def augment_rotation(
    instances: list[SyntheticInstance],
    seed: int,
    ranges: TransformRanges = TransformRanges(),
) -> list[SyntheticInstance]:
    """Compose a fresh random rotation onto each instance (re-rendered)."""
    rng = stream_rng(seed, "test-augment")
    return [apply_transform(inst, random_delta("rotation", rng, ranges)) for inst in instances]


def train_toy(
    kind: str,
    config: SraConfig,
    dataset: list[SyntheticInstance],
    epochs: int,
    lr: float = 0.02,
    momentum: float = 0.9,
    seed: int = 0,
    ranges: TransformRanges = TransformRanges(),
) -> tuple[TrainState, list[dict]]:
    """Train a linear head (plus extractor parameters for the semantic kind)
    and report per-epoch train/test accuracy on a rotation-augmented test
    split.  Deterministic per seed; train accuracy is the online accuracy of
    predictions made during the epoch."""
    train_set, test_set = split_dataset(dataset, seed)
    test_set = augment_rotation(test_set, seed, ranges)
    channels = dataset[0].feature_map.shape[0]
    n_classes = max(inst.label for inst in dataset) + 1
    state = init_train_state(kind, config, channels, n_classes, seed)
    shuffle_rng = stream_rng(seed, "shuffle")
    history: list[dict] = []
    for epoch in range(epochs):
        order = shuffle_rng.permutation(len(train_set))
        losses = 0.0
        hits = 0
        for i in order:
            inst = train_set[int(i)]
            loss, pred = train_step(state, inst, lr, momentum)
            losses += loss
            hits += pred == inst.label
        history.append(
            {
                "epoch": epoch,
                "train_loss": losses / len(train_set),
                "train_accuracy": hits / len(train_set),
                "test_accuracy": accuracy(state, test_set),
            }
        )
    return state, history


def compare_extractors(
    config: SraConfig,
    seeds: list[int],
    n_classes: int = 4,
    n_per_class: int = 200,
    epochs: int = 30,
    lr: float = 0.02,
    momentum: float = 0.9,
    invariance_samples: int = 60,
    diversity_samples: int = 40,
    ranges: TransformRanges = TransformRanges(),
    channels: int = 16,
) -> dict:
    """Full head-to-head harness run: train both extractors on the same data
    per seed, then measure rotation-augmented test accuracy, rotation
    invariance, and mask diversity of the trained models."""
    runs = []
    for seed in seeds:
        dataset = generate_dataset(
            n_classes, n_classes * n_per_class, derive_seed(seed, "data"), ranges, channels=channels
        )
        per_kind = {}
        states: dict[str, TrainState] = {}
        for kind in ("sra", "roi_align"):
            state, history = train_toy(
                kind, config, dataset, epochs, lr=lr, momentum=momentum, seed=seed, ranges=ranges
            )
            states[kind] = state
            per_kind[kind] = {
                "final_test_accuracy": history[-1]["test_accuracy"],
                "final_train_accuracy": history[-1]["train_accuracy"],
                "loss_curve": [h["train_loss"] for h in history],
                "test_curve": [h["test_accuracy"] for h in history],
            }
            rot = invariance_eval(
                make_feature_fn(kind, state.params, state.config),
                dataset,
                "rotation",
                invariance_samples,
                stream_rng(seed, f"invariance/{kind}"),
                ranges,
            )
            per_kind[kind]["rotation_cosine"] = rot.mean_cosine
        diversity = mask_diversity(
            states["sra"].params,
            config,
            dataset,
            diversity_samples,
            stream_rng(seed, "diversity"),
        )
        runs.append(
            {
                "seed": seed,
                "sra": per_kind["sra"],
                "roi_align": per_kind["roi_align"],
                "mask_diversity_fraction": diversity.fraction_below,
            }
        )
    def mean(key_path):
        vals = []
        for run in runs:
            node = run
            for key in key_path:
                node = node[key]
            vals.append(node)
        return float(np.mean(vals))

    summary = {
        "mean_sra_test_accuracy": mean(("sra", "final_test_accuracy")),
        "mean_align_test_accuracy": mean(("roi_align", "final_test_accuracy")),
        "mean_sra_rotation_cosine": mean(("sra", "rotation_cosine")),
        "mean_align_rotation_cosine": mean(("roi_align", "rotation_cosine")),
        "mean_mask_diversity_fraction": mean(("mask_diversity_fraction",)),
    }
    summary["accuracy_margin"] = (
        summary["mean_sra_test_accuracy"] - summary["mean_align_test_accuracy"]
    )
    return {"runs": runs, "summary": summary}
