"""Toy classification training: SGD with momentum on a linear head over
extracted RoI features, with the semantic extractor's own parameters trained
through the hand-derived backward pass.  ``compare_extractors`` is the one
harness that trains and scores named extractor variants side by side.  Its
recipe is the constants below: every harness run draws ``N_CLASSES`` classes
at ``CHANNELS`` channels and steps SGD at ``LR`` and ``MOMENTUM``; only the
class size and the epoch count are arguments, with the defaults
``N_PER_CLASS`` and ``EPOCHS``."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import evaluate
from .baselines import DEFAULT_OUT, roi_align
from .core import (
    SraConfig,
    SraParams,
    init_params,
    param_leaves,
    sra_backward,
    sra_extract_recorded,
)
from .evaluate import (
    TRANSFORM_FAMILIES,
    invariance_eval,
    make_feature_fn,
    mask_diversity,
    random_delta,
    require_mask_pairs,
)
from .numerics import Array, ConfigError, LinearParams, init_linear, require_count
from .reporting import derive_seed, stream_rng
from .synthetic import SyntheticInstance, apply_transforms, generate_dataset, render_maps

# the harness recipe; N_CLASSES class signatures can be drawn at CHANNELS
# channels at every data seed that the tests try
N_CLASSES = 4
CHANNELS = 16
LR = 0.02
MOMENTUM = 0.9
EPOCHS = 30
N_PER_CLASS = 200


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


def feature_dim(kind: str, config: SraConfig, channels: int) -> int:
    """Length of one flattened RoI feature of a trainable extractor kind."""
    if kind == "sra":
        return config.n_masks * channels
    if kind == "roi_align":
        return DEFAULT_OUT[0] * DEFAULT_OUT[1] * channels
    raise ConfigError(f"unknown extractor kind {kind!r}")


def init_train_state(
    kind: str, config: SraConfig, channels: int, n_classes: int, seed: int
) -> TrainState:
    feat_dim = feature_dim(kind, config, channels)
    params = init_params(config, channels, stream_rng(seed, "params")) if kind == "sra" else None
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
    """One SGD step on one instance; returns (loss, predicted label).

    Raises ``TrainingDiverged`` on a non-finite loss or gradient, before
    any parameter or momentum changes."""
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
    # a finite loss makes the classifier's gradients finite: the features
    # are then finite and every entry of dlogits lies in [-1, 1]
    if state.kind == "sra":
        dfeat = (state.classifier.weight.T @ dlogits).reshape(result.feature.shape)
        param_grads, _ = sra_backward(dfeat, tape)
        for name, g in param_leaves(param_grads, "params"):
            if not np.isfinite(g).all():
                raise TrainingDiverged(
                    f"non-finite gradient of {name} at step {state.step} "
                    f"(kind={state.kind}, label={inst.label})"
                )
            grads.append((name, g))
    sgd_update(state, grads, lr, momentum)
    state.step += 1
    return loss, int(np.argmax(logits))


def predict(state: TrainState, inst: SyntheticInstance) -> int:
    feature_fn = make_feature_fn(state.kind, state.params, state.config)
    logits = state.classifier.weight @ feature_fn(inst) + state.classifier.bias
    return int(np.argmax(logits))


def accuracy(state: TrainState, instances: list[SyntheticInstance]) -> float:
    if not instances:
        raise ConfigError("accuracy needs at least one instance")
    hits = sum(predict(state, inst) == inst.label for inst in instances)
    return hits / len(instances)


TEST_FRACTION = 0.25


def split_dataset(
    dataset: list[SyntheticInstance], seed: int
) -> tuple[list[SyntheticInstance], list[SyntheticInstance]]:
    """Stratified split, deterministic per seed: ``TEST_FRACTION`` of each
    class, and at least one instance, goes to the test split.  The train
    split's maps are rendered here, in one ``render_maps`` batch, so no
    training step renders; the test split's render only when read."""
    rng = stream_rng(seed, "split")
    by_label: dict[int, list[int]] = {}
    for i, inst in enumerate(dataset):
        by_label.setdefault(inst.label, []).append(i)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for label in sorted(by_label):
        idx = np.array(by_label[label])
        idx = idx[rng.permutation(len(idx))]
        n_test = max(1, int(round(TEST_FRACTION * len(idx))))
        test_idx.extend(idx[:n_test].tolist())
        train_idx.extend(idx[n_test:].tolist())
    train_set = [dataset[i] for i in sorted(train_idx)]
    render_maps(train_set)
    return train_set, [dataset[i] for i in sorted(test_idx)]


def augment_rotation(instances: list[SyntheticInstance], seed: int) -> list[SyntheticInstance]:
    """Compose a fresh random rotation onto each instance (re-rendered)."""
    rng = stream_rng(seed, "test-augment")
    return apply_transforms(instances, [random_delta("rotation", rng) for _ in instances])


def harness_splits(
    dataset: list[SyntheticInstance], seed: int
) -> tuple[list[SyntheticInstance], list[SyntheticInstance]]:
    """The train split of ``dataset`` and its rotation-augmented test split:
    what ``train_toy`` trains on and ``accuracy`` then scores at this seed.
    Every kind and variant trained at the seed shares the one rendered test
    split, whose re-poses are rendered from their poses and seeds: the test
    split's own maps are not rendered."""
    train_set, test_set = split_dataset(dataset, seed)
    return train_set, augment_rotation(test_set, seed)


def train_toy(
    kind: str,
    config: SraConfig,
    train_set: list[SyntheticInstance],
    epochs: int,
    seed: int = 0,
) -> tuple[TrainState, list[dict]]:
    """Train a linear head (plus extractor parameters for the semantic kind)
    on ``train_set`` at ``LR`` and ``MOMENTUM``: (trained state, per-epoch
    history).  Deterministic per seed.  A history entry holds the epoch's
    mean train loss and its train accuracy, the online accuracy of the
    predictions made during the epoch; callers score a test split once, with
    ``accuracy``, after training."""
    require_count("epochs", epochs, 1)
    if not train_set:
        raise ConfigError("train_toy needs at least one training instance")
    channels = train_set[0].ctx.channels
    n_classes = max(inst.label for inst in train_set) + 1
    state = init_train_state(kind, config, channels, n_classes, seed)
    shuffle_rng = stream_rng(seed, "shuffle")
    history: list[dict] = []
    for epoch in range(epochs):
        order = shuffle_rng.permutation(len(train_set))
        losses = 0.0
        hits = 0
        for i in order:
            inst = train_set[int(i)]
            loss, pred = train_step(state, inst, LR, MOMENTUM)
            losses += loss
            hits += pred == inst.label
        history.append(
            {
                "epoch": epoch,
                "train_loss": losses / len(train_set),
                "train_accuracy": hits / len(train_set),
            }
        )
    return state, history


def harness_dataset(seed: int, n_per_class: int = N_PER_CLASS) -> list[SyntheticInstance]:
    """The synthetic dataset every harness run at this seed trains on:
    ``n_per_class`` instances of each of ``N_CLASSES`` classes at
    ``CHANNELS`` channels, drawn from ``derive_seed(seed, "data")``.  The
    split puts at least one instance of each class in the test split, so a
    class needs two for the train split to hold one."""
    require_count("n_per_class", n_per_class, 2)
    return generate_dataset(
        N_CLASSES, N_CLASSES * n_per_class, derive_seed(seed, "data"), channels=CHANNELS
    )


# the harness's named variants: name -> (extractor kind, its config)
Variants = dict[str, tuple[str, SraConfig]]


def compare_extractors(
    variants: Variants,
    seeds: list[int],
    n_per_class: int = N_PER_CLASS,
    epochs: int = EPOCHS,
) -> dict:
    """The one harness: per seed, train each named variant, an extractor kind
    and its ``SraConfig``, on the same data, then measure its
    rotation-augmented test accuracy, its invariance under every family of
    ``TRANSFORM_FAMILIES`` and, for an sra variant, its masks' diversity.

    The variants are paired: for each family every variant reads a fresh
    generator on the one stream ``invariance/{family}``, and every sra
    variant one on the stream ``diversity``, so all are scored on the same
    draws and a variant's entry does not depend on the others.  The sample
    counts are the constants ``evaluate.INVARIANCE_SAMPLES`` and
    ``evaluate.DIVERSITY_SAMPLES``."""
    if not variants or "seed" in variants:
        raise ConfigError("compare_extractors needs at least one variant, none named 'seed'")
    if not seeds:
        raise ConfigError("compare_extractors needs at least one seed")
    require_count("epochs", epochs, 1)
    for kind, config in variants.values():
        feature_dim(kind, config, CHANNELS)  # raises on an unknown kind
        if kind == "sra":
            require_mask_pairs(config)
    runs = []
    for seed in seeds:
        dataset = harness_dataset(seed, n_per_class)
        train_set, test_set = harness_splits(dataset, seed)
        run: dict = {"seed": seed}
        for name, (kind, config) in variants.items():
            state, history = train_toy(kind, config, train_set, epochs, seed=seed)
            feature_fn = make_feature_fn(kind, state.params, config)
            entry = run[name] = {
                "final_test_accuracy": accuracy(state, test_set),
                "final_train_accuracy": history[-1]["train_accuracy"],
                "loss_curve": [h["train_loss"] for h in history],
                "train_accuracy_curve": [h["train_accuracy"] for h in history],
                "invariance": {
                    family: invariance_eval(
                        feature_fn, dataset, family, evaluate.INVARIANCE_SAMPLES,
                        stream_rng(seed, f"invariance/{family}"),
                    ).mean_cosine
                    for family in TRANSFORM_FAMILIES
                },
            }
            if kind == "sra":
                diversity = mask_diversity(
                    state.params, config, dataset, evaluate.DIVERSITY_SAMPLES,
                    stream_rng(seed, "diversity"),
                )
                off_diagonal = diversity.mean_matrix[~np.eye(config.n_masks, dtype=bool)]
                entry["mask_diversity_fraction"] = diversity.fraction_below
                entry["mask_diversity_mean_cosine"] = float(off_diagonal.mean())
        runs.append(run)

    summary = {}
    for name in variants:
        per_run = [run[name] for run in runs]
        columns = {"test_accuracy": [r["final_test_accuracy"] for r in per_run]}
        for family in TRANSFORM_FAMILIES:
            columns[f"{family}_cosine"] = [r["invariance"][family] for r in per_run]
        if "mask_diversity_fraction" in per_run[0]:
            columns["mask_diversity_fraction"] = [r["mask_diversity_fraction"] for r in per_run]
        summary.update({f"mean_{name}_{key}": float(np.mean(v)) for key, v in columns.items()})
    return {"runs": runs, "summary": summary}
