"""Batch command-line entry point.

Subcommands: gradcheck, oracles, ablate-sampler, ablate-descriptor,
ablate-embedding, train-toy, diversity.  ``COMMANDS`` maps each
to its handler and the config keys it reads, which are the only keys it
accepts.  Every run writes a JSON report embedding those keys, resolved and
typed, and the seed.  Wall-clock timing is the benchmark's job
(``perfbench/run.py``); ``ablate-sampler`` reports the analytic cost.
Exit codes: 0 success, 1 acceptance failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import numerics
from .core import SraConfig, choose_grid, parameter_count
from .evaluate import DIVERSITY_THRESHOLD, flops_estimate, mask_diversity, require_mask_pairs
from .numerics import ConfigError
from .oracles import full_pipeline_gradcheck, run_all
from .reporting import stream_rng, write_report
from .sampler import FIXED_GRID, RoIBox
from .train import (
    EXTRACTORS, accuracy, compare_extractors, harness_dataset, harness_splits, split_dataset,
    train_toy,
)


# flat dotted-key configuration, grouped in the sections a command may read;
# the sra.* keys mirror SraConfig (the reference operating point) field by
# field, the desk-scale keys after them size the synthetic harness
SECTIONS: dict[str, dict[str, object]] = {
    "sra": {f"sra.{f.name}": f.default for f in fields(SraConfig)},
    "data": {"data.n_classes": 4, "data.n_per_class": 200, "data.channels": 16},
    "train": {"train.epochs": 30, "train.lr": 0.02, "train.momentum": 0.9},
    "eval": {"eval.invariance_samples": 60, "eval.diversity_samples": 40},
}


class UsageError(ValueError):
    pass


def _parse_grid(key: str, value: object, text: bool) -> tuple[int, int] | None:
    """A ``--set`` string (``text``) ``'8x8'``/``'none'``, or a config file's
    ``[8, 8]`` or null; like every config-file value, the sides must already
    be ints, and a string is not parsed."""
    if value is None or (text and value.lower() in ("none", "")):
        return None
    expected = f"{key}: grid must look like '8x8' or 'none', got {value!r}"
    try:
        h, w = (int(v) for v in value.lower().split("x")) if text else value
    except (TypeError, ValueError) as exc:
        raise UsageError(expected) from exc
    if type(h) is not int or type(w) is not int:
        raise UsageError(expected)
    if min(h, w) < 1:
        raise UsageError(f"{key}: grid sides must be at least 1, got {value!r}")
    return h, w


def _coerce(key: str, value: object, default: object, text: bool) -> object:
    """``value`` typed by ``default``: a ``--set`` string (``text``) is parsed
    by that type, a config-file value must already have it (an int may stand
    for a float).  Every int key is a count, so it is at least 1; every float
    is finite."""
    if default is None:  # sra.fixed_grid
        return _parse_grid(key, value, text)
    kind = type(default)
    expected = f"{key}: expected {kind.__name__}, got {value!r}"
    if text and kind is not str:
        try:
            value = kind(value)
        except ValueError as exc:
            raise UsageError(expected) from exc
    if kind is float and type(value) is int:
        value = float(value)
    if type(value) is not kind:
        raise UsageError(expected)
    if kind is int and value < 1:
        raise UsageError(f"{key}: expected a count of at least 1, got {value}")
    if kind is float and not math.isfinite(value):
        raise UsageError(f"{key}: expected a finite number, got {value}")
    return value


def _read_config_file(config_file: str | None) -> dict:
    if not config_file:
        return {}
    try:
        loaded = json.loads(Path(config_file).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {config_file}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise UsageError(f"config file {config_file} must hold a JSON object")
    return loaded


def resolve_config(subcommand: str, config_file: str | None, overrides: list[str]) -> dict:
    """The command's sections and own keys, with the file's values and then
    the ``--set`` overrides applied; a key the command does not read is
    rejected like an unknown one."""
    row = COMMANDS[subcommand]
    defaults = {
        key: value
        for name in row.sections
        for key, value in SECTIONS[name].items()
        if key not in row.unread
    }
    defaults.update(row.own)
    given = [(key, value, False) for key, value in _read_config_file(config_file).items()]
    for item in overrides:
        key, eq, value = item.partition("=")
        if not eq:
            raise UsageError(f"--set expects key=value, got {item!r}")
        given.append((key.strip(), value, True))
    config = dict(defaults)
    for key, value, text in given:
        if key not in defaults:
            raise UsageError(f"unknown config key {key!r} for {subcommand}")
        config[key] = _coerce(key, value, defaults[key], text)
    return config


def sra_config_from(config: dict) -> SraConfig:
    return SraConfig(**{f.name: config[f"sra.{f.name}"] for f in fields(SraConfig)})


def _dataset(config: dict, seed: int):
    return harness_dataset(
        seed, config["data.n_classes"], config["data.n_per_class"], config["data.channels"]
    )


def _train(config: dict, seed: int, kind: str, train_set, cfg: SraConfig | None = None):
    """``train_toy`` on ``train_set`` with the train section: (state, history)."""
    return train_toy(
        kind, cfg or sra_config_from(config), train_set, epochs=config["train.epochs"],
        lr=config["train.lr"], momentum=config["train.momentum"], seed=seed,
    )


# ---------------------------------------------------------------------------
# subcommand bodies: each takes (config, seed) and returns (exit_code, metrics)


def cmd_gradcheck(config: dict, seed: int) -> tuple[int, dict]:
    reports = [full_pipeline_gradcheck(seed + i) for i in range(config["gradcheck.seeds"])]
    per_seed = [
        {"seed": seed + i, "max_rel_err": r.max_rel_err, "worst": r.worst}
        for i, r in enumerate(reports)
    ]
    passed = all(r.passed for r in reports)
    return (0 if passed else 1), {
        "passed": passed,
        "tolerance": numerics.GRADCHECK_TOLERANCE,
        "max_rel_err": max(r.max_rel_err for r in reports),
        "per_seed": per_seed,
    }


def cmd_oracles(config: dict, seed: int) -> tuple[int, dict]:
    results = run_all(seed)
    entries = [
        {"name": r.name, "passed": r.passed, "max_err": r.max_err, "detail": r.detail}
        for r in results
    ]
    ok = all(r.passed for r in results)
    return (0 if ok else 1), {"passed": ok, "checks": entries}


SAMPLER_BOXES = 200


def cmd_ablate_sampler(config: dict, seed: int) -> tuple[int, dict]:
    """Grid choice over ``SAMPLER_BOXES`` random boxes, and the analytic cost
    of extracting each box at its grid: the dynamic sampler, or
    ``sra.fixed_grid``."""
    cfg = sra_config_from(config)
    channels = config["data.channels"]
    rng = stream_rng(seed, "sampler-ablation")
    grids = []
    for _ in range(SAMPLER_BOXES):
        x0, y0 = rng.uniform(0, 30, 2)
        box = RoIBox(x0, y0, x0 + rng.uniform(1, 60), y0 + rng.uniform(1, 60))
        grids.append(choose_grid(box, cfg))
    areas = [grid.area for grid in grids]
    counts = Counter(f"{grid.h}x{grid.w}" for grid in grids)
    estimates = [flops_estimate(cfg, channels, grid) for grid in grids]
    per_roi = float(np.mean([est.per_roi for est in estimates]))
    return 0, {
        "mode": "dynamic" if cfg.fixed_grid is None else "fixed",
        "budget": cfg.budget,
        "mean_grid_area": float(np.mean(areas)),
        "max_grid_area": max(areas),
        "budget_respected": max(areas) <= cfg.budget,
        "distinct_grids": len(counts),
        "top_grids": counts.most_common(8),
        "channels": channels,
        "parameter_count": parameter_count(cfg, channels),
        "multiply_adds_per_roi": per_roi,
        "multiply_adds_per_300_rois": 300 * per_roi,
        "breakdown": {
            key: float(np.mean([est.breakdown[key] for est in estimates]))
            for key in estimates[0].breakdown
        },
    }


def _ablation(config: dict, seed: int, field: str, modes: tuple[str, ...]) -> tuple[int, dict]:
    """Train sra once per value of the SraConfig ``field``, all on one dataset."""
    base = sra_config_from(config)
    # concatenation cannot follow a dynamic grid; pin the fixed size
    pins = {"concatenation": {"fixed_grid": FIXED_GRID}}
    variants = {mode: replace(base, **{field: mode}, **pins.get(mode, {})) for mode in modes}
    train_set, test_set = harness_splits(_dataset(config, seed), seed)
    out = {}
    for mode, cfg in variants.items():
        state, history = _train(config, seed, "sra", train_set, cfg)
        out[mode] = {
            "final_test_accuracy": accuracy(state, test_set),
            "final_train_accuracy": history[-1]["train_accuracy"],
            "final_train_loss": history[-1]["train_loss"],
        }
    return 0, {"modes": out}


def cmd_ablate_descriptor(config: dict, seed: int) -> tuple[int, dict]:
    return _ablation(config, seed, "descriptor_mode", ("average", "maximum", "concatenation"))


def cmd_ablate_embedding(config: dict, seed: int) -> tuple[int, dict]:
    return _ablation(config, seed, "embedding_mode", ("none", "position", "area"))


def cmd_train_toy(config: dict, seed: int) -> tuple[int, dict]:
    kind = config["train.kind"]
    if kind == "both":
        return 0, compare_extractors(
            sra_config_from(config), [seed],
            n_classes=config["data.n_classes"], n_per_class=config["data.n_per_class"],
            epochs=config["train.epochs"], lr=config["train.lr"],
            momentum=config["train.momentum"],
            invariance_samples=config["eval.invariance_samples"],
            diversity_samples=config["eval.diversity_samples"], channels=config["data.channels"],
        )
    if kind not in EXTRACTORS:
        raise UsageError(f"train.kind must be sra, roi_align or both, got {kind!r}")
    train_set, test_set = harness_splits(_dataset(config, seed), seed)
    state, history = _train(config, seed, kind, train_set)
    return 0, {"kind": kind, "history": history, "test_accuracy": accuracy(state, test_set)}


def cmd_diversity(config: dict, seed: int) -> tuple[int, dict]:
    require_mask_pairs(sra_config_from(config))
    dataset = _dataset(config, seed)
    # trains as train-toy does, but scores no test split, so renders none
    state, _ = _train(config, seed, "sra", split_dataset(dataset, seed)[0])
    report = mask_diversity(
        state.params, state.config, dataset, config["eval.diversity_samples"],
        stream_rng(seed, "diversity"),
    )
    return 0, {
        "threshold": DIVERSITY_THRESHOLD,
        "fraction_below": report.fraction_below,
        "n_samples": report.n_samples,
        "mean_offdiagonal_cosine": float(
            report.mean_matrix[~np.eye(state.config.n_masks, dtype=bool)].mean()
        ),
    }


class Command(NamedTuple):
    handler: Callable[[dict, int], tuple[int, dict]]
    sections: tuple[str, ...]  # the SECTIONS it reads
    own: dict[str, object]  # its own keys, and section defaults it overrides
    unread: tuple[str, ...] = ()  # keys of those sections it does not read


ALL_SECTIONS = tuple(SECTIONS)
ABLATION = ("sra", "data", "train"), {"train.epochs": 10, "data.n_per_class": 75}

# each command accepts, and its report embeds, exactly the keys of its row
COMMANDS: dict[str, Command] = {
    "gradcheck": Command(cmd_gradcheck, (), {"gradcheck.seeds": 20}),
    "oracles": Command(cmd_oracles, (), {}),
    "ablate-sampler": Command(cmd_ablate_sampler, ("sra", "data"), {},
                              ("data.n_classes", "data.n_per_class")),
    "ablate-descriptor": Command(cmd_ablate_descriptor, *ABLATION),
    "ablate-embedding": Command(cmd_ablate_embedding, *ABLATION),
    "train-toy": Command(cmd_train_toy, ALL_SECTIONS, {"train.kind": "both"}),
    "diversity": Command(cmd_diversity, ALL_SECTIONS, {}, ("eval.invariance_samples",)),
}


# ---------------------------------------------------------------------------
# driver


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="semroi", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat JSON config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override one config key")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="reports")
    return parser


def run(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = resolve_config(args.subcommand, args.config, args.overrides)
        out_dir = Path(args.out)
        try:  # before the handler: a report that cannot be written fails fast
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"cannot use --out {args.out}: {exc}") from exc
        code, metrics = COMMANDS[args.subcommand].handler(config, args.seed)
    except (UsageError, ConfigError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    payload = {
        "subcommand": args.subcommand,
        "seed": args.seed,
        "config": config,
        "metrics": metrics,
    }
    path = write_report(out_dir / f"{args.subcommand}.json", payload)
    status = "ok" if code == 0 else "FAILED"
    print(f"{args.subcommand}: {status} (report: {path})")
    if code != 0:
        _explain_failure(args.subcommand, metrics)
    return code


def _explain_failure(subcommand: str, metrics: dict) -> None:
    if subcommand == "gradcheck":
        print(f"  max_rel_err {metrics['max_rel_err']:.3e} over tolerance", file=sys.stderr)
    elif subcommand == "oracles":
        for entry in metrics["checks"]:
            if not entry["passed"]:
                print(f"  failing oracle: {entry['name']} (err {entry['max_err']:.3e})", file=sys.stderr)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
