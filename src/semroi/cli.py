"""Batch command-line entry point.

Subcommands: gradcheck, oracles, ablate-sampler, ablate-descriptor,
ablate-embedding, train-toy, invariance, diversity.  ``COMMANDS`` maps each
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

from .core import SraConfig, choose_grid, param_leaves, parameter_count
from .evaluate import flops_estimate, mask_diversity, require_mask_pairs
from .numerics import ConfigError
from .oracles import full_pipeline_gradcheck, run_all
from .reporting import save_checkpoint, stream_rng, write_report
from .sampler import FIXED_GRID, RoIBox
from .synthetic import TransformRanges
from .train import EXTRACTORS, compare_extractors, harness_dataset, harness_splits, train_toy


def _section_defaults(prefix: str, cls: type) -> dict[str, object]:
    """``prefix.<field>`` keys with the dataclass's own defaults."""
    return {f"{prefix}.{f.name}": f.default for f in fields(cls)}


def _section(config: dict, prefix: str, cls: type) -> dict[str, object]:
    return {f.name: config[f"{prefix}.{f.name}"] for f in fields(cls)}


# flat dotted-key configuration, grouped in the sections a command may read;
# the sra.* and transform.* keys mirror SraConfig (the reference operating
# point) and TransformRanges field by field, the desk-scale keys between
# them size the synthetic harness
SECTIONS: dict[str, dict[str, object]] = {
    "sra": _section_defaults("sra", SraConfig),
    "data": {"data.n_classes": 4, "data.n_per_class": 200, "data.channels": 16},
    "train": {"train.epochs": 30, "train.lr": 0.02, "train.momentum": 0.9},
    "eval": {"eval.invariance_samples": 60, "eval.diversity_samples": 40},
    "transform": _section_defaults("transform", TransformRanges),
}


class UsageError(ValueError):
    pass


def _parse_grid(key: str, value: object) -> tuple[int, int] | None:
    if value is None or str(value).lower() in ("none", ""):
        return None
    try:
        h, w = str(value).lower().split("x") if isinstance(value, str) else value
        grid = int(h), int(w)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{key}: grid must look like '8x8' or 'none', got {value!r}") from exc
    if min(grid) < 1:
        raise UsageError(f"{key}: grid sides must be at least 1, got {value!r}")
    return grid


def _coerce(key: str, value: object, default: object, text: bool) -> object:
    """``value`` typed by ``default``: a ``--set`` string (``text``) is parsed
    by that type, a config-file value must already have it (an int may stand
    for a float).  Every int key is a count, so it is at least 1; every float
    is finite."""
    if default is None:  # sra.fixed_grid
        return _parse_grid(key, value)
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
    return SraConfig(**_section(config, "sra", SraConfig))


def ranges_from(config: dict) -> TransformRanges:
    return TransformRanges(**_section(config, "transform", TransformRanges))


def _dataset(config: dict, seed: int):
    return harness_dataset(
        seed, config["data.n_classes"], config["data.n_per_class"], config["data.channels"],
        ranges_from(config),
    )


def _train(config: dict, seed: int, kind: str, splits, cfg: SraConfig | None = None):
    """``train_toy`` on the (train, test) ``splits`` with the train section:
    (state, history)."""
    train_set, test_set = splits
    return train_toy(
        kind, cfg or sra_config_from(config), train_set, test_set, epochs=config["train.epochs"],
        lr=config["train.lr"], momentum=config["train.momentum"], seed=seed,
    )


def _compare(config: dict, seed: int, families: tuple[str, ...] = ("rotation",)) -> dict:
    """The one ``compare_extractors`` run that ``train-toy both`` and
    ``invariance`` both report."""
    return compare_extractors(
        sra_config_from(config), [seed],
        n_classes=config["data.n_classes"], n_per_class=config["data.n_per_class"],
        epochs=config["train.epochs"], lr=config["train.lr"], momentum=config["train.momentum"],
        invariance_samples=config["eval.invariance_samples"],
        diversity_samples=config["eval.diversity_samples"],
        ranges=ranges_from(config), channels=config["data.channels"], families=families,
    )


# ---------------------------------------------------------------------------
# subcommand bodies: each takes (config, seed, out_dir) and returns
# (exit_code, metrics)


def cmd_gradcheck(config: dict, seed: int, out_dir: Path) -> tuple[int, dict]:
    tol = config["gradcheck.tolerance"]
    per_seed = []
    worst = 0.0
    for i in range(config["gradcheck.seeds"]):
        report = full_pipeline_gradcheck(seed + i)
        per_seed.append({"seed": seed + i, "max_rel_err": report.max_rel_err, "worst": report.worst})
        worst = max(worst, report.max_rel_err)
    passed = worst < tol
    return (0 if passed else 1), {
        "passed": passed,
        "tolerance": tol,
        "max_rel_err": worst,
        "per_seed": per_seed,
    }


def cmd_oracles(config: dict, seed: int, out_dir: Path) -> tuple[int, dict]:
    results = run_all(seed)
    entries = [
        {"name": r.name, "passed": r.passed, "max_err": r.max_err, "detail": r.detail}
        for r in results
    ]
    ok = all(r.passed for r in results)
    return (0 if ok else 1), {"passed": ok, "checks": entries}


def cmd_ablate_sampler(config: dict, seed: int, out_dir: Path) -> tuple[int, dict]:
    """Grid choice over random boxes, and the analytic cost of extracting
    each box at its grid: the dynamic sampler, or ``sra.fixed_grid``."""
    cfg = sra_config_from(config)
    channels = config["data.channels"]
    rng = stream_rng(seed, "sampler-ablation")
    grids = []
    for _ in range(config["sampler.n_boxes"]):
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
    splits = harness_splits(_dataset(config, seed), seed, ranges_from(config))
    out = {}
    for mode, cfg in variants.items():
        _, history = _train(config, seed, "sra", splits, cfg)
        out[mode] = {
            "final_test_accuracy": history[-1]["test_accuracy"],
            "final_train_accuracy": history[-1]["train_accuracy"],
            "final_train_loss": history[-1]["train_loss"],
        }
    return 0, {"modes": out}


def cmd_ablate_descriptor(config: dict, seed: int, out_dir: Path) -> tuple[int, dict]:
    return _ablation(config, seed, "descriptor_mode", ("average", "maximum", "concatenation"))


def cmd_ablate_embedding(config: dict, seed: int, out_dir: Path) -> tuple[int, dict]:
    return _ablation(config, seed, "embedding_mode", ("none", "position", "area"))


def cmd_train_toy(config: dict, seed: int, out_dir: Path) -> tuple[int, dict]:
    kind = config["train.kind"]
    if kind == "both":
        return 0, _compare(config, seed)
    if kind not in EXTRACTORS:
        raise UsageError(f"train.kind must be sra, roi_align or both, got {kind!r}")
    splits = harness_splits(_dataset(config, seed), seed, ranges_from(config))
    state, history = _train(config, seed, kind, splits)
    metrics: dict = {"kind": kind, "history": history}
    if state.params is not None:
        ckpt = out_dir / f"trained_{kind}_seed{seed}.tjson"
        meta = {"seed": seed, "channels": config["data.channels"]}
        save_checkpoint(ckpt, param_leaves(state.params), meta=meta)
        metrics["checkpoint"] = str(ckpt)
    return 0, metrics


def cmd_invariance(config: dict, seed: int, out_dir: Path) -> tuple[int, dict]:
    families = tuple(f.strip() for f in str(config["invariance.families"]).split(",") if f.strip())
    if not families:
        raise UsageError("invariance.families must name at least one transform family")
    run = _compare(config, seed, families)["runs"][0]
    return 0, {
        "families": list(families),
        "mean_cosine": {kind: run[kind]["invariance"] for kind in EXTRACTORS},
    }


def cmd_diversity(config: dict, seed: int, out_dir: Path) -> tuple[int, dict]:
    require_mask_pairs(sra_config_from(config))
    dataset = _dataset(config, seed)
    state, _ = _train(config, seed, "sra", harness_splits(dataset, seed, ranges_from(config)))
    report = mask_diversity(
        state.params, state.config, dataset, config["eval.diversity_samples"],
        stream_rng(seed, "diversity"), threshold=config["diversity.threshold"],
    )
    return 0, {
        "threshold": report.threshold,
        "fraction_below": report.fraction_below,
        "n_samples": report.n_samples,
        "mean_offdiagonal_cosine": float(
            report.mean_matrix[~np.eye(state.config.n_masks, dtype=bool)].mean()
        ),
    }


class Command(NamedTuple):
    handler: Callable[[dict, int, Path], tuple[int, dict]]
    sections: tuple[str, ...]  # the SECTIONS it reads
    own: dict[str, object]  # its own keys, and section defaults it overrides
    unread: tuple[str, ...] = ()  # keys of those sections it does not read


ALL_SECTIONS = tuple(SECTIONS)
ABLATION = ("sra", "data", "train", "transform"), {"train.epochs": 10, "data.n_per_class": 75}

# each command accepts, and its report embeds, exactly the keys of its row
COMMANDS: dict[str, Command] = {
    "gradcheck": Command(cmd_gradcheck, (), {"gradcheck.seeds": 20, "gradcheck.tolerance": 1e-4}),
    "oracles": Command(cmd_oracles, (), {}),
    "ablate-sampler": Command(cmd_ablate_sampler, ("sra", "data"), {"sampler.n_boxes": 200},
                              ("data.n_classes", "data.n_per_class")),
    "ablate-descriptor": Command(cmd_ablate_descriptor, *ABLATION),
    "ablate-embedding": Command(cmd_ablate_embedding, *ABLATION),
    "train-toy": Command(cmd_train_toy, ALL_SECTIONS, {"train.kind": "both"}),
    "invariance": Command(cmd_invariance, ALL_SECTIONS,
                          {"invariance.families": "rotation,reflection,scale_pan"}),
    "diversity": Command(cmd_diversity, ALL_SECTIONS, {"diversity.threshold": 0.3},
                         ("eval.invariance_samples",)),
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
        out_dir.mkdir(parents=True, exist_ok=True)
        code, metrics = COMMANDS[args.subcommand].handler(config, args.seed, out_dir)
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
