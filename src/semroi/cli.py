"""Batch command-line entry point.

Subcommands: oracles, ablate-sampler, ablate-descriptor, ablate-embedding,
train-toy.  ``COMMANDS`` maps each to its handler and the config keys it
reads, which are the only keys it accepts; ``--set key=value`` is the one
way to set them.  Every run writes a JSON report embedding those
keys, resolved and typed, the seed, a non-negative int, and the
environment (``environment``).
Wall-clock timing is the benchmark's job
(``perfbench/run.py``); ``ablate-sampler`` reports the analytic cost.
``train-toy``, ``ablate-descriptor`` and ``ablate-embedding`` are each one
``train.compare_extractors`` run over named variants (sra and roi_align, or
three sra modes), so they run one protocol and report one shape; the
harness's class count, channels and SGD step are ``train``'s constants, and
a command does not accept a key it does not read: an ablation's varied
``sra.*`` key, or ``ablate-sampler``'s ``sra.gamma``.  ``oracles`` runs
every oracle check, the 20-seed full-pipeline gradcheck among them.
Exit codes: 0 success, 1 acceptance failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import platform
import sys
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .core import SraConfig, choose_grid, parameter_count
from .evaluate import flops_estimate
from .numerics import ConfigError
from .oracles import run_all
from .reporting import stream_rng, write_report
from .sampler import FIXED_GRID, RoIBox
from .synthetic import _cpu_count
from .train import CHANNELS, EPOCHS, N_PER_CLASS, Variants, compare_extractors


# flat dotted-key configuration, grouped in the sections a command may read;
# the sra.* keys mirror SraConfig (the reference operating point) field by
# field, the two keys after them size the synthetic harness
SECTIONS: dict[str, dict[str, object]] = {
    "sra": {f"sra.{f.name}": f.default for f in fields(SraConfig)},
    "data": {"data.n_per_class": N_PER_CLASS},
    "train": {"train.epochs": EPOCHS},
}


class UsageError(ValueError):
    pass


def _parse_grid(key: str, value: str) -> tuple[int, int] | None:
    """``'8x8'``, or ``'none'`` (or nothing) for no fixed grid."""
    if value.lower() in ("none", ""):
        return None
    try:
        h, w = (int(v) for v in value.lower().split("x"))
    except ValueError as exc:
        raise UsageError(f"{key}: grid must look like '8x8' or 'none', got {value!r}") from exc
    if min(h, w) < 1:
        raise UsageError(f"{key}: grid sides must be at least 1, got {value!r}")
    return h, w


def _coerce(key: str, value: str, default: object) -> object:
    """The ``--set`` string ``value`` parsed by the type of ``default``.
    Every int key is a count, so it is at least 1; every float is finite."""
    if default is None:  # sra.fixed_grid
        return _parse_grid(key, value)
    kind = type(default)
    try:
        value = kind(value)
    except ValueError as exc:
        raise UsageError(f"{key}: expected {kind.__name__}, got {value!r}") from exc
    if kind is int and value < 1:
        raise UsageError(f"{key}: expected a count of at least 1, got {value}")
    if kind is float and not math.isfinite(value):
        raise UsageError(f"{key}: expected a finite number, got {value}")
    return value


def resolve_config(subcommand: str, overrides: list[str]) -> dict:
    """The command's sections and own keys, with the ``--set`` overrides
    applied; a key the command does not read is rejected like an unknown
    one."""
    row = COMMANDS[subcommand]
    defaults = {key: value for name in row.sections for key, value in SECTIONS[name].items()}
    defaults.update(row.own)
    config = {key: value for key, value in defaults.items() if value is not UNREAD}
    for item in overrides:
        key, eq, value = item.partition("=")
        key = key.strip()
        if not eq:
            raise UsageError(f"--set expects key=value, got {item!r}")
        if key not in config:
            raise UsageError(f"unknown config key {key!r} for {subcommand}")
        config[key] = _coerce(key, value, defaults[key])
    return config


def sra_config_from(config: dict) -> SraConfig:
    """The ``SraConfig`` of the config's ``sra.*`` keys; a field without a
    key, one the command does not read, keeps its default."""
    return SraConfig(**{
        f.name: config[f"sra.{f.name}"] for f in fields(SraConfig) if f"sra.{f.name}" in config
    })


# ---------------------------------------------------------------------------
# subcommand bodies: each takes (config, seed) and returns (exit_code, metrics)


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
    ``sra.fixed_grid``, on maps of the harness's ``CHANNELS``."""
    cfg = sra_config_from(config)
    rng = stream_rng(seed, "sampler-ablation")
    grids = []
    for _ in range(SAMPLER_BOXES):
        x0, y0 = rng.uniform(0, 30, 2)
        box = RoIBox(x0, y0, x0 + rng.uniform(1, 60), y0 + rng.uniform(1, 60))
        grids.append(choose_grid(box, cfg))
    areas = [grid.area for grid in grids]
    counts = Counter(f"{grid.h}x{grid.w}" for grid in grids)
    estimates = [flops_estimate(cfg, CHANNELS, grid) for grid in grids]
    per_roi = float(np.mean([est.per_roi for est in estimates]))
    return 0, {
        "mode": "dynamic" if cfg.fixed_grid is None else "fixed",
        "budget": cfg.budget,
        "mean_grid_area": float(np.mean(areas)),
        "max_grid_area": max(areas),
        "budget_respected": max(areas) <= cfg.budget,
        "distinct_grids": len(counts),
        "top_grids": counts.most_common(8),
        "channels": CHANNELS,
        "parameter_count": parameter_count(cfg, CHANNELS),
        "multiply_adds_per_roi": per_roi,
        "multiply_adds_per_300_rois": 300 * per_roi,
        "breakdown": {
            key: float(np.mean([est.breakdown[key] for est in estimates]))
            for key in estimates[0].breakdown
        },
    }


def _compare(config: dict, seed: int, variants: Variants) -> tuple[int, dict]:
    """The harness run over ``variants`` at ``seed``, sized by the config."""
    return 0, compare_extractors(
        variants, [seed], n_per_class=config["data.n_per_class"], epochs=config["train.epochs"]
    )


def _modes(config: dict, field: str, modes: tuple[str, ...]) -> Variants:
    """One sra variant per value of the SraConfig ``field``, named by it."""
    base = sra_config_from(config)
    # concatenation cannot follow a dynamic grid; pin the fixed size unless one is set
    pins = {"concatenation": {"fixed_grid": base.fixed_grid or FIXED_GRID}}
    return {mode: ("sra", replace(base, **{field: mode}, **pins.get(mode, {}))) for mode in modes}


def cmd_ablate_descriptor(config: dict, seed: int) -> tuple[int, dict]:
    return _compare(config, seed, _modes(config, "descriptor_mode",
                                         ("average", "maximum", "concatenation")))


def cmd_ablate_embedding(config: dict, seed: int) -> tuple[int, dict]:
    return _compare(config, seed, _modes(config, "embedding_mode", ("none", "position", "area")))


def cmd_train_toy(config: dict, seed: int) -> tuple[int, dict]:
    cfg = sra_config_from(config)
    return _compare(config, seed, {"sra": ("sra", cfg), "roi_align": ("roi_align", cfg)})


class Command(NamedTuple):
    handler: Callable[[dict, int], tuple[int, dict]]
    sections: tuple[str, ...]  # the SECTIONS it reads
    own: dict[str, object]  # its own keys, and section defaults it overrides or drops


# an own value that drops a section key the command does not read: an
# ablation runs every value of the key it varies, and ablate-sampler's grid
# statistics and cost model never read sra.gamma; a value set for it would
# be ignored
UNREAD = object()
ABLATION_SIZES = {"train.epochs": 10, "data.n_per_class": 75}

# each command accepts, and its report embeds, exactly the keys of its row
COMMANDS: dict[str, Command] = {
    "oracles": Command(cmd_oracles, (), {}),
    "ablate-sampler": Command(cmd_ablate_sampler, ("sra",), {"sra.gamma": UNREAD}),
    "ablate-descriptor": Command(cmd_ablate_descriptor, tuple(SECTIONS),
                                 {**ABLATION_SIZES, "sra.descriptor_mode": UNREAD}),
    "ablate-embedding": Command(cmd_ablate_embedding, tuple(SECTIONS),
                                {**ABLATION_SIZES, "sra.embedding_mode": UNREAD}),
    "train-toy": Command(cmd_train_toy, tuple(SECTIONS), {}),
}


# ---------------------------------------------------------------------------
# driver

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
GIT_DIR = Path(__file__).resolve().parents[2] / ".git"


def git_revision(git: Path = GIT_DIR) -> str | None:
    """The commit HEAD names in the ``.git`` directory of this source
    checkout, read without running git; None outside a checkout."""
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    """What a report's numbers ran on: Python, numpy and its BLAS, the CPUs
    this process may use, the BLAS thread pins set in the environment (None
    where unset) and the git revision."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpus": _cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_revision": git_revision(),
    }


def _seed(value: str) -> int:
    """A ``--seed``: a non-negative int, as numpy's generators take."""
    if not value.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative int, got {value!r}")
    return int(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="semroi", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override one config key")
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--out", default="reports")
    return parser


def run(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = resolve_config(args.subcommand, args.overrides)
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
        "env": environment(),
        "metrics": metrics,
    }
    path = write_report(out_dir / f"{args.subcommand}.json", payload)
    status = "ok" if code == 0 else "FAILED"
    print(f"{args.subcommand}: {status} (report: {path})")
    if code != 0:
        _explain_failure(args.subcommand, metrics)
    return code


def _explain_failure(subcommand: str, metrics: dict) -> None:
    if subcommand == "oracles":
        for entry in metrics["checks"]:
            if not entry["passed"]:
                print(f"  failing oracle: {entry['name']} (err {entry['max_err']:.3e})"
                      f" {entry['detail']}".rstrip(), file=sys.stderr)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
