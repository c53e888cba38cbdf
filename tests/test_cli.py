import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from semroi.cli import (
    BLAS_THREAD_VARS, COMMANDS, SAMPLER_BOXES, SECTIONS, UNREAD, git_revision, resolve_config,
    run, sra_config_from, UsageError,
)
from semroi.core import SraConfig, parameter_count

TINY_TRAIN = [
    "--set", "sra.n_masks=4",
    "--set", "sra.budget=16",
    "--set", "sra.descriptor_dim=6",
    "--set", "sra.embed_channels=3",
    "--set", "sra.hidden=5",
    "--set", "data.n_per_class=6",
    "--set", "train.epochs=1",
]


@pytest.fixture(autouse=True)
def small_protocol(monkeypatch):
    """The invariance and diversity sample counts, shrunk for speed."""
    from semroi import evaluate

    monkeypatch.setattr(evaluate, "INVARIANCE_SAMPLES", 4)
    monkeypatch.setattr(evaluate, "DIVERSITY_SAMPLES", 3)


def load_report(out_dir, name):
    return json.loads((out_dir / f"{name}.json").read_text())


def test_defaults_reproduce_reference_settings():
    config = resolve_config("train-toy", [])
    cfg = sra_config_from(config)
    assert (cfg.n_masks, cfg.budget, cfg.descriptor_dim, cfg.gamma) == (49, 128, 256, 50.0)
    # the sra.* keys are exactly the dataclass fields
    assert cfg == SraConfig()
    assert {k for k in config if k.startswith("sra.")} == {
        f"sra.{f.name}" for f in fields(SraConfig)
    }
    pinned = resolve_config("train-toy", ["sra.fixed_grid=6x5"])
    assert sra_config_from(pinned).fixed_grid == (6, 5)


def test_unknown_config_key_rejected():
    with pytest.raises(UsageError, match="unknown config key"):
        resolve_config("oracles", ["bogus.key=1"])


# the recipe's constants in train and oracles, once keys of every command
REMOVED_KEYS = ("data.n_classes", "data.channels", "train.lr", "train.momentum",
                "gradcheck.seeds")


def test_removed_keys_and_flags_exit_2(tmp_path, capsys, monkeypatch, renders):
    from semroi import cli, train

    monkeypatch.setattr(train, "harness_dataset", _fail_if_run)
    monkeypatch.setattr(cli, "run_all", _fail_if_run)
    for command in ("train-toy", "ablate-descriptor", "ablate-embedding", "ablate-sampler",
                    "oracles"):
        assert run([command, "--out", str(tmp_path), "--config", "cfg.json"]) == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        for key in REMOVED_KEYS:
            assert run([command, "--out", str(tmp_path), "--set", f"{key}=1"]) == 2
            assert f"unknown config key '{key}'" in capsys.readouterr().err
    assert run(["train-toy", "--out", str(tmp_path), "--set", "sra.independent_heads=true"]) == 2
    assert "unknown config key 'sra.independent_heads'" in capsys.readouterr().err
    assert run(["ablate-sampler", "--out", str(tmp_path), "--mode", "fixed"]) == 2
    assert run(["ablate-sampler", "--out", str(tmp_path), "--set", "sampler.mode=fixed"]) == 2
    assert "unknown config key 'sampler.mode'" in capsys.readouterr().err
    assert run(["bench", "--out", str(tmp_path)]) == 2
    for removed in ("invariance", "diversity", "gradcheck"):
        assert run([removed, "--out", str(tmp_path)]) == 2
        assert f"invalid choice: '{removed}'" in capsys.readouterr().err
    assert run(["ablate-sampler", "--out", str(tmp_path), "--format", "csv"]) == 2
    assert run(["oracles", "--out", str(tmp_path), "--set", "gradcheck.tolerance=1"]) == 2
    assert "unknown config key 'gradcheck.tolerance'" in capsys.readouterr().err
    for command, key in (("ablate-sampler", "sampler.n_boxes"), ("train-toy", "diversity.threshold"),
                         ("train-toy", "transform.rotation_max_deg"),
                         ("train-toy", "eval.invariance_samples"),
                         ("train-toy", "eval.diversity_samples"),
                         ("ablate-descriptor", "sra.descriptor_mode"),
                         ("ablate-embedding", "sra.embedding_mode"),
                         ("ablate-sampler", "sra.gamma")):
        assert run([command, "--out", str(tmp_path), "--set", f"{key}=1"]) == 2
        assert f"unknown config key '{key}'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    assert renders == []


# the config sections and own key prefixes each command reads, and so accepts
ACCEPTED_PREFIXES = {
    "oracles": set(),
    "ablate-sampler": {"sra"},
    "ablate-descriptor": {"sra", "data", "train"},
    "ablate-embedding": {"sra", "data", "train"},
    "train-toy": {"sra", "data", "train"},
}


def test_command_table_pins_accepted_key_prefixes():
    assert set(COMMANDS) == set(ACCEPTED_PREFIXES)
    for name, prefixes in ACCEPTED_PREFIXES.items():
        config = resolve_config(name, [])
        assert {key.split(".")[0] for key in config} == prefixes, name
    counts = {name: len(resolve_config(name, [])) for name in COMMANDS}
    assert counts == {"oracles": 0, "ablate-sampler": 8,
                      "ablate-descriptor": 10, "ablate-embedding": 10, "train-toy": 11}
    assert sum(counts.values()) == 39


@pytest.mark.parametrize("subcommand,field,modes", [
    ("ablate-descriptor", "descriptor_mode", ("average", "maximum", "concatenation")),
    ("ablate-embedding", "embedding_mode", ("none", "position", "area")),
], ids=["ablate-descriptor", "ablate-embedding"])
def test_an_ablation_does_not_accept_the_key_it_varies(subcommand, field, modes, tmp_path,
                                                       capsys, monkeypatch):
    # it trains every mode of the field, so a value set for it would be
    # ignored, and a report that embeds it would misstate the run
    from semroi import train

    monkeypatch.setattr(train, "train_toy", _fail_if_run)
    assert f"sra.{field}" not in resolve_config(subcommand, [])
    for mode in modes:
        assert run([subcommand, "--out", str(tmp_path), "--set", f"sra.{field}={mode}"]) == 2
        assert f"unknown config key 'sra.{field}'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# a valid non-default value of each key ablate-sampler accepts, and the
# arguments of the run it is compared against; average and maximum
# descriptors cost the same, so concatenation is compared at its fixed grid
SAMPLER_KEY_CHANGES = {
    "sra.n_masks": (["sra.n_masks=7"], []),
    "sra.budget": (["sra.budget=64"], []),
    "sra.descriptor_dim": (["sra.descriptor_dim=64"], []),
    "sra.embed_channels": (["sra.embed_channels=8"], []),
    "sra.hidden": (["sra.hidden=64"], []),
    "sra.descriptor_mode": (["sra.descriptor_mode=concatenation", "sra.fixed_grid=8x8"],
                            ["sra.fixed_grid=8x8"]),
    "sra.embedding_mode": (["sra.embedding_mode=none"], []),
    "sra.fixed_grid": (["sra.fixed_grid=8x8"], []),
}


def test_every_key_ablate_sampler_accepts_moves_its_metrics(tmp_path, capsys):
    # a key accepted and then ignored would make the report misstate the run
    assert set(resolve_config("ablate-sampler", [])) == set(SAMPLER_KEY_CHANGES)

    def metrics(name, sets):
        out = tmp_path / name
        args = [arg for item in sets for arg in ("--set", item)]
        assert run(["ablate-sampler", "--out", str(out), *args]) == 0
        capsys.readouterr()
        return load_report(out, "ablate-sampler")["metrics"]

    for key, (changed, base) in SAMPLER_KEY_CHANGES.items():
        assert metrics(f"{key}-changed", changed) != metrics(f"{key}-base", base), key


def _table_rows(text, header):
    """The cells of each row of the markdown table under ``header``."""
    lines = text[text.index(header):].splitlines()[2:]
    return [[cell.strip() for cell in line.split("|")[1:-1]] for line in lines[: lines.index("")]]


def test_readme_cli_tables_match_the_command_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cli_doc = readme[readme.index("## CLI"):]
    cli_doc = cli_doc[: cli_doc.index("\n## ", 1)]
    # each section's row lists its keys, each with its default
    sections = {name.strip("`"): _key_defaults(keys)
                for name, keys in _table_rows(cli_doc, "| section |")}
    assert sections == {
        name: {key.split(".", 1)[1]: _readme_value(value) for key, value in keys.items()}
        for name, keys in SECTIONS.items()
    }
    rows = _table_rows(cli_doc, "| command |")
    assert sorted(c.strip("`") for row in rows for c in row[0].split(", ")) == sorted(COMMANDS)
    # each row's sections column names the sections its commands read, and
    # its own-keys column each own key with its default, or as not read
    for cell, read, own in rows:
        for name in cell.split(", "):
            row = COMMANDS[name.strip("`")]
            assert read == (", ".join(f"`{s}`" for s in row.sections) or "none"), name
            assert _key_defaults(own) == {
                key: _readme_value(value) for key, value in row.own.items() if value is not UNREAD
            }, name
            for key, value in row.own.items():
                assert (f"not `{key}`" in own) == (value is UNREAD), (name, key)
    # every usage line in the section's code blocks runs a command of the table
    assert _usage_commands(cli_doc)
    assert _stale_usage_lines(cli_doc) == []


def _key_defaults(cell):
    """Each backticked key of a README table cell and the default after it."""
    return dict(re.findall(r"`([\w.]+)` ([^\s,;]+)", cell))


def _readme_value(value):
    return "none" if value is None else str(value)


def test_readme_key_check_catches_a_stale_default():
    cell = "`train.epochs` 10, `data.n_per_class` 75; not `sra.descriptor_mode`, which it varies"
    assert _key_defaults(cell) == {"train.epochs": "10", "data.n_per_class": "75"}
    row = COMMANDS["ablate-descriptor"]
    want = {key: _readme_value(value) for key, value in row.own.items() if value is not UNREAD}
    assert _key_defaults(cell) == want
    assert _key_defaults(cell.replace("` 10", "` 12")) != want
    assert _key_defaults("`lr` 0.02") != {
        key.split(".", 1)[1]: _readme_value(value) for key, value in SECTIONS["train"].items()
    }


def test_help_text_lists_the_command_table():
    # the module docstring is argparse's --help description
    from semroi import cli

    listed = cli.__doc__.split("Subcommands:")[1].split(".")[0]
    assert [name.strip() for name in listed.split(",")] == list(COMMANDS)


def _usage_commands(doc):
    """The command each ``semroi <command>`` line of ``doc``'s code blocks runs."""
    return [
        line.split()[1]
        for block in doc.split("```")[1::2]
        for line in block.splitlines()
        if line.startswith("semroi ")
    ]


def _stale_usage_lines(doc):
    return [name for name in _usage_commands(doc) if name not in COMMANDS]


def test_readme_usage_check_catches_a_removed_command():
    doc = "text\n```\nsemroi train-toy --out runs\nsemroi invariance --out runs\n```\n" \
          "semroi bench is prose, outside a block\n"
    assert _usage_commands(doc) == ["train-toy", "invariance"]
    assert _stale_usage_lines(doc) == ["invariance"]


def test_ablations_default_to_their_own_epochs_and_dataset_size():
    for name in ("ablate-descriptor", "ablate-embedding"):
        config = resolve_config(name, [])
        assert (config["train.epochs"], config["data.n_per_class"]) == (10, 75)


def test_key_the_command_does_not_read_exits_2(capsys):
    assert run(["oracles", "--set", "sra.n_masks=7"]) == 2
    assert "sra.n_masks" in capsys.readouterr().err


def test_oracles_report_embeds_only_its_own_keys(tmp_path, capsys, monkeypatch):
    from semroi import oracles

    monkeypatch.setattr(oracles, "GRADCHECK_SEEDS", 1)
    assert run(["oracles", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert load_report(tmp_path, "oracles")["config"] == {}


def test_oracles_gradcheck_fails_at_the_gradcheck_tolerance(tmp_path, capsys, monkeypatch):
    # the pipeline_gradcheck verdict is the check's own, at numerics.GRADCHECK_TOLERANCE
    from semroi import numerics, oracles

    monkeypatch.setattr(numerics, "GRADCHECK_TOLERANCE", 1e-12)
    monkeypatch.setattr(oracles, "GRADCHECK_SEEDS", 1)
    assert run(["oracles", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "failing oracle: pipeline_gradcheck" in err and "worst at seed 0" in err
    metrics = load_report(tmp_path, "oracles")["metrics"]
    assert not metrics["passed"]
    assert [e["name"] for e in metrics["checks"] if not e["passed"]] == ["pipeline_gradcheck"]


def test_fixed_grid_is_typed_in_reports(tmp_path, capsys):
    assert resolve_config("ablate-sampler", ["sra.fixed_grid=6x5"])["sra.fixed_grid"] == (6, 5)
    assert (resolve_config("ablate-sampler", ["sra.fixed_grid=6x5", "sra.fixed_grid=none"])
            ["sra.fixed_grid"] is None)
    assert run(["ablate-sampler", "--out", str(tmp_path), "--set", "sra.fixed_grid=4x3"]) == 0
    capsys.readouterr()
    assert load_report(tmp_path, "ablate-sampler")["config"]["sra.fixed_grid"] == [4, 3]


@pytest.mark.parametrize("value", ["4", "4x", "4x3x2", "2.7x3", "ax3", "0x3"])
def test_malformed_grid_exits_2(value, tmp_path, capsys):
    assert run(["ablate-sampler", "--out", str(tmp_path), "--set", f"sra.fixed_grid={value}"]) == 2
    assert "sra.fixed_grid" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("subcommand", ["ablate-descriptor", "ablate-embedding"])
def test_ablations_train_with_the_config_they_report(subcommand, tmp_path, capsys, monkeypatch):
    from semroi import train

    calls = []
    fit, score = train.train_toy, train.accuracy

    def recorded(kind, config, train_set, epochs, **kwargs):
        calls.append((epochs, len(train_set)))
        return fit(kind, config, train_set, epochs, **kwargs)

    def scored(state, test_set):
        calls.append(("scored", len(test_set)))
        return score(state, test_set)

    monkeypatch.setattr(train, "train_toy", recorded)
    monkeypatch.setattr(train, "accuracy", scored)
    code = run([subcommand, "--out", str(tmp_path), *TINY_ABLATE])
    capsys.readouterr()
    assert code == 0
    # 4 classes x 6: 16 train instances, and each trained variant scores the
    # 8 test instances once
    assert calls == [(1, 16), ("scored", 8)] * 3
    config = load_report(tmp_path, subcommand)["config"]
    assert (config["train.epochs"], config["data.n_per_class"]) == (1, 6)


@pytest.mark.parametrize("grid", [None, (4, 3)], ids=["unset", "4x3"])
def test_ablate_descriptor_pins_a_grid_only_when_none_is_set(grid, tmp_path, capsys, monkeypatch):
    # concatenation needs a fixed grid: FIXED_GRID when none is set, else
    # the one the report embeds, as the other two modes use
    from semroi import train
    from semroi.sampler import FIXED_GRID

    grids = []
    fit = train.train_toy

    def recorded(kind, config, *args, **kwargs):
        grids.append((config.descriptor_mode, config.fixed_grid))
        return fit(kind, config, *args, **kwargs)

    monkeypatch.setattr(train, "train_toy", recorded)
    args = ["--set", "sra.fixed_grid=4x3"] if grid else []
    assert run(["ablate-descriptor", "--out", str(tmp_path), *TINY_ABLATE, *args]) == 0
    capsys.readouterr()
    assert grids == [("average", grid), ("maximum", grid), ("concatenation", grid or FIXED_GRID)]
    reported = load_report(tmp_path, "ablate-descriptor")["config"]["sra.fixed_grid"]
    assert reported == (list(grid) if grid else None)


# every int key is a count; each with the cheapest command that reads it
INT_KEYS = [
    ("ablate-sampler", "sra.n_masks"),
    ("ablate-sampler", "sra.budget"),
    ("ablate-sampler", "sra.descriptor_dim"),
    ("ablate-sampler", "sra.embed_channels"),
    ("ablate-sampler", "sra.hidden"),
    ("ablate-descriptor", "data.n_per_class"),
    ("ablate-descriptor", "train.epochs"),
]

FLOAT_KEYS = [
    ("train-toy", "sra.gamma"),
]


def _fail_if_run(*args, **kwargs):
    pytest.fail("ran past the usage check")


def test_int_and_float_key_lists_cover_every_key():
    defaults = {k: v for name in COMMANDS for k, v in resolve_config(name, []).items()}
    # a --set string is parsed by calling its key's type, so no key may be a
    # bool (bool("false") is True)
    assert {type(v) for v in defaults.values()} == {int, float, str, type(None)}
    assert {k for k, v in defaults.items() if type(v) is int} == {k for _, k in INT_KEYS}
    assert {k for k, v in defaults.items() if type(v) is float} == {k for _, k in FLOAT_KEYS}


@pytest.mark.parametrize("subcommand,key", INT_KEYS)
def test_count_below_one_exits_2(subcommand, key, tmp_path, capsys, monkeypatch):
    from semroi import train

    monkeypatch.setattr(train, "harness_dataset", _fail_if_run)
    assert run([subcommand, "--out", str(tmp_path), "--set", f"{key}=0"]) == 2
    err = capsys.readouterr().err
    assert key in err and "at least 1" in err


@pytest.mark.parametrize("subcommand,key", FLOAT_KEYS)
def test_non_finite_float_exits_2(subcommand, key, tmp_path, capsys, monkeypatch):
    from semroi import train

    monkeypatch.setattr(train, "harness_dataset", _fail_if_run)
    for value in ("nan", "inf"):
        assert run([subcommand, "--out", str(tmp_path), "--set", f"{key}={value}"]) == 2
        err = capsys.readouterr().err
        assert key in err and "finite" in err


@pytest.mark.parametrize(
    "subcommand",
    ["train-toy", "ablate-descriptor", "ablate-embedding"],
)
def test_one_instance_per_class_exits_2_before_rendering(subcommand, tmp_path, capsys,
                                                         monkeypatch):
    # the split would leave the train split empty
    from semroi import train

    monkeypatch.setattr(train, "generate_dataset", _fail_if_run)
    assert run([subcommand, "--out", str(tmp_path), "--set", "data.n_per_class=1"]) == 2
    assert "n_per_class" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["train-toy", "ablate-descriptor", "ablate-embedding"])
def test_single_mask_exits_2_before_training(subcommand, tmp_path, capsys, monkeypatch):
    # every sra variant's mask diversity is measured, which needs a pair of masks
    from semroi import train

    monkeypatch.setattr(train, "train_toy", _fail_if_run)
    assert run([subcommand, "--out", str(tmp_path), "--set", "sra.n_masks=1"]) == 2
    assert "2 masks" in capsys.readouterr().err


def test_unusable_out_exits_2_before_running(tmp_path, capsys, monkeypatch):
    from semroi import cli

    monkeypatch.setattr(cli, "run_all", _fail_if_run)
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        assert run(["oracles", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and str(out) in err


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_bad_set_value_exits_2(capsys):
    assert run(["ablate-sampler", "--set", "sra.n_masks"]) == 2
    assert "key=value" in capsys.readouterr().err


def test_non_numeric_value_exits_2(capsys):
    assert run(["ablate-sampler", "--set", "sra.n_masks=abc"]) == 2
    assert "sra.n_masks: expected int" in capsys.readouterr().err


# a --set string the key's type does not parse; no bool or float reads as an int
@pytest.mark.parametrize("subcommand,key,value", [
    ("ablate-sampler", "sra.n_masks", "2.5"), ("ablate-sampler", "sra.n_masks", "true"),
    ("ablate-sampler", "sra.n_masks", "1e3"),
    ("train-toy", "sra.gamma", "true"), ("train-toy", "sra.gamma", "50x"),
])
def test_set_value_of_the_wrong_type_exits_2(subcommand, key, value, tmp_path, capsys,
                                             monkeypatch):
    from semroi import train

    monkeypatch.setattr(train, "harness_dataset", _fail_if_run)
    assert run([subcommand, "--out", str(tmp_path), "--set", f"{key}={value}"]) == 2
    assert f"{key}: expected" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_set_int_string_for_a_float_key_is_a_float():
    gamma = resolve_config("train-toy", ["sra.gamma=50"])["sra.gamma"]
    assert gamma == 50.0 and isinstance(gamma, float)


def test_the_harness_recipe_is_read_from_train(tmp_path, capsys):
    # the sizes the CLI defaults to, and the channels the cost model prices,
    # are train's constants
    import inspect

    from semroi import train

    assert SECTIONS["data"] == {"data.n_per_class": train.N_PER_CLASS}
    assert SECTIONS["train"] == {"train.epochs": train.EPOCHS}
    params = inspect.signature(train.compare_extractors).parameters
    assert (params["n_per_class"].default, params["epochs"].default) == (
        train.N_PER_CLASS, train.EPOCHS)
    assert run(["ablate-sampler", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    doc = load_report(tmp_path, "ablate-sampler")
    assert doc["metrics"]["channels"] == train.CHANNELS
    assert doc["metrics"]["parameter_count"] == parameter_count(
        sra_config_from(doc["config"]), train.CHANNELS)


@pytest.mark.parametrize("subcommand", ["ablate-sampler"])
def test_invalid_sra_config_exits_2(subcommand, tmp_path, capsys):
    assert run([subcommand, "--out", str(tmp_path), "--set", "sra.budget=0"]) == 2
    assert "budget" in capsys.readouterr().err


def test_budget_above_the_sampler_bound_exits_2_without_a_report(tmp_path, capsys):
    assert run(["ablate-sampler", "--out", str(tmp_path), "--set", "sra.budget=131072"]) == 2
    assert "MAX_BUDGET=131071" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("subcommand", ["oracles", "train-toy"])
def test_negative_seed_exits_2_without_a_report(subcommand, tmp_path, capsys, monkeypatch):
    from semroi import cli

    monkeypatch.setattr(cli, "run_all", lambda seed: pytest.fail("ran the oracles"))
    monkeypatch.setattr(cli, "compare_extractors", lambda *a, **k: pytest.fail("trained"))
    assert run([subcommand, "--seed", "-1", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "argument --seed: expected a non-negative int, got '-1'" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key", ["invariance.families=rotation", "train.kind=sra"])
def test_removed_train_toy_key_exits_2_before_training(key, tmp_path, capsys, monkeypatch):
    from semroi import train

    monkeypatch.setattr(train, "train_toy", lambda *a, **k: pytest.fail("trained"))
    code = run(["train-toy", "--out", str(tmp_path), "--set", key, *TINY_TRAIN])
    assert code == 2
    assert f"unknown config key '{key.split('=')[0]}'" in capsys.readouterr().err


def test_oracles_gradcheck_reports_the_worst_seed(tmp_path, capsys, monkeypatch):
    from semroi import oracles

    monkeypatch.setattr(oracles, "GRADCHECK_SEEDS", 2)
    code = run(["oracles", "--seed", "7", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    doc = load_report(tmp_path, "oracles")
    assert doc["seed"] == 7
    (entry,) = [e for e in doc["metrics"]["checks"] if e["name"] == "pipeline_gradcheck"]
    reports = {s: oracles.full_pipeline_gradcheck(s) for s in (7, 8)}
    worst = max(reports, key=lambda s: reports[s].max_rel_err)
    assert entry["passed"] is True
    assert entry["max_err"] == reports[worst].max_rel_err < 1e-4
    assert entry["detail"] == f"2 seeds from 7; worst at seed {worst}: {reports[worst].worst}"


def test_oracles_subcommand_green(tmp_path, capsys, monkeypatch, gradcheck_reports):
    # the gradcheck's 20 reports come from the session's run of them; the
    # aggregation and every other check run here
    from semroi import oracles

    reports, _ = gradcheck_reports
    monkeypatch.setattr(oracles, "full_pipeline_gradcheck", lambda seed: reports[seed])
    code = run(["oracles", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    doc = load_report(tmp_path, "oracles")
    assert all(entry["passed"] for entry in doc["metrics"]["checks"])
    (entry,) = [e for e in doc["metrics"]["checks"] if e["name"] == "pipeline_gradcheck"]
    assert entry["detail"].startswith("20 seeds from 0;")
    assert entry["max_err"] == max(report.max_rel_err for report in reports.values())


def test_oracles_failure_exits_1(tmp_path, capsys, monkeypatch):
    from semroi import cli
    from semroi.oracles import OracleResult

    monkeypatch.setattr(
        cli, "run_all", lambda seed: [OracleResult("broken", False, 1.0, "forced")]
    )
    code = run(["oracles", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 1


def test_ablate_sampler_modes(tmp_path, capsys):
    out_fixed = tmp_path / "fixed"
    out_dyn = tmp_path / "dyn"
    assert run(["ablate-sampler", "--set", "sra.fixed_grid=8x8", "--out", str(out_fixed)]) == 0
    assert run(["ablate-sampler", "--out", str(out_dyn)]) == 0
    capsys.readouterr()
    fixed = load_report(out_fixed, "ablate-sampler")["metrics"]
    dyn = load_report(out_dyn, "ablate-sampler")["metrics"]
    assert (fixed["mode"], dyn["mode"]) == ("fixed", "dynamic")
    assert fixed["top_grids"] == [["8x8", SAMPLER_BOXES]]
    assert dyn["budget_respected"] is True
    assert dyn["max_grid_area"] <= dyn["budget"]
    assert dyn["distinct_grids"] > 1


def test_fixed_grid_over_budget_is_reported(tmp_path, capsys):
    assert run(["ablate-sampler", "--set", "sra.fixed_grid=8x8", "--out", str(tmp_path),
                "--set", "sra.budget=16"]) == 0
    capsys.readouterr()
    metrics = load_report(tmp_path, "ablate-sampler")["metrics"]
    assert metrics["max_grid_area"] == 64
    assert metrics["budget_respected"] is False


def test_ablate_sampler_honours_the_fixed_grid(tmp_path, capsys):
    assert run(["ablate-sampler", "--set", "sra.fixed_grid=4x3", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    metrics = load_report(tmp_path, "ablate-sampler")["metrics"]
    assert metrics["mode"] == "fixed"
    assert metrics["top_grids"] == [["4x3", SAMPLER_BOXES]]


TINY_ABLATE = TINY_TRAIN[:10] + ["--set", "train.epochs=1", "--set", "data.n_per_class=6"]


@pytest.mark.parametrize("subcommand,args,names", [
    ("train-toy", TINY_TRAIN, ("sra", "roi_align")),
    ("ablate-descriptor", TINY_ABLATE, ("average", "maximum", "concatenation")),
    ("ablate-embedding", TINY_ABLATE, ("none", "position", "area")),
], ids=["train-toy", "ablate-descriptor", "ablate-embedding"])
def test_harness_commands_report_every_variant_and_family(subcommand, args, names, tmp_path,
                                                          capsys):
    # the three commands run one protocol, so their reports have one shape
    from semroi.evaluate import TRANSFORM_FAMILIES

    code = run([subcommand, "--out", str(tmp_path), *args])
    capsys.readouterr()
    assert code == 0
    assert [p.name for p in tmp_path.iterdir()] == [f"{subcommand}.json"]
    metrics = load_report(tmp_path, subcommand)["metrics"]
    run0 = metrics["runs"][0]
    assert list(run0) == ["seed", *names]
    for name in names:
        cosines = run0[name]["invariance"]
        assert list(cosines) == list(TRANSFORM_FAMILIES)
        for family, value in cosines.items():
            assert -1.0 <= value <= 1.0 + 1e-12, (name, family)
            assert metrics["summary"][f"mean_{name}_{family}_cosine"] == value
        diversity = run0[name].get("mask_diversity_fraction")
        assert metrics["summary"].get(f"mean_{name}_mask_diversity_fraction") == diversity
        assert (diversity is None) == (name == "roi_align")


COST_MODEL = ["--set", "sra.descriptor_dim=16", "--set", "sra.hidden=8"]


def test_ablate_sampler_reports_cost_model(tmp_path, capsys):
    assert run(["ablate-sampler", "--out", str(tmp_path), *COST_MODEL]) == 0
    capsys.readouterr()
    doc = load_report(tmp_path, "ablate-sampler")
    metrics = doc["metrics"]
    assert metrics["multiply_adds_per_300_rois"] == 300 * metrics["multiply_adds_per_roi"]
    assert metrics["multiply_adds_per_roi"] == pytest.approx(sum(metrics["breakdown"].values()))
    assert metrics["parameter_count"] == parameter_count(sra_config_from(doc["config"]), 16)


def test_ablate_sampler_counts_the_chosen_grids(tmp_path, capsys, monkeypatch):
    from semroi import cli
    from semroi.evaluate import flops_estimate

    chosen = cli.choose_grid
    arms = {"fixed": ["--set", "sra.fixed_grid=8x8"], "dynamic": []}
    for arm, args in arms.items():
        grids = []

        def recorded(box, cfg):
            grids.append(chosen(box, cfg))
            return grids[-1]

        monkeypatch.setattr(cli, "choose_grid", recorded)
        out = tmp_path / arm
        assert run(["ablate-sampler", "--out", str(out), *COST_MODEL, *args]) == 0
        capsys.readouterr()
        doc = load_report(out, "ablate-sampler")
        assert doc["metrics"]["mode"] == arm
        assert len(grids) == SAMPLER_BOXES and (len(set(grids)) == 1) == (arm == "fixed")
        cfg = sra_config_from(doc["config"])
        want = [flops_estimate(cfg, doc["metrics"]["channels"], g).per_roi for g in grids]
        assert doc["metrics"]["multiply_adds_per_roi"] == pytest.approx(
            sum(want) / len(want), rel=1e-12)


def test_reports_embed_resolved_config_and_seed(tmp_path, capsys):
    run(["ablate-sampler", "--seed", "123", "--out", str(tmp_path), "--set", "sra.budget=64"])
    capsys.readouterr()
    doc = load_report(tmp_path, "ablate-sampler")
    assert doc["seed"] == 123
    assert doc["config"]["sra.budget"] == 64
    # identical invocation reproduces identical metrics
    other = tmp_path / "again"
    run(["ablate-sampler", "--seed", "123", "--out", str(other), "--set", "sra.budget=64"])
    capsys.readouterr()
    assert load_report(other, "ablate-sampler")["metrics"] == doc["metrics"]


def test_reports_carry_the_environment_stamp(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    run(["ablate-sampler", "--out", str(tmp_path)])
    capsys.readouterr()
    env = load_report(tmp_path, "ablate-sampler")["env"]
    assert set(env) == {"python", "numpy", "blas", "cpus", "blas_threads", "git_revision"}
    assert re.fullmatch(r"\d+\.\d+\.\d+\S*", env["python"])
    assert re.fullmatch(r"\d+\.\d+\S*", env["numpy"])
    assert set(env["blas"]) == {"name", "version"}
    assert all(v is None or isinstance(v, str) for v in env["blas"].values())
    assert isinstance(env["cpus"], int) and env["cpus"] >= 1
    assert list(env["blas_threads"]) == list(BLAS_THREAD_VARS)
    assert env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert env["blas_threads"]["MKL_NUM_THREADS"] is None
    rev = env["git_revision"]
    assert rev is None or re.fullmatch(r"[0-9a-f]{40}", rev)


def test_git_revision_reads_loose_and_packed_refs(tmp_path):
    assert git_revision(tmp_path / ".git") is None
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text("# pack-refs\n" + "a" * 40 + " refs/heads/main\n")
    assert git_revision(git) == "a" * 40
    (git / "refs" / "heads" / "main").write_text("b" * 40 + "\n")
    assert git_revision(git) == "b" * 40
    (git / "HEAD").write_text("c" * 40 + "\n")
    assert git_revision(git) == "c" * 40
