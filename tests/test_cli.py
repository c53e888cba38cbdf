import json
from dataclasses import fields
from pathlib import Path

import pytest

from semroi.cli import (
    COMMANDS, SAMPLER_BOXES, SECTIONS, resolve_config, run, sra_config_from, UsageError,
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
    "--set", "eval.invariance_samples=4",
    "--set", "eval.diversity_samples=3",
]


def load_report(out_dir, name):
    return json.loads((out_dir / f"{name}.json").read_text())


def test_defaults_reproduce_reference_settings():
    config = resolve_config("train-toy", None, [])
    cfg = sra_config_from(config)
    assert (cfg.n_masks, cfg.budget, cfg.descriptor_dim, cfg.gamma) == (49, 128, 256, 50.0)
    # the sra.* keys are exactly the dataclass fields
    assert cfg == SraConfig()
    assert {k for k in config if k.startswith("sra.")} == {
        f"sra.{f.name}" for f in fields(SraConfig)
    }
    pinned = resolve_config("train-toy", None, ["sra.fixed_grid=6x5"])
    assert sra_config_from(pinned).fixed_grid == (6, 5)


def test_unknown_config_key_rejected():
    with pytest.raises(UsageError, match="unknown config key"):
        resolve_config("oracles", None, ["bogus.key=1"])


def test_removed_keys_and_flags_exit_2(tmp_path, capsys, monkeypatch):
    from semroi import cli

    monkeypatch.setattr(cli, "harness_dataset", _fail_if_run)
    assert run(["train-toy", "--out", str(tmp_path), "--set", "sra.independent_heads=true"]) == 2
    assert "unknown config key 'sra.independent_heads'" in capsys.readouterr().err
    assert run(["ablate-sampler", "--out", str(tmp_path), "--mode", "fixed"]) == 2
    assert run(["ablate-sampler", "--out", str(tmp_path), "--set", "sampler.mode=fixed"]) == 2
    assert "unknown config key 'sampler.mode'" in capsys.readouterr().err
    assert run(["bench", "--out", str(tmp_path)]) == 2
    assert run(["invariance", "--out", str(tmp_path)]) == 2
    assert "invalid choice: 'invariance'" in capsys.readouterr().err
    assert run(["ablate-sampler", "--out", str(tmp_path), "--format", "csv"]) == 2
    assert run(["gradcheck", "--out", str(tmp_path), "--set", "gradcheck.tolerance=1"]) == 2
    assert "unknown config key 'gradcheck.tolerance'" in capsys.readouterr().err
    for command, key in (("ablate-sampler", "sampler.n_boxes"), ("diversity", "diversity.threshold"),
                         ("train-toy", "transform.rotation_max_deg")):
        assert run([command, "--out", str(tmp_path), "--set", f"{key}=1"]) == 2
        assert f"unknown config key '{key}'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# the config sections and own key prefixes each command reads, and so accepts
ACCEPTED_PREFIXES = {
    "gradcheck": {"gradcheck"},
    "oracles": set(),
    "ablate-sampler": {"sra", "data"},
    "ablate-descriptor": {"sra", "data", "train"},
    "ablate-embedding": {"sra", "data", "train"},
    "train-toy": {"sra", "data", "train", "eval"},
    "diversity": {"sra", "data", "train", "eval"},
}


def test_command_table_pins_accepted_key_prefixes():
    assert set(COMMANDS) == set(ACCEPTED_PREFIXES)
    for name, prefixes in ACCEPTED_PREFIXES.items():
        config = resolve_config(name, None, [])
        assert {key.split(".")[0] for key in config} == prefixes, name
    assert "train.kind" in resolve_config("train-toy", None, [])
    assert "train.kind" not in resolve_config("diversity", None, [])
    # a row leaves out the section keys its command does not read
    assert "eval.invariance_samples" not in resolve_config("diversity", None, [])
    assert [k for k in resolve_config("ablate-sampler", None, []) if k.startswith("data.")] == [
        "data.channels"
    ]
    assert sum(len(resolve_config(name, None, [])) for name in COMMANDS) == 75


def _table_first_cells(text, header):
    """The first cell of each row of the markdown table under ``header``."""
    lines = text[text.index(header):].splitlines()[2:]
    return [line.split("|")[1].strip() for line in lines[: lines.index("")]]


def test_readme_cli_tables_match_the_command_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cli_doc = readme[readme.index("## CLI"):]
    cli_doc = cli_doc[: cli_doc.index("\n## ", 1)]
    sections = _table_first_cells(cli_doc, "| section |")
    assert sorted(sections) == sorted(f"`{name}`" for name in SECTIONS)
    commands = _table_first_cells(cli_doc, "| command |")
    assert sorted(c.strip("`") for cell in commands for c in cell.split(", ")) == sorted(COMMANDS)
    for name, row in COMMANDS.items():
        for key in row.own:
            assert f"`{key}`" in cli_doc, (name, key)
    # every usage line in the section's code blocks runs a command of the table
    assert _usage_commands(cli_doc)
    assert _stale_usage_lines(cli_doc) == []


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
        config = resolve_config(name, None, [])
        assert (config["train.epochs"], config["data.n_per_class"]) == (10, 75)


def test_key_the_command_does_not_read_exits_2(capsys):
    assert run(["gradcheck", "--set", "sra.n_masks=7"]) == 2
    assert "sra.n_masks" in capsys.readouterr().err


def test_gradcheck_report_embeds_only_its_own_keys(tmp_path, capsys):
    assert run(["gradcheck", "--set", "gradcheck.seeds=1", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert load_report(tmp_path, "gradcheck")["config"] == {"gradcheck.seeds": 1}


def test_gradcheck_fails_when_a_report_fails(tmp_path, capsys, monkeypatch):
    # the command's verdict is the check's own, at numerics.GRADCHECK_TOLERANCE
    from semroi import numerics

    monkeypatch.setattr(numerics, "GRADCHECK_TOLERANCE", 1e-12)
    assert run(["gradcheck", "--set", "gradcheck.seeds=1", "--out", str(tmp_path)]) == 1
    capsys.readouterr()
    metrics = load_report(tmp_path, "gradcheck")["metrics"]
    assert not metrics["passed"] and metrics["tolerance"] == 1e-12


@pytest.mark.parametrize("value", [2.5, True, "3"])
def test_config_file_value_of_the_wrong_type_exits_2(value, tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"data.channels": value}))
    assert run(["ablate-sampler", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
    assert "data.channels" in capsys.readouterr().err


def test_config_file_int_stands_for_a_float(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"sra.gamma": 50}))
    assert run(["ablate-sampler", "--config", str(cfg_file), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    config = load_report(tmp_path, "ablate-sampler")["config"]
    assert config["sra.gamma"] == 50.0
    assert isinstance(config["sra.gamma"], float)


def test_fixed_grid_is_typed_in_reports(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"sra.fixed_grid": [6, 5]}))
    assert resolve_config("ablate-sampler", str(cfg_file), [])["sra.fixed_grid"] == (6, 5)
    assert (resolve_config("ablate-sampler", str(cfg_file), ["sra.fixed_grid=none"])
            ["sra.fixed_grid"] is None)
    assert run(["ablate-sampler", "--out", str(tmp_path), "--set", "sra.fixed_grid=4x3"]) == 0
    capsys.readouterr()
    assert load_report(tmp_path, "ablate-sampler")["config"]["sra.fixed_grid"] == [4, 3]


# a config file's grid is a two-int list or null; only --set parses a string
@pytest.mark.parametrize("value", [[2.7, 3], [True, 5], ["4", 4], "4x3", "none", ""])
def test_config_file_grid_side_of_the_wrong_type_exits_2(value, tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"sra.fixed_grid": value}))
    assert run(["ablate-sampler", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
    assert "sra.fixed_grid" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["ablate-descriptor", "ablate-embedding"])
def test_ablations_train_with_the_config_they_report(subcommand, tmp_path, capsys, monkeypatch):
    from semroi import cli

    calls = []

    def recorded(kind, config, train_set, epochs, **kwargs):
        calls.append((epochs, len(train_set)))
        return "state", [{"train_accuracy": 0.5, "train_loss": 1.0}]

    def scored(state, test_set):
        calls.append((state, len(test_set)))
        return 0.5

    monkeypatch.setattr(cli, "train_toy", recorded)
    monkeypatch.setattr(cli, "accuracy", scored)
    code = run([subcommand, "--out", str(tmp_path), "--set", "train.epochs=1",
                "--set", "data.n_per_class=6"])
    capsys.readouterr()
    assert code == 0
    # 4 classes x 6: 16 train instances, and each trained variant scores the
    # 8 test instances once
    assert calls == [(1, 16), ("state", 8)] * 3
    config = load_report(tmp_path, subcommand)["config"]
    assert (config["train.epochs"], config["data.n_per_class"]) == (1, 6)


# every int key is a count; each with the cheapest command that reads it
INT_KEYS = [
    ("gradcheck", "gradcheck.seeds"),
    ("ablate-sampler", "sra.n_masks"),
    ("ablate-sampler", "sra.budget"),
    ("ablate-sampler", "sra.descriptor_dim"),
    ("ablate-sampler", "sra.embed_channels"),
    ("ablate-sampler", "sra.hidden"),
    ("ablate-descriptor", "data.n_classes"),
    ("ablate-descriptor", "data.n_per_class"),
    ("ablate-sampler", "data.channels"),
    ("ablate-descriptor", "train.epochs"),
    ("train-toy", "eval.invariance_samples"),
    ("diversity", "eval.diversity_samples"),
]

FLOAT_KEYS = [
    ("ablate-sampler", "sra.gamma"),
    ("ablate-descriptor", "train.lr"),
    ("ablate-descriptor", "train.momentum"),
]


def _fail_if_run(*args, **kwargs):
    pytest.fail("ran past the usage check")


def test_int_and_float_key_lists_cover_every_key():
    defaults = {k: v for name in COMMANDS for k, v in resolve_config(name, None, []).items()}
    # a --set string is parsed by calling its key's type, so no key may be a
    # bool (bool("false") is True)
    assert {type(v) for v in defaults.values()} == {int, float, str, type(None)}
    assert {k for k, v in defaults.items() if type(v) is int} == {k for _, k in INT_KEYS}
    assert {k for k, v in defaults.items() if type(v) is float} == {k for _, k in FLOAT_KEYS}


@pytest.mark.parametrize("subcommand,key", INT_KEYS)
def test_count_below_one_exits_2(subcommand, key, tmp_path, capsys, monkeypatch):
    from semroi import cli

    monkeypatch.setattr(cli, "harness_dataset", _fail_if_run)
    monkeypatch.setattr(cli, "full_pipeline_gradcheck", _fail_if_run)
    assert run([subcommand, "--out", str(tmp_path), "--set", f"{key}=0"]) == 2
    err = capsys.readouterr().err
    assert key in err and "at least 1" in err


@pytest.mark.parametrize("subcommand,key", FLOAT_KEYS)
def test_non_finite_float_exits_2(subcommand, key, tmp_path, capsys, monkeypatch):
    from semroi import cli

    monkeypatch.setattr(cli, "harness_dataset", _fail_if_run)
    monkeypatch.setattr(cli, "full_pipeline_gradcheck", _fail_if_run)
    for value in ("nan", "inf"):
        assert run([subcommand, "--out", str(tmp_path), "--set", f"{key}={value}"]) == 2
        err = capsys.readouterr().err
        assert key in err and "finite" in err


def test_single_class_dataset_exits_2(tmp_path, capsys):
    code = run(["ablate-descriptor", "--out", str(tmp_path), *TINY_ABLATE,
                "--set", "data.n_classes=1"])
    assert code == 2
    assert "2 classes" in capsys.readouterr().err


@pytest.mark.parametrize(
    "subcommand",
    ["train-toy", "diversity", "ablate-descriptor", "ablate-embedding"],
)
def test_one_instance_per_class_exits_2_before_rendering(subcommand, tmp_path, capsys,
                                                         monkeypatch):
    # the split would leave the train split empty
    from semroi import train

    monkeypatch.setattr(train, "generate_dataset", _fail_if_run)
    assert run([subcommand, "--out", str(tmp_path), "--set", "data.n_per_class=1"]) == 2
    assert "n_per_class" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["train-toy", "diversity"])
def test_single_mask_exits_2_before_training(subcommand, tmp_path, capsys, monkeypatch):
    # these commands measure mask diversity, which needs a pair of masks
    from semroi import cli, train

    monkeypatch.setattr(train, "train_toy", _fail_if_run)
    monkeypatch.setattr(cli, "train_toy", _fail_if_run)
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
    assert run(["gradcheck", "--set", "gradcheck.seeds"]) == 2
    capsys.readouterr()


def test_non_numeric_value_exits_2(capsys):
    assert run(["gradcheck", "--set", "gradcheck.seeds=abc"]) == 2
    assert "gradcheck.seeds" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["ablate-sampler"])
def test_invalid_sra_config_exits_2(subcommand, tmp_path, capsys):
    assert run([subcommand, "--out", str(tmp_path), "--set", "sra.budget=0"]) == 2
    assert "budget" in capsys.readouterr().err


def test_removed_invariance_families_key_exits_2_before_training(tmp_path, capsys, monkeypatch):
    from semroi import train

    monkeypatch.setattr(train, "train_toy", lambda *a, **k: pytest.fail("trained"))
    code = run(["train-toy", "--out", str(tmp_path),
                "--set", "invariance.families=rotation", *TINY_TRAIN])
    assert code == 2
    assert "unknown config key 'invariance.families'" in capsys.readouterr().err


def test_gradcheck_writes_passing_report(tmp_path, capsys):
    code = run(["gradcheck", "--seed", "7", "--set", "gradcheck.seeds=2",
                "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    doc = load_report(tmp_path, "gradcheck")
    assert doc["seed"] == 7
    assert doc["config"]["gradcheck.seeds"] == 2
    assert doc["metrics"]["passed"] is True
    assert doc["metrics"]["max_rel_err"] < 1e-4


def test_oracles_subcommand_green(tmp_path, capsys):
    code = run(["oracles", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    doc = load_report(tmp_path, "oracles")
    assert all(entry["passed"] for entry in doc["metrics"]["checks"])


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


def test_ablate_descriptor_covers_all_modes(tmp_path, capsys):
    code = run(["ablate-descriptor", "--out", str(tmp_path), *TINY_ABLATE])
    capsys.readouterr()
    assert code == 0
    modes = load_report(tmp_path, "ablate-descriptor")["metrics"]["modes"]
    assert set(modes) == {"average", "maximum", "concatenation"}


def test_ablate_embedding_covers_all_modes(tmp_path, capsys):
    code = run(["ablate-embedding", "--out", str(tmp_path), *TINY_ABLATE])
    capsys.readouterr()
    assert code == 0
    modes = load_report(tmp_path, "ablate-embedding")["metrics"]["modes"]
    assert set(modes) == {"none", "position", "area"}


def test_train_toy_single_kind_writes_only_its_report(tmp_path, capsys):
    code = run(["train-toy", "--out", str(tmp_path), "--set", "train.kind=sra", *TINY_TRAIN])
    capsys.readouterr()
    assert code == 0
    assert [p.name for p in tmp_path.iterdir()] == ["train-toy.json"]
    metrics = load_report(tmp_path, "train-toy")["metrics"]
    assert set(metrics) == {"kind", "history", "test_accuracy"}
    assert metrics["kind"] == "sra"
    assert [set(h) for h in metrics["history"]] == [{"epoch", "train_loss", "train_accuracy"}]
    assert 0.0 <= metrics["test_accuracy"] <= 1.0


def test_train_toy_single_kind_trains_on_the_both_dataset(tmp_path, capsys):
    # one seed, one dataset: train.kind=sra reproduces the sra half of both
    tiny = [*TINY_TRAIN, "--set", "train.epochs=2"]
    assert run(["train-toy", "--out", str(tmp_path / "sra"), "--set", "train.kind=sra", *tiny]) == 0
    assert run(["train-toy", "--out", str(tmp_path / "both"), *tiny]) == 0
    capsys.readouterr()
    single = load_report(tmp_path / "sra", "train-toy")["metrics"]
    both = load_report(tmp_path / "both", "train-toy")["metrics"]["runs"][0]["sra"]
    assert [h["train_loss"] for h in single["history"]] == both["loss_curve"]
    assert single["test_accuracy"] == both["final_test_accuracy"]


def test_train_toy_both_reports_every_family(tmp_path, capsys):
    # train-toy both is the one command that reports the invariance protocol
    from semroi.evaluate import TRANSFORM_FAMILIES

    code = run(["train-toy", "--out", str(tmp_path), *TINY_TRAIN])
    capsys.readouterr()
    assert code == 0
    metrics = load_report(tmp_path, "train-toy")["metrics"]
    run0 = metrics["runs"][0]
    for kind, label in (("sra", "sra"), ("roi_align", "align")):
        cosines = run0[kind]["invariance"]
        assert list(cosines) == list(TRANSFORM_FAMILIES)
        for family, value in cosines.items():
            assert -1.0 <= value <= 1.0 + 1e-12, (kind, family)
            assert metrics["summary"][f"mean_{label}_{family}_cosine"] == value


def test_diversity_renders_no_test_split(tmp_path, capsys, monkeypatch):
    # diversity trains on the train split and scores no test split, so it
    # re-poses nothing for one
    from semroi import train

    monkeypatch.setattr(train, "apply_transforms", _fail_if_run)
    i = TINY_TRAIN.index("eval.invariance_samples=4")
    code = run(["diversity", "--out", str(tmp_path), *TINY_TRAIN[: i - 1], *TINY_TRAIN[i + 1 :]])
    capsys.readouterr()
    assert code == 0


def test_diversity_report_structure(tmp_path, capsys):
    # diversity does not read eval.invariance_samples, so it rejects it
    i = TINY_TRAIN.index("eval.invariance_samples=4")
    code = run(["diversity", "--out", str(tmp_path), *TINY_TRAIN[: i - 1], *TINY_TRAIN[i + 1 :]])
    capsys.readouterr()
    assert code == 0
    doc = load_report(tmp_path, "diversity")
    assert 0.0 <= doc["metrics"]["fraction_below"] <= 1.0
    assert doc["metrics"]["threshold"] == 0.3


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


def test_config_file_merging(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"data.channels": 8, "sra.budget": 32}))
    run(["ablate-sampler", "--config", str(cfg_file), "--out", str(tmp_path),
         "--set", "sra.budget=64"])
    capsys.readouterr()
    doc = load_report(tmp_path, "ablate-sampler")
    assert doc["config"]["data.channels"] == 8
    assert doc["config"]["sra.budget"] == 64  # --set wins over the file
