import json
from dataclasses import fields

import pytest

from semroi.cli import ranges_from, resolve_config, run, sra_config_from, UsageError
from semroi.core import SraConfig
from semroi.synthetic import TransformRanges

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
    # the sra.* and transform.* keys are exactly the dataclass fields
    assert cfg == SraConfig()
    assert ranges_from(config) == TransformRanges()
    for prefix, cls in (("sra", SraConfig), ("transform", TransformRanges)):
        assert {k for k in config if k.startswith(prefix + ".")} == {
            f"{prefix}.{f.name}" for f in fields(cls)
        }
    pinned = resolve_config("train-toy", None, ["sra.fixed_grid=6x5"])
    assert sra_config_from(pinned).fixed_grid == (6, 5)


def test_unknown_config_key_rejected():
    with pytest.raises(UsageError, match="unknown config key"):
        resolve_config("oracles", None, ["bogus.key=1"])


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_bad_set_value_exits_2(capsys):
    assert run(["gradcheck", "--set", "gradcheck.seeds"]) == 2
    capsys.readouterr()


def test_non_numeric_value_exits_2(capsys):
    assert run(["gradcheck", "--set", "gradcheck.seeds=abc"]) == 2
    assert "gradcheck.seeds" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["ablate-sampler", "bench"])
def test_invalid_sra_config_exits_2(subcommand, tmp_path, capsys):
    assert run([subcommand, "--out", str(tmp_path), "--set", "sra.budget=0"]) == 2
    assert "budget" in capsys.readouterr().err


def test_unknown_invariance_family_exits_2_before_training(tmp_path, capsys, monkeypatch):
    from semroi import train

    monkeypatch.setattr(train, "train_toy", lambda *a, **k: pytest.fail("trained"))
    code = run(["invariance", "--out", str(tmp_path),
                "--set", "invariance.families=rotation,shear", *TINY_TRAIN])
    assert code == 2
    assert "shear" in capsys.readouterr().err


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
    assert run(["ablate-sampler", "--mode", "fixed", "--out", str(out_fixed),
                "--set", "sampler.n_boxes=40"]) == 0
    assert run(["ablate-sampler", "--mode", "dynamic", "--out", str(out_dyn),
                "--set", "sampler.n_boxes=40"]) == 0
    capsys.readouterr()
    fixed = load_report(out_fixed, "ablate-sampler")["metrics"]
    dyn = load_report(out_dyn, "ablate-sampler")["metrics"]
    assert fixed["top_grids"] == [["8x8", 40]]
    assert dyn["budget_respected"] is True
    assert dyn["max_grid_area"] <= dyn["budget"]
    assert dyn["distinct_grids"] > 1


def test_fixed_grid_over_budget_is_reported(tmp_path, capsys):
    assert run(["ablate-sampler", "--mode", "fixed", "--out", str(tmp_path),
                "--set", "sampler.n_boxes=10", "--set", "sra.budget=16"]) == 0
    capsys.readouterr()
    metrics = load_report(tmp_path, "ablate-sampler")["metrics"]
    assert metrics["max_grid_area"] == 64
    assert metrics["budget_respected"] is False


TINY_ABLATE = TINY_TRAIN[:10] + ["--set", "ablate.epochs=1", "--set", "ablate.n_per_class=6"]


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


def test_train_toy_single_kind_saves_checkpoint(tmp_path, capsys):
    code = run(["train-toy", "--out", str(tmp_path), "--set", "train.kind=sra", *TINY_TRAIN])
    capsys.readouterr()
    assert code == 0
    doc = load_report(tmp_path, "train-toy")
    assert doc["metrics"]["kind"] == "sra"
    assert len(doc["metrics"]["history"]) == 1
    ckpt = json.loads((tmp_path / "trained_sra_seed0.tjson").read_text())
    assert ckpt["format"].startswith("semroi-params/")
    assert "psi.weight" in ckpt["tensors"]


def test_train_toy_single_kind_trains_on_the_both_dataset(tmp_path, capsys):
    # one seed, one dataset: train.kind=sra reproduces the sra half of both
    tiny = [*TINY_TRAIN, "--set", "train.epochs=2"]
    assert run(["train-toy", "--out", str(tmp_path / "sra"), "--set", "train.kind=sra", *tiny]) == 0
    assert run(["train-toy", "--out", str(tmp_path / "both"), *tiny]) == 0
    capsys.readouterr()
    single = load_report(tmp_path / "sra", "train-toy")["metrics"]["history"]
    both = load_report(tmp_path / "both", "train-toy")["metrics"]["runs"][0]["sra"]
    assert [h["train_loss"] for h in single] == both["loss_curve"]


def test_invariance_report_structure(tmp_path, capsys):
    code = run(["invariance", "--out", str(tmp_path),
                "--set", "invariance.families=rotation", *TINY_TRAIN])
    capsys.readouterr()
    assert code == 0
    doc = load_report(tmp_path, "invariance")
    assert set(doc["metrics"]["mean_cosine"]) == {"sra", "roi_align"}
    val = doc["metrics"]["mean_cosine"]["sra"]["rotation"]
    assert -1.0 <= val <= 1.0


@pytest.mark.parametrize("families", ["rotation", "reflection,rotation"])
def test_invariance_reproduces_train_toy_both(families, tmp_path, capsys):
    assert run(["invariance", "--out", str(tmp_path / "inv"), "--seed", "2",
                "--set", f"invariance.families={families}", *TINY_TRAIN]) == 0
    assert run(["train-toy", "--out", str(tmp_path / "both"), "--seed", "2", *TINY_TRAIN]) == 0
    capsys.readouterr()
    inv = load_report(tmp_path / "inv", "invariance")["metrics"]["mean_cosine"]
    both = load_report(tmp_path / "both", "train-toy")["metrics"]["runs"][0]
    for kind in ("sra", "roi_align"):
        assert set(inv[kind]) == set(families.split(","))
        assert inv[kind]["rotation"] == both[kind]["invariance"]["rotation"]


def test_diversity_report_structure(tmp_path, capsys):
    code = run(["diversity", "--out", str(tmp_path), *TINY_TRAIN])
    capsys.readouterr()
    assert code == 0
    doc = load_report(tmp_path, "diversity")
    assert 0.0 <= doc["metrics"]["fraction_below"] <= 1.0
    assert doc["metrics"]["threshold"] == 0.3


def test_bench_reports_cost_model(tmp_path, capsys):
    code = run(["bench", "--out", str(tmp_path), "--set", "bench.timing_rois=5",
                "--set", "sra.descriptor_dim=16", "--set", "sra.hidden=8"])
    capsys.readouterr()
    assert code == 0
    doc = load_report(tmp_path, "bench")
    metrics = doc["metrics"]
    assert metrics["multiply_adds_per_300_rois"] == 300 * metrics["multiply_adds_per_roi"]
    assert metrics["wall_ms_per_roi"] > 0
    assert metrics["parameter_count"] > 0


def test_bench_counts_the_timed_grids(tmp_path, capsys, monkeypatch):
    from semroi import cli
    from semroi.evaluate import flops_estimate

    timed = cli.sra_extract
    grids = []

    def recorded(*args):
        result = timed(*args)
        grids.append(result.grid)
        return result

    monkeypatch.setattr(cli, "sra_extract", recorded)
    code = run(["bench", "--out", str(tmp_path), "--set", "bench.timing_rois=6",
                "--set", "sra.descriptor_dim=16", "--set", "sra.hidden=8"])
    capsys.readouterr()
    assert code == 0
    assert len(grids) == 6 and len(set(grids)) > 1
    doc = load_report(tmp_path, "bench")
    cfg = sra_config_from(doc["config"])
    want = [flops_estimate(cfg, doc["metrics"]["channels"], g).per_roi for g in grids]
    assert doc["metrics"]["multiply_adds_per_roi"] == pytest.approx(sum(want) / len(want), rel=1e-12)


def test_csv_format_report(tmp_path, capsys):
    code = run(["ablate-sampler", "--mode", "fixed", "--out", str(tmp_path),
                "--format", "csv", "--set", "sampler.n_boxes=10"])
    capsys.readouterr()
    assert code == 0
    text = (tmp_path / "ablate-sampler.csv").read_text()
    assert text.startswith("key,value")
    assert "metrics.mode,fixed" in text


def test_reports_embed_resolved_config_and_seed(tmp_path, capsys):
    run(["ablate-sampler", "--seed", "123", "--out", str(tmp_path),
         "--set", "sampler.n_boxes=10", "--set", "sra.budget=64"])
    capsys.readouterr()
    doc = load_report(tmp_path, "ablate-sampler")
    assert doc["seed"] == 123
    assert doc["config"]["sra.budget"] == 64
    # identical invocation reproduces identical metrics
    other = tmp_path / "again"
    run(["ablate-sampler", "--seed", "123", "--out", str(other),
         "--set", "sampler.n_boxes=10", "--set", "sra.budget=64"])
    capsys.readouterr()
    assert load_report(other, "ablate-sampler")["metrics"] == doc["metrics"]


def test_config_file_merging(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"sampler.n_boxes": 15, "sra.budget": 32}))
    run(["ablate-sampler", "--config", str(cfg_file), "--out", str(tmp_path),
         "--set", "sra.budget=64"])
    capsys.readouterr()
    doc = load_report(tmp_path, "ablate-sampler")
    assert doc["config"]["sampler.n_boxes"] == 15
    assert doc["config"]["sra.budget"] == 64  # --set wins over the file
