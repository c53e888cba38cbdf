import json

import numpy as np
import pytest

from semroi.reporting import (
    derive_seed,
    load_checkpoint,
    report_to_csv,
    save_checkpoint,
    stream_rng,
    tensor_from_tjson,
    tensor_to_tjson,
    write_report,
)


def test_tjson_roundtrip(tmp_path):
    arr = np.random.default_rng(0).standard_normal((3, 4, 2))
    path = tmp_path / "p.tjson"
    save_checkpoint(path, [("w", arr)])
    doc = json.loads(path.read_text())["tensors"]["w"]
    assert doc["dims"] == [3, 4, 2]
    assert len(doc["data"]) == 24
    tensors, _ = load_checkpoint(path)
    np.testing.assert_array_equal(tensors["w"], arr)


def test_tjson_row_major_flattening():
    doc = tensor_to_tjson(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert doc["data"] == [1.0, 2.0, 3.0, 4.0]


def test_tjson_scalar_and_vector():
    np.testing.assert_array_equal(
        tensor_from_tjson({"dims": [3], "data": [1, 2, 3]}), [1.0, 2.0, 3.0]
    )


def test_tjson_rejects_dim_mismatch():
    with pytest.raises(ValueError, match="dims"):
        tensor_from_tjson({"dims": [2, 2], "data": [1.0, 2.0, 3.0]})


def test_derived_seeds_are_stable_and_distinct():
    assert derive_seed(7, "data") == derive_seed(7, "data")
    assert derive_seed(7, "data") != derive_seed(7, "params")
    assert derive_seed(7, "data") != derive_seed(8, "data")


def test_stream_rng_reproducible():
    a = stream_rng(3, "x").standard_normal(5)
    b = stream_rng(3, "x").standard_normal(5)
    np.testing.assert_array_equal(a, b)


def test_write_report_json_embeds_schema(tmp_path):
    path = write_report(tmp_path / "r.json", {"seed": 1, "metrics": {"x": 2.0}})
    doc = json.loads(path.read_text())
    assert doc["schema"].startswith("semroi-report/")
    assert doc["metrics"]["x"] == 2.0


def test_report_csv_flattens_dotted_keys():
    csv_text = report_to_csv({"a": {"b": 1, "c": [1, 2]}, "d": "x"})
    assert "a.b,1" in csv_text
    assert "d,x" in csv_text


def test_write_report_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="format"):
        write_report(tmp_path / "r.xml", {}, fmt="xml")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_write_report_refuses_nan(tmp_path, fmt):
    with pytest.raises(ValueError):
        write_report(tmp_path / f"r.{fmt}", {"metrics": {"loss": float("nan")}}, fmt=fmt)
    assert not (tmp_path / f"r.{fmt}").exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_checkpoint_refuses_nan(tmp_path, bad):
    weight = np.ones((2, 2))
    weight[1, 0] = bad
    with pytest.raises(ValueError):
        save_checkpoint(tmp_path / "p.tjson", [("w", weight)])
    assert not (tmp_path / "p.tjson").exists()
