import json

import numpy as np
import pytest

from semroi.reporting import derive_seed, stream_rng, write_report


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_report_refuses_nan(tmp_path, bad):
    with pytest.raises(ValueError):
        write_report(tmp_path / "r.json", {"metrics": {"loss": bad}})
    assert not (tmp_path / "r.json").exists()
