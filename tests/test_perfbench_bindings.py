"""The benchmark under perfbench/ binds package names from outside (its span
tracer rebinds module attributes; its output checks call the oracles).  This
runs both against the package as it stands, so a rename or signature change
that would break the benchmark fails here."""

import importlib
from pathlib import Path

import numpy as np
import pytest

from semroi import core
from semroi.sampler import RoIBox

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing"), importlib.import_module("checks")


def test_tracer_and_checks_bind(perfbench):
    tracing, checks = perfbench
    cfg = core.SraConfig(n_masks=3, budget=16, descriptor_dim=5, embed_channels=3, hidden=6)
    rng = np.random.default_rng(0)
    params = core.init_params(cfg, 4, rng)
    fmap = rng.standard_normal((4, 12, 12))
    box = RoIBox(1.0, 2.0, 9.5, 8.0)
    original = core.sra_extract_recorded
    trace = tracing.Trace()
    patcher = tracing.Patcher(trace)
    patcher.install()
    try:
        result, tape = core.sra_extract_recorded(fmap, box, params, cfg)
        core.sra_backward(np.ones_like(result.feature), tape)
    finally:
        patcher.uninstall()
    assert core.sra_extract_recorded is original
    stats = trace.stats()
    for stage in ("pool", "descriptor", "semantic_conv", "embedding", "mask_mlp",
                  "softmax", "weighted_sum"):
        assert stats[f"core.{stage}.fwd"]["calls"] == 1, stage
        assert stats[f"core.{stage}.bwd"]["calls"] == 1, stage
    # the layer functions under the stages; a cache in front of a bound name
    # would read 0 calls here and zero its per-layer metric
    for name in ("sampler.dynamic_grid_size", "embeddings.area_embedding_raw",
                 "sampler.block_average_pool.fwd", "sampler.block_average_pool.bwd"):
        assert stats[name]["calls"] == 1, name
    assert trace.sra_grids == [result.grid]
    assert checks.sra_all(fmap, box, params, cfg, result) == [None, None, None]
