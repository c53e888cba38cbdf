"""Schema tests for BENCHMARK.json, the result file and the span trace.

No timing is asserted.  Each workload runs for its minimum of two passes
into a temporary directory:

    python3 -m pytest perfbench/test_schema.py -q
"""

from __future__ import annotations

import gzip
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import REPEAT_KEYS, SPAN_NAMES, STAGE_MACS  # noqa: E402

WORKLOADS = ("infer_ref300", "train_desk", "eval_desk")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
ENV_KEYS = {
    "git_revision", "source_sha256", "python", "numpy", "blas", "blas_threads",
    "nproc", "machine", "seed", "workload", "seconds", "trace",
}
NAMED = {
    "infer_ref300": {"sra_rois_per_s", "sra_image_ms_p50", "roi_align_rois_per_s", "roi_pool_rois_per_s"},
    "train_desk": {"sra_train_steps_per_s", "sra_train_step_ms_p50", "sra_train_step_ms_p90"},
    "eval_desk": {"eval_pass_s"},
}
FORWARD = {
    "sampler.dynamic_grid_size",
    "sampler.block_average_pool.fwd",
    "embeddings.area_embedding_raw",
    "core.sra_extract",
    "baselines.roi_align",
    *(n for n in SPAN_NAMES if n.startswith(("numerics.", "core.")) and n.endswith(".fwd")),
}
BACKWARD = {n for n in SPAN_NAMES if n.endswith(".bwd")} | {"core.sra_backward"}
# spans each workload runs; every other span must read 0 calls
EXPECTED_SPANS = {
    "infer_ref300": FORWARD | {"baselines.roi_pool"},
    "train_desk": FORWARD
    | BACKWARD
    | {"train.train_step.sra", "train.train_step.roi_align", "train.sgd_update"},
    "eval_desk": FORWARD
    | {
        "baselines.roi_pool",
        "synthetic.render_instance",
        "synthetic.apply_stem",
        "train.predict",
        "evaluate.invariance_eval",
        "evaluate.mask_diversity",
    },
}


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(out: Path, workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
        "--seconds", "0.01", "--trace", str(trace), "--out", str(out),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(workload, trace) -> (completed process, result document)."""
    out = tmp_path_factory.mktemp("out")
    done = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(out, workload, trace)
            doc = json.loads((out / f"{workload}-trace{trace}.json").read_text())
            done[(workload, trace)] = (proc, doc, out)
    return done


def test_benchmark_json_follows_the_contract():
    spec = bench_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert 1 <= len(spec["per_layer"]) <= 128
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_per_layer_names_cover_every_span_and_counter():
    want = {f"{s}.{stat}" for s in SPAN_NAMES for stat in ("calls", "self_ms")}
    want |= {f"core.{stage}.{stat}" for stage in STAGE_MACS for stat in ("macs", "gmacs_per_s")}
    want |= {f"{name}.repeat_frac" for name in REPEAT_KEYS}
    want |= {"sampler.grid_area_mean", "trace.overhead_frac"}
    assert {m["name"] for m in bench_spec()["per_layer"]} == want


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_summary_line_and_result_file(runs, workload, trace):
    proc, doc, _ = runs[(workload, trace)]
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    spec = bench_spec()
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        got = last["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0
    assert doc["schema"] == "semroi-perfbench/1"
    assert set(doc["env"]) == ENV_KEYS
    assert doc["env"]["workload"] == workload and doc["env"]["seed"] == 7
    assert doc["env"]["blas_threads"] <= doc["env"]["nproc"]
    for key in ("correct", "attempted", "failed", "metrics"):
        assert doc[key] == last[key]
    assert doc["failures"] == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_result_names_counts_and_grids(runs, workload):
    _, doc, _ = runs[(workload, 0)]
    named = doc["named"]
    assert set(named) == NAMED[workload] | {"setup_s", "peak_rss_mb", "failed_frac"}
    assert named["failed_frac"]["value"] == 0
    for entry in named.values():
        assert set(entry) == {"value", "unit", "samples"}
    cc = doc["count_and_clock"]
    # the count covers exactly the timed sra calls
    assert cc["sra_rois"] == int(doc["samples"]["sra_roi_ms_p90"].split()[0])
    assert cc["sra_rois"] == sum(cc["grid_area_hist"].values()) > 0
    # a timed train step is more than the forward pass the MACs count
    assert ("gmacs_per_s" in cc) == (workload != "train_desk")
    assert cc["macs"] == sum(cc["macs_by_stage"].values()) > 0
    assert all(1 <= int(a) <= 128 for a in cc["grid_area_hist"])
    assert len(doc["passes"]) >= 2


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_covers_the_layers_its_workload_runs(runs, workload):
    _, doc, _ = runs[(workload, 1)]
    ran = {s for s in SPAN_NAMES if doc["metrics"][f"{s}.calls"]["value"] > 0}
    assert ran == EXPECTED_SPANS[workload]
    for stage in STAGE_MACS:
        assert doc["metrics"][f"core.{stage}.macs"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_nest_and_account_for_the_extractor(runs, workload):
    _, doc, out = runs[(workload, 1)]
    with gzip.open(out / doc["spans_file"], "rt") as fh:
        spans = [json.loads(line) for line in fh]
    assert len(spans) == doc["span_count"] > 0
    for i, s in enumerate(spans):
        assert set(s) == {"id", "name", "start_ns", "end_ns", "parent", "root"}
        assert s["id"] == i and s["end_ns"] >= s["start_ns"]
        if s["parent"] >= 0:
            p = spans[s["parent"]]
            assert s["parent"] < i and s["root"] == p["root"]
            assert p["start_ns"] <= s["start_ns"] and s["end_ns"] <= p["end_ns"]
        else:
            assert s["name"].startswith("bench.") and s["root"] >= 0
    for name in ("core.sra_extract", "core.sra_backward"):
        acc = doc["accounting"][name]
        if acc["calls"]:
            parts = sum(acc["children_ms"].values()) + acc["residue_ms"]
            assert parts == pytest.approx(acc["total_ms"], rel=1e-9)
            assert acc["residue_ms"] >= 0
    assert doc["accounting"]["core.sra_extract"]["calls"] > 0


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path / "out", "eval_desk", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
