"""semroi benchmark: one command, three workloads, output checks, optional trace.

    python3 perfbench/run.py --workload infer_ref300 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run it from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  With
``--trace 0`` the run measures the end-to-end metrics untraced; with
``--trace 1`` it installs the span recorder (``tracing.py``) and reports the
per-layer metrics instead.  Human-readable lines come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with the
environment stamp, is written to ``perfbench/out/<workload>-trace<t>.json``
and a traced run's spans to ``perfbench/out/<workload>-spans.jsonl.gz``.

Exit codes: 0 all checks passed; 1 a check failed, an operation raised, or
there is no package source to benchmark; 2 usage error.
"""

from __future__ import annotations

import os
import sys

# BLAS runs single-threaded: the matmuls here are at most 128 x 544 and gain
# nothing from a second thread, and one thread keeps timings steady on a
# shared 2-core host.  Must be set before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SCHEMA = "semroi-perfbench/1"
MIN_PASSES = 2
# sustained throughput is taken over chunks of this many consecutive calls
CHUNK = 8
MAX_FAILURES_KEPT = 20

# Gated end-to-end metrics, reported on every workload (see README.md).
# The host's speed moves between levels up to ~1.5x apart for seconds at a
# time; figures taken at the slow end of a run (p90 latency, p10
# throughput) repeat run to run better than medians, which snap to
# whichever level held longest.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sra_rois_per_s_p10": "1/s",
    "sra_roi_ms_p90": "ms",
    "roi_align_rois_per_s_p10": "1/s",
    "pass_s_p90": "s",
}


class Tally:
    """Operations and checks attempted, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def ops(self, n: int) -> None:
        self.attempted += n

    def check(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.fail(reason)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURES_KEPT:
            self.failures.append(reason)


def import_package():
    """Import semroi from this checkout's ``src/``, or exit 1 with a message."""
    if not (SRC / "semroi" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'semroi'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import semroi

    if Path(semroi.__file__).resolve().parent != (SRC / "semroi").resolve():
        sys.exit(f"perfbench: imported semroi from {semroi.__file__}, not {SRC}")
    return semroi


def git_revision() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "semroi").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def quantile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


# ---------------------------------------------------------------------------
# runs


def run_untraced(wl, seconds: float, tally: Tally, setups: list[float], cold_setup) -> list[dict]:
    """Passes until ``seconds`` have gone by.  ``setups`` holds the run's own
    cold start; the other ``wl.setup_repeats - 1`` are spread evenly over the
    run, between passes, so their median samples the host's speed at several
    moments rather than one."""
    from workloads import no_root

    passes = []
    start = time.perf_counter()
    probing = 0.0  # the cold starts do not count against ``seconds``

    def elapsed() -> float:
        return time.perf_counter() - start - probing

    i = 0
    while i < MIN_PASSES or elapsed() < seconds:
        while len(setups) < wl.setup_repeats and len(setups) * seconds <= elapsed() * wl.setup_repeats:
            t0 = time.perf_counter()
            setups.append(cold_setup())
            probing += time.perf_counter() - t0
        passes.append(wl.run_pass(i, no_root, tally))
        wl.check_pass(tally)
        i += 1
    while len(setups) < wl.setup_repeats:
        setups.append(cold_setup())
    return passes


def run_traced(wl, seconds: float, tally: Tally, trace, patcher) -> tuple[int, list[float]]:
    """Run every pass twice from the same state, once traced and once not
    (alternating which goes first); return the traced pass count and the
    traced/untraced time ratio of each pair."""
    from workloads import no_root

    ratios = []
    start = time.perf_counter()
    i = 0
    while i < MIN_PASSES or time.perf_counter() - start < seconds:
        snap = wl.snapshot()
        times = {}
        for k, traced in enumerate((True, False) if i % 2 else (False, True)):
            if k:
                wl.restore(snap)
            if traced:
                patcher.install()
            try:
                out = wl.run_pass(i, trace.root if traced else no_root, tally)
            finally:
                patcher.uninstall()
            times[traced] = out["pass_s"]
        ratios.append(times[True] / times[False])
        wl.check_pass(tally)
        i += 1
    return i, ratios


# ---------------------------------------------------------------------------
# metrics


def throughput(times: list[float]) -> tuple[float, str]:
    """RoIs completed per second of the time spent on them, over the run."""
    return len(times) / math.fsum(times), f"{len(times)} RoIs"


def sustained(times: list[float]) -> tuple[float, str]:
    """10th percentile of throughput over chunks of CHUNK consecutive calls:
    the rate the run kept up in nine chunks out of ten."""
    n = len(times) // CHUNK
    chunks = np.asarray(times[: n * CHUNK]).reshape(n, CHUNK).sum(axis=1)
    return float(np.percentile(CHUNK / chunks, 10)), f"{n} chunks of {CHUNK}"


def end_to_end(wl, passes, setup_times, rss_mb) -> dict:
    sra = wl.calls["sra"]
    return {
        "setup_s": (statistics.median(setup_times), f"{len(setup_times)} cold starts"),
        "peak_rss_mb": (rss_mb, "1 run"),
        "sra_rois_per_s_p10": sustained(sra),
        "sra_roi_ms_p90": (1e3 * quantile(sra, 90), f"{len(sra)} RoIs"),
        "roi_align_rois_per_s_p10": sustained(wl.calls["roi_align"]),
        "pass_s_p90": (quantile([p["pass_s"] for p in passes], 90), f"{len(passes)} {wl.units}"),
    }


def named(wl, passes, e2e, tally) -> dict:
    """The workload's headline figures under their own names (README.md)."""
    sra = wl.calls["sra"]
    n_pass = f"{len(passes)} {wl.units}"
    out = {
        "setup_s": e2e["setup_s"] + ("s",),
        "peak_rss_mb": e2e["peak_rss_mb"] + ("MB",),
        "failed_frac": (tally.failed / max(tally.attempted, 1), f"{tally.attempted} attempted", "frac"),
    }
    if wl.name == "infer_ref300":
        out["sra_rois_per_s"] = throughput(sra) + ("1/s",)
        out["sra_image_ms_p50"] = (statistics.median(p["sra_image_ms"] for p in passes), n_pass, "ms")
        out["roi_align_rois_per_s"] = throughput(wl.calls["roi_align"]) + ("1/s",)
        out["roi_pool_rois_per_s"] = throughput(wl.calls["roi_pool"]) + ("1/s",)
    elif wl.name == "train_desk":
        out["sra_train_steps_per_s"] = throughput(sra) + ("1/s",)
        out["sra_train_step_ms_p50"] = (1e3 * quantile(sra, 50), f"{len(sra)} steps", "ms")
        out["sra_train_step_ms_p90"] = (1e3 * quantile(sra, 90), f"{len(sra)} steps", "ms")
    else:
        out["eval_pass_s"] = (statistics.median(p["pass_s"] for p in passes), n_pass, "s")
    return out


def macs_by_stage(wl, grids) -> dict[str, int]:
    """``flops_estimate`` MACs of sra extractions at the given grids, summed
    per core stage (``tracing.STAGE_MACS``)."""
    from semroi import evaluate
    from tracing import STAGE_MACS

    counts = Counter(grids)
    by_key: Counter = Counter()
    for g, n in counts.items():
        for key, value in evaluate.flops_estimate(wl.config, wl.channels, g).breakdown.items():
            by_key[key] += value * n
    return {stage: sum(by_key[k] for k in keys) for stage, keys in STAGE_MACS.items()}


def count_and_clock(wl) -> dict:
    """Analytic MACs of the timed sra RoIs at their own grids, beside the
    time they took.  GMAC/s is given only where a timed call is a forward
    pass alone, the work ``flops_estimate`` counts."""
    grids = wl.grids
    by_stage = macs_by_stage(wl, grids)
    total = sum(by_stage.values())
    busy = sum(wl.calls["sra"])
    areas = Counter(g[0] * g[1] for g in grids)
    out = {
        "sra_rois": len(grids),
        "sra_busy_s": busy,
        "macs": total,
        "macs_by_stage": by_stage,
        "grid_area_hist": {str(a): areas[a] for a in sorted(areas)},
    }
    if wl.sra_forward_only:
        out["gmacs_per_s"] = total / busy / 1e9
    return out


def per_layer(wl, trace, n_passes: int, ratios: list[float]) -> dict:
    """Per-layer metrics of a traced run, per traced pass."""
    from tracing import REPEAT_KEYS, SPAN_NAMES, STAGE_MACS

    stats = trace.stats()
    empty = {"calls": 0, "total_ns": 0.0, "self_ns": 0.0}
    out = {}
    for name in SPAN_NAMES:
        s = stats.get(name, empty)
        out[f"{name}.calls"] = (s["calls"] / n_passes, "count")
        out[f"{name}.self_ms"] = (s["self_ns"] / 1e6 / n_passes, "ms")
    macs = macs_by_stage(wl, trace.sra_grids)
    for stage in STAGE_MACS:
        stage_macs = macs[stage]
        fwd_s = stats.get(f"core.{stage}.fwd", empty)["total_ns"] / 1e9
        out[f"core.{stage}.macs"] = (stage_macs / n_passes, "count")
        out[f"core.{stage}.gmacs_per_s"] = (stage_macs / fwd_s / 1e9 if fwd_s else 0.0, "GMAC/s")
    areas = trace.grid_areas
    out["sampler.grid_area_mean"] = (sum(areas) / len(areas) if areas else 0.0, "cells")
    for name in REPEAT_KEYS:
        calls = stats.get(name, empty)["calls"]
        out[f"{name}.repeat_frac"] = (trace.repeats[name] / calls if calls else 0.0, "frac")
    out["trace.overhead_frac"] = (statistics.median(ratios) - 1.0, "frac")
    return out


# ---------------------------------------------------------------------------


def cold_setup(args) -> float:
    """Time one cold start of the workload in a fresh interpreter."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def setup_probe(args) -> int:
    """Cold start: import semroi and build the workload's state.  numpy (imported
    above) and the benchmark's own modules are not part of the program's set-up."""
    t0 = time.perf_counter()
    import_package()
    t1 = time.perf_counter()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    t2 = time.perf_counter()
    wl.setup()
    t3 = time.perf_counter()
    print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2)}))
    return 0


def run_one(args) -> int:
    t0 = time.perf_counter()
    import_package()
    import_s = time.perf_counter() - t0
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    env = environment(args)
    tally = Tally()
    wl = WORKLOADS[args.workload](args.seed)
    t0 = time.perf_counter()
    wl.setup()
    # this process is a cold start too: add its own import to its set-up
    setup_times = [time.perf_counter() - t0 + import_s]
    wl.warmup()

    result = {"schema": SCHEMA, "env": env}
    metrics: dict[str, dict] = {}
    lines = []
    try:
        if args.trace:
            from tracing import Patcher, Trace

            trace = Trace()
            n_passes, ratios = run_traced(wl, args.seconds, tally, trace, Patcher(trace))
            layer = per_layer(wl, trace, n_passes, ratios)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
            result["traced_passes"] = n_passes
            result["accounting"] = {
                name: trace.accounting(name) for name in ("core.sra_extract", "core.sra_backward")
            }
            args.out.mkdir(parents=True, exist_ok=True)
            spans_path = args.out / f"{args.workload}-spans.jsonl.gz"
            trace.dump(spans_path)
            result["spans_file"] = spans_path.name
            result["span_count"] = len(trace.names)
            lines.append(f"traced {n_passes} {wl.units} twice each, {len(trace.names)} spans")
            for k, (v, u) in layer.items():
                lines.append(f"  {k:<44} {v:>14.6g} {u}")
        else:
            passes = run_untraced(wl, args.seconds, tally, setup_times, lambda: cold_setup(args))
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            e2e = end_to_end(wl, passes, setup_times, rss_mb)
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, (v, _) in e2e.items()}
            result["samples"] = {k: n for k, (_, n) in e2e.items()}
            result["named"] = {
                k: {"value": v, "unit": u, "samples": n}
                for k, (v, n, u) in named(wl, passes, e2e, tally).items()
            }
            result["passes"] = passes
            result["count_and_clock"] = count_and_clock(wl)
            lines.append("end-to-end (gated in BENCHMARK.json):")
            for k, (v, n) in e2e.items():
                lines.append(f"  {k:<24} {v:>12.6g} {END_TO_END_UNITS[k]:<4}  n={n}")
            lines.append(f"{wl.name} metrics:")
            for k, d in result["named"].items():
                lines.append(f"  {k:<24} {d['value']:>12.6g} {d['unit']:<4}  n={d['samples']}")
            cc = result["count_and_clock"]
            rate = f", {cc['gmacs_per_s']:.4g} GMAC/s" if "gmacs_per_s" in cc else ""
            lines.append(
                f"count and clock: {cc['sra_rois']} sra RoIs, {cc['macs']:.4g} MACs{rate}; "
                f"grid areas {min(map(int, cc['grid_area_hist']))}"
                f"..{max(map(int, cc['grid_area_hist']))}"
            )
    except Exception:
        tally.fail("operation raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1])
        traceback.print_exc()

    correct = tally.failed == 0
    summary = {
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": metrics,
    }
    result.update(summary)
    result["setup_s_samples"] = setup_times
    result["failures"] = tally.failures
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in lines:
        print(line)
    print(f"checks: {tally.attempted} attempted, {tally.failed} failed")
    for reason in tally.failures:
        print(f"  FAILED {reason}")
    print(json.dumps(summary))
    return 0 if correct and metrics else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and warm state are its own."""
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--out", str(args.out),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})")
            total["correct"] = False
            continue
        print("\n".join(lines[:-1]))
        total["correct"] &= last["correct"] and proc.returncode == 0
        total["attempted"] += last["attempted"]
        total["failed"] += last["failed"]
        for k, v in last["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    total["attempted"] = max(total["attempted"], 1)
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def parse_args(argv=None):
    sys.path.insert(0, str(HERE))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("infer_ref300", "train_desk", "eval_desk", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        import_package()
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
