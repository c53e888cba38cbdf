"""Span recorder that times semroi's public functions from outside.

Tracing rebinds module attributes of the imported ``semroi`` package inside
the benchmark process only; no file of the package changes.  Each traced
function is replaced, in every module that holds a reference to it, by a
wrapper that records a span around the call.  For a function that returns
``(value, VjpRecord)`` the wrapper also records a ``.bwd`` span around the
record's backward closure, and the forward span is named ``.fwd``.

Spans live in memory as parallel lists and are written out when the run
ends.  A span has a name, a start and end in nanoseconds, the index of the
span that was open when it started (its parent), and the id of the image,
step or pass it belongs to (its root).  Self time is computed from the spans
afterwards: duration minus the durations of direct children.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter
from contextlib import contextmanager
from importlib import import_module

import numpy as np

_now = time.perf_counter_ns

# modules whose globals are rebound; oracles, reporting and cli are not on a
# timed path
TRACED_MODULES = (
    "numerics",
    "sampler",
    "embeddings",
    "core",
    "baselines",
    "synthetic",
    "train",
    "evaluate",
)

# Every span the per-layer metrics report, in reporting order.
SPAN_NAMES = (
    "sampler.dynamic_grid_size",
    "sampler.block_average_pool.fwd",
    "sampler.block_average_pool.bwd",
    "embeddings.area_embedding_raw",
    *(
        f"numerics.{op}.{d}"
        for op in ("bilinear_sample_many", "linear", "layer_norm", "softmax_spatial")
        for d in ("fwd", "bwd")
    ),
    *(
        f"core.{stage}.{d}"
        for stage in (
            "pool",
            "descriptor",
            "semantic_conv",
            "embedding",
            "mask_mlp",
            "softmax",
            "weighted_sum",
        )
        for d in ("fwd", "bwd")
    ),
    "core.sra_extract",
    "core.sra_backward",
    "baselines.roi_align",
    "baselines.roi_pool",
    "synthetic.render_instance",
    "synthetic.apply_stem",
    "train.train_step.sra",
    "train.train_step.roi_align",
    "train.sgd_update",
    "train.predict",
    "evaluate.invariance_eval",
    "evaluate.mask_diversity",
)

# core stage -> flops_estimate breakdown keys it covers
STAGE_MACS = {
    "pool": ("pool",),
    "descriptor": ("descriptor_reduce", "descriptor_psi"),
    "semantic_conv": ("semantic_conv",),
    "embedding": ("embedding",),
    "mask_mlp": ("mask_mlp",),
    "softmax": ("softmax",),
    "weighted_sum": ("weighted_sum",),
}

# functions whose arguments are counted for repeat_frac, with their key
REPEAT_KEYS = {
    "sampler.dynamic_grid_size": lambda box, budget: (box.x0, box.y0, box.x1, box.y1, budget),
    "embeddings.area_embedding_raw": lambda grid, m_axis: (grid[0], grid[1], m_axis),
}


class Trace:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.roots: list[int] = []
        self._open: list[int] = []
        self._root = -1
        self.seen: dict[str, set] = {name: set() for name in REPEAT_KEYS}
        self.repeats: Counter = Counter()
        self.grid_areas: list[int] = []
        # grid of every traced sra extraction
        self.sra_grids: list = []

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.roots.append(self._root)
        self.ends.append(0)
        self._open.append(i)
        self.starts.append(_now())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = _now()
        self._open.pop()

    @contextmanager
    def root(self, name: str, root_id: int):
        """The span of one image, step or pass; spans inside carry its id."""
        self._root = root_id
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)
            self._root = -1

    def note_repeat(self, name: str, key) -> None:
        seen = self.seen[name]
        if key in seen:
            self.repeats[name] += 1
        else:
            seen.add(key)

    # ------------------------------------------------------------------
    # analysis

    def durations(self) -> np.ndarray:
        return np.asarray(self.ends, dtype=np.int64) - np.asarray(self.starts, dtype=np.int64)

    def stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) ns and self ns."""
        dur = self.durations().astype(np.float64)
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = dur - child
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            s = out.setdefault(name, {"calls": 0, "total_ns": 0.0, "self_ns": 0.0})
            s["calls"] += 1
            s["total_ns"] += dur[i]
            s["self_ns"] += self_ns[i]
        return out

    def accounting(self, name: str) -> dict:
        """Inclusive time of ``name`` split over its direct children by name,
        plus the residue: time in ``name`` that no child span covers."""
        dur = self.durations()
        mine = {i for i, n in enumerate(self.names) if n == name}
        children: Counter = Counter()
        for i, p in enumerate(self.parents):
            if p in mine:
                children[self.names[i]] += int(dur[i])
        total = sum(int(dur[i]) for i in mine)
        return {
            "calls": len(mine),
            "total_ms": total / 1e6,
            "children_ms": {k: v / 1e6 for k, v in sorted(children.items())},
            "residue_ms": (total - sum(children.values())) / 1e6,
        }

    def dump(self, path) -> None:
        """Write one JSON object per span, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start_ns": self.starts[i],
                            "end_ns": self.ends[i],
                            "parent": self.parents[i],
                            "root": self.roots[i],
                        }
                    )
                )
                fh.write("\n")


# ---------------------------------------------------------------------------
# wrappers


def _span(trace: Trace, name: str, fn):
    def wrapper(*args, **kwargs):
        i = trace.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            trace.close(i)

    return wrapper


def _vjp_span(trace: Trace, name: str, fn, record_type):
    fwd = name + ".fwd"
    bwd = name + ".bwd"

    def wrapper(*args, **kwargs):
        i = trace.open(fwd)
        try:
            out, rec = fn(*args, **kwargs)
        finally:
            trace.close(i)
        return out, record_type(rec.op, _span(trace, bwd, rec.backward))

    return wrapper


def _repeat_span(trace: Trace, name: str, fn):
    key_of = REPEAT_KEYS[name]
    inner = _span(trace, name, fn)

    def wrapper(*args):
        trace.note_repeat(name, key_of(*args))
        out = inner(*args)
        if name == "sampler.dynamic_grid_size":
            trace.grid_areas.append(out[0] * out[1])
        return out

    return wrapper


def _sra_extract_span(trace: Trace, fn):
    inner = _span(trace, "core.sra_extract", fn)

    def wrapper(fmap, box, params, config):
        out = inner(fmap, box, params, config)
        trace.sra_grids.append(out[0].grid)
        return out

    return wrapper


def _train_step_span(trace: Trace, fn):
    spans = {kind: _span(trace, f"train.train_step.{kind}", fn) for kind in ("sra", "roi_align")}

    def wrapper(state, *args, **kwargs):
        return spans[state.kind](state, *args, **kwargs)

    return wrapper


def _conv_span(trace: Trace, fn, record_type, embedding_raw):
    """core's conv1x1 serves two stages; the embedding projection is the call
    whose input is the array ``core.embedding_raw`` just returned."""
    last_raw = [None]

    def raw_wrapper(*args):
        last_raw[0] = embedding_raw(*args)
        return last_raw[0]

    stages = {
        False: _vjp_span(trace, "core.semantic_conv", fn, record_type),
        True: _vjp_span(trace, "core.embedding", fn, record_type),
    }

    def conv_wrapper(x, p):
        return stages[x is last_raw[0]](x, p)

    return raw_wrapper, conv_wrapper


class Patcher:
    """Installs and removes the span wrappers of one ``Trace``.

    Wrappers are built lowest layer first, so a core stage wraps the
    numerics wrapper it calls and its span nests the numerics span.
    ``scope="all"`` rebinds the function in every traced module that holds
    it; ``scope="own"`` only in the named module.
    """

    def __init__(self, trace: Trace):
        mods = {m: import_module(f"semroi.{m}") for m in TRACED_MODULES}
        record_type = mods["numerics"].VjpRecord
        current = {(m, a): v for m, mod in mods.items() for a, v in vars(mod).items()}
        original = dict(current)

        def rebind(mod: str, attr: str, make, scope: str) -> None:
            target = current[(mod, attr)]
            wrapper = make(target)
            if scope == "own":
                holders = [(mod, attr)]
            else:
                holders = [key for key, v in current.items() if v is target]
            for key in holders:
                current[key] = wrapper

        def vjp(name):
            return lambda fn: _vjp_span(trace, name, fn, record_type)

        def call(name):
            return lambda fn: _span(trace, name, fn)

        def repeat(name):
            return lambda fn: _repeat_span(trace, name, fn)

        for op in ("bilinear_sample_many", "linear", "layer_norm", "softmax_spatial"):
            rebind("numerics", f"{op}_vjp", vjp(f"numerics.{op}"), "all")
        rebind("sampler", "dynamic_grid_size", repeat("sampler.dynamic_grid_size"), "all")
        rebind("sampler", "block_average_pool_vjp", vjp("sampler.block_average_pool"), "all")
        rebind("embeddings", "area_embedding_raw", repeat("embeddings.area_embedding_raw"), "all")
        rebind("core", "block_average_pool_vjp", vjp("core.pool"), "own")
        rebind("core", "roi_descriptor_vjp", vjp("core.descriptor"), "own")
        raw_wrapper, conv_wrapper = _conv_span(
            trace, current[("core", "conv1x1_vjp")], record_type, current[("core", "embedding_raw")]
        )
        current[("core", "embedding_raw")] = raw_wrapper
        current[("core", "conv1x1_vjp")] = conv_wrapper
        rebind("core", "mask_logits_vjp", vjp("core.mask_mlp"), "own")
        rebind("core", "softmax_spatial_vjp", vjp("core.softmax"), "own")
        rebind("core", "sample_roi_feature_vjp", vjp("core.weighted_sum"), "own")
        rebind("core", "sra_extract_recorded", lambda fn: _sra_extract_span(trace, fn), "all")
        rebind("core", "sra_backward", call("core.sra_backward"), "all")
        rebind("baselines", "roi_align", call("baselines.roi_align"), "all")
        rebind("baselines", "roi_pool", call("baselines.roi_pool"), "all")
        rebind("synthetic", "render_instance", call("synthetic.render_instance"), "all")
        rebind("synthetic", "apply_stem", call("synthetic.apply_stem"), "all")
        rebind("train", "train_step", lambda fn: _train_step_span(trace, fn), "own")
        rebind("train", "sgd_update", call("train.sgd_update"), "own")
        rebind("train", "predict", call("train.predict"), "own")
        rebind("evaluate", "invariance_eval", call("evaluate.invariance_eval"), "all")
        rebind("evaluate", "mask_diversity", call("evaluate.mask_diversity"), "all")

        self._bindings = [
            (mods[m], a, original[(m, a)], v)
            for (m, a), v in current.items()
            if v is not original[(m, a)]
        ]

    def install(self) -> None:
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig, _ in self._bindings:
            setattr(mod, attr, orig)
