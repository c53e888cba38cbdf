"""The three benchmark workloads.

Each workload builds its program state in ``setup`` (timed and repeated by
the runner), makes its inputs from the run seed and a pass index, and runs
one *pass* at a time: one 300-proposal image (``infer_ref300``), one epoch
over the training set (``train_desk``) or one evaluation pass
(``eval_desk``).  ``run_pass`` is closed loop and single process: it returns
the pass's own figures and appends per-call latencies to ``self.calls``.
Inputs of pass ``i`` depend only on (seed, i), so a pass can be replayed
exactly, which the traced run uses to measure tracing overhead.

All calls into the package go through module attributes (``core.sra_extract``
rather than a name imported here), so the tracer's rebinding sees them.
"""

from __future__ import annotations

import copy
import time
from contextlib import contextmanager, nullcontext

import numpy as np

import checks
from semroi import baselines, core, evaluate, sampler, synthetic, train

_t = time.perf_counter

# extractor and classifier weights are part of the program, not the input:
# every workload initializes them from this fixed seed
PARAM_SEED = 0

# The desk profile of the acceptance suite (tests/test_acceptance.py,
# COMPARISON_CONFIG and the ``comparison`` fixture) and of the CLI defaults
# (semroi/cli.py: data.*, train.*, eval.*).  Copied rather than imported so
# that the benchmark's work stays fixed when a default changes.
DESK_CONFIG = dict(descriptor_dim=64, budget=128, embed_channels=16, hidden=64)
DESK_CHANNELS = 16
DESK_CLASSES = 4
DESK_PER_CLASS = 200
DESK_LR = 0.02
DESK_MOMENTUM = 0.9
INVARIANCE_SAMPLES = 60
DIVERSITY_SAMPLES = 40
BASELINE_OUT = (7, 7)


def no_root(name: str, root_id: int):
    return nullcontext()


@contextmanager
def record_grids(module, attr: str, grids: list):
    """Append ``result.grid`` of every call to ``module.attr`` (an sra
    extractor returning an ``ExtractResult`` or ``(ExtractResult, tape)``)
    while the block runs.  Wraps whatever is bound at entry, so it nests
    inside the tracer's wrappers."""
    fn = getattr(module, attr)

    def recorded(*args):
        out = fn(*args)
        grids.append((out if isinstance(out, core.ExtractResult) else out[0]).grid)
        return out

    setattr(module, attr, recorded)
    try:
        yield
    finally:
        setattr(module, attr, fn)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


class Workload:
    name = ""
    units = ""
    root_span = ""
    # cold starts timed for setup_s
    setup_repeats = 15
    # whether a timed sra call is a forward pass only (so its MACs and its
    # time describe the same work)
    sra_forward_only = True

    def __init__(self, seed: int):
        self.seed = seed
        self.calls: dict[str, list[float]] = {}
        # grid of every timed sra call, in call order
        self.grids: list = []

    def _calls(self, key: str) -> list[float]:
        return self.calls.setdefault(key, [])

    def snapshot(self):
        return None

    def restore(self, snap) -> None:
        pass


# ---------------------------------------------------------------------------


class InferRef300(Workload):
    """Forward-only extraction at the reference point on fresh images.

    Each image is a fresh (256, 64, 64) standard-normal map with 300 fresh
    proposals: area log-uniform in [4^2, 32^2] px, aspect ratio log-uniform
    in [1/4, 4], placed uniformly inside the map.  ``sra_extract``,
    ``roi_align`` and ``roi_pool`` each run on all 300.
    """

    name = "infer_ref300"
    units = "images"
    root_span = "bench.image"
    channels = 256
    map_size = 64
    n_proposals = 300
    area_range = (4.0**2, 32.0**2)
    aspect_range = (0.25, 4.0)

    def setup(self) -> None:
        self.config = core.SraConfig()
        self.params = core.init_params(
            self.config, self.channels, np.random.default_rng(PARAM_SEED)
        )

    def proposals(self, rng: np.random.Generator, n: int) -> list:
        size = self.map_size
        area = np.exp(rng.uniform(*np.log(self.area_range), n))
        aspect = np.exp(rng.uniform(*np.log(self.aspect_range), n))
        h = np.minimum(np.sqrt(area * aspect), size - 2.0)
        w = np.minimum(np.sqrt(area / aspect), size - 2.0)
        y0 = rng.uniform(0.0, size - 1.0 - h)
        x0 = rng.uniform(0.0, size - 1.0 - w)
        return [
            sampler.RoIBox(float(a), float(b), float(a + c), float(b + d))
            for a, b, c, d in zip(x0, y0, w, h)
        ]

    def inputs(self, rng: np.random.Generator, n: int):
        fmap = rng.standard_normal((self.channels, self.map_size, self.map_size))
        return fmap, self.proposals(rng, n)

    def warmup(self) -> None:
        fmap, boxes = self.inputs(_rng(self.seed, 0), 40)
        for box in boxes:
            core.sra_extract(fmap, box, self.params, self.config)
            baselines.roi_align(fmap, box, BASELINE_OUT)
            baselines.roi_pool(fmap, box, BASELINE_OUT)

    def run_pass(self, i: int, root, tally) -> dict:
        fmap, boxes = self.inputs(_rng(self.seed, 1, i), self.n_proposals)
        params, config = self.params, self.config
        sra_t = self._calls("sra")
        align_t = self._calls("roi_align")
        pool_t = self._calls("roi_pool")
        results = []
        pooled = []
        with root(self.root_span, i):
            t_sra = _t()
            for box in boxes:
                t0 = _t()
                results.append(core.sra_extract(fmap, box, params, config))
                sra_t.append(_t() - t0)
            t_align = _t()
            for box in boxes:
                t0 = _t()
                baselines.roi_align(fmap, box, BASELINE_OUT)
                align_t.append(_t() - t0)
            t_pool = _t()
            for box in boxes:
                t0 = _t()
                pooled.append(baselines.roi_pool(fmap, box, BASELINE_OUT))
                pool_t.append(_t() - t0)
            t_end = _t()
        tally.ops(3 * len(boxes))
        self.grids.extend(r.grid for r in results)
        self._last = (fmap, boxes, results, pooled, i)
        return {"pass_s": t_end - t_sra, "sra_image_ms": 1e3 * (t_align - t_sra)}

    def check_pass(self, tally) -> None:
        fmap, boxes, results, pooled, i = self._last
        for box, result in zip(boxes, results):
            tally.check(checks.grid(box, self.config, result))
            tally.check(checks.masks(result))
        k = int(_rng(self.seed, 2, i).integers(len(boxes)))
        tally.check(checks.sra_oracle(fmap, boxes[k], self.params, self.config, results[k]))
        tally.check(checks.roi_pool(fmap, boxes[k], BASELINE_OUT, pooled[k]))


# ---------------------------------------------------------------------------


class TrainDesk(Workload):
    """Per-instance SGD through ``train_step`` at the desk profile.

    Set-up renders the profile's dataset (4 classes x 200 instances, C=16)
    and splits it as ``train_toy`` does; the 600-instance train split is
    trained on.  Each pass is one epoch in a seeded order: every instance
    through the sra extractor, then every instance through roi_align.
    """

    name = "train_desk"
    units = "epochs"
    root_span = "bench.step"
    channels = DESK_CHANNELS
    kinds = ("sra", "roi_align")
    # each cold start renders 800 instances (about 6 s)
    setup_repeats = 5
    # a timed sra step is forward, backward and update
    sra_forward_only = False

    def setup(self) -> None:
        self.config = core.SraConfig(**DESK_CONFIG)
        dataset = synthetic.generate_dataset(
            DESK_CLASSES, DESK_CLASSES * DESK_PER_CLASS, self.seed, channels=DESK_CHANNELS
        )
        self.train_set, _ = train.split_dataset(dataset, self.seed)
        self.states = self._fresh_states()

    def _fresh_states(self) -> dict:
        return {
            kind: train.init_train_state(
                kind, self.config, DESK_CHANNELS, DESK_CLASSES, PARAM_SEED
            )
            for kind in self.kinds
        }

    def warmup(self) -> None:
        states = self._fresh_states()
        for inst in self.train_set[:8]:
            for kind in self.kinds:
                train.train_step(states[kind], inst, DESK_LR, DESK_MOMENTUM)

    def snapshot(self):
        return copy.deepcopy(self.states)

    def restore(self, snap) -> None:
        self.states = copy.deepcopy(snap)

    def run_pass(self, e: int, root, tally) -> dict:
        n = len(self.train_set)
        order = _rng(self.seed, 1, e).permutation(n)
        busy = 0.0
        for j, kind in enumerate(self.kinds):
            state = self.states[kind]
            step_t = self._calls(kind)
            base = (2 * e + j) * n
            grids = self.grids if kind == "sra" else []
            with record_grids(train, "sra_extract_recorded", grids):
                for k, idx in enumerate(order):
                    with root(self.root_span, base + k):
                        t0 = _t()
                        loss, _ = train.train_step(
                            state, self.train_set[idx], DESK_LR, DESK_MOMENTUM
                        )
                        dt = _t() - t0
                    step_t.append(dt)
                    busy += dt
                    tally.check(checks.train_step(loss, state))
            tally.ops(n)
        self._order = order
        # checks run between steps, so the epoch's time is its steps' time
        return {"pass_s": busy}

    def check_pass(self, tally) -> None:
        inst = self.train_set[int(self._order[0])]
        params = self.states["sra"].params
        result = core.sra_extract(inst.feature_map, inst.box, params, self.config)
        for reason in checks.sra_all(inst.feature_map, inst.box, params, self.config, result):
            tally.check(reason)


# ---------------------------------------------------------------------------


class EvalDesk(Workload):
    """One evaluation pass at the desk profile per ``run_pass``.

    Params and classifiers come from a fixed-seed ``init_train_state``.  A
    pass renders a fresh 800-instance dataset, rotation-augments its test
    split and scores ``accuracy`` on it for both trained kinds (as
    ``train_toy`` does), runs ``invariance_eval`` for three transform
    families on three extractors (60 samples each, as ``semroi invariance``
    does), and finally ``mask_diversity`` over 40 samples.
    """

    name = "eval_desk"
    units = "passes"
    root_span = "bench.pass"
    channels = DESK_CHANNELS
    families = ("rotation", "reflection", "scale_pan")
    extractors = ("sra", "roi_align", "roi_pool")

    def setup(self) -> None:
        self.config = core.SraConfig(**DESK_CONFIG)
        self.states = {
            kind: train.init_train_state(
                kind, self.config, DESK_CHANNELS, DESK_CLASSES, PARAM_SEED
            )
            for kind in ("sra", "roi_align")
        }
        params = self.states["sra"].params
        self.feature_fns = {
            kind: self._timed(kind, evaluate.make_feature_fn(kind, params, self.config, BASELINE_OUT))
            for kind in self.extractors
        }

    def _timed(self, kind: str, fn):
        def timed(inst):
            t0 = _t()
            out = fn(inst)
            self._pass_calls[kind].append(_t() - t0)
            return out

        return timed

    def _reset_pass_calls(self) -> None:
        self._pass_calls = {kind: [] for kind in self.extractors}

    def warmup(self) -> None:
        self._reset_pass_calls()
        seed = int(_rng(self.seed, 0).integers(2**62))
        ds = synthetic.generate_dataset(DESK_CLASSES, 4, seed, channels=DESK_CHANNELS)
        for kind in self.extractors:
            evaluate.invariance_eval(self.feature_fns[kind], ds, "rotation", 2, _rng(self.seed, 0))

    def run_pass(self, i: int, root, tally) -> dict:
        self._reset_pass_calls()
        self._last = None  # one pass's dataset in memory at a time
        seed = int(_rng(self.seed, 1, i).integers(2**62))
        with root(self.root_span, i):
            t0 = _t()
            dataset = synthetic.generate_dataset(
                DESK_CLASSES, DESK_CLASSES * DESK_PER_CLASS, seed, channels=DESK_CHANNELS
            )
            _, test = train.split_dataset(dataset, seed)
            test = train.augment_rotation(test, seed)
            for state in self.states.values():
                train.accuracy(state, test)
            # make_feature_fn's sra closure calls evaluate.sra_extract
            with record_grids(evaluate, "sra_extract", self.grids):
                for j, kind in enumerate(self.extractors):
                    for f, family in enumerate(self.families):
                        evaluate.invariance_eval(
                            self.feature_fns[kind], dataset, family, INVARIANCE_SAMPLES,
                            _rng(seed, j, f),
                        )
            evaluate.mask_diversity(
                self.states["sra"].params, self.config, dataset, DIVERSITY_SAMPLES, _rng(seed, 9)
            )
            t_end = _t()
        tally.ops(1)
        for kind in self.extractors:
            self._calls(kind).extend(self._pass_calls[kind])
        self._last = (dataset, i)
        return {"pass_s": t_end - t0}

    def check_pass(self, tally) -> None:
        dataset, i = self._last
        inst = dataset[int(_rng(self.seed, 2, i).integers(len(dataset)))]
        tally.check(checks.identity_rerender(inst))
        got = baselines.roi_pool(inst.feature_map, inst.box, BASELINE_OUT)
        tally.check(checks.roi_pool(inst.feature_map, inst.box, BASELINE_OUT, got))
        params = self.states["sra"].params
        result = core.sra_extract(inst.feature_map, inst.box, params, self.config)
        for reason in checks.sra_all(inst.feature_map, inst.box, params, self.config, result):
            tally.check(reason)


WORKLOADS = {w.name: w for w in (InferRef300, TrainDesk, EvalDesk)}
