"""Output checks, with ``semroi.oracles`` as the reference.

Each check returns None when the output is right and a one-line reason
when it is not.  Checks run outside the timed regions and with tracing
removed, so they cost neither the clock nor the trace.
"""

from __future__ import annotations

import numpy as np

from semroi import core, embeddings, numerics, oracles, sampler, synthetic

# Relative tolerance against the loop oracles: they sum in another order.
RTOL = 1e-9
# Channels of the pooled grid compared against the weighted-sum loop oracle;
# output channel c reads only input channel c, so a prefix is an exact check.
ORACLE_CHANNELS = 16


def _close(name: str, got, want) -> str | None:
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return f"{name}: shape {got.shape} != {want.shape}"
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    err = float(np.abs(got - want).max(initial=0.0))
    if not err <= RTOL * scale:
        return f"{name}: max abs error {err:.3e} exceeds {RTOL * scale:.3e}"
    return None


def grid(box, config, result) -> str | None:
    """The chosen grid against exhaustive search."""
    if config.fixed_grid is not None:
        return None
    want = oracles.grid_size_exhaustive(box, config.budget)
    if tuple(result.grid) != tuple(want):
        return f"grid: {tuple(result.grid)} != exhaustive {tuple(want)} for {box}"
    return None


def masks(result) -> str | None:
    """Every mask slice is nonnegative and sums to 1."""
    m = result.masks
    if not np.all(np.isfinite(m)) or m.min() < 0.0:
        return "masks: negative or non-finite entries"
    sums = m.sum(axis=(1, 2))
    err = float(np.abs(sums - 1.0).max())
    if err > 1e-9:
        return f"masks: slice sums differ from 1 by {err:.3e}"
    return None


def sra_oracle(fmap, box, params, config, result) -> str | None:
    """Mask logits against the position loop (through the softmax), and the
    output feature against the weighted-sum loop."""
    f = sampler.block_average_pool(fmap, box, result.grid)
    d = core.roi_descriptor(f, config.descriptor_mode, params.psi)
    s = core.semantic_feature_map(f, params.semantic_conv)
    raw = core.embedding_raw(config, result.grid)
    p = None if raw is None else embeddings.project_embedding(raw, params.embed_proj)
    logits = oracles.mask_logits_loop(d, s, p, params)
    reason = _close("mask logits", numerics.softmax_spatial(logits, config.gamma), result.masks)
    if reason:
        return reason
    c = min(ORACLE_CHANNELS, f.shape[0])
    want = oracles.sample_roi_feature_loop(f[:c], result.masks)
    return _close("feature", result.feature[:, :c], want)


def sra_all(fmap, box, params, config, result) -> list[str | None]:
    return [
        grid(box, config, result),
        masks(result),
        sra_oracle(fmap, box, params, config, result),
    ]


def roi_pool(fmap, box, out, got) -> str | None:
    return _close("roi_pool", got, oracles.roi_pool_loop(fmap, box, out))


def identity_rerender(inst) -> str | None:
    """Re-rendering under the identity pose reproduces the map bit for bit."""
    again = synthetic.apply_transform(inst, synthetic.Pose())
    if again.feature_map.shape != inst.feature_map.shape or not np.array_equal(
        again.feature_map, inst.feature_map
    ):
        return "identity re-render is not bit-exact"
    if again.box != inst.box:
        return f"identity re-render moved the box: {again.box} != {inst.box}"
    return None


def train_step(loss: float, state) -> str | None:
    """Finite loss, and finite gradients: a non-finite gradient leaves the
    momentum buffer it is added to non-finite."""
    if not np.isfinite(loss):
        return f"train step {state.step}: non-finite loss {loss}"
    for name, buf in state.momenta.items():
        if not np.all(np.isfinite(buf)):
            return f"train step {state.step}: non-finite gradient in {name}"
    return None
