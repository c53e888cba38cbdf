"""Independent reference implementations and the checks that compare the
fast paths against them.

Each oracle recomputes an operation the dumb way (exhaustive enumeration,
position loops, finite differences) so the optimized implementations have
something to be wrong against.  ``run_all`` powers the CLI ``oracles``
subcommand; the unit tests call the same checks and additionally pin
hand-derived literals.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .baselines import roi_align, roi_pool
from .core import (
    SraConfig,
    init_params,
    mask_logits_vjp,
    param_leaves,
    parameter_count,
    roi_descriptor_vjp,
    sample_roi_feature_vjp,
    sra_extract,
    sra_extract_recorded,
)
from .embeddings import area_embedding_raw
from .evaluate import FeatureFn, InvarianceReport, cosine, flops_estimate, random_delta
from .numerics import (
    Array,
    LayerNormParams,
    LinearParams,
    VjpRecord,
    bilinear_sample_many_vjp,
    check_vjp,
    conv1x1_vjp,
    layer_norm_vjp,
    linear_vjp,
    norm_relu_linear_vjp,
    softmax_spatial_vjp,
)
from .sampler import (
    GridSize,
    RoIBox,
    block_average_pool_vjp,
    dynamic_grid_size,
)
from .synthetic import (
    MAP_SIZE,
    NOISE_AMP,
    PART_SIGMA,
    Pose,
    RenderContext,
    SyntheticInstance,
    apply_stem,
    apply_transform,
    make_render_context,
    part_layout,
    render_instance,
)


@dataclass
class OracleResult:
    name: str
    passed: bool
    max_err: float
    detail: str = ""


# ---------------------------------------------------------------------------
# reference implementations


def grid_size_exhaustive(box: RoIBox, budget: int) -> GridSize:
    """Enumerate every feasible (h, w) pair; same objective and tie-breaks."""
    ratio = box.height / box.width
    hs, ws = [], []
    for h in range(1, budget + 1):
        for w in range(1, budget // h + 1):
            hs.append(h)
            ws.append(w)
    hs = np.array(hs)
    ws = np.array(ws)
    diffs = np.abs(hs / ws - ratio)
    order = np.lexsort((-hs, -(hs * ws), diffs))
    return GridSize(int(hs[order[0]]), int(ws[order[0]]))


def _block_sample_points(box: RoIBox, grid: GridSize) -> tuple[Array, Array]:
    """Continuous (y, x) coordinates of the 4 quarter-point samples per block,
    ordered (block_row, block_col, sample)."""
    h, w = grid
    bh = box.height / h
    bw = box.width / w
    off = np.array([0.25, 0.75])
    ys = box.y0 + (np.arange(h)[:, None] + off[None, :]) * bh  # (h, 2)
    xs = box.x0 + (np.arange(w)[:, None] + off[None, :]) * bw  # (w, 2)
    # (h, w, 2, 2) -> sample index s = 2*sy + sx
    yy = np.broadcast_to(ys[:, None, :, None], (h, w, 2, 2))
    xx = np.broadcast_to(xs[None, :, None, :], (h, w, 2, 2))
    return yy.ravel(), xx.ravel()


def block_average_pool_points(
    fmap: Array, box: RoIBox, grid: GridSize
) -> tuple[Array, VjpRecord]:
    """Point form of the block-average pool: gather the 4 bilinear samples
    of every block and average them; the backward scatters through
    ``bilinear_sample_many_vjp``."""
    h, w = grid
    ys, xs = _block_sample_points(box, grid)
    vals, rec = bilinear_sample_many_vjp(fmap, ys, xs)
    C = fmap.shape[0]
    out = vals.reshape(C, h, w, 4).mean(axis=3)

    def backward(gy: Array) -> tuple[Array]:
        gs = np.repeat(gy[..., None] / 4.0, 4, axis=3).reshape(C, -1)
        return rec.backward(gs)

    return out, VjpRecord("block_average_pool_points", backward)


def conv1x1_loop(x: Array, weight: Array, bias: Array) -> Array:
    c_out = weight.shape[0]
    _, h, w = x.shape
    out = np.empty((c_out, h, w))
    for j in range(h):
        for k in range(w):
            out[:, j, k] = weight @ x[:, j, k] + bias
    return out


def mask_logits_loop(d: Array, s: Array, p: Array | None, params) -> Array:
    """Position-by-position two-block MLP, no batching."""
    _, h, w = s.shape
    mlp = params.mask_mlp
    out = np.empty((mlp.head_linear.out_dim, h, w))
    for j in range(h):
        for k in range(w):
            z = [d, s[:, j, k]]
            if p is not None:
                z.append(p[:, j, k])
            z = np.concatenate(z)
            a = np.maximum(layer_norm_vjp(z, mlp.trunk_norm)[0], 0.0)
            a = linear_vjp(a, mlp.trunk_linear)[0]
            a = np.maximum(layer_norm_vjp(a, mlp.head_norm)[0], 0.0)
            out[:, j, k] = linear_vjp(a, mlp.head_linear)[0]
    return out


def relu_vjp(x: Array) -> tuple[Array, VjpRecord]:
    y = np.maximum(x, 0.0)
    mask = x > 0.0

    def backward(gy: Array) -> tuple[Array]:
        return (gy * mask,)

    return y, VjpRecord("relu", backward)


def norm_relu_linear_composed(
    x: Array, norm: LayerNormParams, lin: LinearParams
) -> tuple[Array, VjpRecord]:
    """The block of ``numerics.norm_relu_linear_vjp`` as three recorded
    kernels, each with its own backward."""
    a1, r1 = layer_norm_vjp(x, norm)
    a2, r2 = relu_vjp(a1)
    y, r3 = linear_vjp(a2, lin)

    def backward(gy: Array) -> tuple[Array, Array, Array, Array, Array]:
        g2, g_weight, g_bias = r3.backward(gy)
        (g1,) = r2.backward(g2)
        gx, g_gain, g_shift = r1.backward(g1)
        return gx, g_gain, g_shift, g_weight, g_bias

    return y, VjpRecord("norm_relu_linear_composed", backward)


def sample_roi_feature_loop(f: Array, masks: Array) -> Array:
    c, h, w = f.shape
    n = masks.shape[0]
    y = np.zeros((n, c))
    for i in range(n):
        for ch in range(c):
            for j in range(h):
                for k in range(w):
                    y[i, ch] += f[ch, j, k] * masks[i, j, k]
    return y


def roi_pool_loop(fmap: Array, box: RoIBox, out: tuple[int, int]) -> Array:
    """Membership-tested max: every pixel checked against every bin."""
    c, height, width = fmap.shape
    oh, ow = out
    bh = box.height / oh
    bw = box.width / ow
    result = np.empty((oh, ow, c))
    for bj in range(oh):
        for bk in range(ow):
            y_lo, y_hi = box.y0 + bj * bh, box.y0 + (bj + 1) * bh
            x_lo, x_hi = box.x0 + bk * bw, box.x0 + (bk + 1) * bw
            members = [
                (py, px)
                for py in range(height)
                for px in range(width)
                if y_lo <= py < y_hi and x_lo <= px < x_hi
            ]
            if members:
                result[bj, bk] = np.max([fmap[:, py, px] for py, px in members], axis=0)
            else:
                py = int(np.clip(round(box.y0 + (bj + 0.5) * bh), 0, height - 1))
                px = int(np.clip(round(box.x0 + (bk + 0.5) * bw), 0, width - 1))
                result[bj, bk] = fmap[:, py, px]
    return result


def apply_stem_einsum(fmap: Array, stem: Array) -> Array:
    """The 3x3 stem as one einsum over the nine shifted views, no BLAS."""
    c, height, width = fmap.shape
    padded = np.pad(fmap, ((0, 0), (1, 1), (1, 1)))
    stack = np.stack(
        [padded[:, dy : dy + height, dx : dx + width] for dy in range(3) for dx in range(3)]
    )  # (9, C, H, W)
    return np.einsum("cko,okhw->chw", stem.reshape(c, c, 9), stack)


def render_map_loop(ctx: RenderContext, label: int, pose: Pose, seed: int) -> Array:
    """The rendered map from the same noise draw, one 2-D Gaussian per part
    added in turn, and the einsum stem."""
    rng = np.random.default_rng(seed)
    fmap = rng.normal(0.0, NOISE_AMP, size=(ctx.channels, MAP_SIZE, MAP_SIZE))
    centers, signatures = part_layout(ctx, label, pose)
    yy = np.arange(MAP_SIZE)[:, None]
    xx = np.arange(MAP_SIZE)[None, :]
    for (cy, cx), signature in zip(centers, signatures):
        blob = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * PART_SIGMA**2))
        fmap += signature[:, None, None] * blob
    return apply_stem_einsum(fmap, ctx.stem)


def invariance_eval_loop(
    feature_fn: FeatureFn,
    dataset: list[SyntheticInstance],
    family: str,
    n_samples: int,
    rng: np.random.Generator,
) -> InvarianceReport:
    """``evaluate.invariance_eval`` one pick at a time: each pick is
    re-posed by ``apply_transform``, its delta drawn, between its two
    extractions."""
    picks = rng.integers(0, len(dataset), size=n_samples)
    total = 0.0
    for idx in picks:
        inst = dataset[int(idx)]
        before = feature_fn(inst)
        after = feature_fn(apply_transform(inst, random_delta(family, rng)))
        total += cosine(before, after)
    return InvarianceReport(family=family, mean_cosine=total / n_samples, n_samples=n_samples)


# the small extractor the full-pipeline gradcheck differentiates, on an
# 8x8 map of GRADCHECK_CHANNELS channels, and the number of consecutive
# seeds check_gradients checks it at
GRADCHECK_CONFIG = SraConfig(
    n_masks=3, budget=9, descriptor_dim=8, embed_channels=4, hidden=8, fixed_grid=(3, 3)
)
GRADCHECK_CHANNELS = 4
GRADCHECK_SEEDS = 20


def full_pipeline_gradcheck(seed: int):
    """Finite-difference check of ``GRADCHECK_CONFIG``'s extraction across
    the input map and every parameter."""
    rng = np.random.default_rng(seed)
    params = init_params(GRADCHECK_CONFIG, GRADCHECK_CHANNELS, rng)
    fmap = rng.standard_normal((GRADCHECK_CHANNELS, 8, 8))
    box = RoIBox(1.3, 2.1, 6.2, 6.9)

    def safe(name: str) -> str:
        return name.replace(".", "_")

    names = [n for n, _ in param_leaves(params)]

    def fn(fmap, **leafed):
        # rebind the leaves rather than copy into them, so that extended-
        # precision arguments keep their dtype
        p = copy.deepcopy(params)
        for name in names:
            *path, leaf = name.split(".")
            setattr(functools.reduce(getattr, path, p), leaf, leafed[safe(name)])
        result, tape = sra_extract_recorded(fmap, box, p, GRADCHECK_CONFIG)

        def vjp(cot):
            grads, gmap = tape(cot)
            out = {"fmap": gmap}
            for name, arr in param_leaves(grads):
                out[safe(name)] = arr
            return out

        return result.feature, vjp

    args = {"fmap": fmap}
    for name, arr in param_leaves(params):
        args[safe(name)] = arr
    assert len(set(safe(n) for n in names)) == len(names)
    return check_vjp(fn, args, seed=seed)


# ---------------------------------------------------------------------------
# checks


def _result(name: str, err: float, tol: float, detail: str = "") -> OracleResult:
    return OracleResult(name=name, passed=err < tol, max_err=float(err), detail=detail)


def check_grid_vs_exhaustive(seed: int = 0) -> OracleResult:
    """60 boxes of ordinary size, then 60 of extreme aspect (height/width
    from 1e-12 to 1e12), which reach both ends of the grid table."""
    n_boxes = 60
    rng = np.random.default_rng(seed)
    mismatches = 0
    for budget in (1, 32, 64, 128, 256):
        boxes = []
        for _ in range(n_boxes):
            x0, y0 = rng.uniform(0, 40, 2)
            bw, bh = rng.uniform(0.5, 80, 2)
            boxes.append(RoIBox(x0, y0, x0 + bw, y0 + bh))
        for aspect in 10.0 ** rng.uniform(-12, 12, n_boxes):
            boxes.append(RoIBox(0.0, 0.0, 1.0, float(aspect)))
        for box in boxes:
            if tuple(dynamic_grid_size(box, budget)) != tuple(grid_size_exhaustive(box, budget)):
                mismatches += 1
    return _result("grid_vs_exhaustive", float(mismatches), 0.5, f"{mismatches} mismatches")


def check_pool_bilinear_hand(seed: int = 0) -> OracleResult:
    # single-channel 2x2 map [[0,1],[2,3]] is the bilinear field x + 2y;
    # the four quarter-point samples of box (0,0)-(1,1) average to the
    # center value 1.5
    fmap = np.array([[[0.0, 1.0], [2.0, 3.0]]])
    got, _ = block_average_pool_vjp(fmap, RoIBox(0, 0, 1, 1), GridSize(1, 1))
    return _result("pool_bilinear_hand", abs(float(got[0, 0, 0]) - 1.5), 1e-12)


def check_pool_operator_vs_points(seed: int = 0) -> OracleResult:
    """Separable pool against the point form, forward and backward, on mixed
    grids, boxes hanging off the map (clamping) and sub-pixel boxes."""
    rng = np.random.default_rng(seed)
    fmap = rng.standard_normal((3, 9, 11))
    boxes = [
        RoIBox(1.3, 2.1, 6.2, 6.9),
        RoIBox(-2.5, 5.0, 4.0, 12.5),  # off the top-left and bottom edges
        RoIBox(8.2, -3.0, 14.0, 2.0),  # off the right and top edges
        RoIBox(-9.0, -9.0, -1.0, -2.0),  # wholly outside: clamps to a corner
        RoIBox(4.4, 3.6, 4.7, 3.8),  # smaller than one pixel
        RoIBox(10.0 - 1e-9, 8.0 - 1e-9, 10.0, 8.0),  # on the last pixel
    ]
    err = 0.0
    for box in boxes:
        for grid in (GridSize(1, 1), GridSize(2, 5), GridSize(7, 3), dynamic_grid_size(box, 64)):
            got, rec = block_average_pool_vjp(fmap, box, grid)
            want, rec_points = block_average_pool_points(fmap, box, grid)
            g = rng.standard_normal(want.shape)
            err = max(
                err,
                float(np.abs(got - want).max()),
                float(np.abs(rec.backward(g)[0] - rec_points.backward(g)[0]).max()),
            )
    return _result("pool_operator_vs_points", err, 1e-12, f"{len(boxes)} boxes x 4 grids")


def _rel_err(got: Array, want: Array) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


def check_render_vs_loop(seed: int = 0) -> OracleResult:
    """BLAS stem and matmul part blobs against the einsum stem and the
    per-part loop: the stem on non-square maps at several channel counts,
    the full render at identity, rotated and reflected poses."""
    rng = np.random.default_rng(seed)
    err = 0.0
    for c in (1, 3, 16):
        fmap = rng.standard_normal((c, 7, 12))
        stem = rng.standard_normal((c, c, 3, 3))
        err = max(err, _rel_err(apply_stem(fmap, stem), apply_stem_einsum(fmap, stem)))
    ctx = make_render_context(3, seed, channels=8)
    poses = [
        Pose(),
        Pose(rotation_deg=30.0),
        Pose(reflected=True),
        Pose(rotation_deg=-117.5, reflected=True, scale=1.2, pan_x=0.1),
    ]
    for label in range(3):
        for k, pose in enumerate(poses):
            inst_seed = seed * 100 + label * 10 + k
            got = render_instance(ctx, label, pose, inst_seed).feature_map
            err = max(err, _rel_err(got, render_map_loop(ctx, label, pose, inst_seed)))
    return _result("render_vs_loop", err, 1e-12, f"3 stems, 3 classes x {len(poses)} poses")


def check_area_embedding_hand(seed: int = 0) -> OracleResult:
    emb = area_embedding_raw(GridSize(2, 2), 4)
    want = np.array([1.0, 0.75, 0.25, 0.0])
    err = float(np.abs(emb[:4, 0, 0] - want).max())
    ident = area_embedding_raw(GridSize(4, 4), 4)
    err = max(err, float(np.abs(ident[:4, :, 0] - np.eye(4)).max()))
    return _result("area_embedding_hand", err, 1e-12)


def check_conv1x1_vs_loop(seed: int = 0) -> OracleResult:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((5, 3, 4))
    p = LinearParams(rng.standard_normal((6, 5)), rng.standard_normal(6))
    err = float(np.abs(conv1x1_vjp(x, p)[0] - conv1x1_loop(x, p.weight, p.bias)).max())
    raw = rng.standard_normal((4, 3, 4))
    proj = LinearParams(rng.standard_normal((2, 4)), rng.standard_normal(2))
    err = max(err, float(np.abs(conv1x1_vjp(raw, proj)[0] - conv1x1_loop(raw, proj.weight, proj.bias)).max()))
    return _result("conv1x1_vs_loop", err, 1e-12)


def check_descriptor_vs_loop(seed: int = 0) -> OracleResult:
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((5, 3, 4))
    psi = LinearParams(rng.standard_normal((7, 5)), rng.standard_normal(7))
    mean = np.zeros(5)
    for j in range(3):
        for k in range(4):
            mean += f[:, j, k]
    mean /= 12.0
    want = psi.weight @ mean + psi.bias
    err = float(np.abs(roi_descriptor_vjp(f, "average", psi)[0] - want).max())
    return _result("descriptor_vs_loop", err, 1e-12)


def check_mask_logits_vs_loop(seed: int = 0) -> OracleResult:
    rng = np.random.default_rng(seed)
    config = SraConfig(
        n_masks=3, budget=16, descriptor_dim=4, embed_channels=3, hidden=6, fixed_grid=(3, 3)
    )
    params = init_params(config, 5, rng)
    d = rng.standard_normal(4)
    s = rng.standard_normal((4, 3, 3))
    p = rng.standard_normal((3, 3, 3))
    got, _ = mask_logits_vjp(d, s, p, params)
    err = float(np.abs(got - mask_logits_loop(d, s, p, params)).max())
    return _result("mask_logits_vs_loop", err, 1e-10)


def check_norm_relu_linear_vs_composed(seed: int = 0) -> OracleResult:
    """The fused block against the composed kernels, forward and all five
    gradients.  Two features have zero gain and shift, so their
    pre-activation is exactly 0 and both forms must take the same ReLU
    subgradient there."""
    rng = np.random.default_rng(seed)
    b, d, o = 7, 9, 4
    x = rng.standard_normal((b, d))
    gain, shift = rng.standard_normal((2, d))
    gain[:2] = shift[:2] = 0.0
    norm = LayerNormParams(gain, shift)
    lin = LinearParams(rng.standard_normal((o, d)), rng.standard_normal(o))
    got, rec = norm_relu_linear_vjp(x, norm, lin)
    want, rec_composed = norm_relu_linear_composed(x, norm, lin)
    gy = rng.standard_normal(want.shape)
    pairs = zip((got, *rec.backward(gy)), (want, *rec_composed.backward(gy)))
    err = max(_rel_err(g, w) for g, w in pairs)
    return _result("norm_relu_linear_vs_composed", err, 1e-12)


def check_sampling_vs_loop(seed: int = 0) -> OracleResult:
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((6, 4, 5))
    masks = rng.random((3, 4, 5))
    masks /= masks.sum(axis=(1, 2), keepdims=True)
    got, _ = sample_roi_feature_vjp(f, masks)
    err = float(np.abs(got - sample_roi_feature_loop(f, masks)).max())
    return _result("sampling_vs_loop", err, 1e-12)


def check_extract_vs_recomposition(seed: int = 0) -> OracleResult:
    """End-to-end extraction equals gluing the individually tested stages."""
    rng = np.random.default_rng(seed)
    config = SraConfig(n_masks=4, budget=16, descriptor_dim=6, embed_channels=3, hidden=5)
    params = init_params(config, 5, rng)
    fmap = rng.standard_normal((5, 10, 10))
    box = RoIBox(1.2, 0.7, 8.4, 7.3)
    result = sra_extract(fmap, box, params, config)
    grid = dynamic_grid_size(box, config.budget)
    f, _ = block_average_pool_vjp(fmap, box, grid)
    d, _ = roi_descriptor_vjp(f, config.descriptor_mode, params.psi)
    s, _ = conv1x1_vjp(f, params.semantic_conv)
    p, _ = conv1x1_vjp(area_embedding_raw(grid, config.budget), params.embed_proj)
    logits, _ = mask_logits_vjp(d, s, p, params)
    masks, _ = softmax_spatial_vjp(logits, config.gamma)
    y, _ = sample_roi_feature_vjp(f, masks)
    err = float(np.abs(result.feature - y).max())
    err = max(err, float(np.abs(result.masks - masks).max()))
    return _result("extract_vs_recomposition", err, 1e-10)


def check_gradients(seed: int = 0) -> OracleResult:
    """``full_pipeline_gradcheck`` at ``GRADCHECK_SEEDS`` consecutive seeds
    from ``seed``; it passes only if every report passes, at
    ``numerics.GRADCHECK_TOLERANCE``."""
    reports = {seed + i: full_pipeline_gradcheck(seed + i) for i in range(GRADCHECK_SEEDS)}
    worst = max(reports, key=lambda s: reports[s].max_rel_err)
    return OracleResult(
        name="pipeline_gradcheck",
        passed=all(r.passed for r in reports.values()),
        max_err=reports[worst].max_rel_err,
        detail=f"{GRADCHECK_SEEDS} seeds from {seed}; worst at seed {worst}: {reports[worst].worst}",
    )


def check_roi_pool_vs_loop(seed: int = 0) -> OracleResult:
    rng = np.random.default_rng(seed)
    fmap = rng.standard_normal((3, 8, 8))
    box = RoIBox(0.7, 1.1, 6.9, 7.4)
    err = float(np.abs(roi_pool(fmap, box, (2, 2)) - roi_pool_loop(fmap, box, (2, 2))).max())
    return _result("roi_pool_vs_loop", err, 0.0 + 1e-30, "exact")


def check_roi_align_ramp(seed: int = 0) -> OracleResult:
    # field value x + 2y: every bin average equals the field at the bin center
    yy, xx = np.mgrid[0:12, 0:12]
    fmap = (xx + 2 * yy).astype(float)[None]
    box = RoIBox(1.5, 2.25, 9.5, 8.75)
    out = roi_align(fmap, box, (3, 4))
    bh, bw = box.height / 3, box.width / 4
    want = np.empty((3, 4))
    for j in range(3):
        for k in range(4):
            cy = box.y0 + (j + 0.5) * bh
            cx = box.x0 + (k + 0.5) * bw
            want[j, k] = cx + 2 * cy
    return _result("roi_align_ramp", float(np.abs(out[:, :, 0] - want).max()), 1e-10)


def check_parameter_count_golden(seed: int = 0) -> OracleResult:
    # hand sum at K=1, P=0 (no embedding), hidden=1, N=1, C=1:
    #   psi 1*1+1=2; semantic 1*1+1=2; trunk_norm 2*2=4;
    #   trunk_linear 1*2+1=3; head_norm 2; head_linear 1*1+1=2  -> 15
    config = SraConfig(
        n_masks=1, budget=1, descriptor_dim=1, embed_channels=1, hidden=1, embedding_mode="none"
    )
    got = parameter_count(config, 1)
    return _result("parameter_count_golden", abs(got - 15), 0.5, f"got {got}")


def check_flops_golden(seed: int = 0) -> OracleResult:
    # hand sum at N=K=C=hidden=1, no embedding, 1x1 grid:
    #   pool 20; reduce 1; psi 2; semantic 2; trunk_norm 10; relu 2;
    #   trunk_linear 3; head_norm 5; relu 1; head_linear 2; softmax 4;
    #   weighted sum 1  -> 53
    config = SraConfig(
        n_masks=1, budget=1, descriptor_dim=1, embed_channels=1, hidden=1, embedding_mode="none"
    )
    got = flops_estimate(config, 1, (1, 1)).per_roi
    return _result("flops_golden", abs(got - 53), 0.5, f"got {got}")


ALL_CHECKS: list[Callable[[int], OracleResult]] = [
    check_grid_vs_exhaustive,
    check_pool_bilinear_hand,
    check_pool_operator_vs_points,
    check_render_vs_loop,
    check_area_embedding_hand,
    check_conv1x1_vs_loop,
    check_descriptor_vs_loop,
    check_mask_logits_vs_loop,
    check_norm_relu_linear_vs_composed,
    check_sampling_vs_loop,
    check_extract_vs_recomposition,
    check_gradients,
    check_roi_pool_vs_loop,
    check_roi_align_ramp,
    check_parameter_count_golden,
    check_flops_golden,
]


def run_all(seed: int = 0) -> list[OracleResult]:
    return [check(seed) for check in ALL_CHECKS]
