"""Semantic-mask RoI feature extraction.

A RoI is pooled to a small grid, summarized by a whole-RoI descriptor and a
per-position semantic feature map, and a bank of N mask regressors turns
those (plus optional positional channels) into N spatial attention masks.
The output feature is the mask-weighted sum of the pooled grid: N rows of C
channels, one per mask.

Every stage has a recorded variant so ``sra_backward`` can produce exact
reverse-mode gradients for all parameters and the input feature map.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .embeddings import area_embedding_raw, position_embedding_raw
from .numerics import (
    Array,
    ConfigError,
    LayerNormParams,
    LinearParams,
    ShapeError,
    VjpRecord,
    conv1x1_vjp,
    init_layer_norm,
    init_linear,
    linear_vjp,
    norm_relu_linear_vjp,
    softmax_spatial_vjp,
)
from .sampler import GridSize, RoIBox, block_average_pool_vjp, dynamic_grid_size

DESCRIPTOR_MODES = ("concatenation", "maximum", "average")
EMBEDDING_MODES = ("none", "position", "area")


@dataclass
class SraConfig:
    """Hyperparameters of the extractor.

    Defaults follow the reference operating point: 49 masks, sampling budget
    128, descriptor dim 256, amplification 50.  ``fixed_grid`` bypasses the
    dynamic sampler (required for the concatenation descriptor, whose input
    size must be static).
    """

    n_masks: int = 49
    budget: int = 128
    descriptor_dim: int = 256
    embed_channels: int = 32
    gamma: float = 50.0
    hidden: int = 128
    descriptor_mode: str = "average"
    embedding_mode: str = "area"
    fixed_grid: tuple[int, int] | None = None

    def __post_init__(self):
        if min(self.n_masks, self.descriptor_dim, self.hidden) < 1:
            raise ConfigError("n_masks, descriptor_dim and hidden must be >= 1")
        if self.budget < 1:
            raise ConfigError(f"budget must be >= 1, got {self.budget}")
        if not 0 < self.gamma < np.inf:  # NaN fails too
            raise ConfigError(f"gamma must be positive and finite, got {self.gamma}")
        if self.descriptor_mode not in DESCRIPTOR_MODES:
            raise ConfigError(f"unknown descriptor_mode {self.descriptor_mode!r}")
        if self.embedding_mode not in EMBEDDING_MODES:
            raise ConfigError(f"unknown embedding_mode {self.embedding_mode!r}")
        if self.embedding_mode != "none" and self.embed_channels < 1:
            raise ConfigError("embed_channels must be >= 1 when an embedding is used")
        if self.descriptor_mode == "concatenation" and self.fixed_grid is None:
            raise ConfigError(
                "concatenation descriptor needs fixed_grid: its input size "
                "cannot follow a dynamic grid"
            )
        if self.fixed_grid is not None:
            self.fixed_grid = (int(self.fixed_grid[0]), int(self.fixed_grid[1]))
            if min(self.fixed_grid) < 1:
                raise ConfigError(f"fixed_grid sides must be >= 1, got {self.fixed_grid}")
            # the area embedding upsamples each grid axis to length budget
            if self.embedding_mode == "area" and max(self.fixed_grid) > self.budget:
                raise ConfigError(
                    f"fixed_grid {self.fixed_grid} has a side above budget "
                    f"{self.budget}, the area embedding's axis length"
                )

    @property
    def embed_raw_dim(self) -> int:
        if self.embedding_mode == "position":
            return 2
        if self.embedding_mode == "area":
            return 2 * self.budget
        return 0

    @property
    def trunk_in_dim(self) -> int:
        p = self.embed_channels if self.embedding_mode != "none" else 0
        return 2 * self.descriptor_dim + p


@dataclass
class MaskMlpParams:
    """The bank of N mask regressors: one two-block (Norm-ReLU-Linear
    twice) MLP whose trunk every mask shares and whose head has N outputs.

    With D = trunk_in_dim and H = hidden: trunk_norm (D,), trunk_linear
    (H, D), head_norm (H,), head_linear (N, H).
    """

    trunk_norm: LayerNormParams
    trunk_linear: LinearParams
    head_norm: LayerNormParams
    head_linear: LinearParams


@dataclass
class SraParams:
    """All learnable tensors of the extractor."""

    psi: LinearParams
    semantic_conv: LinearParams
    embed_proj: LinearParams | None
    mask_mlp: MaskMlpParams


class ExtractResult(NamedTuple):
    feature: Array  # (N, C)
    masks: Array  # (N, h, w)
    grid: GridSize


# maps a feature cotangent to (parameter grads, grad wrt the input map)
SraTape = Callable[[Array], tuple[SraParams, Array]]


def descriptor_in_dim(config: SraConfig, channels: int) -> int:
    if config.descriptor_mode == "concatenation":
        gh, gw = config.fixed_grid
        return channels * gh * gw
    return channels


def init_params(
    config: SraConfig, channels: int, rng: np.random.Generator
) -> SraParams:
    """Fan-in uniform weights, zero biases, unit norm gains."""
    k = config.descriptor_dim
    psi = init_linear(rng, descriptor_in_dim(config, channels), k)
    semantic_conv = init_linear(rng, channels, k)
    embed_proj = None
    if config.embedding_mode != "none":
        embed_proj = init_linear(rng, config.embed_raw_dim, config.embed_channels)
    d_in, hid = config.trunk_in_dim, config.hidden
    trunk_linear = init_linear(rng, d_in, hid)  # drawn before the head
    mask_mlp = MaskMlpParams(
        trunk_norm=init_layer_norm(d_in),
        trunk_linear=trunk_linear,
        head_norm=init_layer_norm(hid),
        head_linear=init_linear(rng, hid, config.n_masks),
    )
    return SraParams(psi=psi, semantic_conv=semantic_conv, embed_proj=embed_proj, mask_mlp=mask_mlp)


# ---------------------------------------------------------------------------
# parameter bookkeeping


def param_leaves(obj, prefix: str = "") -> list[tuple[str, Array]]:
    """Named learnable arrays of a parameter structure, in a stable order."""
    if obj is None:
        return []
    if isinstance(obj, np.ndarray):
        return [(prefix, obj)]
    if isinstance(obj, LinearParams):
        return [(f"{prefix}.weight", obj.weight), (f"{prefix}.bias", obj.bias)]
    if isinstance(obj, LayerNormParams):
        return [(f"{prefix}.gain", obj.gain), (f"{prefix}.shift", obj.shift)]
    if hasattr(obj, "__dataclass_fields__"):
        out = []
        for f in fields(obj):
            name = f"{prefix}.{f.name}" if prefix else f.name
            out.extend(param_leaves(getattr(obj, f.name), name))
        return out
    raise TypeError(f"not a parameter structure: {type(obj)!r}")


def parameter_count(config: SraConfig, channels: int) -> int:
    """Closed-form learnable-scalar count.

    With K = descriptor_dim, P = embed_channels (0 if no embedding),
    D = 2K + P, H = hidden, N = n_masks, C_d = descriptor input dim:

        psi:            K * C_d + K
        semantic_conv:  K * C + K
        embed_proj:     P * D_raw + P          (if an embedding is used)
        mask_mlp:       2D + (H*D + H) + 2H + (N*H + N)
    """
    k = config.descriptor_dim
    c_d = descriptor_in_dim(config, channels)
    total = k * c_d + k  # psi
    total += k * channels + k  # semantic_conv
    if config.embedding_mode != "none":
        p = config.embed_channels
        total += p * config.embed_raw_dim + p
    d_in, hid, n = config.trunk_in_dim, config.hidden, config.n_masks
    total += 2 * d_in + (hid * d_in + hid) + 2 * hid + (n * hid + n)
    return total


# ---------------------------------------------------------------------------
# forward stages (each with a recorded variant)


def roi_descriptor_vjp(
    f: Array, mode: str, psi: LinearParams
) -> tuple[Array, VjpRecord]:
    """Whole-RoI summary vector: psi applied to a flatten/max/mean of f."""
    if mode not in DESCRIPTOR_MODES:
        raise ConfigError(f"unknown descriptor mode {mode!r}")
    c, h, w = f.shape
    if mode == "average":
        x = f.mean(axis=(1, 2))
    elif mode == "maximum":
        flat = f.reshape(c, h * w)
        arg = flat.argmax(axis=1)
        x = flat[np.arange(c), arg]
    else:
        x = f.ravel()
    d, rec = linear_vjp(x, psi)

    def backward(gd: Array) -> tuple[Array, Array, Array]:
        gx, gw, gb = rec.backward(gd)
        if mode == "average":
            gf = np.broadcast_to(gx[:, None, None] / (h * w), f.shape).copy()
        elif mode == "maximum":
            gf = np.zeros((c, h * w))
            gf[np.arange(c), arg] = gx
            gf = gf.reshape(c, h, w)
        else:
            gf = gx.reshape(f.shape)
        return gf, gw, gb

    return d, VjpRecord("roi_descriptor", backward)


def roi_descriptor(f: Array, mode: str, psi: LinearParams) -> Array:
    return roi_descriptor_vjp(f, mode, psi)[0]


def semantic_feature_map(f: Array, conv: LinearParams) -> Array:
    """Per-position projection of the pooled grid to descriptor space."""
    return conv1x1_vjp(f, conv)[0]


def mask_logits_vjp(
    d: Array, s: Array, p: Array | None, params: SraParams
) -> tuple[Array, VjpRecord]:
    """Pre-softmax mask scores (N, h, w).

    Every position (j, k) feeds the regressor bank with [d, s(:,j,k),
    p(:,j,k)]; positions are batched as rows.  Backward returns (gd, gs,
    gp, mlp_grads) with mlp_grads a MaskMlpParams of the bank's shape.
    """
    k, h, w = s.shape
    if d.shape[0] != k:
        raise ShapeError(
            f"mask_logits: descriptor dim {d.shape[0]} != semantic dim {k}"
        )
    hw = h * w
    cols = [np.broadcast_to(d, (hw, k)), s.reshape(k, hw).T]
    p_dim = 0
    if p is not None:
        p_dim = p.shape[0]
        cols.append(p.reshape(p_dim, hw).T)
    z = np.concatenate(cols, axis=1)

    mlp = params.mask_mlp
    hidden, r_trunk = norm_relu_linear_vjp(z, mlp.trunk_norm, mlp.trunk_linear)
    out, r_head = norm_relu_linear_vjp(hidden, mlp.head_norm, mlp.head_linear)  # (hw, N)
    n = out.shape[1]
    logits = out.T.reshape(n, h, w)

    def backward(gy: Array):
        g_hidden, g_hn_g, g_hn_s, g_hl_w, g_hl_b = r_head.backward(gy.reshape(n, hw).T)
        gz, g_tn_g, g_tn_s, g_tl_w, g_tl_b = r_trunk.backward(g_hidden)
        grads = MaskMlpParams(
            trunk_norm=LayerNormParams(g_tn_g, g_tn_s),
            trunk_linear=LinearParams(g_tl_w, g_tl_b),
            head_norm=LayerNormParams(g_hn_g, g_hn_s),
            head_linear=LinearParams(g_hl_w, g_hl_b),
        )
        gd = gz[:, :k].sum(axis=0)
        gs = gz[:, k : 2 * k].T.reshape(k, h, w)
        gp = gz[:, 2 * k :].T.reshape(p_dim, h, w) if p_dim else None
        return gd, gs, gp, grads

    return logits, VjpRecord("mask_logits", backward)


def mask_logits(d: Array, s: Array, p: Array | None, params: SraParams) -> Array:
    return mask_logits_vjp(d, s, p, params)[0]


def sample_roi_feature_vjp(f: Array, masks: Array) -> tuple[Array, VjpRecord]:
    """Mask-weighted sums of the pooled grid: y[n, c] = sum_jk f[c]·m[n]."""
    c, h, w = f.shape
    n, mh, mw = masks.shape
    if (mh, mw) != (h, w):
        raise ShapeError(
            f"sample_roi_feature: mask grid {mh}x{mw} != feature grid {h}x{w}"
        )
    f_flat = f.reshape(c, h * w)
    m_flat = masks.reshape(n, h * w)
    y = m_flat @ f_flat.T

    def backward(gy: Array) -> tuple[Array, Array]:
        gf = (gy.T @ m_flat).reshape(c, h, w)
        gm = (gy @ f_flat).reshape(n, h, w)
        return gf, gm

    return y, VjpRecord("sample_roi_feature", backward)


def sample_roi_feature(f: Array, masks: Array) -> Array:
    return sample_roi_feature_vjp(f, masks)[0]


def embedding_raw(config: SraConfig, grid: GridSize) -> Array | None:
    if config.embedding_mode == "none":
        return None
    if config.embedding_mode == "position":
        return position_embedding_raw(grid)
    return area_embedding_raw(grid, config.budget)


# ---------------------------------------------------------------------------
# full pipeline


def choose_grid(box: RoIBox, config: SraConfig) -> GridSize:
    if config.fixed_grid is not None:
        return GridSize(*config.fixed_grid)
    return dynamic_grid_size(box, config.budget)


def extract_on_grid_recorded(
    f: Array, params: SraParams, config: SraConfig
) -> tuple[Array, Array, SraTape]:
    """Post-pooling pipeline on an already-sampled (C, h, w) grid.

    Returns (feature, masks, backward) with backward mapping a feature
    cotangent to (parameter grads, grad wrt f).
    """
    _, h, w = f.shape
    d, rec_desc = roi_descriptor_vjp(f, config.descriptor_mode, params.psi)
    s, rec_sem = conv1x1_vjp(f, params.semantic_conv)
    p = None
    rec_embed = None
    raw = embedding_raw(config, GridSize(h, w))
    if raw is not None:
        p, rec_embed = conv1x1_vjp(raw, params.embed_proj)
    logits, rec_mlp = mask_logits_vjp(d, s, p, params)
    masks, rec_soft = softmax_spatial_vjp(logits, config.gamma)
    y, rec_samp = sample_roi_feature_vjp(f, masks)

    def backward(gy: Array) -> tuple[SraParams, Array]:
        gf_samp, gm = rec_samp.backward(gy)
        (glogits,) = rec_soft.backward(gm)
        gd, gs, gp, mlp_grads = rec_mlp.backward(glogits)
        gf_sem, g_sem_w, g_sem_b = rec_sem.backward(gs)
        gf_desc, g_psi_w, g_psi_b = rec_desc.backward(gd)
        g_embed = None
        if rec_embed is not None:
            _, g_emb_w, g_emb_b = rec_embed.backward(gp)
            g_embed = LinearParams(g_emb_w, g_emb_b)
        grads = SraParams(
            psi=LinearParams(g_psi_w, g_psi_b),
            semantic_conv=LinearParams(g_sem_w, g_sem_b),
            embed_proj=g_embed,
            mask_mlp=mlp_grads,
        )
        gf = gf_samp + gf_sem + gf_desc
        return grads, gf

    return y, masks, backward


def extract_on_grid(f: Array, params: SraParams, config: SraConfig) -> tuple[Array, Array]:
    y, masks, _ = extract_on_grid_recorded(f, params, config)
    return y, masks


def sra_extract_recorded(
    fmap: Array, box: RoIBox, params: SraParams, config: SraConfig
) -> tuple[ExtractResult, SraTape]:
    """Forward pass with gradient recording; pair with ``sra_backward``."""
    channels = params.semantic_conv.in_dim
    if fmap.ndim == 3 and fmap.shape[0] != channels:
        raise ShapeError(
            f"sra_extract: feature map has {fmap.shape[0]} channels, "
            f"parameters expect {channels}"
        )
    grid = choose_grid(box, config)
    f, rec_pool = block_average_pool_vjp(fmap, box, grid)
    y, masks, grid_backward = extract_on_grid_recorded(f, params, config)

    def backward(gy: Array) -> tuple[SraParams, Array]:
        grads, gf = grid_backward(gy)
        (gmap,) = rec_pool.backward(gf)
        return grads, gmap

    return ExtractResult(y, masks, grid), backward


def sra_extract(
    fmap: Array, box: RoIBox, params: SraParams, config: SraConfig
) -> ExtractResult:
    result, _ = sra_extract_recorded(fmap, box, params, config)
    return result


def sra_backward(cotangent: Array, tape: SraTape | None) -> tuple[SraParams, Array]:
    """Gradients of a scalar with given feature cotangent: (param grads, dF)."""
    if tape is None:
        raise ValueError("sra_backward: no saved forward state (run the recorded forward first)")
    return tape(cotangent)
