"""Dense-tensor kernels with hand-derived reverse-mode gradients.

Each differentiable operation has a ``*_vjp`` form that returns its output
and a :class:`VjpRecord` whose ``backward`` maps an output cotangent to
input and parameter cotangents; the forward is ``[0]`` of the call.  The
one plain forward left, ``softmax_spatial``, serves the benchmark's checks.
``check_vjp`` validates any such operation against central finite
differences, at a fixed step and tolerance.  Every layer norm adds the one
constant ``LAYER_NORM_EPSILON`` (1e-5) to the variance; its parameters are
only the learnable gain and shift.

The pipeline runs linear (and the 1x1 convolution built on it), the fused
layer norm -> relu -> linear block, which the mask regressor calls twice
(its shared trunk, then its N-output head), and the amplified spatial
softmax.  ``layer_norm_vjp`` and ``bilinear_sample_many_vjp`` are
not on the pipeline's path: they serve the reference compositions in
:mod:`semroi.oracles`, and the benchmark's span tracer binds them by name.

All arrays are numpy ndarrays in float64, except that ``check_vjp`` runs
forward passes in ``np.longdouble``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

Array = np.ndarray


class ShapeError(ValueError):
    """Raised when an operand's dimensions do not match the declared ones."""


class ConfigError(ValueError):
    """Raised for inconsistent configuration (e.g. grid exceeding a budget)."""


def is_int(value: object) -> bool:
    """An integer, numpy's included, that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require_count(name: str, value: object, minimum: int) -> None:
    """Raise ``ConfigError`` unless ``value`` is an integer (see ``is_int``)
    of at least ``minimum``."""
    if not is_int(value):
        raise ConfigError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")


@dataclass
class LinearParams:
    """Affine map parameters: ``y = weight @ x + bias``."""

    weight: Array  # (out_dim, in_dim)
    bias: Array  # (out_dim,)

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]


# added to the population variance before the square root in every layer norm
LAYER_NORM_EPSILON = 1e-5


@dataclass
class LayerNormParams:
    """Per-feature normalization parameters (population variance)."""

    gain: Array  # (dim,)
    shift: Array  # (dim,)


@dataclass
class VjpRecord:
    """Backward closure for one forward evaluation.

    ``backward`` maps the output cotangent to a tuple of cotangents, one per
    differentiable input of the forward call (inputs first, then parameters);
    the forward activations it needs are captured in its closure.
    """

    op: str
    backward: Callable[[Array], tuple]


def init_linear(rng: np.random.Generator, in_dim: int, out_dim: int) -> LinearParams:
    """Fan-in uniform weights, zero bias."""
    bound = 1.0 / np.sqrt(in_dim)
    weight = rng.uniform(-bound, bound, size=(out_dim, in_dim))
    return LinearParams(weight=weight, bias=np.zeros(out_dim))


def init_layer_norm(dim: int) -> LayerNormParams:
    """Unit gains, zero shifts."""
    return LayerNormParams(gain=np.ones(dim), shift=np.zeros(dim))


# ---------------------------------------------------------------------------
# linear


def linear_vjp(x: Array, p: LinearParams) -> tuple[Array, VjpRecord]:
    """``y = W x + b`` for a vector ``(in,)`` or row batch ``(B, in)``."""
    if x.ndim not in (1, 2) or p.weight.ndim != 2 or x.shape[-1] != p.in_dim:
        raise ShapeError(
            f"linear: input shape {x.shape} does not match weight shape {p.weight.shape}"
        )
    y = x @ p.weight.T + p.bias

    def backward(gy: Array) -> tuple[Array, Array, Array]:
        gx = gy @ p.weight
        if x.ndim == 1:
            gw = np.outer(gy, x)
            gb = gy.copy()
        else:
            gw = gy.T @ x
            gb = gy.sum(axis=0)
        return gx, gw, gb

    return y, VjpRecord("linear", backward)


def conv1x1_vjp(x: Array, p: LinearParams) -> tuple[Array, VjpRecord]:
    """Per-position linear map over a (C_in, h, w) stack -> (C_out, h, w)."""
    if x.ndim != 3:
        raise ShapeError(f"conv1x1: expected (C, h, w), got {x.shape}")
    c_in, h, w = x.shape
    rows = x.reshape(c_in, h * w).T  # (hw, C_in)
    y_rows, rec = linear_vjp(rows, p)
    y = y_rows.T.reshape(p.out_dim, h, w)

    def backward(gy: Array) -> tuple[Array, Array, Array]:
        g_rows = gy.reshape(p.out_dim, h * w).T
        gx_rows, gw, gb = rec.backward(g_rows)
        return gx_rows.T.reshape(c_in, h, w), gw, gb

    return y, VjpRecord("conv1x1", backward)


# ---------------------------------------------------------------------------
# layer norm


def layer_norm_vjp(x: Array, p: LayerNormParams) -> tuple[Array, VjpRecord]:
    """Normalize a vector ``(dim,)`` or each row of ``(B, dim)`` to zero
    mean / unit population variance.

    The pipeline normalizes inside ``norm_relu_linear_vjp``; this kernel
    builds that block's reference, ``oracles.norm_relu_linear_composed``.
    It stays in this module because ``perfbench/tracing.py`` rebinds
    ``numerics.layer_norm_vjp`` by name and raises ``KeyError`` without it.
    """
    dim = x.shape[-1]
    if x.ndim not in (1, 2) or p.gain.shape != (dim,):
        raise ShapeError(
            f"layer_norm: input shape {x.shape} does not match gain shape {p.gain.shape}"
        )
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPSILON)
    xhat = xc * inv
    y = p.gain * xhat + p.shift

    def backward(gy: Array) -> tuple[Array, Array, Array]:
        gxhat = gy * p.gain
        # d/dx of (x - mu) * inv with mu, inv functions of x
        m1 = gxhat.mean(axis=-1, keepdims=True)
        m2 = (gxhat * xhat).mean(axis=-1, keepdims=True)
        gx = inv * (gxhat - m1 - xhat * m2)
        if x.ndim == 1:
            ggain = gy * xhat
            gshift = gy.copy()
        else:
            ggain = (gy * xhat).sum(axis=0)
            gshift = gy.sum(axis=0)
        return gx, ggain, gshift

    return y, VjpRecord("layer_norm", backward)


# ---------------------------------------------------------------------------
# fused layer norm -> relu -> linear block


def norm_relu_linear_vjp(
    x: Array, norm: LayerNormParams, lin: LinearParams
) -> tuple[Array, VjpRecord]:
    """``linear(relu(layer_norm(x)))`` as one kernel.

    ``x`` is a row batch ``(B, D)``, ``norm`` is ``(D,)``, ``lin`` is
    ``(O, D)`` and the output is ``(B, O)``.  The backward returns
    ``(gx, g_gain, g_shift, g_weight, g_bias)``.  It reads the ReLU mask
    back as ``a > 0`` from the saved activation, which is the mask of the
    pre-activation.  The composition of the three kernels is
    ``oracles.norm_relu_linear_composed``.
    """
    dim = lin.in_dim
    if x.ndim != 2 or x.shape[1] != dim or norm.gain.shape != (dim,):
        raise ShapeError(
            f"norm_relu_linear: input shape {x.shape} does not match gain shape "
            f"{norm.gain.shape} and weight shape {lin.weight.shape}"
        )
    xhat = x - x.mean(axis=1, keepdims=True)
    var = np.einsum("bd,bd->b", xhat, xhat)[:, None] / dim
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPSILON)
    xhat *= inv
    a = xhat * norm.gain
    a += norm.shift
    np.maximum(a, 0.0, out=a)
    y = a @ lin.weight.T
    y += lin.bias

    def backward(gy: Array) -> tuple[Array, Array, Array, Array, Array]:
        ga = gy @ lin.weight
        g_weight = gy.T @ a
        g_bias = gy.sum(axis=0)
        ga *= a > 0.0
        g_shift = ga.sum(axis=0)
        g_gain = np.einsum("bd,bd->d", ga, xhat)
        # d/dx of (x - mu) * inv with mu, inv functions of x
        ga *= norm.gain
        m1 = ga.mean(axis=1, keepdims=True)
        m2 = np.einsum("bd,bd->b", ga, xhat)[:, None] / dim
        ga -= m1
        ga -= xhat * m2
        ga *= inv
        return ga, g_gain, g_shift, g_weight, g_bias

    return y, VjpRecord("norm_relu_linear", backward)


# ---------------------------------------------------------------------------
# spatial softmax


def softmax_spatial_vjp(logits: Array, gamma: float) -> tuple[Array, VjpRecord]:
    """Per-slice softmax of ``gamma * logits`` over the last two axes.

    Max-subtraction keeps ``exp`` finite for any gamma; each (h, w) slice of
    the output is nonnegative and sums to 1.
    """
    if not 0.0 < gamma < np.inf:  # NaN fails too
        raise ValueError(f"softmax_spatial: gamma must be positive and finite, got {gamma}")
    if logits.ndim != 3:
        raise ShapeError(f"softmax_spatial: expected (N, h, w), got {logits.shape}")
    z = gamma * logits
    z = z - z.max(axis=(1, 2), keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=(1, 2), keepdims=True)

    def backward(gy: Array) -> tuple[Array]:
        dot = (gy * probs).sum(axis=(1, 2), keepdims=True)
        return (gamma * probs * (gy - dot),)

    return probs, VjpRecord("softmax_spatial", backward)


def softmax_spatial(logits: Array, gamma: float) -> Array:
    """Kept for ``perfbench/checks.py``; goes with ROADMAP item 1."""
    return softmax_spatial_vjp(logits, gamma)[0]


# ---------------------------------------------------------------------------
# bilinear sampling


def _clamped_corners(coord: Array, size: int) -> tuple[Array, Array, Array]:
    """Clamp continuous coordinates and split into corner indices + fraction."""
    c = np.clip(coord, 0.0, size - 1.0)
    lo = np.minimum(np.floor(c), size - 1.0).astype(np.int64)
    hi = np.minimum(lo + 1, size - 1)
    frac = c - lo
    return lo, hi, frac


def bilinear_sample_many_vjp(fmap: Array, ys: Array, xs: Array) -> tuple[Array, VjpRecord]:
    """Sample ``fmap`` (C, H, W) at S continuous points; returns (C, S).

    Pixel (j, k) holds its value at coordinate (j, k); out-of-range points
    clamp to the border.  The record's backward scatters cotangents into a
    gradient for ``fmap`` (point coordinates are not differentiated).
    """
    C, H, W = fmap.shape
    j0, j1, ty = _clamped_corners(np.asarray(ys, dtype=float), H)
    k0, k1, tx = _clamped_corners(np.asarray(xs, dtype=float), W)
    w00 = (1.0 - ty) * (1.0 - tx)
    w01 = (1.0 - ty) * tx
    w10 = ty * (1.0 - tx)
    w11 = ty * tx
    out = (
        fmap[:, j0, k0] * w00
        + fmap[:, j0, k1] * w01
        + fmap[:, j1, k0] * w10
        + fmap[:, j1, k1] * w11
    )

    def backward(gy: Array) -> tuple[Array]:
        # Scatter-add per corner; rows are (H*W, C) so repeated flat indices
        # accumulate correctly under np.add.at.
        gmap = np.zeros((H * W, C))
        gt = gy.T
        for jj, kk, w in ((j0, k0, w00), (j0, k1, w01), (j1, k0, w10), (j1, k1, w11)):
            np.add.at(gmap, jj * W + kk, gt * w[:, None])
        return (gmap.T.reshape(C, H, W),)

    return out, VjpRecord("bilinear_sample_many", backward)


# ---------------------------------------------------------------------------
# finite-difference gradient checking

GRADCHECK_STEP = 1e-6
GRADCHECK_TOLERANCE = 1e-4


@dataclass
class GradCheckReport:
    passed: bool
    max_rel_err: float
    worst: str  # "<arg>[index]" of the worst coordinate
    n_coords: int

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"gradcheck {status}: max rel err {self.max_rel_err:.3e} "
            f"at {self.worst} ({self.n_coords} coords)"
        )


def check_vjp(
    fn: Callable[..., tuple[Array, Callable[[Array], dict]]],
    args: dict[str, Array],
    seed: int,
) -> GradCheckReport:
    """Compare VJP gradients of a random scalar projection against central
    finite differences of step ``GRADCHECK_STEP``; the check passes below
    the relative error ``GRADCHECK_TOLERANCE``.

    ``fn(**args)`` must return ``(output, vjp)`` with ``vjp(cotangent)`` a
    dict of gradients keyed like ``args``.  The VJP runs in double
    precision; the finite differences evaluate ``fn`` on ``np.longdouble``
    copies of the arguments, and ``fn`` must carry that precision through to
    its output (``TypeError`` otherwise): a silent float64 downcast would
    make the difference quotient roundoff-bound at this step.  With x86
    80-bit extended precision, roundoff and truncation both stay well under
    the relative error floor 1e-6 that guards near-zero gradients.
    """
    rng = np.random.default_rng(seed)
    base = {k: np.array(v, dtype=float) for k, v in args.items()}
    out, vjp = fn(**base)
    proj = rng.standard_normal(out.shape)
    grads = vjp(proj)
    # contiguous copies: perturbation below writes through reshape(-1) views
    wide = {k: v.astype(np.longdouble) for k, v in base.items()}

    def loss() -> np.longdouble:
        value, _ = fn(**wide)
        if value.dtype != np.longdouble:
            raise TypeError(
                f"check_vjp: fn returned {value.dtype} for np.longdouble arguments"
            )
        return (value * proj).sum()

    max_rel = 0.0
    worst = "<none>"
    n_coords = 0
    for name, arr in wide.items():
        got = np.asarray(grads[name], dtype=float)
        if got.shape != arr.shape:
            raise ShapeError(
                f"check_vjp: gradient shape {got.shape} for '{name}' does not "
                f"match input shape {arr.shape}"
            )
        flat = arr.reshape(-1)
        for idx in range(flat.size):
            n_coords += 1
            orig = flat[idx]
            flat[idx] = orig + GRADCHECK_STEP
            fplus = loss()
            flat[idx] = orig - GRADCHECK_STEP
            fminus = loss()
            flat[idx] = orig
            fd = float((fplus - fminus) / (2 * np.longdouble(GRADCHECK_STEP)))
            g = got.ravel()[idx]
            rel = abs(g - fd) / max(abs(g), abs(fd), 1e-6)
            if rel > max_rel:
                max_rel = rel
                where = tuple(int(i) for i in np.unravel_index(idx, arr.shape))
                worst = f"{name}[{where}]"
    return GradCheckReport(
        passed=max_rel < GRADCHECK_TOLERANCE, max_rel_err=max_rel, worst=worst, n_coords=n_coords
    )
