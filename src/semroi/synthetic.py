"""Synthetic articulated-object data for the evaluation harness.

Each class is a fixed layout of 3-5 Gaussian "parts", every part carrying a
class-specific channel signature; an instance renders that layout at a
sampled pose onto a noisy feature map and passes it through a fixed random
3x3 mixing stem (smooth blobs alone would make every pooler look alike).
The geometry is fixed: a 64x64 map, a 28-pixel proposal box, parts of
width sigma 2.5 within 9 pixels of the center, and noise of standard
deviation 0.05; only the class count, the seed and the channel count vary.
Rotation and reflection act on the part layout (the object moves); scale and
pan act only on the box (the proposal is off).  Rendering is a pure function
of (class layout, pose, instance seed), so re-posing an instance is exact:
a re-pose that keeps the rotation and reflection keeps the map too, and
shares the source's read-only array with a new box instead of re-rendering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .numerics import Array, ConfigError
from .reporting import derive_seed
from .sampler import RoIBox

MAX_CROSS_CLASS_COSINE = 0.5

# the fixed scene geometry, in pixels; the blobs have unit amplitude and
# NOISE_AMP is the standard deviation of the noise under them
MAP_SIZE = 64
BOX_SIZE = 28.0
LAYOUT_RADIUS = 9.0
PART_SIGMA = 2.5
NOISE_AMP = 0.05


@dataclass(frozen=True)
class Pose:
    """Object pose (rotation/reflection) plus proposal error (scale/pan)."""

    rotation_deg: float = 0.0
    reflected: bool = False
    scale: float = 1.0
    pan_x: float = 0.0  # fraction of box size
    pan_y: float = 0.0


def compose_pose(base: Pose, delta: Pose) -> Pose:
    """Apply ``delta`` after ``base``.

    Rotation/reflection compose as the dihedral group (a reflection in the
    delta negates the base angle); scale is multiplicative, pan additive.
    Angles are not wrapped: negation is exact in floating point, so a double
    reflection restores the pose bit for bit.
    """
    sign = -1.0 if delta.reflected else 1.0
    return Pose(
        rotation_deg=delta.rotation_deg + sign * base.rotation_deg,
        reflected=base.reflected ^ delta.reflected,
        scale=base.scale * delta.scale,
        pan_x=base.pan_x + delta.pan_x,
        pan_y=base.pan_y + delta.pan_y,
    )


@dataclass(frozen=True, eq=False)
class PartSpec:
    offset_y: float
    offset_x: float
    signature: Array  # (C,) unit vector


@dataclass(frozen=True)
class ClassSpec:
    parts: tuple[PartSpec, ...]


@dataclass(frozen=True, eq=False)
class RenderContext:
    """Everything needed to (re-)render instances of a dataset."""

    classes: tuple[ClassSpec, ...]
    stem: Array  # (C, C, 3, 3) fixed mixing weights
    channels: int


@dataclass(frozen=True)
class TransformRanges:
    """Magnitudes for random poses; also the invariance-protocol families."""

    rotation_max_deg: float = 45.0
    scale_lo: float = 0.8
    scale_hi: float = 1.25
    pan_frac: float = 0.1


@dataclass(frozen=True, eq=False)
class SyntheticInstance:
    feature_map: Array  # (C, H, W)
    box: RoIBox
    label: int
    pose: Pose
    seed: int
    ctx: RenderContext = field(repr=False)


def _rotate_reflect(offsets: Array, pose: Pose) -> Array:
    """Apply reflection then rotation to (n, 2) [y, x] offsets."""
    out = offsets.copy()
    if pose.reflected:
        out[:, 1] = -out[:, 1]
    theta = math.radians(pose.rotation_deg)
    c, s = math.cos(theta), math.sin(theta)
    y, x = out[:, 0].copy(), out[:, 1].copy()
    out[:, 0] = c * y - s * x
    out[:, 1] = s * y + c * x
    return out


def apply_stem(fmap: Array, stem: Array) -> Array:
    """3x3 channel-mixing convolution, zero padded, one matmul per tap.

    Flatten the zero-padded map row by row, rows of W+2.  Output pixel
    (y, x) sits at flat index y*(W+2) + x, and its tap (dy, dx) reads flat
    index (y+dy)*(W+2) + (x+dx): so tap (dy, dx) of every pixel is one
    (C, C) matmul over the contiguous run of the flat map that starts at
    dy*(W+2) + dx.  The nine products accumulate into a (C, H*(W+2))
    buffer, whose two trailing columns per row fall on the padding and are
    dropped.
    """
    c, height, width = fmap.shape
    row = width + 2
    # one spare zero row: the last tap's run ends two past the padded map
    padded = np.zeros((c, height + 3, row))
    padded[:, 1 : height + 1, 1 : width + 1] = fmap
    flat = padded.reshape(c, -1)
    taps = stem.transpose(2, 3, 0, 1).reshape(9, c, c).copy()  # contiguous (C, C) taps for BLAS
    n = height * row
    out = taps[0] @ flat[:, :n]
    for t in range(1, 9):
        start = (t // 3) * row + t % 3
        out += taps[t] @ flat[:, start : start + n]
    return np.ascontiguousarray(out.reshape(c, height, row)[:, :, :width])


def part_layout(ctx: RenderContext, label: int, pose: Pose) -> tuple[Array, Array]:
    """(y, x) centers (n, 2) and signatures (n, C) of the class's n parts
    at ``pose``."""
    parts = ctx.classes[label].parts
    offsets = np.array([[p.offset_y, p.offset_x] for p in parts])
    centers = MAP_SIZE / 2.0 + _rotate_reflect(offsets, pose)
    return centers, np.array([p.signature for p in parts])


def _proposal_box(pose: Pose) -> RoIBox:
    """The box around the map center, scaled and panned by ``pose`` and
    clamped to at least one pixel inside the map."""
    center = MAP_SIZE / 2.0
    half = BOX_SIZE * pose.scale / 2.0
    bx = center + pose.pan_x * BOX_SIZE
    by = center + pose.pan_y * BOX_SIZE
    x0 = float(np.clip(bx - half, 0.0, MAP_SIZE - 2.0))
    y0 = float(np.clip(by - half, 0.0, MAP_SIZE - 2.0))
    x1 = float(np.clip(bx + half, x0 + 1.0, MAP_SIZE - 1.0))
    y1 = float(np.clip(by + half, y0 + 1.0, MAP_SIZE - 1.0))
    return RoIBox(x0, y0, x1, y1)


def render_instance(
    ctx: RenderContext, label: int, pose: Pose, seed: int
) -> SyntheticInstance:
    """Deterministic render of one instance.  The map is read-only, so
    re-poses that keep it can share it."""
    rng = np.random.default_rng(seed)
    fmap = rng.normal(0.0, NOISE_AMP, size=(ctx.channels, MAP_SIZE, MAP_SIZE))
    centers, signatures = part_layout(ctx, label, pose)
    # each blob is separable: a row profile times a column profile
    pix = np.arange(MAP_SIZE)
    two_var = 2.0 * PART_SIGMA**2
    ey = np.exp(-((pix - centers[:, :1]) ** 2) / two_var)  # (n, H)
    ex = np.exp(-((pix - centers[:, 1:]) ** 2) / two_var)  # (n, W)
    blobs = (ey[:, :, None] * ex[:, None, :]).reshape(len(centers), MAP_SIZE * MAP_SIZE)
    fmap += (signatures.T @ blobs).reshape(fmap.shape)
    fmap = apply_stem(fmap, ctx.stem)
    fmap.setflags(write=False)
    return SyntheticInstance(
        feature_map=fmap,
        box=_proposal_box(pose),
        label=label,
        pose=pose,
        seed=seed,
        ctx=ctx,
    )


def _cosine_ok(v: Array, others: list[Array]) -> bool:
    nv = np.linalg.norm(v)
    return all(
        float(v @ o) / (nv * np.linalg.norm(o)) < MAX_CROSS_CLASS_COSINE for o in others
    )


def _class_signatures(
    rng: np.random.Generator, channels: int, n_parts: int, total: Array, previous: list[Array]
) -> list[Array]:
    """Per-part signature vectors for one class.

    Every class's signatures sum to the same small ``total`` vector: a linear
    classifier therefore cannot identify the class from any position-summed
    projection of the map (the obvious rotation-invariant shortcut), it has
    to resolve individual parts.  Cross-class pairwise cosines stay below
    MAX_CROSS_CLASS_COSINE by rejection.
    """
    for _ in range(10_000):
        free = [v / np.linalg.norm(v) for v in rng.standard_normal((n_parts - 1, channels))]
        last = total - np.sum(free, axis=0)
        if not 0.4 < float(np.linalg.norm(last)) < 2.6:
            continue
        candidate = free + [last]
        if all(_cosine_ok(v, previous) for v in candidate):
            return candidate
    raise RuntimeError("signature rejection sampling did not converge")


def make_render_context(n_classes: int, seed: int, channels: int = 16) -> RenderContext:
    if channels < 1:
        raise ConfigError(f"channels must be at least 1, got {channels}")
    rng = np.random.default_rng(derive_seed(seed, "layout"))
    classes = []
    previous: list[Array] = []
    total = rng.standard_normal(channels)
    total *= 0.3 / np.linalg.norm(total)
    for _ in range(n_classes):
        n_parts = int(rng.integers(3, 6))
        sigs = _class_signatures(rng, channels, n_parts, total, previous)
        parts = []
        for sig in sigs:
            angle = rng.uniform(0.0, 2.0 * math.pi)
            # narrow radius band: radial profiles stay near class-constant,
            # so only the angular arrangement and per-part content separate
            # the classes
            radius = rng.uniform(0.6, 1.0) * LAYOUT_RADIUS
            parts.append(
                PartSpec(
                    offset_y=radius * math.sin(angle),
                    offset_x=radius * math.cos(angle),
                    signature=sig,
                )
            )
        previous.extend(sigs)
        classes.append(ClassSpec(parts=tuple(parts)))
    stem_rng = np.random.default_rng(derive_seed(seed, "stem"))
    stem = stem_rng.normal(0.0, 1.0 / math.sqrt(9 * channels), size=(channels, channels, 3, 3))
    return RenderContext(classes=tuple(classes), stem=stem, channels=channels)


def random_pose(rng: np.random.Generator, ranges: TransformRanges) -> Pose:
    return Pose(
        rotation_deg=float(rng.uniform(-ranges.rotation_max_deg, ranges.rotation_max_deg)),
        reflected=bool(rng.integers(0, 2)),
        scale=float(rng.uniform(ranges.scale_lo, ranges.scale_hi)),
        pan_x=float(rng.uniform(-ranges.pan_frac, ranges.pan_frac)),
        pan_y=float(rng.uniform(-ranges.pan_frac, ranges.pan_frac)),
    )


def generate_dataset(
    n_classes: int,
    n_instances: int,
    seed: int,
    ranges: TransformRanges = TransformRanges(),
    channels: int = 16,
) -> list[SyntheticInstance]:
    """Round-robin labelled instances at random poses, deterministic per seed."""
    if n_classes < 2:
        raise ConfigError(f"need at least 2 classes, got {n_classes}")
    ctx = make_render_context(n_classes, seed, channels)
    pose_rng = np.random.default_rng(derive_seed(seed, "poses"))
    instances = []
    for i in range(n_instances):
        label = i % n_classes
        pose = random_pose(pose_rng, ranges)
        inst_seed = derive_seed(seed, f"instance/{i}")
        instances.append(render_instance(ctx, label, pose, inst_seed))
    return instances


def apply_transform(inst: SyntheticInstance, delta: Pose) -> SyntheticInstance:
    """The instance with ``delta`` composed onto its pose.

    The map depends on the pose only through its rotation and reflection
    (``part_layout``); when the composed pose keeps both, the result shares
    the source's map and only its box is computed.  Otherwise the instance
    is re-rendered."""
    pose = compose_pose(inst.pose, delta)
    if pose.rotation_deg == inst.pose.rotation_deg and pose.reflected == inst.pose.reflected:
        return replace(inst, pose=pose, box=_proposal_box(pose))
    return render_instance(inst.ctx, inst.label, pose, inst.seed)
