"""Synthetic articulated-object data for the evaluation harness.

Each class is a fixed layout of 3-5 Gaussian "parts", every part carrying a
class-specific channel signature; an instance renders that layout at a
sampled pose onto a noisy feature map and passes it through a fixed random
3x3 mixing stem (smooth blobs alone would make every pooler look alike).
The geometry is fixed: a 64x64 map, a 28-pixel proposal box, parts of
width sigma 2.5 within 9 pixels of the center, and noise of standard
deviation 0.05; only the class count, the seed and the channel count vary.
Rotation and reflection act on the part layout (the object moves); scale and
pan act only on the box (the proposal is off).  Their magnitudes are fixed
too, and shared with the invariance protocol: rotations within 45 degrees
either way, box scales from 0.8 to 1.25, pans within 0.1 of the box size.
Rendering is a pure function of (class layout, pose, instance seed), so
re-posing an instance is exact, and a map can wait until it is read.  Each
instance holds a map slot, one per (class, rotation, reflection, seed): the
first read of ``feature_map`` renders the slot's read-only map and keeps it.
A re-pose that keeps the rotation and reflection keeps the map too, so it
shares its source's slot with a new box, and the two render at most once.
``generate_dataset`` and ``apply_transform`` render nothing; a reader of
many maps renders all it will read in one ``render_maps`` batch first,
which shares the renders out over every CPU by ``render_batch``, with the
same bits as one render after another.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .numerics import Array, ConfigError, is_int, require_count
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

# the magnitudes of random poses and of the invariance protocol's families
ROTATION_MAX_DEG = 45.0
SCALE_LO = 0.8
SCALE_HI = 1.25
PAN_FRAC = 0.1  # of the box size


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


Job = tuple[RenderContext, int, Pose, int]  # (ctx, label, pose, seed) of one render


class _MapSlot:
    """The map of one (class, rotation, reflection, seed), held by every
    instance that shares it: None until the first read renders ``job``."""

    __slots__ = ("job", "map")

    def __init__(self, job: Job, fmap: Array | None = None):
        self.job = job
        self.map = fmap


@dataclass(frozen=True, eq=False)
class SyntheticInstance:
    box: RoIBox
    label: int
    pose: Pose
    seed: int
    ctx: RenderContext = field(repr=False)
    slot: _MapSlot = field(repr=False)

    @property
    def feature_map(self) -> Array:
        """The (C, H, W) read-only map, rendered on the first read of any
        instance sharing its slot.  Rendering is pure, so two threads that
        race on a first read keep the same bits."""
        slot = self.slot
        if slot.map is None:
            slot.map = _render(*slot.job, apply_stem)
        return slot.map


def _instance(
    ctx: RenderContext, label: int, pose: Pose, seed: int, fmap: Array | None = None
) -> SyntheticInstance:
    """The instance of one job, with ``fmap`` as its map, or none rendered yet."""
    return SyntheticInstance(
        box=_proposal_box(pose), label=label, pose=pose, seed=seed, ctx=ctx,
        slot=_MapSlot((ctx, label, pose, seed), fmap),
    )


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
    """3x3 channel-mixing convolution, zero padded, one matmul per tap
    (see ``_apply_stem``).

    The public name is the single-render path; ``render_batch`` calls the
    body directly, so a tracer that rebinds this name times only the renders
    made one at a time.
    """
    return _apply_stem(fmap, stem)


def _apply_stem(fmap: Array, stem: Array) -> Array:
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
    x0 = min(max(bx - half, 0.0), MAP_SIZE - 2.0)
    y0 = min(max(by - half, 0.0), MAP_SIZE - 2.0)
    x1 = min(max(bx + half, x0 + 1.0), MAP_SIZE - 1.0)
    y1 = min(max(by + half, y0 + 1.0), MAP_SIZE - 1.0)
    return RoIBox(x0, y0, x1, y1)


def render_instance(
    ctx: RenderContext, label: int, pose: Pose, seed: int
) -> SyntheticInstance:
    """Deterministic render of one instance.  The map is read-only, so
    re-poses that keep it can share it."""
    return _instance(ctx, label, pose, seed, _render(ctx, label, pose, seed, apply_stem))


def _render(
    ctx: RenderContext, label: int, pose: Pose, seed: int, stem_fn: Callable[[Array, Array], Array]
) -> Array:
    """The read-only map of one render, with the stem applied by
    ``stem_fn``: the public ``apply_stem`` for a single render, its body for
    a batch."""
    rng = np.random.default_rng(seed)
    # the bits of rng.normal(0.0, NOISE_AMP, shape), which computes
    # 0.0 + NOISE_AMP * z, in less time
    fmap = rng.standard_normal((ctx.channels, MAP_SIZE, MAP_SIZE))
    fmap *= NOISE_AMP
    centers, signatures = part_layout(ctx, label, pose)
    # each blob is separable: a row profile times a column profile
    pix = np.arange(MAP_SIZE)
    two_var = 2.0 * PART_SIGMA**2
    ey = np.exp(-((pix - centers[:, :1]) ** 2) / two_var)  # (n, H)
    ex = np.exp(-((pix - centers[:, 1:]) ** 2) / two_var)  # (n, W)
    blobs = (ey[:, :, None] * ex[:, None, :]).reshape(len(centers), MAP_SIZE * MAP_SIZE)
    fmap += (signatures.T @ blobs).reshape(fmap.shape)
    fmap = stem_fn(fmap, ctx.stem)
    fmap.setflags(write=False)
    return fmap


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def render_batch(jobs: Sequence[Job]) -> list[Array]:
    """``[render_instance(*job).feature_map for job in jobs]``, bit for bit,
    on every CPU.

    Job k is rendered by thread k mod W, where W is the number of CPUs this
    process may run on, capped at the number of jobs; thread 0 is the
    calling thread, so with W = 1 this is the plain loop.  A render is a pure
    function of its job, and its heavy parts (the noise draw and the
    matmuls) release the GIL, so the threads overlap.  The caller renders
    its own share instead of waiting on workers: a main thread that never
    renders leaves its heap cold, and later work on it page-faults.

    If jobs raise, every thread stops at its first failure, and once all
    have stopped the exception of the lowest failing job is raised: the one
    the sequential loop would have raised.  The renders call the private
    bodies, not ``render_instance`` or ``apply_stem``, so a tracer that
    rebinds those names records no span for them.
    """
    n = len(jobs)
    n_threads = max(1, min(_cpu_count(), n))
    out: list[Array] = [None] * n
    errors: dict[int, Exception] = {}

    def render_share(t: int) -> None:
        for k in range(t, n, n_threads):
            try:
                out[k] = _render(*jobs[k], _apply_stem)
            except Exception as exc:  # re-raised by the caller, in job order
                errors[k] = exc
                return

    workers = [threading.Thread(target=render_share, args=(t,)) for t in range(1, n_threads)]
    for worker in workers:
        worker.start()
    try:
        render_share(0)
    finally:
        for worker in workers:
            worker.join()
    if errors:
        raise errors[min(errors)]
    return out


def render_maps(instances: Sequence[SyntheticInstance]) -> None:
    """Render every map of ``instances`` not rendered yet, each shared slot
    once, in one ``render_batch``; with nothing to render, no batch."""
    slots = list(dict.fromkeys(inst.slot for inst in instances if inst.slot.map is None))
    if slots:
        for slot, fmap in zip(slots, render_batch([slot.job for slot in slots])):
            slot.map = fmap


def _cosine_ok(v: Array, others: list[Array]) -> bool:
    nv = np.linalg.norm(v)
    return all(
        float(v @ o) / (nv * np.linalg.norm(o)) < MAX_CROSS_CLASS_COSINE for o in others
    )


def _class_signatures(
    rng: np.random.Generator, channels: int, n_parts: int, total: Array, previous: list[Array]
) -> list[Array] | None:
    """Per-part signature vectors for one class, or None when rejection
    sampling finds none.

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
    return None


def make_render_context(n_classes: int, seed: int, channels: int = 16) -> RenderContext:
    require_count("channels", channels, 1)
    rng = np.random.default_rng(derive_seed(seed, "layout"))
    classes = []
    previous: list[Array] = []
    total = rng.standard_normal(channels)
    total *= 0.3 / np.linalg.norm(total)
    for label in range(n_classes):
        n_parts = int(rng.integers(3, 6))
        sigs = _class_signatures(rng, channels, n_parts, total, previous)
        if sigs is None:
            raise ConfigError(
                f"cannot draw class signatures for {n_classes} classes at {channels} channels "
                f"(class {label} has none); use more channels or fewer classes"
            )
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


def random_pose(rng: np.random.Generator) -> Pose:
    return Pose(
        rotation_deg=float(rng.uniform(-ROTATION_MAX_DEG, ROTATION_MAX_DEG)),
        reflected=bool(rng.integers(0, 2)),
        scale=float(rng.uniform(SCALE_LO, SCALE_HI)),
        pan_x=float(rng.uniform(-PAN_FRAC, PAN_FRAC)),
        pan_y=float(rng.uniform(-PAN_FRAC, PAN_FRAC)),
    )


def generate_dataset(
    n_classes: int, n_instances: int, seed: int, channels: int = 16
) -> list[SyntheticInstance]:
    """Round-robin labelled instances at random poses, deterministic per
    seed.  No map is rendered: each renders on its first read, or in a
    ``render_maps`` batch."""
    if not is_int(n_classes) or n_classes < 2:
        raise ConfigError(f"need at least 2 classes, got {n_classes!r}")
    require_count("n_instances", n_instances, 1)
    ctx = make_render_context(n_classes, seed, channels)
    pose_rng = np.random.default_rng(derive_seed(seed, "poses"))
    return [
        _instance(ctx, i % n_classes, random_pose(pose_rng), derive_seed(seed, f"instance/{i}"))
        for i in range(n_instances)
    ]


def apply_transform(inst: SyntheticInstance, delta: Pose) -> SyntheticInstance:
    """The instance with ``delta`` composed onto its pose.  When the composed
    pose keeps the rotation and reflection, it shares the source's map slot
    with a new box: the map depends on the pose only through those two
    (``part_layout``).  Else it gets a slot of its own.  Nothing renders
    here."""
    pose = compose_pose(inst.pose, delta)
    if pose.rotation_deg == inst.pose.rotation_deg and pose.reflected == inst.pose.reflected:
        return replace(inst, pose=pose, box=_proposal_box(pose))
    return _instance(inst.ctx, inst.label, pose, inst.seed)
