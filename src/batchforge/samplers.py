"""Per-epoch batch schedule generation and distributed sharding.

:func:`plan_epoch` plans all four strategies: each iteration draws one
shape of the strategy's :func:`shape_table` at its :func:`batch_table`
size, the one table that planning, the closed-form update count and the
config's checks all read. Planning validates the config first
(:func:`batchforge.core.ensure_valid`). The cost accounting walks many
epochs' shape sequences at once (:func:`walk_shapes`).

A schedule is a pure function of (config, epoch, active id set). Resolution
draws are keyed by (epoch, iteration) only, never by rank, so every rank
regenerates the same shape sequence; ids are dealt round-robin to ranks by
:func:`shard_for_rank`.

One id permutation is drawn per epoch (:func:`batchforge.rng.permutation`)
and consumed sequentially; the epoch ends when it runs out (a final short
batch is kept unless ``drop_last``). The whole dataset is permuted as its
positions, and a subset as its ids, which the permutation's keys carry: no
id is gathered, and a plan's ids are a view of its one id-sized array, the
key buffer.

An :class:`EpochSchedule` stores the epoch as arrays for every strategy,
video included. A schedule :func:`plan_epoch` makes, or a shard of one,
carries the :class:`ScheduleOrigin` it re-plans from, and its arrays are
read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .core import (
    BatchforgeError,
    BatchRounding,
    Resolution,
    SamplerConfig,
    Strategy,
    VideoClipSpec,
    check_integer,
    ensure_valid,
    fields_equal,
)
from .rng import StreamKey, choice_at, permutation

RESOLUTION_DRAW_TAG = "res"
CLIP_DRAW_TAG = "clip"
PERMUTATION_TAG = "perm"

# Entries per array in one block of :func:`walk_shapes`; bounds the walk's memory. Its two uint64 arrays take
# 512 KiB of a 2 MiB L2; 2**14 paid the per-block dispatch twice as often, 2**16 cost ~2 MiB more peak RSS.
WALK_BLOCK_ENTRIES = 1 << 15


@dataclass(frozen=True, eq=False)
class BatchPlan:
    """One iteration of a schedule: what to load and at which size."""

    iteration: int
    resolution: Resolution
    batch_size: int
    sample_ids: np.ndarray
    clip: VideoClipSpec | None = None

    def pixel_volume(self) -> int:
        """batch x H x W (x frames x clips for video)."""
        return self.batch_size * unit_volume(self.clip or self.resolution)

    def __eq__(self, other) -> bool:
        return fields_equal(self, other)


def unit_volume(shape: Resolution | VideoClipSpec) -> int:
    """Input volume of one sample: H x W, times frames x clips for video."""
    return shape.volume() if isinstance(shape, VideoClipSpec) else shape.pixel_count()


def shape_resolution(shape: Resolution | VideoClipSpec) -> Resolution:
    """The spatial resolution of a shape: a clip's, or the resolution itself."""
    return shape.resolution if isinstance(shape, VideoClipSpec) else shape


@dataclass(frozen=True, eq=False)
class ScheduleOrigin:
    """What a schedule re-plans from: ``plan_epoch(config, epoch, active)``, then the shard of ``rank`` of ``world_size``.

    ``active`` is the sorted active ids :func:`plan_epoch` planned over, a
    reference rather than a copy, or None for the whole dataset.
    """

    config: SamplerConfig
    active: np.ndarray | None
    rank: int = 0
    world_size: int = 1


@dataclass(frozen=True, eq=False)
class EpochSchedule:
    """One pass over the active samples, stored as arrays.

    Iteration ``t`` trains ``ids[offsets[t]:offsets[t + 1]]`` at
    ``shapes[shape_idx[t]]``. ``shapes`` holds ``Resolution``s for the image
    strategies and ``VideoClipSpec``s for video.
    """

    epoch: int
    ids: np.ndarray  # int64, the scheduled ids in order
    offsets: np.ndarray  # int64[T + 1], from 0 to len(ids)
    shape_idx: np.ndarray  # int64[T]
    shapes: tuple[Resolution | VideoClipSpec, ...]
    origin: ScheduleOrigin | None = field(default=None, repr=False)  # None for a hand-built schedule; equality ignores it

    def __post_init__(self):
        if self.origin is not None:
            for array in (self.ids, self.offsets, self.shape_idx):
                array.flags.writeable = False

    @property
    def total_samples(self) -> int:
        return int(self.offsets[-1])

    @property
    def total_updates(self) -> int:
        return len(self.shape_idx)

    @cached_property
    def plans(self) -> tuple[BatchPlan, ...]:
        """Per-iteration views, built on first access; ``sample_ids`` are slices of ``ids``."""
        bounds = self.offsets.tolist()
        plans = []
        for t, k in enumerate(self.shape_idx.tolist()):
            clip = self.shapes[k] if isinstance(self.shapes[k], VideoClipSpec) else None
            ids = self.ids[bounds[t] : bounds[t + 1]]
            plans.append(BatchPlan(t, shape_resolution(self.shapes[k]), len(ids), ids, clip))
        return tuple(plans)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EpochSchedule):
            return NotImplemented
        return (
            self.epoch == other.epoch
            and np.array_equal(self.ids, other.ids)
            and np.array_equal(self.offsets, other.offsets)
            and [self.shapes[k] for k in self.shape_idx.tolist()]
            == [other.shapes[k] for k in other.shape_idx.tolist()]
        )


def size_table(config: SamplerConfig, units: Iterable[int], base_units: int) -> np.ndarray:
    """Global batch size per input volume in ``units``, keeping batch x volume constant.

    ``config.effective_batch()`` is the batch at ``base_units``. Exact integer
    arithmetic throughout: FLOOR floors, NEAREST rounds half up and
    MULTIPLE_OF_WORLD floors to a positive multiple of ``world_size``; each
    size is then clamped to at least ``min_batch``.
    """
    num, world = config.effective_batch() * base_units, config.world_size
    sizes = []
    for den in units:
        if config.batch_rounding is BatchRounding.FLOOR:
            scaled = num // den
        elif config.batch_rounding is BatchRounding.NEAREST:
            scaled = (2 * num + den) // (2 * den)
        else:
            scaled = max(num // den // world * world, world)
        sizes.append(max(scaled, config.min_batch, 1))
    return np.asarray(sizes, dtype=np.int64)


def batch_table(config: SamplerConfig) -> np.ndarray:
    """Global batch size per shape of :func:`shape_table`: the table a strategy's iterations draw from.

    The one place a strategy maps to its sizes: fixed batch, single and
    multi scale, is the base batch at every shape, and variable batch, image
    and video alike, is every shape at its :func:`size_table` size over the
    shapes' :func:`unit_volume`, anchored at the base shape (``base_clip``
    for video, else ``base_resolution``).
    """
    shapes = shape_table(config)[0]
    if config.strategy in (Strategy.SSC_FBS, Strategy.MSC_FBS):
        return np.full(len(shapes), config.effective_batch())
    base = config.base_clip if config.strategy is Strategy.VIDEO_VBS else config.base_resolution
    return size_table(config, map(unit_volume, shapes), unit_volume(base))


def shape_table(config: SamplerConfig) -> tuple[tuple[Resolution | VideoClipSpec, ...], str]:
    """A strategy's shapes, which its draws index, and the tag that keys the draws.

    Single scale is the base resolution alone, multi scale every
    resolution, and video every clip spec.
    """
    if config.strategy is Strategy.VIDEO_VBS:
        return config.clips, CLIP_DRAW_TAG
    if config.strategy is Strategy.SSC_FBS:
        return (config.base_resolution,), RESOLUTION_DRAW_TAG
    return config.resolutions, RESOLUTION_DRAW_TAG


def walk_shapes(config: SamplerConfig, epochs, n_active: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Shape sequences (shape indices, batch sizes) of ``epochs`` over ``n_active`` ids, a block of epochs at a time.

    A block is two ``(epochs, width)`` arrays of about ``WALK_BLOCK_ENTRIES``
    entries, one row per epoch, batch 0 padding each row past its end.
    Iterations draw :func:`batch_table` entries until the ids run out, a
    one-entry table included (every draw is index 0); the final batch is
    trimmed unless ``drop_last`` drops it. Rows draw the expected count plus
    8 % and 16; a block where a row runs short is redrawn at a bound no epoch
    can outrun, in sub-blocks of ``WALK_BLOCK_ENTRIES // bound`` rows (at
    least one), so a redraw holds about as many entries as a block, or one
    row. It repeats the same keyed draws, so neither the width nor the
    sub-blocks show. The first ``expected * 0.92 - 16`` entries of a row,
    its head, are summed once; the prefix sum, the short-row check and the
    trim run over the crossing window after it. A head serving at most
    ``n_active`` ids holds nothing either trim changes; a block where some
    row's head serves more walks the full width.

    The two arrays are uint64, the draws and the hash's scratch, which then
    receives the batches. The blocks of a walk, and the sub-blocks of a
    redraw, reuse them, so a yielded block's arrays are overwritten by the
    next: a caller that keeps a block copies it.
    """
    sizes, tag = batch_table(config), shape_table(config)[1]
    epochs = np.asarray(epochs, dtype=np.int64)
    bound, expected = n_active // int(sizes.min()) + 2, n_active / sizes.mean()
    width, head = min(int(expected * 1.08) + 16, bound), max(0, int(expected * 0.92) - 16)

    def walk(blocks: list[np.ndarray], span: int) -> Iterator[tuple[np.ndarray, np.ndarray] | None]:
        """Each block of rows drawn ``span`` entries wide in one pair of arrays, or None where some row runs short."""
        work, iterations = np.empty((2, max(map(len, blocks)) * span), dtype=np.uint64), np.arange(span)
        for rows in blocks:
            draws, scratch = (part[: len(rows) * span].reshape(len(rows), span) for part in work)
            draws = choice_at(config.seed, rows, iterations, tag, len(sizes), out=draws, scratch=scratch)
            # draws lie in [0, len(sizes)): clip only skips the bounds check
            batches = sizes.take(draws, mode="clip", out=scratch.view(np.int64))
            tail, start = batches[:, head:], batches[:, :head].sum(axis=1)
            if (start > n_active).any():  # a row that crosses inside its head: the block walks its full width
                tail, start = batches, np.zeros_like(start)
            served = np.cumsum(tail, axis=1)
            served += start[:, None]
            if not (served[:, -1] > n_active).all():
                yield None
                continue
            if config.drop_last:
                np.copyto(tail, 0, where=served > n_active)
            else:  # trim the final batch: each entry becomes what it serves of the n_active ids
                np.minimum(served, n_active, out=served)
                tail[:, 0] = served[:, 0] - start
                np.subtract(served[:, 1:], served[:, :-1], out=tail[:, 1:])
            yield draws, batches

    blocks = _row_blocks(epochs, WALK_BLOCK_ENTRIES // width)
    for block, walked in zip(blocks, walk(blocks, width)):
        if walked is not None:
            yield walked
        else:  # at the bound every row covers n_active: each entry is at least min(sizes)
            yield from walk(_row_blocks(block, WALK_BLOCK_ENTRIES // bound), bound)


def _row_blocks(rows: np.ndarray, step: int) -> list[np.ndarray]:
    """``rows`` split into blocks of ``step`` rows, at least one each."""
    step = max(1, step)
    return np.split(rows, range(step, len(rows), step))


def epoch_batch_shapes(config: SamplerConfig, epoch: int, n_active: int) -> tuple[np.ndarray, np.ndarray]:
    """Shape sequence (shape indices, batch sizes) for one epoch: the one-row :func:`walk_shapes`.

    This is the arithmetic skeleton :func:`plan_epoch` fleshes out with
    sample ids.
    """
    shape_idx, batches = next(walk_shapes(config, [epoch], n_active))
    count = np.count_nonzero(batches)
    return shape_idx[0, :count], batches[0, :count]


def _resolve_active_ids(config: SamplerConfig, active_ids) -> np.ndarray | None:
    """Active ids in increasing order, or None when they are the whole dataset; an increasing input is used as is."""
    if active_ids is None:
        return None
    ids = np.asarray(active_ids)
    if ids.ndim != 1 or not (ids.dtype.kind in "iu" or ids.size == 0):  # no cast may read a mask, floats or strings as ids
        raise BatchforgeError("BAD_ACTIVE_IDS", f"active ids must be a 1-D array or list of integers, got {ids.dtype} "
                              f"of shape {ids.shape}")
    ids = ids.astype(np.int64, copy=False)
    presorted = bool((ids[1:] > ids[:-1]).all())
    if not presorted:
        ids = np.sort(ids)
    if len(ids) and (ids[0] < 0 or ids[-1] >= config.dataset_size):
        raise BatchforgeError(
            "ID_OUT_OF_RANGE",
            f"active ids must lie in [0, {config.dataset_size})",
        )
    if not presorted:
        repeated = ids[1:][ids[1:] == ids[:-1]]
        if len(repeated):
            raise BatchforgeError("DUPLICATE_ID", f"active id {repeated[0]} is listed more than once")
    # Sorted, unique and in range: all dataset_size ids are arange(N).
    return None if len(ids) == config.dataset_size else ids


def plan_epoch(config: SamplerConfig, epoch: int, active_ids=None) -> EpochSchedule:
    """Generate one epoch's schedule for any strategy; ``epoch`` is an integer in [0, 2**63), else ``BAD_EPOCH``.

    ``active_ids`` that are not a 1-D integer array or list (a bool mask, floats, strings) raise
    ``BAD_ACTIVE_IDS``; an id outside the dataset raises ``ID_OUT_OF_RANGE``, a repeated one ``DUPLICATE_ID``.
    """
    ensure_valid(config)
    epoch = check_integer(epoch, "epoch", "BAD_EPOCH")
    ids = _resolve_active_ids(config, active_ids)
    n = config.dataset_size if ids is None else len(ids)
    shape_idx, batch_sizes = epoch_batch_shapes(config, epoch, n)
    offsets = np.zeros(len(batch_sizes) + 1, dtype=np.int64)
    np.cumsum(batch_sizes, out=offsets[1:])
    order = permutation(config.seed, StreamKey(epoch, 0, PERMUTATION_TAG), n, ids)[: offsets[-1]]
    return EpochSchedule(epoch, order, offsets, shape_idx, shape_table(config)[0], ScheduleOrigin(config, ids))


def plan_video_vbs(
    config: SamplerConfig, specs: list[VideoClipSpec], base: VideoClipSpec, epoch: int, active_ids=None
) -> EpochSchedule:
    """:func:`plan_epoch` for ``config`` as a video config with clip table ``specs`` around ``base``."""
    video = replace(config, strategy=Strategy.VIDEO_VBS, clips=tuple(specs), base_clip=base)
    return plan_epoch(video, epoch, active_ids)


def shard_for_rank(schedule: EpochSchedule, rank: int, world_size: int) -> EpochSchedule:
    """Slice a global schedule down to one rank's share.

    Rank r takes the r-th stride of each iteration's ids; iteration count
    and shapes are identical across ranks, and the rank shards of an
    iteration partition its ids. Every batch is a multiple of
    ``world_size``, so one stride over the whole id array is each
    iteration's stride; the shard's ids are a view, not a copy. The shard
    of a planned, unsharded schedule carries its rank and world size in its
    origin; a shard of anything else has no origin. ``rank`` and
    ``world_size`` are integers (numpy ones included) with ``0 <= rank <
    world_size < 2**63``; anything else, a bool included, raises
    ``RANK_OUT_OF_RANGE``.
    """
    world_size = check_integer(world_size, "world_size", "RANK_OUT_OF_RANGE", least=1)
    rank = check_integer(rank, "rank", "RANK_OUT_OF_RANGE", below=world_size)
    sizes = np.diff(schedule.offsets)
    indivisible = np.flatnonzero(sizes % world_size)
    if len(indivisible):
        t = int(indivisible[0])
        raise BatchforgeError(
            "INDIVISIBLE_BATCH",
            f"iteration {t} batch {sizes[t]} is not divisible by {world_size}",
        )
    origin = schedule.origin
    if origin is not None:
        origin = replace(origin, rank=rank, world_size=world_size) if origin.world_size == 1 else None
    return EpochSchedule(
        schedule.epoch,
        schedule.ids[rank::world_size],
        schedule.offsets // world_size,
        schedule.shape_idx,
        schedule.shapes,
        origin,
    )
