"""Per-epoch batch schedule generation and distributed sharding.

:func:`plan_epoch` plans all four strategies: each iteration draws one
entry of the strategy's (shape index, global batch) table, which
:func:`batch_table` builds and which planning, the closed-form update count
and the config's sharding check all read; :func:`shape_table` names the
shapes those indices point into. Variable batch rescales with
:func:`size_table` so batch x input volume stays constant: pixels for the
image strategies, frames x clips x pixels for the config's clip table
(``SamplerConfig.clips``) under video. Planning validates the config first
(:func:`batchforge.core.ensure_valid`).

A schedule is a pure function of (config, epoch, active id set). Resolution
draws are keyed by (epoch, iteration) only, never by rank, so every rank
regenerates the same shape sequence; ids are dealt round-robin to ranks by
:func:`shard_for_rank`.

One id permutation is drawn per epoch (:func:`batchforge.rng.permutation`,
one sort of composite draw-and-index keys) and consumed sequentially; the
epoch ends when it runs out (a final short batch is kept unless
``drop_last``). Active ids are sorted first, unless they already increase;
when they are the whole dataset (``active_ids=None`` included) the
permutation itself is the id order, so no id array is built and no gather
is made.

An :class:`EpochSchedule` stores the epoch as arrays for every strategy,
video included: the scheduled ids in order, per-iteration offsets into
them, and per-iteration indices into a table of shapes (resolutions, or
clip specs for video). :class:`BatchPlan` objects are read-only views of
one iteration, built on first use of :attr:`EpochSchedule.plans`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .core import (
    BatchRounding,
    Resolution,
    SamplerConfig,
    Strategy,
    VideoClipSpec,
    ensure_valid,
)
from .rng import StreamKey, choice_at, permutation

RESOLUTION_DRAW_TAG = "res"
CLIP_DRAW_TAG = "clip"
PERMUTATION_TAG = "perm"

# Entries per array in one block of :func:`walk_shapes`; bounds the walk's memory.
WALK_BLOCK_ENTRIES = 1 << 14


class ScheduleError(ValueError):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


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
        if not isinstance(other, BatchPlan):
            return NotImplemented
        return (
            self.iteration == other.iteration
            and self.resolution == other.resolution
            and self.batch_size == other.batch_size
            and self.clip == other.clip
            and np.array_equal(self.sample_ids, other.sample_ids)
        )


def unit_volume(shape: Resolution | VideoClipSpec) -> int:
    """Input volume of one sample: H x W, times frames x clips for video."""
    return shape.volume() if isinstance(shape, VideoClipSpec) else shape.pixel_count()


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
            plans.append(BatchPlan(t, clip.resolution if clip else self.shapes[k], len(ids), ids, clip))
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


def batch_table(config: SamplerConfig) -> tuple[np.ndarray, np.ndarray]:
    """(shape indices, global batch sizes) a strategy draws from.

    The one place a strategy maps to its table: single scale is the base
    resolution at the base batch, multi scale fixed batch is every
    resolution at the base batch, variable batch is every resolution at its
    :func:`size_table` size, and video is every clip spec at its
    :func:`size_table` size over clip volumes, anchored at ``base_clip``.
    """
    strategy, batch = config.strategy, config.effective_batch()
    every = np.arange(len(config.resolutions))
    if strategy is Strategy.SSC_FBS:
        return np.array([config.resolutions.index_of(config.base_resolution)]), np.array([batch])
    if strategy is Strategy.MSC_FBS:
        return every, np.full(len(every), batch)
    if strategy is Strategy.MSC_VBS:
        units = [r.pixel_count() for r in config.resolutions]
        return every, size_table(config, units, config.base_resolution.pixel_count())
    units = [clip.volume() for clip in config.clips]
    return np.arange(len(units)), size_table(config, units, config.base_clip.volume())


def shape_table(config: SamplerConfig) -> tuple[tuple[Resolution | VideoClipSpec, ...], str]:
    """The shapes :func:`batch_table` indexes, and the tag that keys their draws."""
    if config.strategy is Strategy.VIDEO_VBS:
        return config.clips, CLIP_DRAW_TAG
    return config.resolutions.entries, RESOLUTION_DRAW_TAG


def walk_shapes(config: SamplerConfig, epochs, n_active: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Shape sequences (shape indices, batch sizes) of ``epochs`` over ``n_active`` ids, a block of epochs at a time.

    A block is two ``(epochs, width)`` arrays of about ``WALK_BLOCK_ENTRIES``
    entries, one row per epoch, batch 0 padding each row past its end.
    Iterations draw :func:`batch_table` entries (a one-entry table needs no
    draw) until the ids run out; the final batch is trimmed unless
    ``drop_last`` drops it. Rows draw the expected count plus 8 % and 16; a
    block where a row runs short is redrawn at a bound no epoch can outrun,
    which repeats the same keyed draws, so the width never shows.
    """
    (shape_idx, sizes), tag = batch_table(config), shape_table(config)[1]
    identity = np.array_equal(shape_idx, np.arange(len(sizes)))  # then a draw is its own shape index
    epochs = np.asarray(epochs, dtype=np.int64)
    bound = n_active // int(sizes.min()) + 2
    width = min(int(n_active / sizes.mean() * 1.08) + 16, bound)
    step = max(1, WALK_BLOCK_ENTRIES // width)
    for block in np.split(epochs, range(step, len(epochs), step)):
        for span in (width, bound):
            if len(sizes) == 1:
                draws = np.zeros((len(block), span), dtype=np.int64)
            else:
                draws = choice_at(config.seed, block, np.arange(span), tag, len(sizes))
            batches = sizes[draws]
            served = np.cumsum(batches, axis=1)
            if (served[:, -1] > n_active).all():
                break
        if config.drop_last:
            batches[served > n_active] = 0
        else:  # trim the final batch: each entry becomes what it serves of the n_active ids
            np.minimum(served, n_active, out=served)
            batches[:, 0] = served[:, 0]
            np.subtract(served[:, 1:], served[:, :-1], out=batches[:, 1:])
        yield draws if identity else shape_idx[draws], batches


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
    ids = np.asarray(active_ids, dtype=np.int64)
    presorted = bool((ids[1:] > ids[:-1]).all())
    if not presorted:
        ids = np.sort(ids)
    if len(ids) and (ids[0] < 0 or ids[-1] >= config.dataset_size):
        raise ScheduleError(
            "ID_OUT_OF_RANGE",
            f"active ids must lie in [0, {config.dataset_size})",
        )
    if not presorted:
        repeated = ids[1:][ids[1:] == ids[:-1]]
        if len(repeated):
            raise ScheduleError("DUPLICATE_ID", f"active id {repeated[0]} is listed more than once")
    # Sorted, unique and in range: all dataset_size ids are arange(N).
    return None if len(ids) == config.dataset_size else ids


def plan_epoch(config: SamplerConfig, epoch: int, active_ids=None) -> EpochSchedule:
    """Generate one epoch's schedule for any strategy."""
    ensure_valid(config)
    ids = _resolve_active_ids(config, active_ids)
    n = config.dataset_size if ids is None else len(ids)
    shape_idx, batch_sizes = epoch_batch_shapes(config, epoch, n)
    offsets = np.zeros(len(batch_sizes) + 1, dtype=np.int64)
    np.cumsum(batch_sizes, out=offsets[1:])
    order = permutation(config.seed, StreamKey(epoch, 0, PERMUTATION_TAG), n)[: offsets[-1]]
    # The whole dataset's ids are arange(N), so the permutation already is the id order.
    scheduled = order if ids is None else ids[order]
    return EpochSchedule(epoch, scheduled, offsets, shape_idx, shape_table(config)[0])


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
    iteration's stride; the shard's ids are a view, not a copy.
    """
    if not (0 <= rank < world_size):
        raise ScheduleError("RANK_OUT_OF_RANGE", f"rank {rank} not in [0, {world_size})")
    sizes = np.diff(schedule.offsets)
    indivisible = np.flatnonzero(sizes % world_size)
    if len(indivisible):
        t = int(indivisible[0])
        raise ScheduleError(
            "INDIVISIBLE_BATCH",
            f"iteration {t} batch {sizes[t]} is not divisible by {world_size}",
        )
    return EpochSchedule(
        schedule.epoch,
        schedule.ids[rank::world_size],
        schedule.offsets // world_size,
        schedule.shape_idx,
        schedule.shapes,
    )
