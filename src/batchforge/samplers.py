"""Per-epoch batch schedule generation and distributed sharding.

:func:`plan_epoch` plans the three image strategies and
:func:`plan_video_vbs` the video variant:

* single scale, fixed batch: one resolution, one batch size;
* multi scale, fixed batch: resolution drawn per iteration, batch fixed;
* multi scale, variable batch: resolution drawn per iteration, batch
  rescaled so batch x pixel-count stays constant;
* video: like variable batch, with frames x clips x pixels as the volume.

Both planners validate the config first (:func:`batchforge.core.ensure_valid`).

A schedule is a pure function of (config, epoch, active id set). Resolution
draws are keyed by (epoch, iteration) only, never by rank, so every rank
regenerates the same shape sequence; ids are dealt round-robin to ranks by
:func:`shard_for_rank`.

One id permutation is drawn per epoch (:func:`batchforge.rng.permutation`,
one sort of composite draw-and-index keys) and consumed sequentially; the
epoch ends when it runs out (a final short batch is kept unless
``drop_last``). Active ids are sorted first, unless they already increase;
when they are the whole dataset the permutation itself is the id order, so
no gather is made.

An :class:`EpochSchedule` stores the epoch as arrays for every strategy,
video included: the scheduled ids in order, per-iteration offsets into
them, and per-iteration indices into a table of shapes (resolutions, or
clip specs for video). :class:`BatchPlan` objects are read-only views of
one iteration, built on first use of :attr:`EpochSchedule.plans`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .core import (
    BatchRounding,
    Resolution,
    SamplerConfig,
    Strategy,
    ensure_valid,
)
from .rng import StreamKey, choice_at, permutation

RESOLUTION_DRAW_TAG = "res"
CLIP_DRAW_TAG = "clip"
PERMUTATION_TAG = "perm"


class ScheduleError(ValueError):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


@dataclass(frozen=True)
class VideoClipSpec:
    """Shape of one video sample: frames x clips x spatial size."""

    num_frames: int
    clips_per_video: int
    resolution: Resolution

    def volume(self) -> int:
        return self.num_frames * self.clips_per_video * self.resolution.pixel_count()


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


def scaled_batch_size(
    base_batch: int,
    base_res: Resolution,
    target_res: Resolution,
    rounding: BatchRounding = BatchRounding.FLOOR,
    min_batch: int = 1,
    world_size: int = 1,
) -> int:
    """Batch size at ``target_res`` keeping batch x pixels constant.

    Exact integer arithmetic throughout; NEAREST rounds half up,
    MULTIPLE_OF_WORLD floors to the nearest positive multiple of
    ``world_size``. The result is clamped to at least ``min_batch``
    (keep ``min_batch`` a multiple of ``world_size`` if shards must
    stay exact).
    """
    return _scale_units(
        base_batch,
        base_res.pixel_count(),
        target_res.pixel_count(),
        rounding,
        min_batch,
        world_size,
    )


def _scale_units(
    base_batch: int,
    base_units: int,
    target_units: int,
    rounding: BatchRounding,
    min_batch: int,
    world_size: int,
) -> int:
    num = base_batch * base_units
    den = target_units
    if rounding is BatchRounding.FLOOR:
        scaled = num // den
    elif rounding is BatchRounding.NEAREST:
        scaled = (2 * num + den) // (2 * den)
    else:
        scaled = (num // den) // world_size * world_size
        if scaled < world_size:
            scaled = world_size
    return max(scaled, min_batch, 1)


def scaled_size_table(config: SamplerConfig, units: list[int], base_units: int) -> np.ndarray:
    """Per-entry scaled global batch sizes for a list of pixel volumes."""
    sizes = [
        _scale_units(
            config.effective_batch(),
            base_units,
            u,
            config.batch_rounding,
            config.min_batch,
            config.world_size,
        )
        for u in units
    ]
    return np.asarray(sizes, dtype=np.int64)


def resolution_size_table(config: SamplerConfig) -> np.ndarray:
    """Scaled global batch size for each entry of ``config.resolutions``."""
    return scaled_size_table(
        config,
        [r.pixel_count() for r in config.resolutions],
        config.base_resolution.pixel_count(),
    )


def _variable_batch_counts(
    config: SamplerConfig,
    epoch: int,
    n_active: int,
    shape_idx: np.ndarray,
    size_table: np.ndarray,
    tag: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw table entries until the epoch's ids run out.

    Entry ``k`` is a batch of ``size_table[k]`` ids at shape
    ``shape_idx[k]``; a one-entry table needs no draw. Returns (shape
    indices, batch sizes); the final batch is trimmed to the leftover count
    when ``drop_last`` is false.
    """
    if n_active <= 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    bound = n_active // int(size_table.min()) + 2  # no epoch can run longer
    if len(size_table) == 1:
        draws = np.zeros(bound, dtype=np.int64)
    else:
        draws = choice_at(config.seed, epoch, np.arange(bound), tag, len(size_table))
    batches = size_table[draws]
    served = np.cumsum(batches)
    if config.drop_last:
        count = int(np.searchsorted(served, n_active, side="right"))
        batches = batches[:count]
    else:
        count = min(int(np.searchsorted(served, n_active, side="left")) + 1, bound)
        batches = np.diff(np.minimum(served[:count], n_active), prepend=0)
    return shape_idx[draws[:count]], batches


def epoch_batch_shapes(
    config: SamplerConfig, epoch: int, n_active: int
) -> tuple[np.ndarray, np.ndarray]:
    """Shape sequence (resolution indices, batch sizes) for one epoch.

    This is the arithmetic skeleton the planners flesh out with sample
    ids; cost accounting walks it directly so counted updates are the
    updates a materialized schedule would perform. Each strategy is the
    one walk over its (resolution index, global batch) table.
    """
    strategy = config.strategy
    every = np.arange(len(config.resolutions))
    if strategy is Strategy.SSC_FBS:
        shape_idx = np.array([config.resolutions.index_of(config.base_resolution)])
        sizes = np.array([config.effective_batch()])
    elif strategy is Strategy.MSC_FBS:
        shape_idx, sizes = every, np.full(len(every), config.effective_batch())
    elif strategy is Strategy.MSC_VBS:
        shape_idx, sizes = every, resolution_size_table(config)
    else:
        raise ScheduleError(
            "UNSUPPORTED_STRATEGY",
            f"epoch_batch_shapes handles image strategies, not {strategy.value}",
        )
    return _variable_batch_counts(config, epoch, n_active, shape_idx, sizes, RESOLUTION_DRAW_TAG)


def _resolve_active_ids(config: SamplerConfig, active_ids) -> np.ndarray:
    """Active ids in increasing order; an increasing input is used as is."""
    if active_ids is None:
        return np.arange(config.dataset_size, dtype=np.int64)
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
    return ids


def _assemble(
    config: SamplerConfig,
    epoch: int,
    ids: np.ndarray,
    shape_idx: np.ndarray,
    batch_sizes: np.ndarray,
    shapes: Iterable[Resolution | VideoClipSpec],
) -> EpochSchedule:
    offsets = np.zeros(len(batch_sizes) + 1, dtype=np.int64)
    np.cumsum(batch_sizes, out=offsets[1:])
    order = permutation(config.seed, StreamKey(epoch, 0, PERMUTATION_TAG), len(ids))[: offsets[-1]]
    # Sorted, unique and in range: all dataset_size ids are arange(N), so
    # the permutation already is the id order.
    scheduled = order if len(ids) == config.dataset_size else ids[order]
    return EpochSchedule(epoch, scheduled, offsets, shape_idx, tuple(shapes))


def plan_epoch(config: SamplerConfig, epoch: int, active_ids=None) -> EpochSchedule:
    """Generate one epoch's schedule for any image strategy."""
    ensure_valid(config)
    ids = _resolve_active_ids(config, active_ids)
    res_indices, batch_sizes = epoch_batch_shapes(config, epoch, len(ids))
    return _assemble(config, epoch, ids, res_indices, batch_sizes, config.resolutions)


def plan_video_vbs(
    config: SamplerConfig,
    specs: list[VideoClipSpec],
    base: VideoClipSpec,
    epoch: int,
    active_ids=None,
) -> EpochSchedule:
    """Video variant: clip spec drawn per iteration, batch x volume constant.

    ``config.base_batch`` is paired with ``base``; any other spec's batch
    is scaled by the volume ratio under the configured rounding rules.
    """
    ensure_valid(config)
    if not specs:
        raise ScheduleError("EMPTY_SPEC_SET", "video planning needs at least one clip spec")
    if base not in specs:
        raise ScheduleError("BASE_SPEC_NOT_IN_SET", "the base clip spec must be in the spec list")
    ids = _resolve_active_ids(config, active_ids)
    table = scaled_size_table(config, [s.volume() for s in specs], base.volume())
    if (table % config.world_size).any():
        raise ScheduleError(
            "UNSHARDABLE_BATCH",
            f"clip batch sizes {table.tolist()} are not all multiples of world_size {config.world_size}",
        )
    every = np.arange(len(specs))
    draws, batch_sizes = _variable_batch_counts(config, epoch, len(ids), every, table, CLIP_DRAW_TAG)
    return _assemble(config, epoch, ids, draws, batch_sizes, specs)


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
