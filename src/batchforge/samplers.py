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

One id permutation is drawn per epoch and consumed sequentially; the epoch
ends when it runs out (a final short batch is kept unless ``drop_last``).
"""

from __future__ import annotations

from dataclasses import dataclass

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
        per_sample = self.clip.volume() if self.clip else self.resolution.pixel_count()
        return self.batch_size * per_sample

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


@dataclass(frozen=True, eq=False)
class EpochSchedule:
    """Ordered batch plans for one pass over the active samples."""

    epoch: int
    plans: tuple[BatchPlan, ...]
    total_samples: int
    total_updates: int

    @classmethod
    def build(cls, epoch: int, plans: tuple[BatchPlan, ...]) -> "EpochSchedule":
        return cls(
            epoch=epoch,
            plans=plans,
            total_samples=int(sum(p.batch_size for p in plans)),
            total_updates=len(plans),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, EpochSchedule):
            return NotImplemented
        return (
            self.epoch == other.epoch
            and self.total_samples == other.total_samples
            and self.total_updates == other.total_updates
            and len(self.plans) == len(other.plans)
            and all(a == b for a, b in zip(self.plans, other.plans))
        )

    def __iter__(self):
        return iter(self.plans)


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


def _fixed_batch_counts(n_active: int, batch: int, drop_last: bool) -> np.ndarray:
    """Batch sizes for a fixed-batch epoch over ``n_active`` ids."""
    full, rem = divmod(n_active, batch)
    sizes = np.full(full, batch, dtype=np.int64)
    if rem and not drop_last:
        sizes = np.append(sizes, rem)
    return sizes


def _variable_batch_counts(
    config: SamplerConfig,
    epoch: int,
    n_active: int,
    size_table: np.ndarray,
    tag: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw shapes until the epoch's ids run out.

    Returns (entry indices, batch sizes); the final batch is trimmed to
    the leftover count when ``drop_last`` is false.
    """
    if n_active <= 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    min_size = int(size_table.min())
    bound = n_active // min_size + 2  # no epoch can run longer
    draws = choice_at(config.seed, epoch, np.arange(bound), tag, len(size_table))
    batches = size_table[draws]
    served = np.cumsum(batches)
    if config.drop_last:
        count = int(np.searchsorted(served, n_active, side="right"))
        return draws[:count], batches[:count]
    count = int(np.searchsorted(served, n_active, side="left")) + 1
    count = min(count, bound)
    clipped = np.minimum(served[:count], n_active)
    batches = np.diff(clipped, prepend=0)
    return draws[:count], batches


def epoch_batch_shapes(
    config: SamplerConfig, epoch: int, n_active: int
) -> tuple[np.ndarray, np.ndarray]:
    """Shape sequence (resolution indices, batch sizes) for one epoch.

    This is the arithmetic skeleton the planners flesh out with sample
    ids; cost accounting walks it directly so counted updates are the
    updates a materialized schedule would perform.

    Resolution index -1 means "the base resolution" (single-scale).
    """
    strategy = config.strategy
    if strategy is Strategy.SSC_FBS:
        sizes = _fixed_batch_counts(n_active, config.effective_batch(), config.drop_last)
        return np.full(len(sizes), -1, dtype=np.int64), sizes
    if strategy is Strategy.MSC_FBS:
        sizes = _fixed_batch_counts(n_active, config.effective_batch(), config.drop_last)
        draws = choice_at(
            config.seed, epoch, np.arange(len(sizes)), RESOLUTION_DRAW_TAG, len(config.resolutions)
        )
        return draws, sizes
    if strategy is Strategy.MSC_VBS:
        table = resolution_size_table(config)
        return _variable_batch_counts(config, epoch, n_active, table, RESOLUTION_DRAW_TAG)
    raise ScheduleError(
        "UNSUPPORTED_STRATEGY",
        f"epoch_batch_shapes handles image strategies, not {strategy.value}",
    )


def _resolve_active_ids(config: SamplerConfig, active_ids) -> np.ndarray:
    if active_ids is None:
        return np.arange(config.dataset_size, dtype=np.int64)
    ids = np.sort(np.asarray(active_ids, dtype=np.int64))
    if len(ids) and (ids[0] < 0 or ids[-1] >= config.dataset_size):
        raise ScheduleError(
            "ID_OUT_OF_RANGE",
            f"active ids must lie in [0, {config.dataset_size})",
        )
    repeated = ids[1:][ids[1:] == ids[:-1]]
    if len(repeated):
        raise ScheduleError("DUPLICATE_ID", f"active id {repeated[0]} is listed more than once")
    return ids


def _assemble(
    config: SamplerConfig,
    epoch: int,
    ids: np.ndarray,
    res_indices: np.ndarray,
    batch_sizes: np.ndarray,
    clips: list[VideoClipSpec] | None = None,
) -> EpochSchedule:
    order = permutation(config.seed, StreamKey(epoch, 0, PERMUTATION_TAG), len(ids))
    shuffled = ids[order]
    offsets = np.concatenate([[0], np.cumsum(batch_sizes)])
    plans = []
    for t in range(len(batch_sizes)):
        idx = int(res_indices[t])
        if clips is not None:
            clip = clips[idx]
            resolution = clip.resolution
        else:
            clip = None
            resolution = config.base_resolution if idx < 0 else config.resolutions[idx]
        chunk = shuffled[offsets[t] : offsets[t + 1]]
        plans.append(
            BatchPlan(
                iteration=t,
                resolution=resolution,
                batch_size=int(batch_sizes[t]),
                sample_ids=chunk,
                clip=clip,
            )
        )
    return EpochSchedule.build(epoch, tuple(plans))


def plan_epoch(config: SamplerConfig, epoch: int, active_ids=None) -> EpochSchedule:
    """Generate one epoch's schedule for any image strategy."""
    ensure_valid(config)
    ids = _resolve_active_ids(config, active_ids)
    res_indices, batch_sizes = epoch_batch_shapes(config, epoch, len(ids))
    return _assemble(config, epoch, ids, res_indices, batch_sizes)


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
    draws, batch_sizes = _variable_batch_counts(config, epoch, len(ids), table, CLIP_DRAW_TAG)
    return _assemble(config, epoch, ids, draws, batch_sizes, clips=list(specs))


def shard_for_rank(schedule: EpochSchedule, rank: int, world_size: int) -> EpochSchedule:
    """Slice a global schedule down to one rank's share.

    Rank r takes the r-th stride of each plan's ids; iteration count and
    resolutions are identical across ranks, and the rank shards of a plan
    partition its ids.
    """
    if not (0 <= rank < world_size):
        raise ScheduleError("RANK_OUT_OF_RANGE", f"rank {rank} not in [0, {world_size})")
    plans = []
    for plan in schedule.plans:
        if plan.batch_size % world_size != 0:
            raise ScheduleError(
                "INDIVISIBLE_BATCH",
                f"iteration {plan.iteration} batch {plan.batch_size} is not divisible by {world_size}",
            )
        ids = plan.sample_ids[rank::world_size]
        plans.append(
            BatchPlan(
                iteration=plan.iteration,
                resolution=plan.resolution,
                batch_size=len(ids),
                sample_ids=ids,
                clip=plan.clip,
            )
        )
    return EpochSchedule.build(schedule.epoch, tuple(plans))
