"""Training-cost accounting: optimizer updates and input-memory proxies.

Update counts come in two independent flavours that cross-check each
other: ``exact`` walks the same shape sequence a materialized schedule
would execute, and ``closed_form`` reads the strategy's
:func:`~batchforge.samplers.batch_table`: ``epochs * N / mean(batch)``, or,
when every batch in the table is the same size, the exact
``epochs * floor-or-ceil(N / batch)``.

The exact walk (:func:`~batchforge.samplers.walk_shapes`) draws a block of
epochs as one ``(epochs, width)`` array; counts read its non-zero batches,
peaks and means its int64 volumes, summed as exact integers. A walk block
and a materialized schedule become volumes by one rule, :func:`_volumes`.

"Memory" here means input tensors only: batch x channels x H x W x
bytes-per-element. Activation and optimizer-state memory are deliberately
out of scope, so measured-GPU comparisons reproduce as orderings, not
absolute values. A channel count or element width that is not an integer
of at least 1 raises ``BAD_SIZE``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .core import BatchforgeError, SamplerConfig, Strategy, check_integer, ensure_valid
from .rng import derive_seed
from .samplers import EpochSchedule, batch_table, epoch_batch_shapes, shape_table, unit_volume, walk_shapes


@dataclass(frozen=True)
class UpdateCount:
    exact: int
    closed_form: float


@dataclass(frozen=True)
class MemoryProxy:
    peak_bytes: int
    mean_bytes: float


@dataclass(frozen=True)
class CostReport:
    """One strategy's cost row, with ratios against the single-scale row."""

    strategy: Strategy
    total_updates: int
    expected_updates: float
    peak_input_pixels: int  # batch x H x W (x frames x clips) x channels, max over iterations
    mean_input_pixels: float
    updates_ratio: float | None = None
    peak_pixels_ratio: float | None = None


@dataclass(frozen=True)
class UpdateSimulation:
    mean: float
    stderr: float | None
    trials: int


def closed_form_updates(config: SamplerConfig) -> float:
    """Expected total updates without generating anything.

    A table of equal batch sizes gives the exact count; any other table
    gives ``epochs * N / mean(batch)``.
    """
    n, sizes = config.dataset_size, batch_table(config)
    if (sizes == sizes[0]).all():
        batch = int(sizes[0])
        per_epoch = n // batch if config.drop_last else math.ceil(n / batch)
        return float(config.epochs * per_epoch)
    return config.epochs * n / float(sizes.mean())


def _size(value, what: str) -> int:
    """A channel count or element width: an integer of at least 1, else ``BAD_SIZE``."""
    return check_integer(value, what, "BAD_SIZE", least=1)


def _walk(config: SamplerConfig) -> Iterator[tuple[np.ndarray, np.ndarray, int, int]]:
    """Every epoch's (shape indices, batch sizes) in 2-D blocks, their non-zero batch count and the epochs a row stands for.

    A block's arrays hold until the next block is drawn: callers reduce each block as it comes.
    """
    if len(batch_table(config)) == 1:  # a one-entry table walks every epoch alike: one walked epoch stands for all
        shape_idx, batches = epoch_batch_shapes(config, 0, config.dataset_size)
        return iter([(shape_idx[None], batches[None], len(batches), config.epochs)])
    return ((s, b, int(np.count_nonzero(b)), 1) for s, b in walk_shapes(config, range(config.epochs), config.dataset_size))


def _volume_stats(blocks: Iterable[tuple[np.ndarray, int, int]]) -> tuple[int, int, float]:
    """(iterations, peak, mean) of (volumes, iterations, repeat) blocks; zeros pad volumes past ``iterations``."""
    count, peak, total = 0, 0, 0
    for volumes, iterations, repeat in blocks:
        if iterations:
            count += iterations * repeat
            peak = max(peak, int(volumes.max()))
            total += int(volumes.sum()) * repeat
    if count == 0:
        raise BatchforgeError("EMPTY_SCHEDULE", "no iterations to account for")
    return count, peak, float(total) / count


def _volumes(shapes: Sequence, scale: int, blocks: Iterable[tuple]) -> Iterator[tuple[np.ndarray, int, int]]:
    """(volumes, iterations, repeat) of (shape indices, batch sizes, iterations, repeat) blocks over ``shapes``: an
    iteration's volume is its batch size x its shape's :func:`~batchforge.samplers.unit_volume` x ``scale``."""
    unit = np.array([unit_volume(shape) * scale for shape in shapes], dtype=np.int64)
    return ((batches * unit[shape_idx], iterations, repeat) for shape_idx, batches, iterations, repeat in blocks)


def _plan_volumes(schedules: Iterable[EpochSchedule], scale: int) -> Iterator[tuple[np.ndarray, int, int]]:
    for schedule in schedules:
        yield from _volumes(schedule.shapes, scale, [(schedule.shape_idx, np.diff(schedule.offsets), schedule.total_updates, 1)])


def _cost_row(strategy: Strategy, blocks: Iterable[tuple[np.ndarray, int, int]], expected: float | None = None) -> CostReport:
    """The cost row of :func:`_volume_stats` ``blocks``; ``expected`` defaults to the row's own update count."""
    updates, peak, mean = _volume_stats(blocks)
    return CostReport(strategy, updates, float(updates) if expected is None else expected, peak, mean)


def count_updates(config: SamplerConfig) -> UpdateCount:
    """Exact (generated) and closed-form total optimizer updates."""
    ensure_valid(config)
    exact = sum(iterations * repeat for _, _, iterations, repeat in _walk(config))
    return UpdateCount(exact=exact, closed_form=closed_form_updates(config))


def simulate_updates(config: SamplerConfig, trials: int) -> UpdateSimulation:
    """Monte-Carlo oracle: exact counts over ``trials`` independent seeds.

    ``trials`` is an integer (numpy ones included): below 1 raises
    ``ZERO_TRIALS``; a bool, a non-integer or 2**63 or more raises ``BAD_SIZE``.
    """
    trials = check_integer(trials, "trials", "BAD_SIZE", least=1, low_code="ZERO_TRIALS")
    counts = np.array(
        [
            count_updates(replace(config, seed=derive_seed(config.seed, trial))).exact
            for trial in range(trials)
        ],
        dtype=np.float64,
    )
    stderr = float(counts.std(ddof=1) / math.sqrt(trials)) if trials > 1 else None
    return UpdateSimulation(mean=float(counts.mean()), stderr=stderr, trials=trials)


def input_memory_proxy(
    schedule: EpochSchedule | Sequence[EpochSchedule],
    channels: int = 3,
    bytes_per_element: int = 4,
) -> MemoryProxy:
    """Peak and mean input-tensor bytes over a schedule's iterations."""
    schedules = [schedule] if isinstance(schedule, EpochSchedule) else schedule
    scale = _size(channels, "channels") * _size(bytes_per_element, "bytes_per_element")
    _, peak, mean = _volume_stats(_plan_volumes(schedules, scale))
    return MemoryProxy(peak_bytes=peak, mean_bytes=mean)


def strategy_cost(config: SamplerConfig, channels: int = 3) -> CostReport:
    """Cost row for one configuration (ratios left unset)."""
    ensure_valid(config)
    blocks = _volumes(shape_table(config)[0], _size(channels, "channels"), _walk(config))
    return _cost_row(config.strategy, blocks, closed_form_updates(config))


def compare_strategies(
    base_config: SamplerConfig,
    strategies: Sequence[Strategy],
    channels: int = 3,
) -> list[CostReport]:
    """One CostReport per requested strategy of ``base_config``, ratios against SSc-FBS.

    The single-scale baseline is always computed from ``base_config``
    (whether or not it is in the requested list), so every row's ratios
    share one denominator.
    """
    baseline = strategy_cost(base_config.with_strategy(Strategy.SSC_FBS), channels)
    rows = [
        baseline if s is Strategy.SSC_FBS else strategy_cost(base_config.with_strategy(s), channels)
        for s in map(Strategy, strategies)
    ]
    return with_ratios(rows, baseline)


def schedule_cost(
    schedules: Iterable[EpochSchedule],
    strategy: Strategy,
    channels: int = 3,
) -> CostReport:
    """Cost row computed from schedules in one pass, so an iterator of them is costed one epoch at a time."""
    return _cost_row(strategy, _plan_volumes(schedules, _size(channels, "channels")))


def with_ratios(reports: Sequence[CostReport], baseline: CostReport) -> list[CostReport]:
    """Fill ratio columns against a baseline row; a video row's peak is clip volume and gets no peak ratio."""
    return [
        replace(
            r,
            updates_ratio=r.total_updates / baseline.total_updates,
            peak_pixels_ratio=None if r.strategy is Strategy.VIDEO_VBS else r.peak_input_pixels / baseline.peak_input_pixels,
        )
        for r in reports
    ]


def cost_reports_payload(reports: Iterable[CostReport], bytes_per_element: int = 4) -> dict:
    bytes_per_element = _size(bytes_per_element, "bytes_per_element")
    return {
        "schema_version": 1,
        "kind": "cost_report",
        "bytes_per_element": bytes_per_element,
        "rows": [
            {
                "strategy": r.strategy.value,
                "updates": r.total_updates,
                "expected_updates": r.expected_updates,
                "updates_ratio": r.updates_ratio,
                "peak_input_bytes": r.peak_input_pixels * bytes_per_element,
                "mean_input_bytes": r.mean_input_pixels * bytes_per_element,
                "peak_ratio": r.peak_pixels_ratio,
            }
            for r in reports
        ],
    }


def write_cost_csv(fp: IO[str], reports: Iterable[CostReport], bytes_per_element: int = 4) -> None:
    """Columns of :func:`cost_reports_payload`'s rows; a ratio is written ``.6f``, and a None as an empty field."""
    rows = cost_reports_payload(reports, bytes_per_element)["rows"]
    columns = ("strategy", "updates", "updates_ratio", "peak_input_bytes", "peak_ratio")
    writer = csv.writer(fp)
    writer.writerow(columns)
    for row in rows:
        writer.writerow(
            ["" if row[key] is None else f"{row[key]:.6f}" if key.endswith("_ratio") else row[key] for key in columns]
        )
