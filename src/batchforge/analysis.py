"""Training-cost accounting: optimizer updates and input-memory proxies.

Update counts come in two independent flavours that cross-check each
other: ``exact`` walks the same shape sequence a materialized schedule
would execute, and ``closed_form`` is the expectation
``epochs * N / mean(scaled batch over the resolution set)`` (for fixed
batches simply ``epochs * floor-or-ceil(N / batch)``).

"Memory" here means input tensors only: batch x channels x H x W x
bytes-per-element. Activation and optimizer-state memory are deliberately
out of scope, so measured-GPU comparisons reproduce as orderings, not
absolute values.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .core import SamplerConfig, Strategy, ensure_valid
from .rng import derive_seed
from .samplers import EpochSchedule, epoch_batch_shapes, resolution_size_table, unit_volume


class AnalysisError(ValueError):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


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
    peak_input_pixels: int  # batch x H x W x channels, max over iterations
    mean_input_pixels: float
    updates_ratio: float | None = None
    peak_pixels_ratio: float | None = None


@dataclass(frozen=True)
class UpdateSimulation:
    mean: float
    stderr: float | None
    trials: int


def closed_form_updates(config: SamplerConfig) -> float:
    """Expected total updates without generating anything."""
    n, batch = config.dataset_size, config.effective_batch()
    if config.strategy in (Strategy.SSC_FBS, Strategy.MSC_FBS):
        per_epoch = n // batch if config.drop_last else math.ceil(n / batch)
        return float(config.epochs * per_epoch)
    if config.strategy is Strategy.MSC_VBS:
        mean_batch = float(resolution_size_table(config).mean())
        return config.epochs * n / mean_batch
    raise AnalysisError(
        "UNSUPPORTED_STRATEGY", f"no closed form for strategy {config.strategy.value}"
    )


def _epoch_shapes(config: SamplerConfig) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each epoch's (resolution indices, batch sizes) over the whole dataset, one at a time."""
    for epoch in range(config.epochs):
        yield epoch_batch_shapes(config, epoch, config.dataset_size)


def _volume_stats(volumes: Iterable[np.ndarray]) -> tuple[int, int, float]:
    """(iterations, peak, mean) of per-iteration volumes, fed one epoch at a time."""
    count, peak, total = 0, 0, 0.0
    for chunk in volumes:
        if len(chunk):
            count += len(chunk)
            peak = max(peak, int(chunk.max()))
            total += float(chunk.sum())
    if count == 0:
        raise AnalysisError("EMPTY_SCHEDULE", "no iterations to account for")
    return count, peak, total / count


def _plan_volumes(schedules: Iterable[EpochSchedule], scale: int) -> Iterator[np.ndarray]:
    for schedule in schedules:
        unit = np.array([unit_volume(shape) for shape in schedule.shapes], dtype=np.int64)
        yield np.diff(schedule.offsets) * unit[schedule.shape_idx] * scale


def count_updates(config: SamplerConfig) -> UpdateCount:
    """Exact (generated) and closed-form total optimizer updates."""
    ensure_valid(config)
    exact = sum(len(batches) for _, batches in _epoch_shapes(config))
    return UpdateCount(exact=exact, closed_form=closed_form_updates(config))


def simulate_updates(config: SamplerConfig, trials: int) -> UpdateSimulation:
    """Monte-Carlo oracle: exact counts over ``trials`` independent seeds."""
    if trials < 1:
        raise AnalysisError("ZERO_TRIALS", "trials must be >= 1")
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
    _, peak, mean = _volume_stats(_plan_volumes(schedules, channels * bytes_per_element))
    return MemoryProxy(peak_bytes=peak, mean_bytes=mean)


def strategy_cost(config: SamplerConfig, channels: int = 3) -> CostReport:
    """Cost row for one configuration (ratios left unset)."""
    ensure_valid(config)
    px = np.array([r.pixel_count() for r in config.resolutions], dtype=np.int64)
    updates, peak, mean = _volume_stats(
        batches * px[res_idx] * channels for res_idx, batches in _epoch_shapes(config)
    )
    return CostReport(
        strategy=config.strategy,
        total_updates=updates,
        expected_updates=closed_form_updates(config),
        peak_input_pixels=peak,
        mean_input_pixels=mean,
    )


def _comparable(a: SamplerConfig, b: SamplerConfig) -> bool:
    return (
        a.dataset_size == b.dataset_size
        and a.epochs == b.epochs
        and a.base_batch == b.base_batch
        and a.world_size == b.world_size
        and a.base_resolution == b.base_resolution
    )


def compare_strategies(
    base_config: SamplerConfig,
    strategies: Sequence[Strategy | SamplerConfig],
    channels: int = 3,
) -> list[CostReport]:
    """One CostReport per requested strategy, ratios against SSc-FBS.

    The single-scale baseline is always computed from ``base_config``
    (whether or not it is in the requested list), so every row's ratios
    share one denominator. Entries may be full configs, which must agree
    with the base on dataset size, epochs, batch, and base resolution.
    """
    configs: list[SamplerConfig] = []
    for entry in strategies:
        if isinstance(entry, SamplerConfig):
            if not _comparable(entry, base_config):
                raise AnalysisError(
                    "INCOMPATIBLE_CONFIGS",
                    "compared configs must share dataset size, epochs, batch, and base resolution",
                )
            configs.append(entry)
        else:
            configs.append(base_config.with_strategy(Strategy(entry)))
    baseline = strategy_cost(base_config.with_strategy(Strategy.SSC_FBS), channels)
    rows = [
        baseline if cfg.strategy is Strategy.SSC_FBS else strategy_cost(cfg, channels)
        for cfg in configs
    ]
    return with_ratios(rows, baseline=baseline)


def schedule_cost(
    schedules: Sequence[EpochSchedule],
    strategy: Strategy,
    channels: int = 3,
) -> CostReport:
    """Cost row computed from already-materialized schedules."""
    updates, peak, mean = _volume_stats(_plan_volumes(schedules, channels))
    return CostReport(
        strategy=strategy,
        total_updates=updates,
        expected_updates=float(updates),
        peak_input_pixels=peak,
        mean_input_pixels=mean,
    )


def with_ratios(
    reports: Sequence[CostReport], baseline: CostReport | None = None
) -> list[CostReport]:
    """Fill ratio columns against a baseline row (default: the SSc-FBS row)."""
    if baseline is None:
        baseline = next((r for r in reports if r.strategy is Strategy.SSC_FBS), reports[0])
    return [
        replace(
            r,
            updates_ratio=r.total_updates / baseline.total_updates,
            peak_pixels_ratio=r.peak_input_pixels / baseline.peak_input_pixels,
        )
        for r in reports
    ]


def cost_reports_payload(reports: Iterable[CostReport], bytes_per_element: int = 4) -> dict:
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
    writer = csv.writer(fp)
    writer.writerow(["strategy", "updates", "updates_ratio", "peak_input_bytes", "peak_ratio"])
    for r in reports:
        writer.writerow(
            [
                r.strategy.value,
                r.total_updates,
                "" if r.updates_ratio is None else f"{r.updates_ratio:.6f}",
                r.peak_input_pixels * bytes_per_element,
                "" if r.peak_pixels_ratio is None else f"{r.peak_pixels_ratio:.6f}",
            ]
        )
