"""JSONL export/import of epoch schedules.

One JSON object per line. The first line is a header carrying the schema
version and the effective config; each following line is one batch plan.
Sample ids are stored either verbatim (``sample_ids``) or, in compact
mode, as half-open contiguous runs (``id_runs``). Export of an imported
schedule reproduces the original bytes.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Iterator

import numpy as np

from .core import Resolution, SamplerConfig, sampler_config_to_mapping
from .samplers import BatchPlan, EpochSchedule, ScheduleError, VideoClipSpec

SCHEMA_VERSION = 1


def _id_runs(ids: np.ndarray) -> list[list[int]]:
    """Maximal consecutive runs as [start, end) pairs."""
    if len(ids) == 0:
        return []
    breaks = np.flatnonzero(np.diff(ids) != 1)
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks, [len(ids) - 1]])
    return [[int(ids[s]), int(ids[e]) + 1] for s, e in zip(starts, ends)]


def _ids_from_runs(runs: list[list[int]]) -> np.ndarray:
    if not runs:
        return np.empty(0, dtype=np.int64)
    return np.concatenate([np.arange(s, e, dtype=np.int64) for s, e in runs])


def _plan_record(epoch: int, plan: BatchPlan, compact: bool) -> dict:
    record: dict = {
        "kind": "plan",
        "epoch": epoch,
        "iteration": plan.iteration,
        "height": plan.resolution.height,
        "width": plan.resolution.width,
        "batch_size": plan.batch_size,
    }
    if plan.clip is not None:
        record["clip"] = {
            "num_frames": plan.clip.num_frames,
            "clips_per_video": plan.clip.clips_per_video,
        }
    if compact:
        record["id_runs"] = _id_runs(plan.sample_ids)
    else:
        record["sample_ids"] = [int(i) for i in plan.sample_ids]
    return record


def schedule_lines(
    schedules: Iterable[EpochSchedule],
    config: SamplerConfig | None = None,
    compact: bool = False,
    extra_header: dict | None = None,
) -> Iterator[str]:
    """Yield the JSONL lines for a sequence of epoch schedules."""
    header: dict = {"schema_version": SCHEMA_VERSION, "kind": "header"}
    if config is not None:
        header["config"] = sampler_config_to_mapping(config)
    if extra_header:
        header.update(extra_header)
    yield json.dumps(header, separators=(",", ":"))
    for schedule in schedules:
        for plan in schedule.plans:
            yield json.dumps(_plan_record(schedule.epoch, plan, compact), separators=(",", ":"))


def write_schedules(
    fp: IO[str],
    schedules: Iterable[EpochSchedule],
    config: SamplerConfig | None = None,
    compact: bool = False,
    extra_header: dict | None = None,
) -> None:
    for line in schedule_lines(schedules, config, compact, extra_header):
        fp.write(line + "\n")


def read_schedules(fp: IO[str]) -> tuple[dict | None, list[EpochSchedule]]:
    """Parse a schedule JSONL stream back into EpochSchedule objects.

    Returns the header's config mapping (if present) and one schedule per
    epoch, in file order. A plan whose ``batch_size`` is not its id count
    raises ``ScheduleError("BATCH_SIZE_MISMATCH")``; iterations that do not
    run 0, 1, 2, ... within an epoch raise ``ScheduleError("ITERATION_ORDER")``.
    """
    header_config: dict | None = None
    per_epoch: dict[int, list[BatchPlan]] = {}
    order: list[int] = []
    for raw in fp:
        line = raw.strip()
        if not line:
            continue
        record = json.loads(line)
        kind = record.get("kind")
        if kind == "header":
            version = record.get("schema_version")
            if version != SCHEMA_VERSION:
                raise ValueError(f"unsupported schedule schema_version {version!r}")
            header_config = record.get("config")
            continue
        if kind != "plan":
            raise ValueError(f"unexpected record kind {kind!r}")
        if "sample_ids" in record:
            ids = np.asarray(record["sample_ids"], dtype=np.int64)
        else:
            ids = _ids_from_runs(record.get("id_runs", []))
        clip = None
        if "clip" in record:
            clip = VideoClipSpec(
                num_frames=record["clip"]["num_frames"],
                clips_per_video=record["clip"]["clips_per_video"],
                resolution=Resolution(record["height"], record["width"]),
            )
        epoch, iteration, batch_size = record["epoch"], record["iteration"], record["batch_size"]
        if batch_size != len(ids):
            raise ScheduleError(
                "BATCH_SIZE_MISMATCH",
                f"epoch {epoch} iteration {iteration}: batch_size {batch_size} but {len(ids)} ids",
            )
        if epoch not in per_epoch:
            per_epoch[epoch] = []
            order.append(epoch)
        plans = per_epoch[epoch]
        if iteration != len(plans):
            raise ScheduleError(
                "ITERATION_ORDER",
                f"epoch {epoch}: iteration {iteration} where {len(plans)} was expected",
            )
        plans.append(
            BatchPlan(
                iteration=iteration,
                resolution=Resolution(record["height"], record["width"]),
                batch_size=batch_size,
                sample_ids=ids,
                clip=clip,
            )
        )
    schedules = [EpochSchedule.build(e, tuple(per_epoch[e])) for e in order]
    return header_config, schedules
