"""JSONL export/import of epoch schedules.

One JSON object per line. The first line is a header carrying the schema
version and the effective config; each following line is one iteration:
its shape, its batch size and its ``sample_ids``. Export of an imported
schedule reproduces the original bytes.
"""

from __future__ import annotations

import json
from typing import IO, Iterable

import numpy as np

from .core import Resolution, SamplerConfig, sampler_config_to_mapping
from .samplers import EpochSchedule, ScheduleError, VideoClipSpec

SCHEMA_VERSION = 1


def write_schedules(
    fp: IO[str],
    schedules: Iterable[EpochSchedule],
    config: SamplerConfig | None = None,
) -> None:
    """Write the JSONL lines for a sequence of epoch schedules."""
    header: dict = {"schema_version": SCHEMA_VERSION, "kind": "header"}
    if config is not None:
        header["config"] = sampler_config_to_mapping(config)
    fp.write(json.dumps(header, separators=(",", ":")) + "\n")
    for schedule in schedules:
        for plan in schedule.plans:
            record: dict = {
                "kind": "plan",
                "epoch": schedule.epoch,
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
            record["sample_ids"] = plan.sample_ids.tolist()
            fp.write(json.dumps(record, separators=(",", ":")) + "\n")


def read_schedules(fp: IO[str]) -> tuple[dict | None, list[EpochSchedule]]:
    """Parse a schedule JSONL stream back into EpochSchedule objects.

    Returns the header's config mapping (if present) and one schedule per
    epoch, in file order. A plan without ``sample_ids`` raises
    ``ScheduleError("MISSING_IDS")``; a plan whose ``batch_size`` is not its
    id count raises ``ScheduleError("BATCH_SIZE_MISMATCH")``; iterations that
    do not run 0, 1, 2, ... within an epoch raise
    ``ScheduleError("ITERATION_ORDER")``.
    """
    header_config: dict | None = None
    # per epoch: ids, offsets, shape indices, and the shape table as {shape: index}
    per_epoch: dict[int, tuple[np.ndarray, list[int], list[int], dict]] = {}
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
        epoch, iteration, batch_size = record["epoch"], record["iteration"], record["batch_size"]
        if "sample_ids" not in record:
            raise ScheduleError(
                "MISSING_IDS", f"epoch {epoch} iteration {iteration}: the plan has no sample_ids"
            )
        ids = record["sample_ids"]
        if batch_size != len(ids):
            raise ScheduleError(
                "BATCH_SIZE_MISMATCH",
                f"epoch {epoch} iteration {iteration}: batch_size {batch_size} but {len(ids)} ids",
            )
        if epoch not in per_epoch:
            # One id buffer, so an epoch's ids are never held twice. 4M ids (32 MiB) is
            # glibc's largest mmap threshold: the buffer is mapped apart from the heap,
            # the OS backs only the pages written, and it grows and shrinks in place.
            per_epoch[epoch] = (np.empty(1 << 22, dtype=np.int64), [0], [], {})
        epoch_ids, offsets, shape_idx, shapes = per_epoch[epoch]
        if iteration != len(shape_idx):
            raise ScheduleError(
                "ITERATION_ORDER",
                f"epoch {epoch}: iteration {iteration} where {len(shape_idx)} was expected",
            )
        shape = Resolution(record["height"], record["width"])
        if "clip" in record:
            shape = VideoClipSpec(
                num_frames=record["clip"]["num_frames"],
                clips_per_video=record["clip"]["clips_per_video"],
                resolution=shape,
            )
        end = offsets[-1] + len(ids)
        if end > len(epoch_ids):
            epoch_ids.resize(2 * end, refcheck=False)
        epoch_ids[offsets[-1] : end] = ids
        offsets.append(end)
        shape_idx.append(shapes.setdefault(shape, len(shapes)))
    for epoch_ids, offsets, _, _ in per_epoch.values():
        epoch_ids.resize(offsets[-1], refcheck=False)
    return header_config, [
        EpochSchedule(
            epoch,
            epoch_ids,
            np.asarray(offsets, dtype=np.int64),
            np.asarray(shape_idx, dtype=np.int64),
            tuple(shapes),
        )
        for epoch, (epoch_ids, offsets, shape_idx, shapes) in per_epoch.items()
    ]
