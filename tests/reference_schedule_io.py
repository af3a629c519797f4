"""Test oracle: the plain schedule writer, ``json.dumps`` of each whole record.

Each plan line is ``json.dumps`` of its record with ``sample_ids`` as a list
of Python ints. ``test_schedule_io.py`` checks the block-formatted writer of
``batchforge.schedule_io`` against it byte for byte, and its ``replan``
lines against :func:`reference_replan_line`.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import IO, Iterable

from batchforge.core import SamplerConfig, sampler_config_to_mapping
from batchforge.samplers import EpochSchedule
from batchforge.schedule_io import SCHEMA_VERSION


def reference_write_schedules(
    fp: IO[str], schedules: Iterable[EpochSchedule], config: SamplerConfig | None = None
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


def reference_replan_line(schedule: EpochSchedule) -> str:
    """The ``replan`` line of an epoch; its digest is the crc32 of its ids packed one by one as little-endian int64."""
    packed = b"".join(struct.pack("<q", i) for i in schedule.ids.tolist())
    record = {"kind": "replan", "epoch": schedule.epoch, "updates": schedule.total_updates,
              "samples": schedule.total_samples, "digest": f"{zlib.crc32(packed):08x}"}
    return json.dumps(record, separators=(",", ":")) + "\n"
