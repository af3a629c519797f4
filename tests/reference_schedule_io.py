"""Test oracle: schedule lines as ``json.dumps`` of each whole record.

``test_schedule_io.py`` checks the header, ``replan`` and ``end`` lines of
``batchforge.schedule_io``'s writer against :func:`reference_write_schedules`,
:func:`reference_replan_line` (which packs a subset's active mask bit by bit
in Python) and :func:`reference_end_line` byte for byte. The plan lines of
:func:`reference_write_schedules` (``sample_ids`` as a list of Python ints)
are verbatim ids, a kind the reader refuses; its tests take them from here.
"""

from __future__ import annotations

import base64
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


def reference_replan_line(schedule: EpochSchedule, active=None, rank=None, world_size=None) -> str:
    """The ``replan`` line of an epoch; its digest is the crc32 of its ids packed one by one as little-endian int64.

    A shard adds ``rank`` and ``world_size``. A subset adds ``active``, the base64 of its mask (one bool per
    dataset id) eight ids to a byte, the first id in the high bit and the last byte padded with 0 bits.
    """
    packed = b"".join(struct.pack("<q", i) for i in schedule.ids.tolist())
    record = {"kind": "replan", "epoch": schedule.epoch, "updates": schedule.total_updates,
              "samples": schedule.total_samples, "digest": f"{zlib.crc32(packed):08x}"}
    if world_size is not None:
        record.update(rank=rank, world_size=world_size)
    if active is not None:
        bits = "".join("1" if keep else "0" for keep in active)
        bits += "0" * (-len(bits) % 8)
        record["active"] = base64.b64encode(bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8))).decode()
    return json.dumps(record, separators=(",", ":")) + "\n"


def reference_end_line(records: int) -> str:
    """The last line of a schedule file that holds ``records`` replan records."""
    return json.dumps({"kind": "end", "records": records}, separators=(",", ":")) + "\n"
