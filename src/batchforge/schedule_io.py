"""JSONL export/import of epoch schedules.

One JSON object per line. The first line is a header carrying
``schema_version`` 2 and the effective config. Each epoch with updates is one
``replan`` record, ``{"kind":"replan","epoch":e,"updates":T,"samples":S,
"digest":"<8 hex>"}`` (:func:`id_digest` of its ids): the reader re-plans it
from the header config instead of reading ids. A shard adds ``"rank"`` and
``"world_size"``; an active-set subset adds ``"active"``, its active mask over
the config's ``dataset_size`` ids packed by :func:`~batchforge.core.pack_array`.
The reader re-plans each record, takes its shard, and checks the numbers and
the digest. :func:`iter_schedules` streams a file one epoch at a time and
keeps only the epoch numbers it has seen; :func:`read_schedules` is its list
form. An epoch with no updates writes nothing. The last line,
``{"kind":"end","records":N}``, counts the ``replan`` records, so a file cut
at a line boundary does not read as a shorter schedule. Schema 1 files, which
have no such line, do not read: re-plan them from their header config.

Only a schedule :func:`~batchforge.samplers.plan_epoch` made from the
header config (``plan_video_vbs`` included), or a ``shard_for_rank`` shard
of one, carries the origin a record needs. The writer raises
``NOT_REPLANNABLE``, naming the epoch, for any other schedule with updates:
a hand-built one, one planned from another config, or a shard of a shard.

The reader raises ``BatchforgeError`` with a code: ``BAD_JSON`` for a line
that is not JSON (a file cut mid-line), naming the line's 1-based number;
``TRUNCATED`` for a file that ends before its ``end`` line (a file cut at a
line boundary, an empty one among them);
``BAD_SCHEMA`` for a header whose ``schema_version`` is not 2;
``BAD_RECORD`` for a line that is not a JSON object, has no or an unknown
``kind`` (a ``plan`` line of verbatim ids among them), is a ``replan`` without
integer ``epoch``, ``updates`` and ``samples`` in [0, 2**63) and an 8 lowercase
hex digit ``digest``, has an ``active`` that
:func:`~batchforge.core.unpack_array` rejects, has ``rank`` or ``world_size``
without the other or outside ``0 <= rank < world_size < 2**63``, is a
second record of one epoch, is a second header, which would re-plan the
records after it from another config, is an ``end`` whose ``records`` is not
the number of ``replan`` records before it, or comes after the ``end``;
``MISSING_HEADER`` for a ``replan`` under no header config; ``DIGEST_MISMATCH``
for a ``replan`` the header config does not reproduce, naming the epoch and
both digests. Re-planning raises what planning and sharding raise, such as
``INDIVISIBLE_BATCH``.
"""

from __future__ import annotations

import json
import re
import zlib
from typing import IO, Iterable, Iterator

import numpy as np

from . import rng, samplers
from .core import (BatchforgeError, SamplerConfig, check_integer, pack_array, sampler_config_from_mapping,
                   sampler_config_to_mapping, unpack_array)
from .samplers import EpochSchedule

SCHEMA_VERSION = 2


def _multmodp(a: int, b: int) -> int:
    """``a * b`` modulo the crc32 polynomial, both bit-reversed (zlib's ``multmodp``)."""
    p = 0
    while a:  # a's bits from x**0 (bit 31) up, while any is left; b times x at each step
        if a & 1 << 31:
            p ^= b
        a = (a << 1) & 0xFFFFFFFF
        b = (b >> 1) ^ 0xEDB88320 if b & 1 else b >> 1  # zlib's polynomial, bit-reversed
    return p


_X2N = [1 << 30]  # x**(2**k) modulo the polynomial, k = 0 .. 31 (zlib's ``x2n_table``)
for _ in range(31):
    _X2N.append(_multmodp(_X2N[-1], _X2N[-1]))


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """crc32 of ``a + b`` from ``crc1 = crc32(a)``, ``crc2 = crc32(b)`` and ``len2 = len(b)`` (zlib's
    ``crc32_combine``, which Python's ``zlib`` does not expose): ``crc1`` times ``x**(8 * len2)``, plus ``crc2``."""
    p = 1 << 31  # x**0, times x**(8 * 2**k) = x**(2**(k + 3)) for each bit k of len2
    for k in range(len2.bit_length()):
        if len2 >> k & 1:
            p = _multmodp(_X2N[(k + 3) & 31], p)
    return _multmodp(p, crc1) ^ crc2


def id_digest(ids: np.ndarray) -> str:
    """crc32 of ``ids`` as little-endian int64, as 8 lowercase hex digits.

    The crc32 runs as the two lanes of :mod:`~batchforge.rng` (its module docstring), and :func:`crc32_combine`
    joins the lanes' values: the same value as one crc32 of the whole.
    """
    data = np.ascontiguousarray(ids, dtype="<i8")
    edge, crcs = rng._lane_edge(len(data), rng.SPLIT_MIN), {}
    rng._over_lanes(lambda start, stop: crcs.__setitem__(start, zlib.crc32(data[start:stop])), len(data), edge)
    return f"{crc32_combine(crcs[0], crcs[edge], data[edge:].nbytes) if edge else crcs[0]:08x}"


def write_schedules(fp: IO[str], schedules: Iterable[EpochSchedule], config: SamplerConfig) -> None:
    """Write the header of ``config``, a ``replan`` record per epoch with updates planned from it, and the
    ``end`` line counting the records."""
    header = {"schema_version": SCHEMA_VERSION, "kind": "header", "config": sampler_config_to_mapping(config)}
    fp.write(json.dumps(header, separators=(",", ":")) + "\n")
    records = 0
    for schedule in schedules:
        if not schedule.total_updates:
            continue
        origin = schedule.origin
        if origin is None or origin.config != config:
            raise BatchforgeError("NOT_REPLANNABLE", f"epoch {schedule.epoch} was not planned from the header config "
                                  "or sharded once from such a plan, so no replan record reproduces it")
        record = {"kind": "replan", "epoch": schedule.epoch, "updates": schedule.total_updates,
                  "samples": schedule.total_samples, "digest": id_digest(schedule.ids)}
        if origin.world_size > 1:
            record.update(rank=origin.rank, world_size=origin.world_size)
        if origin.active is not None:
            mask = np.zeros(config.dataset_size, dtype=bool)
            mask[origin.active] = True
            record["active"] = pack_array(mask)
        fp.write(json.dumps(record, separators=(",", ":")) + "\n")
        records += 1
    fp.write(json.dumps({"kind": "end", "records": records}, separators=(",", ":")) + "\n")


def _replan(record: dict, header_config, epochs: set[int], number: int) -> EpochSchedule:
    """The ``replan`` record of line ``number`` re-planned from the header config and checked; its epoch joins ``epochs``."""
    where = f"line {number}"
    epoch, updates, samples = (check_integer(record.get(key), f"{where}: {key}", "BAD_RECORD")
                               for key in ("epoch", "updates", "samples"))
    digest = record.get("digest")
    if not (isinstance(digest, str) and re.fullmatch("[0-9a-f]{8}", digest)):
        raise BatchforgeError("BAD_RECORD", f"{where}: a replan needs a digest of 8 lowercase hex digits, got {digest!r}")
    sharded = "rank" in record or "world_size" in record
    if sharded:
        world_size = check_integer(record.get("world_size"), f"{where}: world_size", "BAD_RECORD", least=1)
        rank = check_integer(record.get("rank"), f"{where}: rank", "BAD_RECORD", below=world_size)
    if epoch in epochs:
        raise BatchforgeError("BAD_RECORD", f"{where}: a second record for epoch {epoch}")
    if not isinstance(header_config, dict):
        raise BatchforgeError("MISSING_HEADER", f"{where}: a replan record needs a header config to re-plan from")
    config = sampler_config_from_mapping(header_config)
    active = (np.flatnonzero(unpack_array(record["active"], bool, config.dataset_size, f"{where}: active", "BAD_RECORD"))
              if "active" in record else None)
    schedule = samplers.plan_epoch(config, epoch, active)
    if sharded:
        schedule = samplers.shard_for_rank(schedule, rank, world_size)
    planned = schedule.total_updates, schedule.total_samples, id_digest(schedule.ids)
    if (updates, samples, digest) != planned:
        raise BatchforgeError("DIGEST_MISMATCH", f"epoch {epoch}: the file has digest {digest} ({updates} updates, {samples} "
                              f"samples), the header config re-plans {planned[2]} ({planned[0]} updates, {planned[1]} samples)")
    epochs.add(epoch)
    return schedule


def iter_schedules(fp: IO[str]) -> Iterator[dict | EpochSchedule | None]:
    """Stream a schedule JSONL file: yield its header's config mapping (None without one), then one re-planned
    ``EpochSchedule`` per ``replan`` record, in file order.

    Each record is read and re-planned as it is asked for, and only the epoch numbers seen are kept, so
    reading holds one epoch at a time, not the file. The header config comes before the first record
    (or at the ``end`` line of a file with none). A malformed file raises ``BatchforgeError`` with one of
    the codes the module docstring lists, when the reader reaches the line at fault: a consumer may have
    taken the epochs before it.
    """
    header_config: dict | None = None
    seen_header = started = False
    end_line = None
    epochs: set[int] = set()
    for number, raw in enumerate(fp, 1):
        line = raw.strip()
        if not line:
            continue
        if end_line is not None:
            raise BatchforgeError("BAD_RECORD", f"line {number}: a line after the end line {end_line}")
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            raise BatchforgeError("BAD_JSON", f"line {number} is not valid JSON: {err.msg}") from None
        kind = record.get("kind") if isinstance(record, dict) else None
        if kind == "header":
            if seen_header:
                raise BatchforgeError("BAD_RECORD", f"line {number}: a second header; a file holds one config")
            seen_header = True
            version = record.get("schema_version")
            if version != SCHEMA_VERSION:
                raise BatchforgeError("BAD_SCHEMA", f"line {number}: unsupported schedule schema_version {version!r}")
            header_config = record.get("config")
        elif kind == "replan":
            if not started:
                started = True
                yield header_config
            yield _replan(record, header_config, epochs, number)
        elif kind == "end":
            records = check_integer(record.get("records"), f"line {number}: records", "BAD_RECORD")
            if records != len(epochs):
                raise BatchforgeError("BAD_RECORD", f"line {number}: the end line counts {records} records, "
                                      f"the file holds {len(epochs)}")
            end_line = number
        else:
            raise BatchforgeError("BAD_RECORD", f"line {number}: expected a JSON object of kind 'header', 'replan' "
                                  f"or 'end', got {kind!r}")
    if end_line is None:
        raise BatchforgeError("TRUNCATED", f"the file ends after {len(epochs)} records without its end line")
    if not started:
        yield header_config


def read_schedules(fp: IO[str]) -> tuple[dict | None, list[EpochSchedule]]:
    """:func:`iter_schedules` as a list: the header's config mapping (if present) and every re-planned schedule.

    A malformed file raises ``BatchforgeError`` with one of the codes the module docstring lists.
    """
    header_config, *schedules = iter_schedules(fp)
    return header_config, schedules
