"""JSONL export/import of epoch schedules.

One JSON object per line. The first line is a header carrying the schema
version and the effective config, if the writer is given one. An epoch the
header config re-plans exactly is one ``replan`` line, ``{"kind":"replan",
"epoch":e,"updates":T,"samples":S,"digest":"<8 hex>"}`` (:func:`id_digest`
of its ids), which the reader re-plans and checks. Any other epoch (of a
header-less write or a config ``validate_config`` rejects, a shard, an
active-set subset, a hand-built schedule) is one ``plan`` line per
iteration: its shape, its batch size and its ``sample_ids``. Export of an
imported schedule reproduces the original bytes.

Ids never pass through Python ints or the ``json`` module. The writer
formats a block of whole plans, about ``WRITE_BLOCK_IDS`` ids, at a time:
each id becomes two-byte cells of digit pairs from a table, its leading zero
digits NUL bytes that one ``bytes.translate`` deletes, and the last id of a
plan carries a line marker in place of its comma, so one ``split`` yields
the plan bodies. Each plan's head is ``json.dumps`` of its record without
the ids, so a line's bytes are those of ``json.dumps`` of the whole record.
The reader parses each line once with ``json.loads`` after cutting out the
text between the ``[`` that opens its ``sample_ids`` value and its last
``]`` (a line without ``sample_ids``, such as the header, is parsed whole),
so a list or object earlier in the record, a clip's included, is parsed as
JSON; ``np.fromstring`` parses the cut text, which is copied into the
epoch's one id buffer, and a count of its characters checks it is canonical.

The reader raises ``BatchforgeError`` with a code: ``BAD_JSON`` for a line
that is not JSON (a file cut mid-line), naming the line's 1-based number;
``BAD_SCHEMA`` for a header whose ``schema_version`` is not this module's;
``BAD_RECORD`` for a line that is not a JSON object, has no or an unknown
``kind``, lacks a plan key (``epoch``, ``iteration``, ``height``,
``width``, ``batch_size``, or a clip's ``num_frames`` or
``clips_per_video``), is a ``replan`` without integer ``epoch`` >= 0,
``updates`` and ``samples`` and an 8 lowercase hex digit ``digest``, or is
a second record of one epoch; ``MISSING_HEADER`` for a ``replan`` under no
header config; ``DIGEST_MISMATCH`` for a ``replan`` the header config does
not reproduce, naming the epoch and both digests; ``MISSING_IDS`` for a
plan without ``sample_ids``; ``BAD_IDS`` for ids that are not canonical
non-negative int64 decimals (a sign, fraction, exponent, quote, leading
zero, empty element, trailing comma, value past int64, or any byte other
than digits, ``,``, space and tab); ``BATCH_SIZE_MISMATCH`` for a
``batch_size`` that is not the id count; ``ITERATION_ORDER`` for iterations
that do not run 0, 1, 2, ... within an epoch; ``BAD_SHAPE`` for a height,
width, frame count or clips per video that is not an integer >= 1.
"""

from __future__ import annotations

import contextlib
import json
import re
import warnings
import zlib
from typing import IO, Iterable

import numpy as np

from . import samplers
from .core import BatchforgeError, Resolution, SamplerConfig, ensure_valid, sampler_config_from_mapping, sampler_config_to_mapping
from .samplers import EpochSchedule, VideoClipSpec

SCHEMA_VERSION = 1

# Ids per block of write_schedules, in whole plans; bounds the writer's memory.
WRITE_BLOCK_IDS = 1 << 15

# A digit pair v as two bytes: "00".."99" in full, or with its leading zero digits as NUL bytes.
_FULL = "".join(f"{v:02d}" for v in range(100))
_LEAD = "\0\0" + "".join(f"{v:2d}".replace(" ", "\0") for v in range(1, 100))
# _CELLS[ones][v + 100 * more]: the cell of pair v, in full when more digits come before it. The ones
# cell of the id 0 is "\0" "0", where the cells before it are NUL NUL.
_CELLS = tuple(np.frombuffer((lead + _FULL).encode(), np.uint16) for lead in (_LEAD, "\0" "0" + _LEAD[2:]))
_COMMA, _END = np.frombuffer(b",\0\n\0", dtype=np.uint16)
_POWERS = [10**k for k in range(1, 19)]
_PLAN_KEYS = ("epoch", "iteration", "height", "width", "batch_size")
_CLIP_KEYS = ("num_frames", "clips_per_video")
_EPOCHS = range(1 << 63)  # the epochs a replan record may name: the shape walk holds them as int64


def id_digest(ids: np.ndarray) -> str:
    """crc32 of ``ids`` as little-endian int64, as 8 lowercase hex digits."""
    return f"{zlib.crc32(np.ascontiguousarray(ids, dtype='<i8')):08x}"


def _format_ids(ids: np.ndarray, ends: np.ndarray) -> list[str]:
    """Comma-separated decimal ``ids``, split after each position in ``ends``."""
    if ids.min(initial=0) < 0:
        raise BatchforgeError("BAD_IDS", f"id {ids.min()} is negative")
    width = (len(str(ids.max(initial=0))) + 1) // 2
    cells = np.empty((len(ids), width + 1), dtype=np.uint16)
    rest = ids
    for c in range(width - 1, -1, -1):
        more = rest // 100
        pair = rest - 100 * more
        pair += 100 * (more > 0)
        cells[:, c] = _CELLS[c == width - 1][pair]
        rest = more
    cells[:, width] = _COMMA
    cells[ends, width] = _END
    return cells.tobytes().translate(None, b"\0").decode("ascii").split("\n")


def write_schedules(fp: IO[str], schedules: Iterable[EpochSchedule], config: SamplerConfig | None = None) -> None:
    """Write the JSONL lines for a sequence of epoch schedules: a ``replan`` line per epoch ``config`` re-plans, else plans."""
    header: dict = {"schema_version": SCHEMA_VERSION, "kind": "header"}
    replan, full = None, range(0)
    if config is not None:
        header["config"] = sampler_config_to_mapping(config)
        with contextlib.suppress(BatchforgeError):  # the config a reader re-plans from; one it rejects writes plans
            replan = ensure_valid(sampler_config_from_mapping(header["config"]))
            n, most = replan.dataset_size, int(samplers.batch_table(replan)[1].max())
            full = range(n - most + 1 if replan.drop_last else n, n + 1)  # the id counts a full-dataset epoch can have
    fp.write(json.dumps(header, separators=(",", ":")) + "\n")
    for schedule in schedules:
        epoch, samples = schedule.epoch, schedule.total_samples
        if samples in full and type(epoch) is int and epoch in _EPOCHS and samplers.plan_epoch(replan, epoch) == schedule:
            record = {"kind": "replan", "epoch": epoch, "updates": schedule.total_updates, "samples": samples}
            fp.write(json.dumps({**record, "digest": id_digest(schedule.ids)}, separators=(",", ":")) + "\n")
            continue
        offsets, count = schedule.offsets, schedule.total_updates
        start = 0
        while start < count:
            stop = int(np.searchsorted(offsets, offsets[start] + WRITE_BLOCK_IDS, side="right")) - 1
            stop = max(stop, start + 1)
            sizes = np.diff(offsets[start : stop + 1])
            ends = (offsets[start + 1 : stop + 1] - offsets[start] - 1)[sizes > 0]
            bodies = iter(_format_ids(schedule.ids[offsets[start] : offsets[stop]], ends))
            lines = []
            for plan in schedule.plans[start:stop]:
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
                body = next(bodies) if plan.batch_size else ""
                lines.append(f'{json.dumps(record, separators=(",", ":"))[:-1]},"sample_ids":[{body}]}}\n')
            fp.write("".join(lines))
            start = stop


def _parse_ids(text: str, where: str) -> tuple[np.ndarray, int]:
    """The ids in the text between a ``sample_ids`` list's brackets, and the characters of that
    text other than spaces, tabs and the ``len(ids) - 1`` commas the ids need.

    Those characters are the ids' canonical digits when the text is canonical, and
    :func:`_check_digits` compares them per epoch. They are more when the text has a leading
    zero, a sign, a fraction, any other character or a comma too many (an empty element, a trailing
    comma, or the text numpy < 2 leaves unparsed where numpy 2 raises).
    """
    if not text.strip(" \t"):
        return np.empty(0, dtype=np.int64), 0
    try:
        ids = np.fromstring(text, dtype=np.uint64, sep=",").view(np.int64)
    except ValueError:
        raise BatchforgeError("BAD_IDS", f"{where}: sample_ids must be integers separated by commas") from None
    spaces = sum(text.count(c) for c in " \t" if c in text)
    return ids, len(text) - spaces - max(len(ids) - 1, 0)


def _check_digits(ids: np.ndarray, digits: int, where: str) -> None:
    """Reject ids past int64 (they parse as negative) and id text with more than their canonical ``digits``."""
    canonical = len(ids)
    for power in _POWERS:
        above = np.count_nonzero(ids >= power)
        if not above:
            break
        canonical += above
    if canonical != digits or ids.min(initial=0) < 0:
        raise BatchforgeError("BAD_IDS", f"{where}: sample_ids must be canonical non-negative int64 integers")


def _loads(text: str, number: int):
    """``json.loads`` of a line, or ``BAD_JSON`` naming its 1-based ``number``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise BatchforgeError("BAD_JSON", f"line {number} is not valid JSON: {err.msg}") from None


def _require(record, keys: tuple[str, ...], where: str) -> None:
    """``BAD_RECORD`` unless ``record`` is a JSON object with every one of ``keys``."""
    if not isinstance(record, dict):
        raise BatchforgeError("BAD_RECORD", f"{where}: expected a JSON object, got {type(record).__name__}")
    missing = [key for key in keys if key not in record]
    if missing:
        raise BatchforgeError("BAD_RECORD", f"{where}: the record has no {missing[0]!r}")


def _shape(record: dict, where: str) -> Resolution | VideoClipSpec:
    """The plan's resolution, or its clip spec when it has one."""
    clip = record.get("clip")
    dims = [record["height"], record["width"]]
    if clip is not None:
        _require(clip, _CLIP_KEYS, f"{where} clip")
        dims += [clip["num_frames"], clip["clips_per_video"]]
    if not all(type(d) is int and d >= 1 for d in dims):
        raise BatchforgeError("BAD_SHAPE", f"{where}: shape dimensions must be integers >= 1, got {dims}")
    shape = Resolution(dims[0], dims[1])
    return shape if clip is None else VideoClipSpec(dims[2], dims[3], shape)


def _replan(record, header_config, per_epoch: dict, number: int) -> None:
    """Re-plan the ``replan`` record of line ``number`` from the header config, check it, and add it to ``per_epoch``."""
    where = f"line {number}"
    epoch, updates, samples, digest = (record.get(key) for key in ("epoch", "updates", "samples", "digest"))
    if not (all(type(v) is int for v in (epoch, updates, samples)) and epoch in _EPOCHS
            and isinstance(digest, str) and re.fullmatch("[0-9a-f]{8}", digest)):
        raise BatchforgeError("BAD_RECORD", f"{where}: a replan needs integer epoch (>= 0), updates, samples and 8 hex digits")
    if epoch in per_epoch:
        raise BatchforgeError("BAD_RECORD", f"{where}: a second record for epoch {epoch}")
    if not isinstance(header_config, dict):
        raise BatchforgeError("MISSING_HEADER", f"{where}: a replan record needs a header config to re-plan from")
    schedule = samplers.plan_epoch(sampler_config_from_mapping(header_config), epoch)
    planned = schedule.total_updates, schedule.total_samples, id_digest(schedule.ids)
    if (updates, samples, digest) != planned:
        raise BatchforgeError("DIGEST_MISMATCH", f"epoch {epoch}: the file has digest {digest} ({updates} updates, {samples} "
                              f"samples), the header config re-plans {planned[2]} ({planned[0]} updates, {planned[1]} samples)")
    per_epoch[epoch] = schedule


def read_schedules(fp: IO[str]) -> tuple[dict | None, list[EpochSchedule]]:
    """Parse a schedule JSONL stream back into EpochSchedule objects.

    Returns the header's config mapping (if present) and one schedule per
    epoch, in file order. A malformed plan raises ``BatchforgeError`` with one
    of the codes the module docstring lists.
    """
    header_config: dict | None = None
    # per epoch: its replan's schedule, or its plans' ids, offsets, shape indices, shapes as {shape: index}, digits per plan
    per_epoch: dict[int, EpochSchedule | tuple[np.ndarray, list[int], list[int], dict, list[int]]] = {}
    with warnings.catch_warnings():
        # numpy < 2 warns where numpy 2 raises; _parse_ids rejects those ids either way.
        warnings.filterwarnings("ignore", "string or file could not be read to its end", DeprecationWarning)
        for number, raw in enumerate(fp, 1):
            line = raw.strip()
            if not line:
                continue
            key = line.find('"sample_ids"')  # in the head: the writer puts the ids last
            first, last = (line.find("[", key) if key >= 0 else -1), line.rfind("]")
            cut = first >= 0 and last > first
            record = _loads(line[: first + 1] + line[last:] if cut else line, number)
            _require(record, ("kind",), f"line {number}")
            kind = record["kind"]
            if kind == "header":
                if cut:
                    record = _loads(line, number)
                version = record.get("schema_version")
                if version != SCHEMA_VERSION:
                    raise BatchforgeError("BAD_SCHEMA", f"line {number}: unsupported schedule schema_version {version!r}")
                header_config = record.get("config")
                continue
            if kind == "replan":
                _replan(record, header_config, per_epoch, number)
                continue
            if kind != "plan":
                raise BatchforgeError("BAD_RECORD", f"line {number}: unexpected record kind {kind!r}")
            _require(record, _PLAN_KEYS, f"line {number}")
            epoch, iteration, batch_size = record["epoch"], record["iteration"], record["batch_size"]
            where = f"epoch {epoch} iteration {iteration}"
            if record.get("sample_ids") != []:
                raise BatchforgeError("MISSING_IDS", f"{where}: the plan has no sample_ids")
            ids, digits = _parse_ids(line[first + 1 : last], where)
            if batch_size != len(ids):
                _check_digits(ids, digits, where)  # malformed id text is BAD_IDS, whatever its batch_size
                raise BatchforgeError("BATCH_SIZE_MISMATCH", f"{where}: batch_size {batch_size} but {len(ids)} ids")
            if epoch not in per_epoch:
                # One id buffer, so an epoch's ids are never held twice. 4M ids (32 MiB) is
                # glibc's largest mmap threshold: the buffer is mapped apart from the heap,
                # the OS backs only the pages written, and it grows and shrinks in place.
                per_epoch[epoch] = (np.empty(1 << 22, dtype=np.int64), [0], [], {}, [])
            elif isinstance(per_epoch[epoch], EpochSchedule):
                raise BatchforgeError("BAD_RECORD", f"{where}: epoch {epoch} already has a replan record")
            epoch_ids, offsets, shape_idx, shapes, id_digits = per_epoch[epoch]
            if iteration != len(shape_idx):
                raise BatchforgeError(
                    "ITERATION_ORDER",
                    f"epoch {epoch}: iteration {iteration} where {len(shape_idx)} was expected",
                )
            shape = _shape(record, where)
            end = offsets[-1] + len(ids)
            if end > len(epoch_ids):
                epoch_ids.resize(2 * end, refcheck=False)
            epoch_ids[offsets[-1] : end] = ids
            offsets.append(end)
            id_digits.append(digits)
            shape_idx.append(shapes.setdefault(shape, len(shapes)))
    for epoch, entry in per_epoch.items():
        if not isinstance(entry, EpochSchedule):
            epoch_ids, offsets, shape_idx, shapes, id_digits = entry
            epoch_ids.resize(offsets[-1], refcheck=False)
            _check_digits(epoch_ids, sum(id_digits), f"epoch {epoch}")
            bounds, shape_idx = np.asarray(offsets, dtype=np.int64), np.asarray(shape_idx, dtype=np.int64)
            per_epoch[epoch] = EpochSchedule(epoch, epoch_ids, bounds, shape_idx, tuple(shapes))
    return header_config, list(per_epoch.values())
