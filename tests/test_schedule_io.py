import base64
import io
import json
import os
import threading
import tracemalloc
import zlib
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import batchforge.rng as rng
import batchforge.samplers as samplers
import batchforge.schedule_io as schedule_io
from batchforge.core import (
    BatchforgeError,
    Resolution,
    ResolutionSet,
    SamplerConfig,
    Strategy,
    sampler_config_from_mapping,
    sampler_config_to_mapping,
    validate_config,
)
from batchforge.samplers import EpochSchedule, VideoClipSpec, plan_epoch, plan_video_vbs, shard_for_rank
from batchforge.schedule_io import SCHEMA_VERSION, iter_schedules, read_schedules, write_schedules
from reference_schedule_io import reference_end_line, reference_replan_line, reference_write_schedules


def make_config(**overrides):
    kwargs = dict(
        strategy=Strategy.MSC_VBS,
        dataset_size=4096,
        base_batch=128,
        base_resolution=Resolution(224, 224),
        resolutions=ResolutionSet.squares([128, 224, 320]),
        epochs=3,
        seed=21,
        drop_last=False,
    )
    kwargs.update(overrides)
    return SamplerConfig(**kwargs)


def export_text(schedules, config):
    buf = io.StringIO()
    write_schedules(buf, schedules, config=config)
    return buf.getvalue()


def test_export_import_export_is_byte_identical():
    config = make_config()
    schedules = [plan_epoch(config, e) for e in range(config.epochs)]
    text = export_text(schedules, config)
    header, back = read_schedules(io.StringIO(text))
    assert header is not None
    rebuilt_config = sampler_config_from_mapping(header)
    assert rebuilt_config == config
    assert export_text(back, rebuilt_config) == text


def test_import_reconstructs_equal_schedules():
    config = make_config()
    schedules = [plan_epoch(config, e) for e in range(config.epochs)]
    _, back = read_schedules(io.StringIO(export_text(schedules, config)))
    assert len(back) == len(schedules)
    assert all(a == b for a, b in zip(schedules, back))


def test_a_numpy_integer_epoch_round_trips_as_its_python_int():
    config = make_config()
    active = np.arange(0, config.dataset_size, 3)
    schedules = [plan_epoch(config, np.int64(3)), plan_epoch(config, np.int64(4), active)]
    assert schedules == [plan_epoch(config, 3), plan_epoch(config, 4, active)]
    text = export_text(schedules, config)
    assert text == export_text([plan_epoch(config, 3), plan_epoch(config, 4, active)], config)
    _, back = read_schedules(io.StringIO(text))
    assert back == schedules
    assert [type(s.epoch) for s in back] == [int, int]


def test_video_clip_round_trip():
    specs = [VideoClipSpec(8, 1, Resolution(112, 112)), VideoClipSpec(16, 2, Resolution(112, 112))]
    config = make_config(
        strategy=Strategy.VIDEO_VBS,
        dataset_size=512,
        base_batch=8,
        base_resolution=Resolution(112, 112),
        resolutions=ResolutionSet.squares([112]),
        epochs=1,
    )
    schedule = plan_video_vbs(config, specs, specs[0], 0)
    # the config plan_video_vbs planned from: config with the clip table around specs[0]
    text = export_text([schedule], replace(config, clips=tuple(specs), base_clip=specs[0]))
    assert [json.loads(line)["kind"] for line in text.splitlines()] == ["header", "replan", "end"]
    _, back = read_schedules(io.StringIO(text))
    assert back[0] == schedule
    assert back[0].plans[0].clip is not None


def test_reader_tolerates_blank_lines_and_missing_header_config():
    config = make_config(epochs=2)
    schedules = [plan_epoch(config, e) for e in range(config.epochs)]
    text = "\n" + export_text(schedules, config).replace("\n", "\n\n") + "\n"
    header, back = read_schedules(io.StringIO(text))
    assert sampler_config_from_mapping(header) == config
    assert back == schedules
    # a header without a config, or no header at all, holds no epochs
    header = json.dumps({"schema_version": SCHEMA_VERSION, "kind": "header"})
    for text in (reference_end_line(0), "\n\n" + reference_end_line(0), header + "\n\n" + reference_end_line(0)):
        assert read_schedules(io.StringIO(text)) == (None, [])


def test_reader_rejects_unknown_schema():
    bad = '{"schema_version":99,"kind":"header"}\n'
    try:
        read_schedules(io.StringIO(bad))
    except ValueError as err:
        assert "schema_version" in str(err)
    else:
        raise AssertionError("expected a schema error")


def assert_plan_line_refused(text, number):
    """The reader refuses the text's first plan line, line ``number``, whatever the line holds."""
    with pytest.raises(BatchforgeError) as err:
        read_schedules(io.StringIO(text))
    assert err.value.code == "BAD_RECORD" and err.value.message.startswith(f"line {number}: ")
    assert "'plan'" in err.value.message


def exported_records(config):
    # the reference writer's header and verbatim plan lines, one per iteration of epoch 0
    buf = io.StringIO()
    reference_write_schedules(buf, [plan_epoch(config, 0)], config)
    return [json.loads(line) for line in buf.getvalue().splitlines()]


def records_text(records):
    return "".join(json.dumps(r) + "\n" for r in records)


# Plan lines, whatever they hold, are a kind the reader does not know: it refuses the first one, line 2 of these
# files, before it reads any id.


def test_reader_rejects_batch_size_that_differs_from_ids():
    records = exported_records(make_config(epochs=1))
    records[2]["batch_size"] += 1
    assert_plan_line_refused(records_text(records), 2)


def test_reader_rejects_iterations_out_of_order():
    records = exported_records(make_config(epochs=1))
    swapped = [records[0], records[2], records[1], *records[3:]]
    gap = [records[0], records[1], *records[3:]]
    for bad in (swapped, gap):
        assert_plan_line_refused(records_text(bad), 2)


def test_reader_rejects_plans_without_sample_ids():
    # files written by the removed compact mode stored ids as [start, end) runs
    records = exported_records(make_config(epochs=1))
    records[1] = {k: v for k, v in records[1].items() if k != "sample_ids"}
    records[1]["id_runs"] = [[0, records[1]["batch_size"]]]
    assert_plan_line_refused(records_text(records), 2)


# -- the writer against the json.dumps oracle ------------------------------------------------


def reference_text(schedules, config):
    buf = io.StringIO()
    reference_write_schedules(buf, schedules, config)
    return buf.getvalue()


def written_text(schedules, config):
    buf = io.StringIO()
    write_schedules(buf, schedules, config=config)
    return buf.getvalue()


def replanned_text(config, schedules, fields):
    """The oracle of a write of planned ``schedules`` with their ``config``: its header, then a replan line
    with each epoch's ``fields`` per epoch with updates."""
    assert not validate_config(config)
    lines = [reference_replan_line(s, **f) for s, f in zip(schedules, fields) if s.total_updates]
    return reference_text([], config) + "".join(lines) + reference_end_line(len(lines))


@st.composite
def planned_epochs(draw):
    """A config and its planned epochs, each a full or subset epoch and maybe one rank's shard of it, with
    the ``reference_replan_line`` fields of each."""
    clips = (VideoClipSpec(8, 1, Resolution(112, 112)), VideoClipSpec(16, 2, Resolution(112, 112)))
    world = draw(st.sampled_from([1, 2, 3]))
    config = make_config(
        strategy=draw(st.sampled_from(list(Strategy))),
        dataset_size=draw(st.integers(1, 3000)),
        base_batch=draw(st.integers(1, 300)),
        resolutions=ResolutionSet.squares([112, 128, 224, 320]),
        epochs=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**64 - 1)),
        drop_last=draw(st.booleans()),
        world_size=world,
        clips=clips,
        base_clip=clips[0],
    )
    assume(not validate_config(config))
    subset = draw(st.none() | st.floats(0.05, 0.95))
    schedules, fields = [], []
    for epoch in range(config.epochs):
        keep = None if subset is None else np.random.default_rng(epoch).random(config.dataset_size) < subset
        schedule = plan_epoch(config, epoch, None if keep is None else np.flatnonzero(keep))
        # an active set of every id is the whole dataset
        field = {"active": None if keep is None or keep.all() else keep.tolist()}
        rank = draw(st.none() | st.integers(0, world - 1))
        if rank is not None and world > 1 and not (np.diff(schedule.offsets) % world).any():
            schedule = shard_for_rank(schedule, rank, world)
            field.update(rank=rank, world_size=world)
        schedules.append(schedule)
        fields.append(field)
    return config, schedules, fields


@settings(max_examples=60, deadline=None, print_blob=False)
@given(planned=planned_epochs())
def test_writer_matches_the_json_dumps_oracle_for_planned_epochs(planned):
    config, schedules, fields = planned
    # each epoch with updates is one replan line, which reads back and re-exports
    text = written_text(schedules, config)
    assert text == replanned_text(config, schedules, fields)
    header, back = read_schedules(io.StringIO(text))
    assert back == [s for s in schedules if s.total_updates]
    assert written_text(back, sampler_config_from_mapping(header)) == text


def test_writer_rejects_a_hand_built_schedule_whatever_its_ids():
    config = make_config()
    for ids in ([3, -1], [0, 1]):
        schedule = EpochSchedule(4, np.array(ids), np.array([0, 2]), np.array([0]), (Resolution(8, 8),))
        with pytest.raises(BatchforgeError) as err:
            written_text([schedule], config)
        assert err.value.code == "NOT_REPLANNABLE" and err.value.message.startswith("epoch 4 ")
    # a hand-built epoch with no updates writes nothing, as a planned one does
    empty = EpochSchedule(4, np.zeros(0, dtype=np.int64), np.array([0]), np.zeros(0, dtype=np.int64), (Resolution(8, 8),))
    assert written_text([empty], config) == reference_text([], config) + reference_end_line(0)


def test_video_and_subset_epochs_match_the_oracle():
    specs = [VideoClipSpec(8, 1, Resolution(112, 112)), VideoClipSpec(16, 2, Resolution(112, 112))]
    video = plan_video_vbs(make_config(dataset_size=5000, base_batch=8, resolutions=ResolutionSet.squares([112]),
                                       base_resolution=Resolution(112, 112)), specs, specs[0], 0)
    config = make_config(dataset_size=100_000, base_batch=256)
    keep = np.random.default_rng(3).random(config.dataset_size) < 0.7
    subset = plan_epoch(config, 1, np.flatnonzero(keep))
    full = plan_epoch(config, 0)
    # the full and the subset epoch are a replan line each; the video epoch, planned from another config, has none
    expected = (reference_text([], config) + reference_replan_line(full) + reference_replan_line(subset, keep.tolist())
                + reference_end_line(2))
    assert written_text([full, subset], config) == expected
    with pytest.raises(BatchforgeError) as err:
        written_text([video], config)
    assert err.value.code == "NOT_REPLANNABLE" and err.value.message.startswith("epoch 0 ")


# -- regenerable epochs: replan records -------------------------------------------------------

CLIPS = (VideoClipSpec(8, 1, Resolution(112, 112)), VideoClipSpec(16, 2, Resolution(112, 112)))


@pytest.mark.parametrize("drop_last", [False, True])
@pytest.mark.parametrize("strategy", list(Strategy))
def test_full_dataset_epochs_are_one_replan_line_each(strategy, drop_last):
    config = make_config(strategy=strategy, dataset_size=3000, base_batch=48, drop_last=drop_last,
                         resolutions=ResolutionSet.squares([112, 128, 224, 320]), clips=CLIPS, base_clip=CLIPS[0])
    assert not validate_config(config)
    schedules = [plan_epoch(config, 0), plan_epoch(config, 1, []), plan_epoch(config, 2)]
    assert schedules[1].total_updates == 0  # an epoch with no updates writes nothing
    text = export_text(schedules, config)
    assert text == (reference_text([], config) + reference_replan_line(schedules[0]) + reference_replan_line(schedules[2])
                    + reference_end_line(2))
    header, back = read_schedules(io.StringIO(text))
    assert sampler_config_from_mapping(header) == config
    assert back == [schedules[0], schedules[2]]
    assert export_text(back, config) == text


def test_epochs_the_header_config_does_not_replan_are_not_replannable():
    config = make_config(world_size=2, drop_last=True, base_batch=64)
    full = plan_epoch(config, 0)
    shard = shard_for_rank(full, 1, 2)
    subset = plan_epoch(config, 1, np.flatnonzero(np.random.default_rng(5).random(config.dataset_size) < 0.7))
    relabeled = EpochSchedule(2, full.ids, full.offsets, full.shape_idx, full.shapes)  # epoch 0's plan as epoch 2
    video_config = make_config(strategy=Strategy.VIDEO_VBS, dataset_size=512, base_batch=8,
                               base_resolution=Resolution(112, 112), resolutions=ResolutionSet.squares([112]))
    video = plan_video_vbs(video_config, list(CLIPS), CLIPS[0], 0)  # the header config has no clip table
    cases = [
        ([relabeled], config),  # hand-built: no origin
        ([shard_for_rank(shard, 0, 1)], config),  # a shard of a shard: no origin
        ([full], replace(config, epochs=0)),  # a config validate_config rejects
        ([video], video_config),
    ]
    for schedules, header_config in cases:
        assert validate_config(header_config) or plan_epoch(header_config, schedules[0].epoch) != schedules[0]
        with pytest.raises(BatchforgeError) as err:
            written_text(schedules, header_config)
        assert err.value.code == "NOT_REPLANNABLE" and err.value.message.startswith(f"epoch {schedules[0].epoch} ")
    # a planned epoch carries its origin, so writing full, subset and shard epochs re-plans nothing
    planned = [full, subset, shard_for_rank(plan_epoch(config, 2), 1, 2)]
    with mock.patch.object(samplers, "plan_epoch", wraps=samplers.plan_epoch) as replans:
        text = written_text(planned, config)
    assert replans.call_count == 0
    assert [json.loads(line)["kind"] for line in text.splitlines()] == ["header", "replan", "replan", "replan", "end"]
    assert read_schedules(io.StringIO(text))[1] == planned


def test_a_shard_of_numpy_integer_rank_round_trips():
    config = make_config(world_size=2, drop_last=True, base_batch=64)
    shard = shard_for_rank(plan_epoch(config, 0), np.int64(1), np.int64(2))
    text = export_text([shard], config)
    assert text == export_text([shard_for_rank(plan_epoch(config, 0), 1, 2)], config)
    assert '"rank":1,"world_size":2' in text.replace(" ", "")
    assert read_schedules(io.StringIO(text))[1] == [shard]


def replan_file(epochs=1):
    """The header line and the replan lines of ``make_config()``'s first ``epochs`` epochs, without the end line."""
    config = make_config()
    return export_text([plan_epoch(config, e) for e in range(epochs)], config).splitlines(keepends=True)[:-1]


@pytest.mark.parametrize("damage", ["digest", "updates", "samples", "seed"])
def test_reader_rejects_a_replan_the_header_config_does_not_reproduce(damage):
    header, line = replan_file()
    record = json.loads(line)
    if damage == "seed":
        header = header.replace('"seed":21,', '"seed":22,')
    else:
        record[damage] = f"{int(record[damage], 16) ^ 1:08x}" if damage == "digest" else record[damage] + 1
        line = json.dumps(record, separators=(",", ":")) + "\n"
    with pytest.raises(BatchforgeError) as err:
        read_schedules(io.StringIO(header + line))
    assert err.value.code == "DIGEST_MISMATCH"
    digest = json.loads(line)["digest"]
    replanned = schedule_io.id_digest(plan_epoch(sampler_config_from_mapping(json.loads(header)["config"]), 0).ids)
    assert err.value.message.startswith("epoch 0: ") and digest in err.value.message and replanned in err.value.message
    assert (digest == replanned) == (damage in ("updates", "samples"))


def test_reader_needs_a_header_config_to_replan():
    _, line = replan_file()
    for text in (line, json.dumps({"schema_version": SCHEMA_VERSION, "kind": "header"}) + "\n" + line):
        with pytest.raises(BatchforgeError) as err:
            read_schedules(io.StringIO(text))
        assert err.value.code == "MISSING_HEADER"


@pytest.mark.parametrize(
    "fields",
    [
        *({key: None} for key in ("epoch", "updates", "samples", "digest")),
        {"epoch": "0"},
        {"epoch": 0.0},
        {"epoch": True},
        {"epoch": -1},
        {"epoch": 2**63},
        {"updates": 1.5},
        {"samples": "4096"},
        {"digest": "1234567"},
        {"digest": "123456789"},
        {"digest": "1234567g"},
        {"digest": "ABCDEF01"},
        {"digest": 12345678},
    ],
    ids=["no_epoch", "no_updates", "no_samples", "no_digest", "epoch_text", "epoch_float", "epoch_bool",
         "negative_epoch", "epoch_past_int64", "updates_float", "samples_text", "digest_7_digits", "digest_9_digits",
         "digest_not_hex", "digest_upper_case", "digest_number"],
)
def test_reader_codes_replan_records_with_a_bad_key(fields):
    header, line = replan_file()
    record = {key: value for key, value in {**json.loads(line), **fields}.items() if value is not None}
    with pytest.raises(BatchforgeError) as err:
        read_schedules(io.StringIO(header + json.dumps(record) + "\n"))
    assert err.value.code == "BAD_RECORD"


def test_reader_rejects_a_second_record_for_an_epoch():
    header, line = replan_file()
    subset = export_text([plan_epoch(make_config(), 0, np.arange(100))], make_config()).splitlines(True)[1]
    for body in (line + line, line + subset):
        with pytest.raises(BatchforgeError) as err:
            read_schedules(io.StringIO(header + body))
        assert err.value.code == "BAD_RECORD" and "a second record for epoch 0" in err.value.message


def test_reader_rejects_a_second_header():
    # Records after a second header would re-plan from its config, so one file would cost two configs as one.
    header, line = replan_file()
    other = make_config(strategy=Strategy.MSC_FBS, seed=5)
    other_header, _, other_line, _ = export_text([plan_epoch(other, e) for e in range(2)], other).splitlines(keepends=True)
    for text, number in ((header + line + other_header + other_line, 3), (header + header + line, 2)):
        with pytest.raises(BatchforgeError) as err:
            read_schedules(io.StringIO(text))
        assert err.value.code == "BAD_RECORD" and err.value.message.startswith(f"line {number}: a second header")


def test_reader_names_a_replan_line_cut_mid_way():
    lines = replan_file(epochs=3)
    for cut in (lines[3][:20], lines[3][:-3]):
        with pytest.raises(BatchforgeError) as err:
            read_schedules(io.StringIO("".join(lines[:3]) + cut))
        assert err.value.code == "BAD_JSON" and str(err.value).startswith("BAD_JSON: line 4 ")


def test_every_proper_line_prefix_of_a_plan_file_fails_with_a_code():
    # a file cut at a line boundary must not read as a shorter schedule
    config = make_config(world_size=2, drop_last=True)
    active = np.flatnonzero(np.random.default_rng(3).random(config.dataset_size) < 0.7)
    schedules = [plan_epoch(config, 0), plan_epoch(config, 1, active), shard_for_rank(plan_epoch(config, 2), 1, 2)]
    lines = export_text(schedules, config).splitlines(keepends=True)
    assert len(lines) == 5 and read_schedules(io.StringIO("".join(lines)))[1] == schedules
    for count in range(len(lines)):
        with pytest.raises(BatchforgeError) as err:
            read_schedules(io.StringIO("".join(lines[:count])))
        assert err.value.code == "TRUNCATED" and f"after {max(count - 1, 0)} records" in err.value.message


def test_the_reader_streams_one_epoch_at_a_time():
    # iter_schedules keeps epoch numbers, not schedules: taking an 8-epoch file one epoch at a time peaks about one
    # epoch of ids (200,000 int64 ids, 1.6 MB) above a 1-epoch file, where holding every epoch would add seven
    config = make_config(dataset_size=200_000, base_batch=1000, epochs=8)
    epoch_bytes, peaks = config.dataset_size * 8, []
    for epochs in (1, 8):
        text = export_text((plan_epoch(config, e) for e in range(epochs)), config)
        tracemalloc.start()
        try:
            stream = iter_schedules(io.StringIO(text))
            assert next(stream) == sampler_config_to_mapping(config)
            assert [schedule.epoch for schedule in stream] == list(range(epochs))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 1.5 * epoch_bytes, [peak / epoch_bytes for peak in peaks]


def test_the_reader_yields_the_epochs_before_a_fault():
    lines = replan_file(epochs=3)
    stream = iter_schedules(io.StringIO("".join(lines)))
    assert isinstance(next(stream), dict)
    assert [schedule.epoch for schedule in (next(stream), next(stream), next(stream))] == [0, 1, 2]
    with pytest.raises(BatchforgeError) as err:
        next(stream)
    assert err.value.code == "TRUNCATED"
    # a file with no records gives its header config at its end line, and a fault before that raises first
    assert list(iter_schedules(io.StringIO(lines[0] + reference_end_line(0)))) == [json.loads(lines[0])["config"]]
    with pytest.raises(BatchforgeError) as err:
        next(iter_schedules(io.StringIO(lines[0] + '{"kind":"plan"}\n' + lines[1])))
    assert err.value.code == "BAD_RECORD"


@pytest.mark.parametrize(
    "tail",
    [
        lambda lines: [*lines, lines[-1]],  # a second end line
        lambda lines: [*lines, lines[1]],  # a record after the end
        lambda lines: [*lines, lines[0]],  # a header after the end
        lambda lines: [*lines[:-1], reference_end_line(2)],
        lambda lines: [*lines[:-1], reference_end_line(4)],
        lambda lines: [*lines[:-1], '{"kind":"end"}\n'],
        lambda lines: [*lines[:-1], '{"kind":"end","records":"3"}\n'],
        lambda lines: [*lines[:-1], '{"kind":"end","records":-1}\n'],
        lambda lines: [lines[0], lines[-1], *lines[1:-1]],  # the end line before the records
    ],
    ids=["two_end_lines", "record_after_end", "header_after_end", "count_short", "count_long", "no_count", "count_text",
         "negative_count", "end_first"],
)
def test_reader_codes_an_end_line_that_does_not_close_the_file(tail):
    lines = replan_file(epochs=3) + [reference_end_line(3)]
    with pytest.raises(BatchforgeError) as err:
        read_schedules(io.StringIO("".join(tail(lines))))
    assert err.value.code == "BAD_RECORD"


# -- subset and shard records -----------------------------------------------------------------


def test_planned_schedules_and_their_shards_are_read_only():
    schedule = plan_epoch(make_config(world_size=2, drop_last=True), 0, np.arange(1000))
    for planned in (schedule, shard_for_rank(schedule, 1, 2)):
        for array in (planned.ids, planned.offsets, planned.shape_idx):
            with pytest.raises(ValueError):
                array[0] = 1


def test_an_active_set_changed_after_planning_fails_to_read():
    config = make_config()
    active = np.flatnonzero(np.random.default_rng(7).random(config.dataset_size) < 0.7)
    schedule = plan_epoch(config, 0, active)
    assert schedule.origin.active is active  # a reference, not a copy
    active[0] = np.setdiff1d(np.arange(config.dataset_size), active)[0]
    with pytest.raises(BatchforgeError) as err:
        read_schedules(io.StringIO(export_text([schedule], config)))
    assert err.value.code == "DIGEST_MISMATCH"


def shard_file():
    """The header line and the replan line of rank 1's shard of a 4090-id config's epoch 0 over a 70 % subset,
    without the end line."""
    config = make_config(dataset_size=4090, world_size=2, drop_last=True)
    active = np.flatnonzero(np.random.default_rng(5).random(config.dataset_size) < 0.7)
    return export_text([shard_for_rank(plan_epoch(config, 0, active), 1, 2)], config).splitlines(keepends=True)[:-1]


def _padded(line, tail):
    """The line's ``active`` bytes with ``tail`` in place of its last byte, in base64."""
    packed = base64.b64decode(json.loads(line)["active"])
    return base64.b64encode(packed[:-1] + tail).decode()


@pytest.mark.parametrize(
    "fields",
    [
        {"active": "not base64!"},
        {"active": 7},
        {"active": "\u00e9" * 4},
        {"active": lambda line: _padded(line, b"")},
        {"active": lambda line: _padded(line, b"\0\0")},
        {"active": lambda line: _padded(line, b"\x01")},
        {"rank": None},
        {"world_size": None},
        {"rank": "1"},
        {"world_size": 2.0},
        {"rank": True},
        {"rank": -1},
        {"rank": 2},
        {"world_size": 0},
        {"world_size": 2**63},
    ],
    ids=["active_not_base64", "active_number", "active_not_ascii", "active_a_byte_short", "active_a_byte_long",
         "active_padding_bit_set", "no_rank", "no_world_size", "rank_text", "world_size_float", "rank_bool",
         "negative_rank", "rank_past_world_size", "world_size_zero", "world_size_past_int64"],
)
def test_reader_codes_subset_and_shard_records_with_a_bad_key(fields):
    header, line = shard_file()
    fields = {key: value(line) if callable(value) else value for key, value in fields.items()}
    record = {key: value for key, value in {**json.loads(line), **fields}.items() if value is not None}
    with pytest.raises(BatchforgeError) as err:
        read_schedules(io.StringIO(header + json.dumps(record) + "\n"))
    assert err.value.code == "BAD_RECORD"


# -- what the reader rejects ------------------------------------------------------------------
# The reader refuses a plan line whatever its ids or shape hold: it reads no id text.


def plan_line(ids_text, **fields):
    record = {"kind": "plan", "epoch": 0, "iteration": 0, "height": 8, "width": 8, "batch_size": 2, **fields}
    return json.dumps(record, separators=(",", ":"))[:-1] + f',"sample_ids":[{ids_text}]}}\n'


def lines_text(*lines):
    """A header with a config and a good replan line, then ``lines``: the first of them is line 3."""
    return "".join(replan_file()) + "".join(lines)


def read_lines(*lines):
    return read_schedules(io.StringIO(lines_text(*lines)))


@pytest.mark.parametrize(
    "ids_text",
    [
        "1.5,2",
        "true,2",
        '"7",2',
        "-1,2",
        "+1,2",
        "1e3,2",
        "0x1,2",
        "null,2",
        "[1],2",
        "007,2",
        "0,01",
        "1,,2",
        ",1,2",
        "1,2,",
        ",",
        "9223372036854775808,2",
        "18446744073709551616,2",
        "99999999999999999999,2",
        "1;2",
        "1 2",
        "1\x0b,2",
        "1,\u00a02",
        "1,\u0662",
    ],
)
def test_reader_rejects_ids_that_are_not_canonical_non_negative_integers(ids_text):
    # id text that is not JSON makes the line BAD_JSON; a plan line that is JSON is BAD_RECORD
    with pytest.raises(BatchforgeError) as err:
        read_lines(plan_line(ids_text))
    assert err.value.code in ("BAD_JSON", "BAD_RECORD") and err.value.message.startswith("line 3")


def test_reader_rejects_a_bad_id_whatever_the_batch_size():
    for batch_size in (1, 2, 3):
        with pytest.raises(BatchforgeError) as err:
            read_lines(plan_line("007,2,", batch_size=batch_size))
        assert err.value.code == "BAD_JSON"


def test_reader_rejects_a_bad_id_in_a_later_plan_of_the_epoch():
    assert_plan_line_refused(lines_text(plan_line("1,2", epoch=1), plan_line("3,04", epoch=1, iteration=1)), 3)


@pytest.mark.parametrize(
    "fields",
    [
        {"height": 0},
        {"width": -4},
        {"height": True},
        {"width": 8.0},
        {"clip": {"num_frames": 0, "clips_per_video": 1}},
        {"clip": {"num_frames": 8, "clips_per_video": -1}},
    ],
    ids=["zero_height", "negative_width", "bool_height", "float_width", "zero_frames", "negative_clips"],
)
def test_reader_rejects_bad_shapes(fields):
    assert_plan_line_refused(lines_text(plan_line("1,2", **fields)), 3)


# -- reader codes for lines that are not plan records ----------------------------------------


@pytest.mark.parametrize(
    "bad_line",
    [plan_line("1,2")[:40] + "\n", plan_line("1,2")[:-5] + "\n", plan_line("1,2")[:-2] + "\n", "{\n"],
    ids=["cut_head", "cut_ids", "cut_brace", "open_brace"],
)
def test_reader_names_the_line_that_is_not_json(bad_line):
    # a header, a good replan line and a blank line come first, so the bad line is line 4 of the file
    with pytest.raises(BatchforgeError) as err:
        read_lines("\n", bad_line)
    assert err.value.code == "BAD_JSON"
    assert "line 4 " in str(err.value)


def test_reader_rejects_a_header_cut_mid_line():
    with pytest.raises(BatchforgeError) as err:
        read_schedules(io.StringIO('{"schema_version":1,"ki\n'))
    assert err.value.code == "BAD_JSON" and "line 1" in str(err.value)


# schema 1 had no end line, so its files cannot be told from cut ones: they do not read
@pytest.mark.parametrize("version", [9, 0, "1", None, 1], ids=["9", "0", "1", "None", "schema_1"])
def test_reader_codes_an_unsupported_schema_version(version):
    header = json.dumps({"schema_version": version, "kind": "header"})
    with pytest.raises(BatchforgeError) as err:
        read_schedules(io.StringIO(header + "\n" + plan_line("1,2")))
    assert err.value.code == "BAD_SCHEMA"


@pytest.mark.parametrize(
    "line",
    [
        plan_line("1,2", kind="epoch"),
        '{"epoch":0}\n',
        "[1,2]\n",
        "7\n",
        plan_line("1,2").replace('"epoch":0,', ""),
        plan_line("1,2").replace('"iteration":0,', ""),
        plan_line("1,2").replace('"height":8,', ""),
        plan_line("1,2").replace('"batch_size":2,', ""),
        plan_line("1,2", clip={"num_frames": 8}),
        plan_line("1,2", clip=8),
        plan_line("1,2", epoch=[0]),
        plan_line("1,2", epoch="a"),
    ],
    ids=["unknown_kind", "no_kind", "list", "number", "no_epoch", "no_iteration", "no_height", "no_batch_size",
         "clip_without_clips_per_video", "clip_not_an_object", "epoch_a_list", "epoch_text"],
)
def test_reader_codes_records_that_are_not_plans(line):
    with pytest.raises(BatchforgeError) as err:
        read_lines(line)
    assert err.value.code == "BAD_RECORD"


# -- id_digest: the crc32 of two halves, combined ------------------------------------------------

LINEAR = rng.SPLIT_MIN


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("n", [0, 1, 7, LINEAR - 1, LINEAR, LINEAR + 1, LINEAR + 12345])
@pytest.mark.parametrize("layout", ["contiguous", "strided_shard"])
def test_id_digest_is_one_crc32_of_the_ids_on_one_or_two_cpus(monkeypatch, cpus, n, layout):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    made = mock.Mock(wraps=threading.Thread)
    monkeypatch.setattr(rng.threading, "Thread", made)
    source = np.random.default_rng(n).integers(0, 2**63, 2 * n if layout == "strided_shard" else n)
    ids = source[1::2] if layout == "strided_shard" else source  # rank 1 of 2, as shard_for_rank takes it
    assert len(ids) == n
    assert schedule_io.id_digest(ids) == f"{zlib.crc32(ids.astype('<i8').tobytes()):08x}"
    assert made.call_count == (cpus > 1 and n >= LINEAR)


@settings(max_examples=200, deadline=None, print_blob=False)
@given(a=st.binary(max_size=64), b=st.binary(max_size=64), zeros=st.sampled_from([0, 1, 2**13 + 3]) | st.integers(0, 2**20))
def test_crc32_combine_is_the_crc32_of_the_joined_bytes(a, b, zeros):
    b += bytes(zeros)  # lengths past 2**20 bytes, empty halves included
    assert schedule_io.crc32_combine(zlib.crc32(a), zlib.crc32(b), len(b)) == zlib.crc32(a + b)
