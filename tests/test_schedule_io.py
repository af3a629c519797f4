import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import batchforge.schedule_io as schedule_io
from batchforge.core import (
    Resolution,
    ResolutionSet,
    SamplerConfig,
    Strategy,
    sampler_config_from_mapping,
    validate_config,
)
from batchforge.samplers import EpochSchedule, ScheduleError, VideoClipSpec, plan_epoch, plan_video_vbs
from batchforge.schedule_io import read_schedules, write_schedules
from reference_schedule_io import reference_write_schedules


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
    text = export_text([schedule], config)
    _, back = read_schedules(io.StringIO(text))
    assert back[0] == schedule
    assert back[0].plans[0].clip is not None


def test_reader_tolerates_blank_lines_and_missing_header_config():
    config = make_config(epochs=1)
    schedule = plan_epoch(config, 0)
    buf = io.StringIO()
    write_schedules(buf, [schedule])
    text = "\n" + buf.getvalue() + "\n\n"
    header, back = read_schedules(io.StringIO(text))
    assert header is None
    assert back[0] == schedule


def test_reader_rejects_unknown_schema():
    bad = '{"schema_version":99,"kind":"header"}\n'
    try:
        read_schedules(io.StringIO(bad))
    except ValueError as err:
        assert "schema_version" in str(err)
    else:
        raise AssertionError("expected a schema error")


def exported_records(config):
    text = export_text([plan_epoch(config, 0)], config)
    return [json.loads(line) for line in text.splitlines()]


def read_records(records):
    return read_schedules(io.StringIO("".join(json.dumps(r) + "\n" for r in records)))


def test_reader_rejects_batch_size_that_differs_from_ids():
    records = exported_records(make_config(epochs=1))
    records[2]["batch_size"] += 1
    with pytest.raises(ScheduleError) as err:
        read_records(records)
    assert err.value.code == "BATCH_SIZE_MISMATCH"


def test_reader_rejects_iterations_out_of_order():
    records = exported_records(make_config(epochs=1))
    swapped = [records[0], records[2], records[1], *records[3:]]
    gap = [records[0], records[1], *records[3:]]
    for bad in (swapped, gap):
        with pytest.raises(ScheduleError) as err:
            read_records(bad)
        assert err.value.code == "ITERATION_ORDER"


def test_reader_rejects_plans_without_sample_ids():
    # files written by the removed compact mode stored ids as [start, end) runs
    records = exported_records(make_config(epochs=1))
    records[1] = {k: v for k, v in records[1].items() if k != "sample_ids"}
    records[1]["id_runs"] = [[0, records[1]["batch_size"]]]
    with pytest.raises(ScheduleError) as err:
        read_records(records)
    assert err.value.code == "MISSING_IDS"


# -- the block-formatted writer against the json.dumps oracle ---------------------------------

BLOCK_SIZES = [1, 7, schedule_io.WRITE_BLOCK_IDS]
# 0, 9, 10, 99, 100, ..., and the largest id a config can have
DIGIT_BOUNDARIES = sorted({0, 2**24 - 1} | {10**k + d for k in range(1, 8) for d in (-1, 0)})


def reference_text(schedules, config=None):
    buf = io.StringIO()
    reference_write_schedules(buf, schedules, config)
    return buf.getvalue()


def written_text(schedules, config=None, block_ids=schedule_io.WRITE_BLOCK_IDS):
    buf = io.StringIO()
    with mock.patch.object(schedule_io, "WRITE_BLOCK_IDS", block_ids):
        write_schedules(buf, schedules, config=config)
    return buf.getvalue()


@st.composite
def planned_epochs(draw):
    clips = (VideoClipSpec(8, 1, Resolution(112, 112)), VideoClipSpec(16, 2, Resolution(112, 112)))
    config = make_config(
        strategy=draw(st.sampled_from(list(Strategy))),
        dataset_size=draw(st.integers(1, 3000)),
        base_batch=draw(st.integers(1, 300)),
        resolutions=ResolutionSet.squares([112, 128, 224, 320]),
        epochs=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**64 - 1)),
        drop_last=draw(st.booleans()),
        clips=clips,
        base_clip=clips[0],
    )
    assume(not validate_config(config))
    subset = draw(st.none() | st.floats(0.05, 0.95))
    schedules = []
    for epoch in range(config.epochs):
        active = None
        if subset is not None:
            rng = np.random.default_rng(epoch)
            active = np.flatnonzero(rng.random(config.dataset_size) < subset)
        schedules.append(plan_epoch(config, epoch, active))
    return config, schedules


@settings(max_examples=60, deadline=None, print_blob=False)
@given(planned=planned_epochs(), block_ids=st.sampled_from(BLOCK_SIZES))
def test_writer_matches_the_json_dumps_oracle_for_planned_epochs(planned, block_ids):
    config, schedules = planned
    text = written_text(schedules, config, block_ids)
    assert text == reference_text(schedules, config)
    _, back = read_schedules(io.StringIO(text))
    assert back == [s for s in schedules if s.total_updates]


@settings(max_examples=150, deadline=None, print_blob=False)
@given(
    ids=st.lists(st.sampled_from(DIGIT_BOUNDARIES) | st.integers(0, 2**24 - 1), min_size=1, max_size=300),
    cuts=st.lists(st.integers(0, 300), max_size=40),
    block_ids=st.sampled_from(BLOCK_SIZES),
)
def test_writer_matches_the_oracle_at_every_digit_boundary(ids, cuts, block_ids):
    offsets = np.array(sorted({0, len(ids), *(c for c in cuts if c < len(ids))}), dtype=np.int64)
    shapes = (Resolution(128, 128), Resolution(224, 224))
    schedule = EpochSchedule(5, np.array(ids, dtype=np.int64), offsets, np.arange(len(offsets) - 1) % 2, shapes)
    text = written_text([schedule], None, block_ids)
    assert text == reference_text([schedule])
    _, back = read_schedules(io.StringIO(text))
    assert back == [schedule]


def test_writer_formats_every_int64_width_and_empty_plans():
    ids = np.array([0, 7, 10**9, 10**18, 2**63 - 1, 12345678901], dtype=np.int64)
    offsets = np.array([0, 0, 2, 2, 6, 6], dtype=np.int64)
    schedule = EpochSchedule(0, ids, offsets, np.zeros(5, dtype=np.int64), (Resolution(8, 8),))
    text = written_text([schedule])
    assert text == reference_text([schedule])
    _, back = read_schedules(io.StringIO(text))
    assert back == [schedule]


def test_writer_rejects_negative_ids():
    schedule = EpochSchedule(0, np.array([3, -1]), np.array([0, 2]), np.array([0]), (Resolution(8, 8),))
    with pytest.raises(ScheduleError) as err:
        written_text([schedule])
    assert err.value.code == "BAD_IDS"


def test_video_and_subset_epochs_match_the_oracle():
    specs = [VideoClipSpec(8, 1, Resolution(112, 112)), VideoClipSpec(16, 2, Resolution(112, 112))]
    video = plan_video_vbs(make_config(dataset_size=5000, base_batch=8, resolutions=ResolutionSet.squares([112]),
                                       base_resolution=Resolution(112, 112)), specs, specs[0], 0)
    config = make_config(dataset_size=100_000, base_batch=256)
    subset = plan_epoch(config, 1, np.flatnonzero(np.random.default_rng(3).random(config.dataset_size) < 0.7))
    for schedules in ([video], [plan_epoch(config, 0), subset]):
        for block_ids in BLOCK_SIZES:
            assert written_text(schedules, config, block_ids) == reference_text(schedules, config)


# -- what the reader rejects ------------------------------------------------------------------


def plan_line(ids_text, **fields):
    record = {"kind": "plan", "epoch": 0, "iteration": 0, "height": 8, "width": 8, "batch_size": 2, **fields}
    return json.dumps(record, separators=(",", ":"))[:-1] + f',"sample_ids":[{ids_text}]}}\n'


def read_lines(*lines):
    return read_schedules(io.StringIO('{"schema_version":1,"kind":"header"}\n' + "".join(lines)))


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
    with pytest.raises(ScheduleError) as err:
        read_lines(plan_line(ids_text))
    assert err.value.code == "BAD_IDS"


def test_reader_rejects_a_bad_id_whatever_the_batch_size():
    for batch_size in (1, 2, 3):
        with pytest.raises(ScheduleError) as err:
            read_lines(plan_line("007,2,", batch_size=batch_size))
        assert err.value.code == "BAD_IDS"


def test_reader_rejects_a_bad_id_in_a_later_plan_of_the_epoch():
    with pytest.raises(ScheduleError) as err:
        read_lines(plan_line("1,2"), plan_line("3,04", iteration=1))
    assert err.value.code == "BAD_IDS"


def test_reader_accepts_json_whitespace_and_int64_max_in_id_lists():
    _, back = read_lines(
        plan_line(" 1 ,\t2 "),
        plan_line("", iteration=1, batch_size=0),
        plan_line(" \t", iteration=2, batch_size=0),
        plan_line("0,9223372036854775807", iteration=3),
    )
    assert back[0].ids.tolist() == [1, 2, 0, 2**63 - 1]
    assert back[0].offsets.tolist() == [0, 2, 2, 2, 4]


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
    with pytest.raises(ScheduleError) as err:
        read_lines(plan_line("1,2", **fields))
    assert err.value.code == "BAD_SHAPE"


# -- reader codes for lines that are not plan records ----------------------------------------


@pytest.mark.parametrize(
    "bad_line",
    [plan_line("1,2")[:40] + "\n", plan_line("1,2")[:-5] + "\n", plan_line("1,2")[:-2] + "\n", "{\n"],
    ids=["cut_head", "cut_ids", "cut_brace", "open_brace"],
)
def test_reader_names_the_line_that_is_not_json(bad_line):
    # header, a blank line and a good plan come first, so the bad line is line 4 of the file
    with pytest.raises(ScheduleError) as err:
        read_lines("\n", plan_line("1,2"), bad_line)
    assert err.value.code == "BAD_JSON"
    assert "line 4 " in str(err.value)


def test_reader_rejects_a_header_cut_mid_line():
    with pytest.raises(ScheduleError) as err:
        read_schedules(io.StringIO('{"schema_version":1,"ki\n'))
    assert err.value.code == "BAD_JSON" and "line 1" in str(err.value)


@pytest.mark.parametrize("version", [9, 0, "1", None])
def test_reader_codes_an_unsupported_schema_version(version):
    header = json.dumps({"schema_version": version, "kind": "header"})
    with pytest.raises(ScheduleError) as err:
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
    ],
    ids=["unknown_kind", "no_kind", "list", "number", "no_epoch", "no_iteration", "no_height", "no_batch_size",
         "clip_without_clips_per_video", "clip_not_an_object"],
)
def test_reader_codes_records_that_are_not_plans(line):
    with pytest.raises(ScheduleError) as err:
        read_lines(line)
    assert err.value.code == "BAD_RECORD"


@pytest.mark.parametrize(
    "clip, code",
    [([8, 1], "BAD_RECORD"), ({"num_frames": [8], "clips_per_video": 1}, "BAD_SHAPE")],
    ids=["clip_as_a_list", "frames_as_a_list"],
)
def test_reader_parses_lists_before_the_ids_as_json(clip, code):
    # the ids are cut out from the bracket that opens sample_ids, not from the line's first bracket
    with pytest.raises(ScheduleError) as err:
        read_lines(plan_line("1,2", clip=clip))
    assert err.value.code == code
