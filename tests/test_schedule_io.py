import io
import json

import numpy as np
import pytest

from batchforge.core import Resolution, ResolutionSet, SamplerConfig, Strategy, sampler_config_from_mapping
from batchforge.samplers import ScheduleError, VideoClipSpec, plan_epoch, plan_video_vbs
from batchforge.schedule_io import read_schedules, write_schedules


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
