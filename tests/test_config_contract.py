"""validate_config is the contract: a config it accepts plans, shards across
every rank, round-trips through JSONL and, when its batch table has one
size, gets its exact update count as the closed form; a config it rejects
raises. Video configs are drawn with a clip table over the drawn
resolutions. The command line keeps the same contract: an accepted config
given by flags or by a --config file plans, exports, analyzes and trains."""

import contextlib
import io
import json
import os
import tempfile
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batchforge.cli import SETTINGS, run
from batchforge.core import (
    SAMPLER_FIELDS,
    BatchRounding,
    ConfigValidationError,
    Resolution,
    ResolutionSet,
    SamplerConfig,
    Strategy,
    VideoClipSpec,
    ensure_valid,
    parse_flat_config,
    sampler_config_from_mapping,
    sampler_config_to_mapping,
    validate_config,
)
from batchforge.analysis import count_updates
from batchforge.presets import load_preset, preset_names
from batchforge.samplers import batch_table, plan_epoch, shard_for_rank
from batchforge.schedule_io import read_schedules, write_schedules


@st.composite
def sampler_configs(draw):
    # Mostly in-range fields, so that many draws with several ranks pass validation;
    # the sharding rules, min_batch and small datasets still reject plenty.
    sides = sorted(draw(st.lists(st.integers(2, 40).map(lambda s: 8 * s), min_size=1, max_size=4, unique=True)))
    base = draw(st.sampled_from(sides))
    # (frames, clips per video, side) triples; the image strategies carry the table and ignore it
    triples = st.tuples(st.integers(1, 16), st.integers(1, 3), st.sampled_from(sides))
    shapes = draw(st.lists(triples, min_size=1, max_size=4, unique=True))
    clips = tuple(VideoClipSpec(frames, per_video, Resolution(side, side)) for frames, per_video, side in shapes)
    return SamplerConfig(
        strategy=draw(st.sampled_from(list(Strategy))),
        dataset_size=draw(st.integers(1, 3000)),
        base_batch=draw(st.integers(1, 64)),
        base_resolution=Resolution(base, base),
        resolutions=ResolutionSet.squares(sides),
        epochs=1,
        world_size=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 2**64 - 1)),
        drop_last=draw(st.booleans()),
        batch_rounding=draw(st.sampled_from(list(BatchRounding))),
        min_batch=draw(st.none() | st.integers(1, 24)),
        clips=clips,
        base_clip=draw(st.sampled_from(clips)),
    )


@settings(max_examples=500, deadline=None, print_blob=False)
@given(
    config=sampler_configs(),
    epoch=st.integers(0, 5),
    keep=st.floats(0.2, 1.0),
    subset_seed=st.integers(0, 2**32 - 1),
)
def test_accepted_configs_plan_shard_and_round_trip(config, epoch, keep, subset_seed):
    if validate_config(config):
        with pytest.raises(ConfigValidationError):
            ensure_valid(config)
        return

    # a filtered epoch: any subset of the ids may be active
    active = np.flatnonzero(np.random.default_rng(subset_seed).random(config.dataset_size) < keep)
    schedule = plan_epoch(config, epoch, active)
    assert len(np.unique(schedule.ids)) == len(schedule.ids)
    assert np.isin(schedule.ids, active).all()

    world = config.world_size
    shards = [shard_for_rank(schedule, rank, world) for rank in range(world)]
    merged = np.sort(np.concatenate([shard.ids for shard in shards]))
    assert np.array_equal(merged, np.sort(schedule.ids))
    shapes = [(p.resolution, p.batch_size // world) for p in schedule.plans]
    for shard in shards:
        assert [(p.resolution, p.batch_size) for p in shard.plans] == shapes

    buf = io.StringIO()
    write_schedules(buf, [schedule], config)
    header, back = read_schedules(io.StringIO(buf.getvalue()))
    assert sampler_config_from_mapping(header) == config
    # an epoch without iterations writes no plan lines
    assert back == ([schedule] if schedule.total_updates else [])

    sizes = batch_table(config)
    if (sizes == sizes[0]).all():
        counts = count_updates(config)
        assert counts.closed_form == counts.exact


@settings(max_examples=100, deadline=None, print_blob=False)
@given(config=sampler_configs())
def test_video_configs_without_a_usable_clip_table_are_rejected(config):
    video = replace(config, strategy=Strategy.VIDEO_VBS)
    broken = {
        "EMPTY_SPEC_SET": replace(video, clips=(), base_clip=None),
        "BASE_SPEC_NOT_IN_SET": replace(video, base_clip=VideoClipSpec(99, 1, video.base_resolution)),
        # drawn sides are multiples of 8, so 12x12 is never in the set
        "CLIP_RES_NOT_IN_SET": replace(video, clips=video.clips + (VideoClipSpec(1, 1, Resolution(12, 12)),)),
    }
    for code, bad in broken.items():
        with pytest.raises(ConfigValidationError) as err:
            plan_epoch(bad, 0)
        assert code in err.value.codes


# resnet50 at 5,000 ids: a valid base for one field at a time
RESNET50 = replace(load_preset("resnet50").sampler, dataset_size=5000)


@pytest.mark.parametrize(
    "fields",
    [
        {"dataset_size": np.int64(5000)},
        {"seed": np.uint64(3)},
        {"seed": np.uint64(2**64 - 1)},
        {"base_batch": np.int32(64), "epochs": np.int16(2), "world_size": np.uint8(1), "min_batch": np.int64(1)},
    ],
    ids=["np_dataset_size", "np_uint64_seed", "np_largest_seed", "np_small_ints"],
)
def test_numpy_integer_fields_are_stored_as_ints_and_round_trip(fields):
    config = replace(RESNET50, **fields)
    assert all(type(getattr(config, name)) is int and getattr(config, name) == value for name, value in fields.items())
    assert not validate_config(config)
    schedule = plan_epoch(config, 0)
    buf = io.StringIO()
    write_schedules(buf, [schedule], config)
    header, back = read_schedules(io.StringIO(buf.getvalue()))
    assert sampler_config_from_mapping(header) == config
    assert back == [schedule]


@pytest.mark.parametrize(
    "field, value",
    [
        ("epochs", True),
        ("base_batch", 64.0),
        ("world_size", True),
        ("seed", 1.5),
        ("min_batch", False),
        ("dataset_size", "5000"),
        ("seed", np.float64(3)),
        ("dataset_size", np.True_),
    ],
    ids=["bool_epochs", "float_base_batch", "bool_world_size", "fraction_seed", "bool_min_batch", "text_dataset_size",
         "np_float_seed", "np_bool_dataset_size"],
)
def test_integer_fields_reject_bools_and_non_integers(field, value):
    config = replace(RESNET50, **{field: value})
    assert [v.code for v in validate_config(config)] == ["NOT_INTEGER"]
    with pytest.raises(ConfigValidationError) as err:
        plan_epoch(config, 0)
    assert err.value.code == "NOT_INTEGER" and field in err.value.message


def _round_trips(config):
    schedule = plan_epoch(config, 0)
    buf = io.StringIO()
    write_schedules(buf, [schedule], config)
    header, back = read_schedules(io.StringIO(buf.getvalue()))
    return sampler_config_from_mapping(header) == config and back == [schedule]


@pytest.mark.parametrize("value", [np.True_, np.False_], ids=["np_true", "np_false"])
def test_numpy_bool_drop_last_is_stored_as_a_bool_and_round_trips(value):
    config = replace(RESNET50, drop_last=value)
    assert type(config.drop_last) is bool and config.drop_last == value
    assert not validate_config(config)
    assert _round_trips(config)


@pytest.mark.parametrize("value", ["no", None, 1, 0, "false"], ids=repr)
def test_drop_last_rejects_anything_but_a_bool(value):
    config = replace(RESNET50, drop_last=value)
    assert [v.code for v in validate_config(config)] == ["NOT_BOOL"]
    with pytest.raises(ConfigValidationError) as err:
        plan_epoch(config, 0)
    assert err.value.code == "NOT_BOOL" and "drop_last" in err.value.message


R224, R320 = Resolution(224, 224), Resolution(320, 320)
# a valid video config over resnet50's resolutions, at 5,000 ids
VIDEO = replace(
    RESNET50,
    strategy=Strategy.VIDEO_VBS,
    clips=(VideoClipSpec(8, 1, R224), VideoClipSpec(4, 1, R320)),
    base_clip=VideoClipSpec(8, 1, R224),
)


@pytest.mark.parametrize(
    "config",
    [
        replace(RESNET50, base_resolution=Resolution(224.0, 224.0), resolutions=ResolutionSet.squares([128.0, 224.0])),
        replace(RESNET50, base_resolution=Resolution(224.0, 224.0)),
        replace(RESNET50, base_resolution=Resolution("224", 224)),
        replace(RESNET50, resolutions=ResolutionSet([*RESNET50.resolutions[:-1], Resolution(320, 320.5)])),
        replace(VIDEO, clips=(VideoClipSpec(8.0, 1, R224), VIDEO.clips[1]), base_clip=VideoClipSpec(8.0, 1, R224)),
        replace(VIDEO, base_clip=VideoClipSpec(8.0, 1, R224)),
        replace(VIDEO, clips=(VIDEO.clips[0], VideoClipSpec(4, "1", R320))),
        replace(VIDEO, clips=(VIDEO.clips[0], VideoClipSpec(4, 1, Resolution(320.0, 320.0)))),
    ],
    ids=["float_resolutions", "float_base_resolution", "text_base_height", "fraction_width", "float_clip_frames",
         "float_base_clip_frames", "text_clips_per_video", "float_clip_sides"],
)
def test_shape_fields_reject_non_integers(config):
    assert {v.code for v in validate_config(config)} == {"NOT_INTEGER"}
    with pytest.raises(ConfigValidationError) as err:
        plan_epoch(config, 0)
    assert err.value.code == "NOT_INTEGER"


def test_the_video_base_of_the_shape_cases_is_valid_and_round_trips():
    assert not validate_config(VIDEO)
    assert _round_trips(VIDEO)


# -- the same contract through the command line ------------------------------------------------------------------------


def _config_text(config):
    return "".join(f"{key} = {value}\n" for key, value in sampler_config_to_mapping(config).items())


def _cli(*argv):
    """``batchforge argv --errors-json``: the exit code and the error codes it printed (its stderr if not coded)."""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = run([*argv, "--errors-json"])
    printed = err.getvalue()
    return code, [e["code"] for e in json.loads(printed)["errors"]] if printed.startswith('{"errors"') else printed


def test_every_sampler_field_has_one_table_row_and_one_setting():
    names = [f.name for f in fields(SamplerConfig)]
    assert list(SAMPLER_FIELDS) == names  # the mapping's and every header's key order
    assert [name for name, field in SAMPLER_FIELDS.items() if field.integer] == [
        "dataset_size", "base_batch", "epochs", "world_size", "seed", "min_batch"]
    for name in names:
        assert SETTINGS[name].parse is SAMPLER_FIELDS[name].parse and SETTINGS[name].in_file, name


# a video config over resnet50's resolutions: three clips, two of them at 224x224
VIDEO_RESNET50 = replace(
    load_preset("resnet50").sampler, strategy=Strategy.VIDEO_VBS, epochs=3,
    clips=tuple(map(VideoClipSpec.parse, ("8x1x128x128", "8x1x224x224", "16x2x224x224"))),
    base_clip=VideoClipSpec.parse("8x1x224x224"),
)
MAPPED = {**{name: load_preset(name).sampler for name in preset_names()}, "video": VIDEO_RESNET50}


@pytest.mark.parametrize("config", MAPPED.values(), ids=MAPPED.keys())
def test_mapping_as_file_text_round_trips(config):
    assert sampler_config_from_mapping(parse_flat_config(_config_text(config))) == config


@pytest.mark.parametrize("config", MAPPED.values(), ids=MAPPED.keys())
def test_flags_and_config_file_plan_the_same_bytes(config, tmp_path):
    config = replace(config, epochs=2)
    (tmp_path / "c.cfg").write_text(_config_text(config))
    flags = [text for key, value in sampler_config_to_mapping(config).items() for text in (f"--{key.replace('_', '-')}", str(value))]
    assert _cli("plan", *flags, "-o", str(tmp_path / "flags.jsonl")) == (0, "")
    assert _cli("plan", "--config", str(tmp_path / "c.cfg"), "-o", str(tmp_path / "file.jsonl")) == (0, "")
    assert (tmp_path / "flags.jsonl").read_bytes() == (tmp_path / "file.jsonl").read_bytes()
    assert _round_trips(config)


def test_a_video_plan_from_flags_exports_analyzes_and_trains(tmp_path):
    clips = ["--clips", "8x1x128x128,8x1x224x224,16x2x224x224", "--base-clip", "8x1x224x224"]
    plan, copy = tmp_path / "plan.jsonl", tmp_path / "copy.jsonl"
    assert _cli("plan", "--preset", "resnet50", "--strategy", "video_vbs", *clips, "--epochs", "3", "-o", str(plan)) == (0, "")
    header = json.loads(plan.read_text().splitlines()[0])["config"]
    assert sampler_config_from_mapping(header) == VIDEO_RESNET50 and len(plan.read_bytes()) < 4096
    assert _cli("export", "--schedule", str(plan), "-o", str(copy)) == (0, "")
    assert copy.read_bytes() == plan.read_bytes()
    assert _cli("analyze", "--schedule", str(plan), "--format", "json", "-o", str(tmp_path / "cost.json")) == (0, "")
    (row,) = json.loads((tmp_path / "cost.json").read_text())["rows"]
    assert (row["strategy"], row["updates"]) == ("video_vbs", sum(plan_epoch(VIDEO_RESNET50, e).total_updates for e in range(3)))

    video = ["--strategy", "video_vbs", "--clips", "8x1x8x8,8x1x16x16,16x2x16x16", "--base-clip", "8x1x16x16"]
    report = tmp_path / "run.json"
    argv = ["train", *video, "--samples", "400", "--tau", "0.7", "--epochs", "2", "--warmup-epochs", "1", "--eval-samples", "100"]
    assert _cli(*argv, "-o", str(report))[1].startswith("trained 2 epochs: ")
    payload = json.loads(report.read_text())
    assert payload["config"]["sampler"]["clips"] == "8x1x8x8,8x1x16x16,16x2x16x16"
    assert len(payload["per_epoch"]) == 2 and payload["total_updates"] > 0


@settings(max_examples=100, deadline=None, print_blob=False)
@given(config=sampler_configs())
def test_configs_through_the_command_line_fail_only_with_their_codes(config):
    # An accepted config plans, exports the same bytes, analyzes and trains one filtered epoch from its --config file;
    # a rejected one exits 2 with the codes validate_config gives.
    codes = [v.code for v in validate_config(config)]
    with tempfile.TemporaryDirectory() as tmp:
        cfg, plan, copy = (os.path.join(tmp, name) for name in ("c.cfg", "plan.jsonl", "copy.jsonl"))
        with open(cfg, "w") as fp:
            fp.write(_config_text(config))
        if codes:
            assert _cli("plan", "--config", cfg, "-o", plan) == (2, codes)
            return
        assert _cli("plan", "--config", cfg, "-o", plan) == (0, "")
        assert _cli("export", "--schedule", plan, "-o", copy) == (0, "")
        with open(plan, "rb") as a, open(copy, "rb") as b:
            assert a.read() == b.read()
        assert _cli("analyze", "--schedule", plan, "-o", os.path.join(tmp, "cost.csv")) == (0, "")
        train = ["train", "--config", cfg, "--warmup-epochs", "0", "--tau", "0.7", "--window", "1", "--eval-samples", "50"]
        code, printed = _cli(*train, "-o", os.path.join(tmp, "run.json"))
        assert code == 0 and printed.startswith("trained 1 epochs: ")
