"""validate_config is the contract: a config it accepts plans, shards across
every rank, round-trips through JSONL and, when its batch table has one
size, gets its exact update count as the closed form; a config it rejects
raises. Video configs are drawn with a clip table over the drawn
resolutions."""

import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batchforge.core import (
    BatchRounding,
    ConfigValidationError,
    Resolution,
    ResolutionSet,
    SamplerConfig,
    Strategy,
    VideoClipSpec,
    ensure_valid,
    sampler_config_from_mapping,
    validate_config,
)
from batchforge.analysis import count_updates
from batchforge.presets import load_preset
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

    sizes = batch_table(config)[1]
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
        replace(RESNET50, resolutions=ResolutionSet([*RESNET50.resolutions.entries[:-1], Resolution(320, 320.5)])),
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
