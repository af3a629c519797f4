import hashlib
import math
import os
import select
import signal
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batchforge import presets, rng
from batchforge.core import (
    BatchforgeError,
    BatchRounding,
    ConfigValidationError,
    Resolution,
    ResolutionSet,
    SamplerConfig,
    Strategy,
)
from batchforge.rng import StreamKey, permutation
from batchforge.samplers import (
    PERMUTATION_TAG,
    VideoClipSpec,
    batch_table,
    epoch_batch_shapes,
    plan_epoch,
    plan_video_vbs,
    shard_for_rank,
    size_table,
)
from batchforge.schedule_io import id_digest

STANDARD = ResolutionSet.squares([128, 192, 224, 288, 320])


def make_config(**overrides) -> SamplerConfig:
    kwargs = dict(
        strategy=Strategy.MSC_VBS,
        dataset_size=8192,
        base_batch=64,
        base_resolution=Resolution(224, 224),
        resolutions=STANDARD,
        epochs=1,
        seed=11,
    )
    kwargs.update(overrides)
    return SamplerConfig(**kwargs)


# -- batch scaling ---------------------------------------------------------


def floor_oracle(batch, base, target):
    return int(Fraction(batch * base.pixel_count(), target.pixel_count()))


def scaled(config, base, target):
    """The one size_table entry for ``target`` when ``base`` takes the config's batch."""
    (size,) = size_table(config, [target.pixel_count()], base.pixel_count())
    return int(size)


def test_scaled_batch_grows_at_lower_resolution():
    config = make_config(base_batch=1024, batch_rounding=BatchRounding.FLOOR)
    got = scaled(config, Resolution(320, 320), Resolution(160, 160))
    assert got == floor_oracle(1024, Resolution(320, 320), Resolution(160, 160)) == 4096


def test_scaled_batch_identity():
    config = make_config(base_batch=1024, batch_rounding=BatchRounding.FLOOR)
    assert scaled(config, Resolution(224, 224), Resolution(224, 224)) == 1024


def test_scaled_batch_shrinks_at_higher_resolution():
    config = make_config(base_batch=1024, batch_rounding=BatchRounding.FLOOR)
    got = scaled(config, Resolution(224, 224), Resolution(320, 320))
    assert got == floor_oracle(1024, Resolution(224, 224), Resolution(320, 320)) == 501


def test_scaled_batch_standard_set_table():
    # exact rational arithmetic over the standard set at base 224 / batch 1024
    expected = {128: 3136, 192: 1393, 224: 1024, 288: 619, 320: 501}
    for side, want in expected.items():
        frac = Fraction(1024 * 224 * 224, side * side)
        assert math.floor(frac) == want
    shape_idx, sizes = batch_table(make_config(base_batch=1024, batch_rounding=BatchRounding.FLOOR))
    assert shape_idx.tolist() == [0, 1, 2, 3, 4]
    assert sizes.tolist() == list(expected.values())


def test_nearest_rounding_half_up():
    # 1024 * 224^2 / 320^2 = 501.76 -> 502 under NEAREST
    config = make_config(base_batch=1024, batch_rounding=BatchRounding.NEAREST)
    assert scaled(config, Resolution(224, 224), Resolution(320, 320)) == 502
    # exact .5 ties round up: 3 * 4 / 8 = 1.5
    config = make_config(base_batch=3, batch_rounding=BatchRounding.NEAREST)
    assert scaled(config, Resolution(2, 2), Resolution(2, 4)) == 2


def test_multiple_of_world_rounding():
    # size_table scales the global batch: 128 per rank x 8 ranks = 1024
    config = make_config(
        base_batch=128, world_size=8, batch_rounding=BatchRounding.MULTIPLE_OF_WORLD, min_batch=8
    )
    assert scaled(config, Resolution(224, 224), Resolution(320, 320)) == 496  # floor(501.76) floored to a multiple of 8
    config = make_config(
        base_batch=2, world_size=4, batch_rounding=BatchRounding.MULTIPLE_OF_WORLD, min_batch=4
    )
    assert scaled(config, Resolution(32, 32), Resolution(1024, 1024)) == 4  # clamped to one sample per rank


def test_min_batch_clamp():
    config = make_config(base_batch=4, batch_rounding=BatchRounding.FLOOR, min_batch=3)
    assert scaled(config, Resolution(32, 32), Resolution(1024, 1024)) == 3


# -- single scale ----------------------------------------------------------


def test_ssc_drop_last_leaves_remainder():
    config = make_config(strategy=Strategy.SSC_FBS, dataset_size=10, base_batch=4, drop_last=True)
    schedule = plan_epoch(config, 0)
    assert schedule.total_updates == 2
    assert all(p.batch_size == 4 for p in schedule.plans)
    assert schedule.total_samples == 8


def test_ssc_exact_division_covers_everything():
    config = make_config(strategy=Strategy.SSC_FBS, dataset_size=8, base_batch=4, drop_last=False)
    schedule = plan_epoch(config, 0)
    assert schedule.total_updates == 2
    ids = np.concatenate([p.sample_ids for p in schedule.plans])
    assert np.array_equal(np.sort(ids), np.arange(8))


def test_ssc_uses_base_resolution_everywhere():
    config = make_config(strategy=Strategy.SSC_FBS, dataset_size=100, base_batch=10)
    schedule = plan_epoch(config, 3)
    assert {p.resolution for p in schedule.plans} == {Resolution(224, 224)}


def test_ssc_imagenet_updates_match_published_count():
    config = make_config(
        strategy=Strategy.SSC_FBS,
        dataset_size=1_281_167,
        base_batch=1024,
        resolutions=ResolutionSet.squares([224]),
        drop_last=True,
    )
    schedule = plan_epoch(config, 0)
    assert schedule.total_updates == 1251
    assert schedule.total_updates * 300 == 375_300  # the 300-epoch recipe's ~375k


# -- multi scale fixed batch -------------------------------------------------


def test_msc_fbs_keeps_batch_fixed_and_matches_ssc_updates():
    fbs = make_config(strategy=Strategy.MSC_FBS, dataset_size=4096, base_batch=64)
    ssc = make_config(strategy=Strategy.SSC_FBS, dataset_size=4096, base_batch=64)
    a, b = plan_epoch(fbs, 0), plan_epoch(ssc, 0)
    assert a.total_updates == b.total_updates
    assert all(p.batch_size == 64 for p in a.plans)


def test_msc_fbs_degenerate_set_equals_ssc():
    single = ResolutionSet.squares([224])
    fbs = make_config(strategy=Strategy.MSC_FBS, resolutions=single, drop_last=False)
    ssc = make_config(strategy=Strategy.SSC_FBS, resolutions=single, drop_last=False)
    assert list(plan_epoch(fbs, 2).plans) == list(plan_epoch(ssc, 2).plans)


def test_msc_fbs_resolution_frequencies_uniform():
    config = make_config(
        strategy=Strategy.MSC_FBS, dataset_size=160_000, base_batch=8, drop_last=True
    )
    counts = {res: 0 for res in STANDARD}
    schedule = plan_epoch(config, 0)
    assert schedule.total_updates == 20_000
    for plan in schedule.plans:
        counts[plan.resolution] += 1
    for res, count in counts.items():
        assert abs(count / schedule.total_updates - 0.2) < 0.02, res


# -- multi scale variable batch ----------------------------------------------


def test_msc_vbs_pixel_volume_constant_within_slack():
    config = make_config(dataset_size=65536, base_batch=1024, world_size=1, drop_last=True)
    schedule = plan_epoch(config, 0)
    base_volume = 1024 * 224 * 224
    for plan in schedule.plans:
        slack = plan.resolution.pixel_count() * config.world_size
        assert abs(plan.pixel_volume() - base_volume) <= slack


def test_msc_vbs_pixel_volume_slack_with_world_size():
    config = make_config(
        dataset_size=65536, base_batch=128, world_size=8, drop_last=True
    )
    schedule = plan_epoch(config, 0)
    base_volume = config.effective_batch() * 224 * 224
    for plan in schedule.plans:
        slack = plan.resolution.pixel_count() * config.world_size
        assert abs(plan.pixel_volume() - base_volume) <= slack
        assert plan.batch_size % 8 == 0


def test_msc_vbs_epoch_stops_at_exhaustion():
    config = make_config(dataset_size=10_000, base_batch=64, drop_last=True)
    schedule = plan_epoch(config, 0)
    table_max = 64 * 224 * 224 // (128 * 128)
    leftover = config.dataset_size - schedule.total_samples
    assert 0 <= leftover < table_max
    ids = np.concatenate([p.sample_ids for p in schedule.plans])
    assert len(np.unique(ids)) == len(ids)


def test_msc_vbs_keep_last_covers_every_id():
    config = make_config(dataset_size=10_000, base_batch=64, drop_last=False)
    schedule = plan_epoch(config, 0)
    ids = np.concatenate([p.sample_ids for p in schedule.plans])
    assert np.array_equal(np.sort(ids), np.arange(10_000))
    # every plan except possibly the last is full-size for its resolution
    for plan in schedule.plans[:-1]:
        assert plan.batch_size >= 64 * 224 * 224 // (320 * 320)


def test_msc_vbs_respects_active_subset():
    config = make_config(dataset_size=1000, base_batch=16, drop_last=False)
    active = np.arange(0, 1000, 3)
    schedule = plan_epoch(config, 0, active_ids=active)
    ids = np.concatenate([p.sample_ids for p in schedule.plans])
    assert np.array_equal(np.sort(ids), active)


def test_active_ids_out_of_range_rejected():
    config = make_config(dataset_size=100, base_batch=10, drop_last=False)
    # Sorted or not; out of range wins over a duplicate.
    for active in ([5, 100], [100, 5], [-1, 5], [5, -1], [7, 100, 7]):
        with pytest.raises(BatchforgeError) as err:
            plan_epoch(config, 0, active_ids=np.array(active))
        assert err.value.code == "ID_OUT_OF_RANGE"


def test_duplicate_active_ids_rejected():
    config = make_config(dataset_size=100, base_batch=10, drop_last=False)
    for active in ([1, 1, 1, 2], [1, 2, 2, 3], [3, 1, 2, 1]):
        with pytest.raises(BatchforgeError) as err:
            plan_epoch(config, 0, active_ids=active)
        assert err.value.code == "DUPLICATE_ID"


@pytest.mark.parametrize(
    "active",
    [
        [0.5, 1.7, 3.2, 5.9],
        [3, 3.5],
        [True, False, True],
        np.array([True, False, True]),
        ["1", "2"],
        np.array([[1, 2], [3, 4]]),
        [1.0, float("nan")],
        np.arange(4, dtype=np.float64),
        7,
        np.array([1, 2], dtype=object),
    ],
    ids=["fractions", "int_and_fraction", "bool_list", "bool_mask", "strings", "2d", "nan", "whole_floats", "scalar",
         "objects"],
)
def test_active_ids_that_are_not_integers_are_rejected(active):
    # No cast reads them as ids: not a truncated float, not a mask's 0 and 1, not a parsed string.
    config = make_config(dataset_size=100, base_batch=10, drop_last=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BatchforgeError) as err:
            plan_epoch(config, 0, active_ids=active)
    assert err.value.code == "BAD_ACTIVE_IDS"


def test_active_id_order_and_type_do_not_change_the_plan():
    config = make_config(dataset_size=1000, base_batch=16, drop_last=False)
    active = np.arange(0, 1000, 3)
    shuffled = np.random.default_rng(0).permutation(active)
    before = shuffled.copy()
    expected = plan_epoch(config, 2, active_ids=active)
    assert plan_epoch(config, 2, active_ids=shuffled) == expected
    assert plan_epoch(config, 2, active_ids=active.astype(np.int32)) == expected
    assert plan_epoch(config, 2, active_ids=active.tolist()) == expected
    assert np.array_equal(shuffled, before)


@pytest.mark.parametrize("epoch", [-1, True, False, np.True_, 2.5, "3", None, 2**63, np.uint64(2**63)], ids=repr)
def test_epochs_that_are_not_integers_in_int64_range_are_rejected(epoch):
    with pytest.raises(BatchforgeError) as err:
        plan_epoch(make_config(dataset_size=1000, base_batch=16, drop_last=False), epoch)
    assert err.value.code == "BAD_EPOCH"


def test_numpy_integer_epochs_plan_as_python_ints():
    config = make_config(dataset_size=1000, base_batch=16, drop_last=False)
    for epoch in (np.int64(3), np.uint8(3), np.int32(3)):
        schedule = plan_epoch(config, epoch, np.arange(0, 1000, 3))
        assert type(schedule.epoch) is int
        assert schedule == plan_epoch(config, 3, np.arange(0, 1000, 3))
    assert plan_epoch(config, 2**63 - 1).epoch == 2**63 - 1


@st.composite
def subset_plans(draw, block):
    """(config, epoch, active ids as passed, the same ids sorted): ``m`` active ids within 2 of 0-3 blocks."""
    strategy = draw(st.sampled_from(list(Strategy)))
    m = max(0, draw(st.integers(0, 3)) * block + draw(st.integers(-2, 2)))
    size = m + draw(st.integers(0, 40)) + 64  # the largest batch is 4 x 16 ids: a drop_last config stays valid
    common = dict(
        dataset_size=size,
        base_batch=draw(st.integers(1, 16)),
        seed=draw(st.integers(0, 2**64 - 1)),
        drop_last=draw(st.booleans()),
        base_resolution=Resolution(16, 16),
        resolutions=ResolutionSet.squares([8, 16, 32]),
        epochs=1,
    )
    if strategy is Strategy.VIDEO_VBS:
        clips = (VideoClipSpec(4, 1, Resolution(16, 16)), VideoClipSpec(8, 1, Resolution(16, 16)))
        common.update(clips=clips, base_clip=clips[1])
    sorted_ids = np.sort(np.random.default_rng(draw(st.integers(0, 2**32))).choice(size, m, replace=False))
    active = sorted_ids if draw(st.booleans()) else np.random.default_rng(m).permutation(sorted_ids)
    active = active.astype(draw(st.sampled_from([np.int64, np.int32])))
    return SamplerConfig(strategy=strategy, **common), draw(st.integers(0, 50)), active, sorted_ids


@pytest.mark.parametrize("block", [1, 7, rng.FILL_BLOCK])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_subset_plans_are_the_sorted_active_ids_in_permutation_order(block, data):
    config, epoch, active, sorted_ids = data.draw(subset_plans(block))
    with mock.patch.object(rng, "FILL_BLOCK", block):
        schedule = plan_epoch(config, epoch, active)
        order = permutation(config.seed, StreamKey(epoch, 0, PERMUTATION_TAG), len(sorted_ids))
    assert schedule.ids.dtype == np.int64
    assert np.array_equal(schedule.ids, sorted_ids[order][: schedule.total_samples])
    assert not schedule.ids.flags.writeable


def test_a_subset_plan_holds_one_id_sized_array():
    # The gathered ids share the permutation's 8m bytes; a second id array would take the peak to ~2 x 8m.
    # rng's fill blocks add a fixed ~0.5 MiB, a third of 8m at 200k ids, so m is large enough to bound the ratio.
    m = 500_000
    config = make_config(dataset_size=700_000, base_batch=64, drop_last=False)
    active = np.sort(np.random.default_rng(0).choice(config.dataset_size, m, replace=False))
    plan_epoch(config, 0, active)  # one-time allocations happen outside the trace
    tracemalloc.start()
    try:
        plan_epoch(config, 1, active)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * m


IMAGENET = 1_281_167


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_full_imagenet_plan_holds_one_id_sized_array(monkeypatch, cpus):
    # The key buffer is the plan's one id-sized array: the split sort partitions and sorts it in place.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    config = make_config(dataset_size=IMAGENET, base_batch=128, drop_last=False)
    plan_epoch(config, 0)  # one-time allocations happen outside the trace
    tracemalloc.start()
    try:
        plan_epoch(config, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * IMAGENET


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_plans_the_epoch_its_parent_planned(monkeypatch):
    # A sort thread kept alive in a pool would not exist in the child, which would then wait for it forever.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    config = make_config(dataset_size=IMAGENET, base_batch=128)
    digest = id_digest(plan_epoch(config, 5).ids)
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            os.write(write_fd, id_digest(plan_epoch(config, 5).ids).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        ready, _, _ = select.select([read_fd], [], [], 60)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        child_digest = os.read(read_fd, 64).decode() if ready else None
    finally:
        os.close(read_fd)
        _, status = os.waitpid(pid, 0)
    assert ready, "the forked child did not plan its epoch within 60 s"
    assert status == 0 and child_digest == digest


@pytest.mark.parametrize("drop_last", [False, True])
def test_full_set_schedule_is_the_epoch_permutation(drop_last):
    config = make_config(dataset_size=1000, base_batch=16, drop_last=drop_last)
    schedule = plan_epoch(config, 4)
    order = permutation(config.seed, StreamKey(4, 0, PERMUTATION_TAG), 1000)
    assert np.array_equal(schedule.ids, order[: schedule.total_samples])
    shuffled = np.random.default_rng(1).permutation(1000)
    assert plan_epoch(config, 4, active_ids=shuffled) == schedule


def test_adding_larger_resolution_raises_fbs_peak_not_vbs():
    small = ResolutionSet.squares([128, 192, 224])
    big = ResolutionSet.squares([128, 192, 224, 288, 320])
    base_volume = 64 * 224 * 224

    def peak(strategy, resolutions):
        config = make_config(strategy=strategy, resolutions=resolutions, drop_last=True)
        return max(p.pixel_volume() for p in plan_epoch(config, 0).plans)

    assert peak(Strategy.MSC_FBS, big) > peak(Strategy.MSC_FBS, small)
    for resolutions in (small, big):
        config = make_config(strategy=Strategy.MSC_VBS, resolutions=resolutions, drop_last=True)
        for plan in plan_epoch(config, 0).plans:
            assert abs(plan.pixel_volume() - base_volume) <= plan.resolution.pixel_count()


def test_msc_vbs_update_expectation_matches_simulation():
    # closed form N / mean(scaled batch) vs >= 100 generated epochs
    config = make_config(dataset_size=100_000, base_batch=128, epochs=100, drop_last=False)
    table = batch_table(config)[1].tolist()
    expected_per_epoch = config.dataset_size / (sum(table) / len(table))
    total = sum(
        len(epoch_batch_shapes(config, epoch, config.dataset_size)[1])
        for epoch in range(config.epochs)
    )
    assert abs(total / config.epochs - expected_per_epoch) / expected_per_epoch < 0.01


def test_planned_schedule_matches_shape_arrays():
    config = make_config(dataset_size=20_000, base_batch=32, drop_last=True)
    schedule = plan_epoch(config, 4)
    res_idx, batches = epoch_batch_shapes(config, 4, config.dataset_size)
    assert schedule.total_updates == len(batches)
    assert [p.batch_size for p in schedule.plans] == batches.tolist()
    assert [p.resolution for p in schedule.plans] == [STANDARD[int(i)] for i in res_idx]


# -- video -------------------------------------------------------------------


SPECS = [
    VideoClipSpec(8, 1, Resolution(224, 224)),
    VideoClipSpec(16, 1, Resolution(224, 224)),
    VideoClipSpec(16, 2, Resolution(224, 224)),
]


def video_config(**overrides):
    kwargs = dict(
        strategy=Strategy.VIDEO_VBS,
        dataset_size=2048,
        base_batch=8,
        base_resolution=Resolution(224, 224),
        resolutions=ResolutionSet.squares([224]),
        epochs=1,
        seed=5,
        drop_last=False,
    )
    kwargs.update(overrides)
    return SamplerConfig(**kwargs)


def test_video_single_spec_constant_batch():
    schedule = plan_video_vbs(video_config(), [SPECS[1]], SPECS[1], 0)
    assert {p.batch_size for p in schedule.plans[:-1]} == {8}


def test_video_batch_scales_inversely_with_volume():
    schedule = plan_video_vbs(video_config(), SPECS, SPECS[1], 0)
    by_volume = {p.clip.volume(): p.batch_size for p in schedule.plans[:-1]}
    base_volume = SPECS[1].volume()
    assert by_volume[base_volume // 2] == 16  # half the frames -> double batch
    assert by_volume[base_volume * 2] == 4  # double the clips -> half batch
    assert by_volume[base_volume] == 8


def test_video_requires_specs_and_base_membership():
    with pytest.raises(ConfigValidationError) as err:
        plan_video_vbs(video_config(), [], SPECS[0], 0)
    assert err.value.codes == ["EMPTY_SPEC_SET"]
    with pytest.raises(ConfigValidationError) as err:
        plan_video_vbs(video_config(), SPECS[:2], SPECS[2], 0)
    assert err.value.codes == ["BASE_SPEC_NOT_IN_SET"]
    with pytest.raises(ConfigValidationError) as err:
        plan_video_vbs(video_config(base_batch=0, dataset_size=100), SPECS, SPECS[1], 0)
    assert err.value.codes == ["ZERO_BATCH"]
    # FLOOR scales 5 x 3 clips at the base spec to 30 / 15 / 7, and 7 does not split three ways
    sharded = video_config(
        base_batch=5, world_size=3, batch_rounding=BatchRounding.FLOOR, drop_last=True
    )
    with pytest.raises(ConfigValidationError) as err:
        plan_video_vbs(sharded, SPECS, SPECS[1], 0)
    assert err.value.codes == ["UNSHARDABLE_BATCH"]
    # a clip at a resolution the model lacks would plan, then fail in train
    with pytest.raises(ConfigValidationError) as err:
        plan_video_vbs(video_config(), [SPECS[1], VideoClipSpec(8, 1, Resolution(48, 48))], SPECS[1], 0)
    assert err.value.codes == ["CLIP_RES_NOT_IN_SET"]
    assert "8x1x48x48" in str(err.value)
    # train evaluates at base_resolution, so video needs it in the set too
    with pytest.raises(ConfigValidationError) as err:
        plan_video_vbs(video_config(base_resolution=Resolution(112, 112)), SPECS, SPECS[1], 0)
    assert err.value.codes == ["BASE_RES_NOT_IN_SET"]
    # a clip without frames has no volume to scale its batch by
    with pytest.raises(ConfigValidationError) as err:
        plan_video_vbs(video_config(), [SPECS[1], VideoClipSpec(0, 1, Resolution(224, 224))], SPECS[1], 0)
    assert err.value.codes == ["NONPOSITIVE_CLIP"]


def test_video_coverage():
    schedule = plan_video_vbs(video_config(), SPECS, SPECS[1], 0)
    ids = np.concatenate([p.sample_ids for p in schedule.plans])
    assert np.array_equal(np.sort(ids), np.arange(2048))


# -- sharding ----------------------------------------------------------------


def test_shard_world_one_is_identity():
    config = make_config(dataset_size=1000, base_batch=50, drop_last=True)
    schedule = plan_epoch(config, 0)
    assert shard_for_rank(schedule, 0, 1) == schedule


def test_shards_are_views_of_the_global_schedule():
    config = make_config(dataset_size=65536, base_batch=64, world_size=8, drop_last=True)
    schedule = plan_epoch(config, 0)
    assert schedule.plans is schedule.plans
    for rank in range(8):
        shard = shard_for_rank(schedule, rank, 8)
        assert np.shares_memory(shard.ids, schedule.ids)
        assert shard.plans is shard.plans
        assert all(
            np.array_equal(mine.sample_ids, plan.sample_ids[rank::8])
            for mine, plan in zip(shard.plans, schedule.plans)
        )


def test_shard_partitions_each_plan():
    config = make_config(
        strategy=Strategy.SSC_FBS, dataset_size=8, base_batch=2, world_size=4, drop_last=True
    )
    schedule = plan_epoch(config, 0)
    assert schedule.plans[0].batch_size == 8
    shards = [shard_for_rank(schedule, r, 4) for r in range(4)]
    assert all(s.plans[0].batch_size == 2 for s in shards)
    union = np.sort(np.concatenate([s.plans[0].sample_ids for s in shards]))
    assert np.array_equal(union, np.sort(schedule.plans[0].sample_ids))
    for a in range(4):
        for b in range(a + 1, 4):
            assert not set(shards[a].plans[0].sample_ids) & set(shards[b].plans[0].sample_ids)


def test_shard_resolution_sequence_synchronized_across_ranks():
    config = make_config(dataset_size=65536, base_batch=64, world_size=8, drop_last=True)
    reference = [p.resolution for p in plan_epoch(config, 3).plans]
    for rank in range(8):
        regenerated = plan_epoch(config, 3)  # each rank rebuilds the global schedule
        shard = shard_for_rank(regenerated, rank, 8)
        assert [p.resolution for p in shard.plans] == reference


def test_shard_rank_out_of_range():
    schedule = plan_epoch(make_config(dataset_size=1000, base_batch=50, drop_last=True), 0)
    with pytest.raises(BatchforgeError) as err:
        shard_for_rank(schedule, 4, 4)
    assert err.value.code == "RANK_OUT_OF_RANGE"


@pytest.mark.parametrize(
    "rank, world_size",
    [(True, 2), (np.True_, 2), (0, True), (1.0, 2), (0, 2.0), ("1", 2), (None, 2), (np.float64(1), 2), (0, 2**63)],
)
def test_shard_rank_and_world_size_that_are_not_int64_integers_are_rejected(rank, world_size):
    schedule = plan_epoch(make_config(dataset_size=1000, base_batch=50, world_size=2, drop_last=True), 0)
    with pytest.raises(BatchforgeError) as err:
        shard_for_rank(schedule, rank, world_size)
    assert err.value.code == "RANK_OUT_OF_RANGE"


def test_numpy_integer_ranks_shard_as_python_ints():
    schedule = plan_epoch(make_config(dataset_size=1000, base_batch=50, world_size=2, drop_last=True), 0)
    for rank, world_size in ((np.int64(1), np.int64(2)), (np.uint8(1), np.int32(2))):
        shard = shard_for_rank(schedule, rank, world_size)
        assert (shard.origin.rank, shard.origin.world_size) == (1, 2)
        assert type(shard.origin.rank) is int and type(shard.origin.world_size) is int
        assert shard == shard_for_rank(schedule, 1, 2)


def test_shard_indivisible_batch():
    config = make_config(
        strategy=Strategy.SSC_FBS, dataset_size=10, base_batch=5, drop_last=True
    )
    schedule = plan_epoch(config, 0)
    with pytest.raises(BatchforgeError) as err:
        shard_for_rank(schedule, 0, 2)
    assert err.value.code == "INDIVISIBLE_BATCH"


# -- properties --------------------------------------------------------------


@st.composite
def coverage_configs(draw):
    strategy = draw(st.sampled_from([Strategy.SSC_FBS, Strategy.MSC_FBS, Strategy.MSC_VBS]))
    sides = draw(
        st.lists(st.integers(4, 48).map(lambda s: 2 * s), min_size=1, max_size=4, unique=True)
    )
    sides = sorted(sides)
    base = draw(st.sampled_from(sides))
    return SamplerConfig(
        strategy=strategy,
        dataset_size=draw(st.integers(1, 100_000)),
        base_batch=draw(st.integers(1, 512)),
        base_resolution=Resolution(base, base),
        resolutions=ResolutionSet.squares(sides),
        epochs=1,
        world_size=1,
        seed=draw(st.integers(0, 2**64 - 1)),
        drop_last=False,
    )


@settings(max_examples=50, deadline=None)
@given(config=coverage_configs(), epoch=st.integers(0, 20))
def test_every_active_id_scheduled_exactly_once(config, epoch):
    schedule = plan_epoch(config, epoch)
    ids = (
        np.concatenate([p.sample_ids for p in schedule.plans])
        if schedule.plans
        else np.empty(0, dtype=np.int64)
    )
    assert np.array_equal(np.sort(ids), np.arange(config.dataset_size))
    for plan in schedule.plans:
        assert plan.batch_size == len(plan.sample_ids)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 5000),
    batch=st.integers(1, 128),
    seed=st.integers(0, 2**32),
    drop_last=st.booleans(),
)
def test_fixed_batch_strategies_share_update_counts(n, batch, seed, drop_last):
    if drop_last and n < batch:
        n = batch
    common = dict(
        dataset_size=n,
        base_batch=batch,
        base_resolution=Resolution(224, 224),
        resolutions=STANDARD,
        epochs=1,
        seed=seed,
        drop_last=drop_last,
    )
    ssc = plan_epoch(SamplerConfig(strategy=Strategy.SSC_FBS, **common), 0)
    msc = plan_epoch(SamplerConfig(strategy=Strategy.MSC_FBS, **common), 0)
    assert ssc.total_updates == msc.total_updates


def blake2b_digest(values: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(values, dtype="<i8").tobytes(), digest_size=16).hexdigest()


@pytest.mark.parametrize(
    "epoch, subset, digests",
    [
        (0, False, ("c87301840b19488f0be7f73bf2523431", "580178c8bf06d2e67ac50b000c129172", "aea402d7ef12dc18d19a052688eef4aa")),
        (1, True, ("bcf405c0cdcddc9cdeff5a8039eb3539", "8827b02efac0aa4050518273e796fac9", "24e4a6444ec68dae3fc29782f97a48ac")),
    ],
    ids=["full_epoch", "subset_70pct"],
)
def test_imagenet_epoch_plans_keep_their_pinned_digests(epoch, subset, digests):
    # The resnet50 msc_vbs configuration over all 1,281,167 ids at world 8, full and with a seeded
    # ~70 % active subset; the digests pin ids, offsets and shape indices bit for bit.
    config = imagenet_config()
    schedule = plan_epoch(config, epoch, imagenet_subset(config) if subset else None)
    assert tuple(map(blake2b_digest, (schedule.ids, schedule.offsets, schedule.shape_idx))) == digests


def imagenet_config() -> SamplerConfig:
    return replace(presets.load_preset("resnet50").sampler, strategy=Strategy.MSC_VBS, world_size=8, base_batch=128,
                   min_batch=8, seed=1)


def imagenet_subset(config: SamplerConfig) -> np.ndarray:
    return np.flatnonzero(np.random.default_rng(1).random(config.dataset_size) < 0.7)


# Epoch 71 of the subset is the first whose permutation keys tie: 896,422 ids below 2**21 keep one id bit
# more than the 20 index bits, and without the tie fix-up scheduled positions 224,425 and 224,426 swap.
TIED_EPOCH = 71


def test_a_tied_imagenet_subset_epoch_keeps_its_pinned_digests():
    config = imagenet_config()
    with mock.patch.object(rng, "_order_ties", wraps=rng._order_ties) as order_ties:
        schedule = plan_epoch(config, TIED_EPOCH, imagenet_subset(config))
    assert order_ties.call_count == 1
    assert tuple(map(blake2b_digest, (schedule.ids, schedule.offsets, schedule.shape_idx))) == (
        "22a49a84c944dda2dcc0886df50abfb2", "bc8a56ef23771e18dbb402be0f190005", "f2c807ab09eed11b8872794849285da5")


def test_a_tied_subset_plan_holds_one_id_sized_array():
    # The tie fix-up recomputes the draws of the tied run alone: no second id-sized array, no second permutation.
    config = imagenet_config()
    active = imagenet_subset(config)
    m = len(active)
    plan_epoch(config, TIED_EPOCH, active)  # one-time allocations happen outside the trace
    with mock.patch.object(rng, "_order_ties", wraps=rng._order_ties) as order_ties:
        tracemalloc.start()
        try:
            schedule = plan_epoch(config, TIED_EPOCH, active)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert order_ties.call_count == 1
    assert peak < 1.25 * 8 * m
    assert not schedule.ids.flags.writeable

