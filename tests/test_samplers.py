import math
from fractions import Fraction

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
)
from batchforge.rng import StreamKey, permutation
from batchforge.samplers import (
    PERMUTATION_TAG,
    ScheduleError,
    VideoClipSpec,
    epoch_batch_shapes,
    plan_epoch,
    plan_video_vbs,
    scaled_batch_size,
    shard_for_rank,
)

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


def test_scaled_batch_grows_at_lower_resolution():
    got = scaled_batch_size(1024, Resolution(320, 320), Resolution(160, 160), BatchRounding.FLOOR)
    assert got == floor_oracle(1024, Resolution(320, 320), Resolution(160, 160)) == 4096


def test_scaled_batch_identity():
    assert scaled_batch_size(1024, Resolution(224, 224), Resolution(224, 224)) == 1024


def test_scaled_batch_shrinks_at_higher_resolution():
    got = scaled_batch_size(1024, Resolution(224, 224), Resolution(320, 320), BatchRounding.FLOOR)
    assert got == floor_oracle(1024, Resolution(224, 224), Resolution(320, 320)) == 501


def test_scaled_batch_standard_set_table():
    # exact rational arithmetic over the standard set at base 224 / batch 1024
    expected = {128: 3136, 192: 1393, 224: 1024, 288: 619, 320: 501}
    for side, want in expected.items():
        frac = Fraction(1024 * 224 * 224, side * side)
        assert math.floor(frac) == want
        got = scaled_batch_size(
            1024, Resolution(224, 224), Resolution(side, side), BatchRounding.FLOOR
        )
        assert got == want


def test_nearest_rounding_half_up():
    # 1024 * 224^2 / 320^2 = 501.76 -> 502 under NEAREST
    got = scaled_batch_size(1024, Resolution(224, 224), Resolution(320, 320), BatchRounding.NEAREST)
    assert got == 502
    # exact .5 ties round up: 3 * 4 / 8 = 1.5
    assert scaled_batch_size(3, Resolution(2, 2), Resolution(2, 4), BatchRounding.NEAREST) == 2


def test_multiple_of_world_rounding():
    got = scaled_batch_size(
        1024,
        Resolution(224, 224),
        Resolution(320, 320),
        BatchRounding.MULTIPLE_OF_WORLD,
        min_batch=8,
        world_size=8,
    )
    assert got == 496  # floor(501.76) floored to a multiple of 8
    tiny = scaled_batch_size(
        8,
        Resolution(32, 32),
        Resolution(1024, 1024),
        BatchRounding.MULTIPLE_OF_WORLD,
        min_batch=4,
        world_size=4,
    )
    assert tiny == 4  # clamped to one sample per rank


def test_min_batch_clamp():
    got = scaled_batch_size(
        4, Resolution(32, 32), Resolution(1024, 1024), BatchRounding.FLOOR, min_batch=3
    )
    assert got == 3


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
        with pytest.raises(ScheduleError) as err:
            plan_epoch(config, 0, active_ids=np.array(active))
        assert err.value.code == "ID_OUT_OF_RANGE"


def test_duplicate_active_ids_rejected():
    config = make_config(dataset_size=100, base_batch=10, drop_last=False)
    for active in ([1, 1, 1, 2], [1, 2, 2, 3], [3, 1, 2, 1]):
        with pytest.raises(ScheduleError) as err:
            plan_epoch(config, 0, active_ids=active)
        assert err.value.code == "DUPLICATE_ID"


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
    table = [
        scaled_batch_size(128, Resolution(224, 224), r, BatchRounding.MULTIPLE_OF_WORLD, 1, 1)
        for r in STANDARD
    ]
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
    with pytest.raises(ScheduleError) as err:
        plan_video_vbs(video_config(), [], SPECS[0], 0)
    assert err.value.code == "EMPTY_SPEC_SET"
    with pytest.raises(ScheduleError) as err:
        plan_video_vbs(video_config(), SPECS[:2], SPECS[2], 0)
    assert err.value.code == "BASE_SPEC_NOT_IN_SET"
    with pytest.raises(ConfigValidationError) as err:
        plan_video_vbs(video_config(base_batch=0, dataset_size=100), SPECS, SPECS[1], 0)
    assert err.value.codes == ["ZERO_BATCH"]
    # FLOOR scales 5 x 3 clips at the base spec to 30 / 15 / 7, and 7 does not split three ways
    sharded = video_config(
        base_batch=5, world_size=3, batch_rounding=BatchRounding.FLOOR, drop_last=True
    )
    with pytest.raises(ScheduleError) as err:
        plan_video_vbs(sharded, SPECS, SPECS[1], 0)
    assert err.value.code == "UNSHARDABLE_BATCH"


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
    with pytest.raises(ScheduleError) as err:
        shard_for_rank(schedule, 4, 4)
    assert err.value.code == "RANK_OUT_OF_RANGE"


def test_shard_indivisible_batch():
    config = make_config(
        strategy=Strategy.SSC_FBS, dataset_size=10, base_batch=5, drop_last=True
    )
    schedule = plan_epoch(config, 0)
    with pytest.raises(ScheduleError) as err:
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
