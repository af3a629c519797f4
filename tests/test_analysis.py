import io
import json

import numpy as np
import pytest

from batchforge.analysis import (
    compare_strategies,
    cost_reports_payload,
    count_updates,
    input_memory_proxy,
    schedule_cost,
    simulate_updates,
    strategy_cost,
    with_ratios,
    write_cost_csv,
)
from batchforge.core import BatchforgeError, Resolution, ResolutionSet, SamplerConfig, Strategy, VideoClipSpec
from batchforge.samplers import EpochSchedule, plan_epoch

STANDARD = ResolutionSet.squares([128, 192, 224, 288, 320])


def make_config(**overrides):
    kwargs = dict(
        strategy=Strategy.SSC_FBS,
        dataset_size=1_281_167,
        base_batch=1024,
        base_resolution=Resolution(224, 224),
        resolutions=STANDARD,
        epochs=150,
        seed=0,
        drop_last=True,
    )
    kwargs.update(overrides)
    return SamplerConfig(**kwargs)


def test_single_scale_updates_match_published_resnet_count():
    counts = count_updates(make_config())
    assert counts.exact == 187_650  # floor(1281167 / 1024) * 150
    assert counts.closed_form == 187_650.0


def test_trivial_one_batch_epoch():
    config = make_config(
        dataset_size=1024, base_batch=1024, epochs=1, resolutions=ResolutionSet.squares([224])
    )
    counts = count_updates(config)
    assert counts.exact == 1 and counts.closed_form == 1.0


def test_variable_batch_exact_tracks_closed_form():
    config = make_config(strategy=Strategy.MSC_VBS)
    counts = count_updates(config)
    assert abs(counts.exact - counts.closed_form) / counts.closed_form <= 0.01
    assert 141_000 <= counts.exact <= 146_000


def test_exact_vs_closed_form_within_one_percent_for_large_n():
    # per-epoch iteration counts fluctuate; over >= 100 epochs the total
    # settles within 1% of the expectation
    rng = np.random.default_rng(17)
    for _ in range(5):
        config = make_config(
            strategy=Strategy.MSC_VBS,
            dataset_size=int(rng.integers(100_000, 400_000)),
            base_batch=int(rng.integers(64, 512)),
            epochs=100,
            seed=int(rng.integers(0, 2**32)),
            drop_last=bool(rng.integers(0, 2)),
        )
        counts = count_updates(config)
        assert abs(counts.exact - counts.closed_form) / counts.closed_form <= 0.01


def test_memory_proxy_trivial_single_plan():
    one = np.array([0, 1])
    schedule = EpochSchedule(0, ids=one[:1], offsets=one, shape_idx=one[:1], shapes=(Resolution(1, 1),))
    proxy = input_memory_proxy(schedule, channels=3, bytes_per_element=4)
    assert proxy.peak_bytes == 12 and proxy.mean_bytes == 12.0


def test_memory_proxy_empty_schedule():
    with pytest.raises(BatchforgeError) as err:
        none = np.zeros(1, dtype=np.int64)
        input_memory_proxy(EpochSchedule(0, ids=none[1:], offsets=none, shape_idx=none[1:], shapes=()))
    assert err.value.code == "EMPTY_SCHEDULE"


def test_memory_peak_ratio_doubles_for_fixed_batch_multi_scale():
    base = make_config(dataset_size=131_072, epochs=1)
    ssc = input_memory_proxy(plan_epoch(base, 0))
    msc = input_memory_proxy(plan_epoch(base.with_strategy(Strategy.MSC_FBS), 0))
    ratio = msc.peak_bytes / ssc.peak_bytes
    assert abs(ratio - (320 * 320) / (224 * 224)) < 1e-12
    assert abs(ratio - 2.0408) < 0.01


def test_memory_constant_per_iteration_for_variable_batch():
    config = make_config(strategy=Strategy.MSC_VBS, dataset_size=131_072, epochs=1)
    schedule = plan_epoch(config, 0)
    base_bytes = 1024 * 224 * 224 * 3 * 4
    for plan in schedule.plans[:-1]:
        slack = plan.resolution.pixel_count() * config.world_size * 3 * 4
        assert abs(plan.pixel_volume() * 3 * 4 - base_bytes) <= slack


def test_compare_strategies_resnet_row_structure():
    reports = compare_strategies(
        make_config(), [Strategy.SSC_FBS, Strategy.MSC_FBS, Strategy.MSC_VBS]
    )
    by_name = {r.strategy: r for r in reports}
    assert by_name[Strategy.SSC_FBS].total_updates == 187_650
    assert by_name[Strategy.MSC_FBS].total_updates == 187_650
    assert by_name[Strategy.SSC_FBS].updates_ratio == 1.0
    assert by_name[Strategy.SSC_FBS].peak_pixels_ratio == 1.0
    assert 0.755 <= by_name[Strategy.MSC_VBS].updates_ratio <= 0.775
    assert abs(by_name[Strategy.MSC_FBS].peak_pixels_ratio - 2.0408) < 0.01
    assert abs(by_name[Strategy.MSC_VBS].peak_pixels_ratio - 1.0) < 0.02


def test_compare_single_strategy_is_its_own_baseline():
    reports = compare_strategies(make_config(), [Strategy.SSC_FBS])
    assert len(reports) == 1
    assert reports[0].updates_ratio == 1.0 and reports[0].peak_pixels_ratio == 1.0


def test_ratios_scale_invariant_in_batch_size():
    small = make_config(dataset_size=400_000, base_batch=256, epochs=10)
    large = make_config(dataset_size=400_000, base_batch=512, epochs=10)
    strategies = [Strategy.SSC_FBS, Strategy.MSC_VBS]
    r_small = compare_strategies(small, strategies)
    r_large = compare_strategies(large, strategies)
    assert abs(r_small[1].updates_ratio - r_large[1].updates_ratio) < 0.02
    assert abs(r_small[1].peak_pixels_ratio - r_large[1].peak_pixels_ratio) < 0.02


def test_simulation_zero_variance_for_fixed_batch():
    sim = simulate_updates(make_config(dataset_size=50_000, epochs=2), trials=5)
    assert sim.stderr == 0.0
    assert sim.mean == count_updates(make_config(dataset_size=50_000, epochs=2)).exact


def test_simulation_single_trial_has_no_stderr():
    sim = simulate_updates(make_config(dataset_size=50_000, epochs=1), trials=1)
    assert sim.stderr is None and sim.trials == 1


def test_simulation_mean_matches_closed_form():
    config = make_config(strategy=Strategy.MSC_VBS, dataset_size=200_000, epochs=20)
    sim = simulate_updates(config, trials=50)
    closed = count_updates(config).closed_form
    assert abs(sim.mean - closed) / closed < 0.01


def test_simulation_rejects_zero_trials():
    with pytest.raises(BatchforgeError):
        simulate_updates(make_config(), trials=0)


@pytest.mark.parametrize("trials", [2.5, True, np.True_, "3", None, np.float64(3)])
def test_simulation_rejects_trials_that_are_not_integers(trials):
    with pytest.raises(BatchforgeError) as err:
        simulate_updates(make_config(), trials)
    assert err.value.code == "BAD_SIZE"


@pytest.mark.parametrize("trials", [0, -1, np.int64(0)])
def test_simulation_below_one_trial_is_zero_trials(trials):
    with pytest.raises(BatchforgeError) as err:
        simulate_updates(make_config(), trials)
    assert err.value.code == "ZERO_TRIALS"


def test_simulation_reports_numpy_integer_trials_as_a_python_int():
    config = make_config(strategy=Strategy.MSC_VBS, dataset_size=50_000, epochs=1)
    sim = simulate_updates(config, np.int64(2))
    assert type(sim.trials) is int
    assert sim == simulate_updates(config, 2)


CLIPS = tuple(map(VideoClipSpec.parse, ["4x1x128x128", "8x1x224x224", "16x2x224x224"]))


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("drop_last", [True, False])
@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_schedule_cost_agrees_with_strategy_cost(strategy, drop_last, channels):
    # One volume rule for both: the walk of strategy_cost (ssc_fbs's one walked epoch standing for all) and the schedules.
    video = dict(base_batch=64, clips=CLIPS, base_clip=CLIPS[1]) if strategy is Strategy.VIDEO_VBS else {}
    config = make_config(strategy=strategy, dataset_size=65_536, epochs=3, drop_last=drop_last, **video)
    schedules = [plan_epoch(config, e) for e in range(config.epochs)]
    from_schedules = schedule_cost(schedules, config.strategy, channels=channels)
    direct = strategy_cost(config, channels=channels)
    assert from_schedules.total_updates == direct.total_updates
    assert from_schedules.peak_input_pixels == direct.peak_input_pixels
    assert abs(from_schedules.mean_input_pixels - direct.mean_input_pixels) < 1e-6


def test_with_ratios_explicit_baseline():
    config = make_config(dataset_size=65_536, epochs=2)
    baseline = strategy_cost(config)
    row = strategy_cost(config.with_strategy(Strategy.MSC_VBS))
    (filled,) = with_ratios([row], baseline=baseline)
    assert filled.updates_ratio == row.total_updates / baseline.total_updates


def test_csv_and_json_emission():
    reports = compare_strategies(
        make_config(dataset_size=65_536, epochs=2), [Strategy.SSC_FBS, Strategy.MSC_VBS]
    )
    buf = io.StringIO()
    write_cost_csv(buf, reports)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "strategy,updates,updates_ratio,peak_input_bytes,peak_ratio"
    assert lines[1].startswith("ssc_fbs,")
    payload = cost_reports_payload(reports)
    assert payload["rows"][0]["strategy"] == "ssc_fbs"
    assert payload["rows"][0]["peak_input_bytes"] == reports[0].peak_input_pixels * 4
    json.dumps(payload)  # must be serializable


def test_video_rows_get_no_peak_ratio_against_the_image_baseline():
    # a clip's volume is frames x clips x pixels, so its peak does not compare with an image peak
    clips = (VideoClipSpec.parse("8x1x16x16"), VideoClipSpec.parse("16x2x16x16"))
    config = make_config(
        strategy=Strategy.VIDEO_VBS, dataset_size=2000, base_batch=16, base_resolution=Resolution(16, 16),
        resolutions=ResolutionSet.squares([16]), epochs=2, clips=clips, base_clip=clips[0],
    )
    ssc, video = compare_strategies(config, [Strategy.SSC_FBS, Strategy.VIDEO_VBS])
    assert ssc.peak_pixels_ratio == 1.0 and video.peak_pixels_ratio is None
    assert video.updates_ratio == video.total_updates / ssc.total_updates
    assert cost_reports_payload([video])["rows"][0]["peak_ratio"] is None
    buf = io.StringIO()
    write_cost_csv(buf, [video])
    assert buf.getvalue().splitlines()[1].endswith(",")


SMALL = make_config(strategy=Strategy.MSC_VBS, dataset_size=10_000, epochs=2, base_batch=256)
NOT_A_SIZE = [0, -3, 2.5, True, "3", None]


@pytest.mark.parametrize("channels", NOT_A_SIZE, ids=repr)
def test_cost_functions_reject_a_channel_count_that_is_not_a_positive_integer(channels):
    schedule = plan_epoch(SMALL, 0)
    for cost in (lambda: compare_strategies(SMALL, [Strategy.MSC_VBS], channels=channels),
                 lambda: strategy_cost(SMALL, channels=channels),
                 lambda: schedule_cost([schedule], Strategy.MSC_VBS, channels=channels),
                 lambda: input_memory_proxy(schedule, channels=channels)):
        with pytest.raises(BatchforgeError) as err:
            cost()
        assert err.value.code == "BAD_SIZE" and err.value.message.startswith("channels ")


@pytest.mark.parametrize("bytes_per_element", NOT_A_SIZE + [-1], ids=repr)
def test_cost_outputs_reject_an_element_width_that_is_not_a_positive_integer(bytes_per_element):
    reports = compare_strategies(SMALL, [Strategy.MSC_VBS])
    for emit in (lambda: cost_reports_payload(reports, bytes_per_element),
                 lambda: write_cost_csv(io.StringIO(), reports, bytes_per_element),
                 lambda: input_memory_proxy(plan_epoch(SMALL, 0), bytes_per_element=bytes_per_element)):
        with pytest.raises(BatchforgeError) as err:
            emit()
        assert err.value.code == "BAD_SIZE" and err.value.message.startswith("bytes_per_element ")


def test_numpy_integer_sizes_give_the_rows_of_python_ints():
    rows = compare_strategies(SMALL, [Strategy.SSC_FBS, Strategy.MSC_VBS], channels=np.int64(3))
    assert rows == compare_strategies(SMALL, [Strategy.SSC_FBS, Strategy.MSC_VBS])
    assert all(type(row.peak_input_pixels) is int for row in rows)
    payload = cost_reports_payload(rows, np.uint8(4))
    assert payload == cost_reports_payload(rows, 4) and type(payload["bytes_per_element"]) is int
    json.dumps(payload)
