import dataclasses

import numpy as np
import pytest

from batchforge.core import (
    BatchRounding,
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
from batchforge.rng import derive_seed
from batchforge.samplers import plan_epoch

STANDARD = ResolutionSet.squares([128, 192, 224, 288, 320])


def make_config(**overrides) -> SamplerConfig:
    kwargs = dict(
        strategy=Strategy.MSC_VBS,
        dataset_size=10_000,
        base_batch=64,
        base_resolution=Resolution(224, 224),
        resolutions=STANDARD,
        epochs=2,
        seed=0,
    )
    kwargs.update(overrides)
    return SamplerConfig(**kwargs)


def codes(config) -> set:
    return {v.code for v in validate_config(config)}


def test_resolution_pixels_and_parse():
    assert Resolution(224, 224).pixel_count() == 50176
    assert Resolution.parse("320x240") == Resolution(320, 240)
    assert Resolution.parse("224") == Resolution(224, 224)
    assert VideoClipSpec.parse("16x2x112x96") == VideoClipSpec(16, 2, Resolution(112, 96))
    assert str(VideoClipSpec.parse("8x1x112")) == "8x1x112x112"
    with pytest.raises(ValueError):
        VideoClipSpec.parse("8x112")


def test_resolution_set_ordering_helpers():
    assert STANDARD.max() == Resolution(320, 320)
    assert STANDARD.index_of(Resolution(224, 224)) == 2
    assert STANDARD.is_sorted()
    assert not ResolutionSet([Resolution(320, 320), Resolution(128, 128)]).is_sorted()


def test_imagenet_scale_config_is_valid():
    config = make_config(
        resolutions=ResolutionSet.squares([224]),
        dataset_size=1_281_167,
        base_batch=1024,
        strategy=Strategy.SSC_FBS,
    )
    assert validate_config(config) == []
    assert ensure_valid(config) is config


def test_empty_resolution_set_rejected():
    assert "EMPTY_RESOLUTION_SET" in codes(make_config(resolutions=ResolutionSet([])))


def test_unsorted_resolutions_rejected():
    unsorted = ResolutionSet([Resolution(320, 320), Resolution(128, 128)])
    assert "UNSORTED_RESOLUTIONS" in codes(make_config(resolutions=unsorted))


def test_duplicate_resolutions_rejected_as_unsorted():
    dupes = ResolutionSet.squares([128, 128])
    assert "UNSORTED_RESOLUTIONS" in codes(make_config(resolutions=dupes, base_resolution=Resolution(128, 128)))


def test_base_resolution_must_be_in_set_for_multi_scale():
    assert "BASE_RES_NOT_IN_SET" in codes(make_config(base_resolution=Resolution(256, 256)))


def test_zero_batch_rejected():
    assert "ZERO_BATCH" in codes(make_config(base_batch=0))
    assert "ZERO_BATCH" in codes(make_config(min_batch=0))


def test_base_batch_below_min_rejected():
    assert "BATCH_BELOW_MIN" in codes(make_config(base_batch=4, min_batch=8))


def test_dataset_too_small_with_drop_last():
    assert "DATASET_TOO_SMALL" in codes(make_config(dataset_size=63, drop_last=True))
    assert "DATASET_TOO_SMALL" not in codes(make_config(dataset_size=63, drop_last=False))
    assert "DATASET_TOO_SMALL" in codes(make_config(dataset_size=0))


def test_dataset_smaller_than_the_largest_batch_with_drop_last():
    # Variable batch draws 196 ids at 128x128 from a base of 64 at 224x224: 150 ids hold the base
    # batch, but an epoch whose first draw is 128x128 would plan nothing.
    assert "DATASET_TOO_SMALL" in codes(make_config(dataset_size=150, drop_last=True))
    assert not codes(make_config(dataset_size=196, drop_last=True))
    assert not codes(make_config(dataset_size=150, drop_last=False))
    assert not codes(make_config(strategy=Strategy.MSC_FBS, dataset_size=150, drop_last=True))


def test_dataset_too_large_for_the_permutation():
    # Composite permutation keys keep 64 - 24 random bits at 2**24 ids.
    assert "DATASET_TOO_LARGE" not in codes(make_config(dataset_size=2**24))
    assert "DATASET_TOO_LARGE" in codes(make_config(dataset_size=2**24 + 1))


def test_remaining_field_invariants():
    assert "ZERO_EPOCHS" in codes(make_config(epochs=0))
    assert "ZERO_WORLD" in codes(make_config(world_size=0))
    assert "SEED_OUT_OF_RANGE" in codes(make_config(seed=1 << 64))
    assert "NONPOSITIVE_RESOLUTION" in codes(
        make_config(
            resolutions=ResolutionSet([Resolution(0, 4), Resolution(224, 224)]),
        )
    )


def test_validation_reports_all_violations_at_once():
    config = make_config(resolutions=ResolutionSet([]), base_batch=0, epochs=0)
    found = codes(config)
    assert {"EMPTY_RESOLUTION_SET", "ZERO_BATCH", "ZERO_EPOCHS"} <= found


def test_unshardable_configs_rejected():
    # FLOOR scales 16 x 4 ids to 196 / 64 / 31, and 31 does not split four ways
    floor = make_config(
        dataset_size=1000,
        base_batch=16,
        resolutions=ResolutionSet.squares([128, 224, 320]),
        world_size=4,
        batch_rounding=BatchRounding.FLOOR,
    )
    assert codes(floor) == {"UNSHARDABLE_BATCH"}
    assert codes(dataclasses.replace(floor, world_size=1, min_batch=1)) == set()
    # a min_batch floor that binds must itself split across ranks
    clamped = make_config(base_batch=8, world_size=4, min_batch=18)
    assert codes(clamped) == {"UNSHARDABLE_BATCH"}
    assert codes(dataclasses.replace(clamped, min_batch=20)) == set()
    # the final short batch depends on the active set, so it cannot be sharded
    assert codes(make_config(world_size=4, drop_last=False)) == {"UNSHARDABLE_TAIL"}
    assert codes(make_config(world_size=1, drop_last=False)) == set()
    assert codes(make_config(strategy=Strategy.SSC_FBS, world_size=4, min_batch=6)) == set()


def test_min_batch_defaults_to_world_size():
    assert make_config(world_size=4, dataset_size=1024).min_batch == 4
    assert make_config(min_batch=2, world_size=4, dataset_size=1024).min_batch == 2


def test_public_names_resolve_once():
    import batchforge

    assert len(batchforge.__all__) == len(set(batchforge.__all__))
    assert [name for name in batchforge.__all__ if not hasattr(batchforge, name)] == []


def test_flat_config_parsing():
    text = """
    # sampler settings
    strategy = msc_vbs
    dataset_size = 50000
    base_batch = 256
    base_resolution = 224x224
    resolutions = 128x128,192x192,224x224  # inline comment
    epochs = 10
    drop_last = false
    """
    mapping = parse_flat_config(text)
    config = sampler_config_from_mapping(mapping)
    assert config.strategy is Strategy.MSC_VBS
    assert config.dataset_size == 50000
    assert config.drop_last is False
    assert len(config.resolutions) == 3


def test_flat_config_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_flat_config("strategy msc_vbs")


def test_flat_config_missing_required_keys():
    with pytest.raises(ValueError, match="missing required"):
        sampler_config_from_mapping({"strategy": "msc_vbs"})


def test_mapping_round_trip():
    config = make_config(drop_last=False, batch_rounding=BatchRounding.NEAREST, min_batch=2)
    mapping = sampler_config_to_mapping(config)
    assert set(mapping) == {f.name for f in dataclasses.fields(SamplerConfig)}
    rebuilt = sampler_config_from_mapping({k: str(v) for k, v in mapping.items()})
    assert rebuilt == config


def test_schedules_reproducible_over_random_configs():
    # two engines with equal seeds emit bit-identical schedules
    master = np.random.default_rng(20240811)
    for _ in range(100):
        sides = sorted(master.choice(np.arange(8, 65, 8), size=3, replace=False).tolist())
        strategies = [Strategy.SSC_FBS, Strategy.MSC_FBS, Strategy.MSC_VBS]
        config = SamplerConfig(
            strategy=strategies[int(master.integers(0, 3))],
            dataset_size=int(master.integers(200, 3000)),
            base_batch=int(master.integers(8, 64)),
            base_resolution=Resolution(sides[1], sides[1]),
            resolutions=ResolutionSet.squares(sides),
            epochs=1,
            seed=int(master.integers(0, 2**63)),
            drop_last=bool(master.integers(0, 2)),
        )
        epoch = int(master.integers(0, 50))
        assert plan_epoch(config, epoch) == plan_epoch(config, epoch)


def test_derived_seeds_give_different_schedules():
    config = make_config(drop_last=False)
    a = plan_epoch(config, 0)
    b = plan_epoch(dataclasses.replace(config, seed=derive_seed(config.seed, 1)), 0)
    assert a != b
