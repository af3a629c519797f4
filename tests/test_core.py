import base64
import dataclasses
import importlib
import io
import pkgutil

import numpy as np
import pytest

import batchforge
from batchforge import analysis, presets, rng, samplers, schedule_io, set_training, trainer
from batchforge.core import (
    BatchforgeError,
    BatchRounding,
    ConfigValidationError,
    Resolution,
    ResolutionSet,
    SamplerConfig,
    Strategy,
    VideoClipSpec,
    check_integer,
    ensure_valid,
    pack_array,
    parse_flat_config,
    sampler_config_from_mapping,
    sampler_config_to_mapping,
    unpack_array,
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
    assert isinstance(STANDARD, tuple) and len(STANDARD) == 5
    assert STANDARD[-1] == Resolution(320, 320) and STANDARD[1:3] == (Resolution(192, 192), Resolution(224, 224))
    assert Resolution(224, 224) in STANDARD and Resolution(256, 256) not in STANDARD
    assert str(ResolutionSet.parse("128x128,224x160,320x320")) == "128x128,224x160,320x320"
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


def test_public_names_are_defined_in_batchforge():
    # __all__ is derived from the package's imports: a name imported from elsewhere must not join it.
    import batchforge

    foreign = [name for name in batchforge.__all__ if not getattr(batchforge, name).__module__.startswith("batchforge.")]
    assert batchforge.__all__ and foreign == []


# One failure of each module that raises coded errors, with its code.
CODED_FAILURES = {
    "BAD_SIZE": lambda: rng.stream_fill(0, rng.StreamKey(), -1),
    "RANK_OUT_OF_RANGE": lambda: samplers.shard_for_rank(plan_epoch(make_config(epochs=1), 0), 1, 1),
    "ZERO_TRIALS": lambda: analysis.simulate_updates(make_config(), 0),
    "ZERO_WINDOW": lambda: set_training.SetConfig(tau=0.5, window=0),
    "BAD_GRID": lambda: trainer.make_synthetic_task(100, grid=3),
    "UNKNOWN_PRESET": lambda: presets.load_preset("bogus"),
    "BAD_JSON": lambda: schedule_io.read_schedules(io.StringIO("{\n")),
}


# check_integer(value, "count", "BAD", least=2, below=10, low_code=low_code): the int it returns, or the code it raises
@pytest.mark.parametrize(
    "value, low_code, expected",
    [
        (2, None, 2),
        (9, "LOW", 9),
        (np.int64(5), None, 5),
        (np.uint8(9), None, 9),
        (10, None, "BAD"),
        (10, "LOW", "BAD"),
        (np.uint64(2**64 - 1), "LOW", "BAD"),
        (1, None, "BAD"),
        (1, "LOW", "LOW"),
        (-3, "LOW", "LOW"),
        (np.int8(-3), "LOW", "LOW"),
        (True, "LOW", "BAD"),
        (False, "LOW", "BAD"),
        (np.True_, None, "BAD"),
        (3.0, "LOW", "BAD"),
        (1.5, "LOW", "BAD"),
        (np.float64(3), None, "BAD"),
        ("3", None, "BAD"),
        (None, "LOW", "BAD"),
    ],
    ids=repr,
)
def test_check_integer_returns_an_int_in_range_or_raises_its_code(value, low_code, expected):
    if isinstance(expected, str):
        with pytest.raises(BatchforgeError) as err:
            check_integer(value, "count", "BAD", least=2, below=10, low_code=low_code)
        assert err.value.code == expected and err.value.message.startswith("count must be an integer in [2, 10)")
    else:
        got = check_integer(value, "count", "BAD", least=2, below=10, low_code=low_code)
        assert type(got) is int and got == expected


@pytest.mark.parametrize("value, ok", [(0, True), (2**63 - 1, True), (np.uint64(2**63 - 1), True), (-1, False),
                                       (2**63, False), (np.uint64(2**63), False)], ids=repr)
def test_check_integer_defaults_to_zero_below_2_63(value, ok):
    if ok:
        assert check_integer(value, "epoch", "BAD") == value
    else:
        with pytest.raises(BatchforgeError) as err:
            check_integer(value, "epoch", "BAD")
        assert err.value.code == "BAD" and "[0, 2**63)" in err.value.message


@pytest.mark.parametrize("code", sorted(CODED_FAILURES))
def test_every_module_raises_the_one_coded_error(code):
    with pytest.raises(BatchforgeError) as err:
        CODED_FAILURES[code]()
    assert type(err.value) is BatchforgeError
    assert err.value.code == code
    assert str(err.value) == f"{err.value.code}: {err.value.message}"


def test_config_error_is_the_coded_error_of_its_first_violation():
    with pytest.raises(ConfigValidationError) as err:
        ensure_valid(make_config(resolutions=ResolutionSet([]), base_batch=0, epochs=0))
    first = err.value.violations[0]
    assert (err.value.code, err.value.codes[0]) == (first.code, first.code)
    assert str(err.value) == "; ".join(str(v) for v in err.value.violations)
    for violation in err.value.violations:
        assert type(violation) is BatchforgeError and str(violation) == f"{violation.code}: {violation.message}"
    assert str(err.value) == f"{err.value.code}: {err.value.message}"


def test_no_module_defines_another_exception():
    names = [f"batchforge.{m.name}" for m in pkgutil.iter_modules(batchforge.__path__)]
    defined = {
        obj
        for module in map(importlib.import_module, names)
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.__name__
    }
    assert defined == {BatchforgeError, ConfigValidationError}
    assert batchforge.BatchforgeError is BatchforgeError


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


# -- the packed-array codec ------------------------------------------------------------------


@pytest.mark.parametrize("count", range(18))
def test_a_mask_round_trips_as_its_packed_bits(count):
    for mask in (np.random.default_rng(count).random(count) < 0.5, np.ones(count, dtype=bool)):
        text = pack_array(mask)
        assert base64.b64decode(text) == np.packbits(mask).tobytes()
        back = unpack_array(text, bool, count, "mask", "SOME_CODE")
        assert back.dtype == bool and back.shape == (count,) and np.array_equal(back, mask)


@pytest.mark.parametrize("dtype", ["uint8", "uint16", "float64"])
def test_a_numeric_array_round_trips_as_its_little_endian_bytes(dtype):
    values = np.array([0, 1, 7, 200, 255], dtype=dtype)
    if dtype == "float64":
        values = np.array([0.0, -0.0, 1.5, np.nan, -np.inf, 1e-300], dtype=dtype)
    little = values.astype(np.dtype(dtype).newbyteorder("<")).tobytes()
    for array in (values, values.astype(np.dtype(dtype).newbyteorder(">"))):  # whatever the byte order it is given
        text = pack_array(array)
        assert base64.b64decode(text) == little
        back = unpack_array(text, dtype, len(values), "values", "SOME_CODE")
        assert back.tobytes() == little and back.dtype == np.dtype(dtype)
    assert pack_array(values[:0]) == "" and unpack_array("", dtype, 0, "values", "SOME_CODE").shape == (0,)


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode()


@pytest.mark.parametrize(
    "text, dtype, count",
    [
        (_b64(b"\xf8\x04"), bool, 13),  # the first padding bit
        (_b64(b"\x01"), bool, 7),  # the last padding bit
        (_b64(b"\xff"), bool, 9),  # a byte short
        (_b64(b"\xff\x80\x00"), bool, 9),  # a byte long
        (_b64(b""), bool, 1),
        (_b64(b"\x00"), bool, 0),
        (_b64(bytes(5)), "uint16", 3),
        (_b64(bytes(7)), "uint16", 3),
        (_b64(bytes(15)), "float64", 2),
        (_b64(bytes(17)), "float64", 2),
        ("not base64!", bool, 8),
        ("AAA", "uint8", 2),  # unpadded
        (7, bool, 8),
        (None, "uint8", 0),
        (b"AA==", "uint8", 1),
        ("\u00e9" * 4, bool, 8),
    ],
    ids=["padding_bit_first", "padding_bit_last", "mask_byte_short", "mask_byte_long", "mask_empty", "empty_mask_a_byte",
         "uint16_byte_short", "uint16_byte_long", "float64_byte_short", "float64_byte_long", "not_base64", "unpadded",
         "a_number", "none", "bytes_not_text", "not_ascii"],
)
def test_unpack_array_raises_the_callers_code(text, dtype, count):
    for code in ("BAD_RECORD", "BAD_STATE"):
        with pytest.raises(BatchforgeError) as err:
            unpack_array(text, dtype, count, "the field", code)
        assert err.value.code == code and err.value.message.startswith("the field ")


def _records():
    plan = samplers.BatchPlan(3, Resolution(8, 8), 2, np.array([4, 9]), VideoClipSpec(8, 1, Resolution(8, 8)))
    transition = set_training.EpochTransition(2, np.array([1, 5]), np.array([7]), 10, 9, 40)
    return plan, transition


@pytest.mark.parametrize("index", [0, 1], ids=["BatchPlan", "EpochTransition"])
def test_records_compare_field_by_field_with_arrays_by_value(index):
    record = _records()[index]
    assert record == _records()[index]  # equal arrays that are not the same objects
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        other = value + 1 if isinstance(value, (int, np.ndarray)) else None
        assert record != dataclasses.replace(record, **{field.name: other}), field.name
    assert record.__eq__(_records()[1 - index]) is NotImplemented and record != _records()[1 - index]
    assert record.__eq__((record,)) is NotImplemented and record != "record"
