"""validate_config is the contract: a config it accepts plans, shards across
every rank and round-trips through JSONL; a config it rejects raises."""

import io

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
    ensure_valid,
    sampler_config_from_mapping,
    validate_config,
)
from batchforge.samplers import plan_epoch, shard_for_rank
from batchforge.schedule_io import read_schedules, write_schedules


@st.composite
def sampler_configs(draw):
    # Mostly in-range fields, so that many draws with several ranks pass validation;
    # the sharding rules, min_batch and small datasets still reject plenty.
    sides = sorted(draw(st.lists(st.integers(2, 40).map(lambda s: 8 * s), min_size=1, max_size=4, unique=True)))
    base = draw(st.sampled_from(sides))
    return SamplerConfig(
        strategy=draw(st.sampled_from([Strategy.SSC_FBS, Strategy.MSC_FBS, Strategy.MSC_VBS])),
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
