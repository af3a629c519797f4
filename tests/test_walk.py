"""The blocked shape walk equals the plain per-epoch walk of ``reference_walk.py``:
update counts, input-volume peaks and means, Monte-Carlo simulations and
single epochs, over random valid configs of all four strategies."""

import hashlib
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import batchforge.samplers as samplers
from batchforge.analysis import compare_strategies, count_updates, simulate_updates, strategy_cost
from batchforge.core import (
    BatchforgeError,
    BatchRounding,
    Resolution,
    ResolutionSet,
    SamplerConfig,
    Strategy,
    VideoClipSpec,
    validate_config,
)
from batchforge.presets import load_preset
from batchforge.samplers import batch_table, epoch_batch_shapes, walk_shapes
from reference_walk import reference_cost, reference_epoch_shapes, reference_simulation


@st.composite
def walk_configs(draw):
    # Half the draws are skewed: variable batch with a base at side 8 under several large sides
    # makes one large batch and many of size 1, and over a small dataset such rows can run short.
    skewed = draw(st.booleans())
    if skewed:
        sides = [8, *sorted(draw(st.lists(st.integers(8, 40).map(lambda s: 8 * s), min_size=4, max_size=8, unique=True)))]
        base = 8
    else:
        sides = sorted(draw(st.lists(st.integers(1, 40).map(lambda s: 8 * s), min_size=1, max_size=5, unique=True)))
        base = draw(st.sampled_from(sides))
    triples = st.tuples(st.integers(1, 16), st.integers(1, 3), st.sampled_from(sides))
    shapes = draw(st.lists(triples, min_size=1, max_size=4, unique=True))
    clips = tuple(VideoClipSpec(frames, per_video, Resolution(side, side)) for frames, per_video, side in shapes)
    return SamplerConfig(
        strategy=draw(st.sampled_from([Strategy.MSC_VBS, Strategy.VIDEO_VBS] if skewed else list(Strategy))),
        dataset_size=draw(st.integers(100, 400) if skewed else st.integers(1, 3000)),
        base_batch=draw(st.integers(32 if skewed else 1, 96)),
        base_resolution=Resolution(base, base),
        resolutions=ResolutionSet.squares(sides),
        epochs=draw(st.integers(1, 12)),
        world_size=draw(st.sampled_from([1, 1, 2, 4])),
        seed=draw(st.integers(0, 2**64 - 1)),
        drop_last=draw(st.booleans()),
        batch_rounding=draw(st.sampled_from(list(BatchRounding))),
        min_batch=1 if skewed else draw(st.none() | st.integers(1, 8)),
        clips=clips,
        base_clip=draw(st.sampled_from(clips)),
    )


@settings(max_examples=300, deadline=None, print_blob=False)
@given(config=walk_configs(), block_entries=st.sampled_from([1, 50, 1 << 14, samplers.WALK_BLOCK_ENTRIES]))
def test_blocked_walk_equals_the_per_epoch_reference(config, block_entries):
    assume(not validate_config(config))
    updates, peak, mean = reference_cost(config)
    with mock.patch.object(samplers, "WALK_BLOCK_ENTRIES", block_entries):
        assert count_updates(config).exact == updates
        if updates:
            cost = strategy_cost(config)
            assert (cost.total_updates, cost.peak_input_pixels, cost.mean_input_pixels) == (updates, peak, mean)
        else:  # drop_last with batches above dataset_size can leave every epoch empty
            with pytest.raises(BatchforgeError) as err:
                strategy_cost(config)
            assert err.value.code == "EMPTY_SCHEDULE"
        simulation = simulate_updates(config, 3)
        assert (simulation.mean, simulation.stderr) == reference_simulation(config, 3)
        for epoch, n_active in ((0, config.dataset_size), (config.epochs, config.dataset_size // 3), (1, 0)):
            ours, reference = epoch_batch_shapes(config, epoch, n_active), reference_epoch_shapes(config, epoch, n_active)
            assert all(np.array_equal(a, b) for a, b in zip(ours, reference))


def test_a_block_that_runs_short_is_redrawn_at_the_bound():
    # sizes 64 and 1 (eight resolutions clamp to min_batch 1): a row that draws at most
    # one 64 runs out of entries before it covers n = 100
    sides = [8, 64, 72, 80, 96, 112, 128, 144, 160]
    config = SamplerConfig(
        strategy=Strategy.MSC_VBS,
        dataset_size=100,
        base_batch=64,
        base_resolution=Resolution(8, 8),
        resolutions=ResolutionSet.squares(sides),
        epochs=20,
        seed=3,
        batch_rounding=BatchRounding.FLOOR,
        min_batch=1,
    )
    assert sorted(set(batch_table(config).tolist())) == [1, 64]
    bound = 100 // 1 + 2
    with mock.patch.object(samplers, "choice_at", side_effect=samplers.choice_at) as draw:
        blocks = list(walk_shapes(config, range(config.epochs), config.dataset_size))
        spans = [len(call.args[2]) for call in draw.call_args_list]
    assert len(blocks) == 1 and spans[0] < bound and spans[1:] == [bound]  # the first block ran short
    for drop_last in (False, True):
        short = replace(config, drop_last=drop_last)
        cost = strategy_cost(short)
        assert (cost.total_updates, cost.peak_input_pixels, cost.mean_input_pixels) == reference_cost(short)


@pytest.mark.parametrize(
    "name, updates, peak, mean",
    [
        ("resnet50", 144220, 154140672, 154053923.7001248),
        ("resnet50_adv", 576238, 154140672, 154053925.6777651),
        ("mobilenetv1", 575945, 77070336, 76960403.380295),
        ("mobilenetv2", 288224, 154140672, 154053933.05295882),
        ("mobilenetv3", 144214, 308281344, 308191542.99027836),
    ],
)
def test_preset_cost_rows_are_pinned(name, updates, peak, mean):
    config = replace(load_preset(name).sampler, strategy=Strategy.MSC_VBS, seed=0)
    cost = strategy_cost(config)
    assert (cost.total_updates, cost.peak_input_pixels, cost.mean_input_pixels) == (updates, peak, mean)
    assert count_updates(config).exact == updates


@pytest.mark.parametrize(
    "name, seed, digest",
    [
        ("mobilenetv1", 0, "3dcb60e077fad952502b7ccaa3953135"),
        ("mobilenetv2", 0, "e4ef0bbfae4586dbb7f3a96699316c6f"),
        ("mobilenetv3", 0, "020b6e79c29dee5dc3ec64b9f7905027"),
        ("resnet50", 0, "5cce75f540d209969bc4256a1d98b0c0"),
        ("resnet50_adv", 0, "ce194d6561c0208000556d6576363dd1"),
        ("mobilenetv1", 7, "2672fa6e3a037263710367e9413c63a6"),
        ("mobilenetv2", 7, "de27501eec59fe8a8f61001f33205f77"),
        ("mobilenetv3", 7, "3f671c51f16810f8d74b2103d7a3e304"),
        ("resnet50", 7, "fbe436c22e627cc455ce997c8e4724cc"),
        ("resnet50_adv", 7, "6f5777dd4ba71b8f1efa3d8171732f5b"),
    ],
)
def test_preset_cost_comparisons_keep_their_pinned_digests(name, seed, digest):
    # blake2b of the repr of every cost row and a 3-trial simulation, bit for bit
    config = replace(load_preset(name).sampler, strategy=Strategy.MSC_VBS, seed=seed)
    reports = compare_strategies(config, [Strategy.SSC_FBS, Strategy.MSC_FBS, Strategy.MSC_VBS])
    text = repr((reports, simulate_updates(config, 3)))
    assert hashlib.blake2b(text.encode(), digest_size=16).hexdigest() == digest


# sizes 2000 and 1: side 256 floors to one sample at base batch 2000 for side 8
TWO_SIZES = SamplerConfig(
    strategy=Strategy.MSC_VBS,
    dataset_size=200_000,
    base_batch=2000,
    base_resolution=Resolution(8, 8),
    resolutions=ResolutionSet.squares([8, 256]),
    epochs=1,
    seed=0,
    batch_rounding=BatchRounding.FLOOR,
    min_batch=1,
)


def test_a_short_block_is_redrawn_in_sub_blocks_of_block_size():
    # bound is 200,002 entries a row: redrawn whole, a 2**14-entry block of 70 rows peaked at ~334 MB
    config = replace(TWO_SIZES, epochs=100)
    count_updates(replace(config, epochs=1))  # one-time allocations happen outside the trace
    tracemalloc.start()
    try:
        updates = count_updates(config).exact
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert updates == reference_cost(config)[0]


def walked_heads(config, epochs, n_active):
    """The walk's blocks, copied before the walk reuses their workspace, and, per block, the entries its prefix sum
    skipped: the width minus that of the cumsum."""
    with mock.patch.object(np, "cumsum", wraps=np.cumsum) as cumsum:
        blocks = [(shape_idx.copy(), batches.copy()) for shape_idx, batches in walk_shapes(config, epochs, n_active)]
    assert cumsum.call_count == len(blocks)  # no block ran short
    return blocks, [batches.shape[1] - call.args[0].shape[1] for (_, batches), call in zip(blocks, cumsum.call_args_list)]


@pytest.mark.parametrize("block_entries", [1, 50, 1 << 14, samplers.WALK_BLOCK_ENTRIES])
@pytest.mark.parametrize("drop_last", [False, True])
@pytest.mark.parametrize(
    "case, n_active, epochs",
    [
        ("served equals n_active at the last head entry", 82_018, [59, 0, 1, 2]),
        ("served equals n_active inside the tail", 118_037, [7, 0, 1]),
        ("a row crosses n_active inside its head", 200_000, [731, 0, 1]),
    ],
)
def test_the_head_window_walk_equals_the_reference(case, n_active, epochs, drop_last, block_entries):
    config = replace(TWO_SIZES, drop_last=drop_last)
    assert sorted(batch_table(config).tolist()) == [1, 2000]
    with mock.patch.object(samplers, "WALK_BLOCK_ENTRIES", block_entries):
        blocks, heads = walked_heads(config, epochs, n_active)
        own_heads = walked_heads(config, epochs[1:], n_active)[1]  # the other rows alone skip a head
    rows = [(head, s, b) for head, (shape_idx, batches) in zip(heads, blocks) for s, b in zip(shape_idx, batches)]
    for epoch, (_, shape_idx, batches) in zip(epochs, rows, strict=True):
        expected_shapes, expected_batches = reference_epoch_shapes(config, epoch, n_active)
        count = len(expected_batches)
        assert np.array_equal(shape_idx[:count], expected_shapes) and np.array_equal(batches[:count], expected_batches)
        assert not batches[count:].any()
    head, _, batches = rows[0]
    draws = samplers.choice_at(config.seed, epochs[0], np.arange(batches.shape[0]), "res", 2)
    served = np.cumsum(batch_table(config)[draws])
    if case == "a row crosses n_active inside its head":
        assert head == 0 and min(own_heads) > 0 and served[min(own_heads) - 1] > n_active  # the fallback ran
    elif case == "served equals n_active at the last head entry":
        assert head > 0 and served[head - 1] == n_active
    else:
        assert head > 0 and n_active in served[head + 1 :]
