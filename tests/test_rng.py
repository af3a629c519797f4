import os
import sys
import threading
import tracemalloc
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import batchforge.rng as rng_module
import batchforge.schedule_io as schedule_io
from batchforge.core import BatchforgeError
from batchforge.rng import (
    MAX_PERMUTATION_SIZE,
    StreamKey,
    choice_at,
    derive_seed,
    permutation,
    stream_at,
    stream_fill,
    tag_hash,
)
from seeded_rng import SeededRng

MASK64 = (1 << 64) - 1


def reference_mix64(x):
    # independent straight-line splitmix64 finalizer (published constants)
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def reference_stream(seed, epoch, iteration, tag, count):
    h = 0xCBF29CE484222325
    for b in tag.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & MASK64
    state = reference_mix64(seed)
    state = reference_mix64(state ^ h)
    state = reference_mix64(state ^ epoch)
    state = reference_mix64(state ^ iteration)
    return [
        reference_mix64((state + k * 0x9E3779B97F4A7C15) & MASK64) for k in range(1, count + 1)
    ]


def test_matches_independent_reference():
    rng = SeededRng(42, StreamKey(3, 17, "res"))
    ours = [rng.next_u64() for _ in range(16)]
    assert ours == reference_stream(42, 3, 17, "res", 16)


def test_repeated_construction_is_identical():
    a = [SeededRng(9, StreamKey(1, 2, "perm")).next_u64() for _ in range(3)]
    b = [SeededRng(9, StreamKey(1, 2, "perm")).next_u64() for _ in range(3)]
    assert a == b


def test_streams_differ_by_any_key_component():
    base = stream_fill(5, StreamKey(0, 0, "res"), 8)
    assert not np.array_equal(base, stream_fill(6, StreamKey(0, 0, "res"), 8))
    assert not np.array_equal(base, stream_fill(5, StreamKey(1, 0, "res"), 8))
    assert not np.array_equal(base, stream_fill(5, StreamKey(0, 1, "res"), 8))
    assert not np.array_equal(base, stream_fill(5, StreamKey(0, 0, "perm"), 8))


def test_vectorised_fill_matches_scalar():
    key = StreamKey(7, 123, "perm")
    rng = SeededRng(1234, key)
    scalar = [rng.next_u64() for _ in range(100)]
    assert stream_fill(1234, key, 100).tolist() == scalar


def test_stream_at_matches_first_scalar_draws():
    iters = np.arange(64)
    vec = stream_at(99, 4, iters, "res")
    scalar = [SeededRng(99, StreamKey(4, int(t), "res")).next_u64() for t in iters]
    assert vec.tolist() == scalar


def test_draws_over_an_array_of_epochs_are_one_row_per_epoch():
    epochs = np.array([0, 3, 12, 2**40, -1])
    iters = np.arange(24)
    streams = stream_at(99, epochs, iters, "res")
    choices = choice_at(99, epochs, iters, "clip", 5)
    assert streams.shape == choices.shape == (len(epochs), len(iters))
    for row, epoch in enumerate(epochs.tolist()):
        assert streams[row].tolist() == [SeededRng(99, StreamKey(epoch, t, "res")).next_u64() for t in range(24)]
        assert choices[row].tolist() == [SeededRng(99, StreamKey(epoch, t, "clip")).choice(5) for t in range(24)]
        assert np.array_equal(choices[row], choice_at(99, epoch, iters, "clip", 5))


def test_choice_single_element():
    assert SeededRng(0).choice(1) == 0


def test_choice_deterministic():
    key = StreamKey(0, 0, "res")
    first = SeededRng(42, key).choice(5)
    assert all(SeededRng(42, key).choice(5) == first for _ in range(5))


def test_choice_rejects_empty_set():
    with pytest.raises(BatchforgeError) as err:
        SeededRng(0).choice(0)
    assert err.value.code == "ZERO_SET_SIZE"
    with pytest.raises(BatchforgeError):
        choice_at(0, 0, np.arange(3), "res", 0)


def test_choice_uniformity_chi_squared():
    # 10^6 draws over 5 buckets; frequencies 0.2 +/- 0.01 and chi-squared
    # below the 99.9% quantile for 4 degrees of freedom (18.47).
    draws = choice_at(2024, 0, np.arange(1_000_000), "res", 5)
    counts = np.bincount(draws, minlength=5)
    freqs = counts / counts.sum()
    assert np.all(np.abs(freqs - 0.2) < 0.01)
    expected = counts.sum() / 5
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 18.47


def test_vectorised_choice_matches_scalar():
    vec = choice_at(31, 2, np.arange(20), "res", 7)
    scalar = [SeededRng(31, StreamKey(2, t, "res")).choice(7) for t in range(20)]
    assert vec.tolist() == scalar


def test_permutation_is_bijection():
    perm = permutation(5, StreamKey(0, 0, "perm"), 1000)
    assert np.array_equal(np.sort(perm), np.arange(1000))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 1000, 65535, 65536, 65537])
def test_permutation_is_lexsort_of_draw_high_bits_then_index(n):
    bits = np.uint64(max(1, (n - 1).bit_length()))
    for seed in (0, 5, 2**64 - 1):
        key = StreamKey(3, 0, "perm")
        draws = stream_fill(seed, key, n)
        perm = permutation(seed, key, n)
        assert perm.dtype == np.int64
        assert np.array_equal(perm, np.lexsort((np.arange(n), draws >> bits)))


def test_permutation_ties_keep_index_order(monkeypatch):
    # n = 4 keeps b = 2 low bits; draws equal above them tie, lower index first.
    draws = np.array([(7 << 2) | 3, (7 << 2) | 0, (1 << 2) | 2, (7 << 2) | 1], dtype=np.uint64)
    monkeypatch.setattr(rng_module, "stream_fill", lambda seed, key, count: draws.copy())
    assert permutation(0, StreamKey(), 4).tolist() == [2, 0, 1, 3]
    assert np.argsort(draws, kind="stable").tolist() == [2, 1, 3, 0]


def test_permutation_size_is_bounded():
    assert MAX_PERMUTATION_SIZE == 2**24
    with pytest.raises(BatchforgeError) as err:
        permutation(0, StreamKey(), MAX_PERMUTATION_SIZE + 1)
    assert err.value.code == "PERMUTATION_TOO_LARGE"


def test_stream_at_leaves_its_input_unchanged():
    iters = np.arange(16, dtype=np.uint64)
    stream_at(3, 1, iters, "res")
    assert np.array_equal(iters, np.arange(16, dtype=np.uint64))


def test_choice_at_holds_two_grid_sized_arrays():
    # the draws and the hash's scratch; the quotient reuses the scratch instead of a third grid-sized array
    epochs, iterations = np.arange(31), np.arange(1057)
    grid_bytes = 31 * 1057 * 8
    choice_at(2, epochs, iterations, "res", 9)  # one-time allocations happen outside the trace
    with mock.patch.object(np, "floor_divide", wraps=np.floor_divide) as divide:
        tracemalloc.start()
        try:
            choices = choice_at(2, epochs, iterations, "res", 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 2 * grid_bytes + 64 * 1024
    [call] = divide.call_args_list
    assert call.kwargs["out"].shape == choices.shape and not np.shares_memory(call.kwargs["out"], choices)


def test_permutation_changes_with_epoch():
    a = permutation(5, StreamKey(0, 0, "perm"), 500)
    b = permutation(5, StreamKey(1, 0, "perm"), 500)
    assert not np.array_equal(a, b)


def test_uniform_in_unit_interval():
    rng = SeededRng(77)
    values = [rng.uniform() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert 0.4 < sum(values) / len(values) < 0.6


def test_tag_hash_distinguishes_tags():
    assert tag_hash("res") != tag_hash("perm")
    assert tag_hash("") != tag_hash("a")


def test_derive_seed_spreads():
    children = {derive_seed(1, i) for i in range(100)}
    assert len(children) == 100


# -- blocked fill and permutation ------------------------------------------------------------

BLOCK_SIZES = [1, 7, rng_module.FILL_BLOCK]


@st.composite
def sizes_near_block_edges(draw):
    """(block, n): a block size and a count within 2 of a multiple of it."""
    block = draw(st.sampled_from(BLOCK_SIZES))
    blocks = draw(st.integers(0, 3 if block == rng_module.FILL_BLOCK else 40))
    return block, max(0, blocks * block + draw(st.integers(-2, 2)))


stream_keys = st.builds(StreamKey, st.integers(-(2**63), 2**63 - 1), st.integers(0, 2**40), st.sampled_from(["", "perm", "res"]))


@settings(max_examples=60, deadline=None, print_blob=False)
@given(case=sizes_near_block_edges(), seed=st.integers(0, 2**64 - 1), key=stream_keys)
def test_blocked_fill_matches_the_scalar_stream_at_every_block_edge(case, seed, key):
    block, n = case
    with mock.patch.object(rng_module, "FILL_BLOCK", block):
        draws = stream_fill(seed, key, n)
    assert draws.dtype == np.uint64 and len(draws) == n
    index = np.arange(n)
    edges = index[(index % block < 2) | (index % block >= block - 2)].tolist()
    oracle = SeededRng(seed, key)
    assert [int(draws[i]) for i in edges] == [oracle.draw(i + 1) for i in edges]


@settings(max_examples=60, deadline=None, print_blob=False)
@given(case=sizes_near_block_edges(), seed=st.integers(0, 2**64 - 1), key=stream_keys)
def test_blocked_permutation_is_the_lexsort_at_every_block_size(case, seed, key):
    block, n = case
    draws = stream_fill(seed, key, n)
    with mock.patch.object(rng_module, "FILL_BLOCK", block):
        perm = permutation(seed, key, n)
    bits = np.uint64(max(1, (n - 1).bit_length()))
    assert perm.dtype == np.int64
    assert np.array_equal(perm, np.lexsort((np.arange(n), draws >> bits)))


def test_permutation_calls_stream_fill_once(monkeypatch):
    calls = []

    def counted(seed, key, count):
        calls.append((seed, key, count))
        return stream_fill(seed, key, count)

    monkeypatch.setattr(rng_module, "stream_fill", counted)
    monkeypatch.setattr(rng_module, "FILL_BLOCK", 7)
    key = StreamKey(2, 0, "perm")
    assert np.array_equal(np.sort(permutation(3, key, 50)), np.arange(50))
    assert calls == [(3, key, 50)]


@pytest.mark.parametrize("block", BLOCK_SIZES)
@pytest.mark.parametrize("m, width", [(64, 60), (300, 56), (3000, 50)])
def test_permutation_of_wide_ids_reorders_tied_keys_by_draw_then_position(m, width, block):
    # Ids of `width` bits leave a key 64 - width draw bits, far fewer than the 64 - b that decide the
    # order, so keys tie in runs of 3 and more, across block edges, and the tie fix-up must restore
    # the lexsort of (draw >> b, position).
    seed, key = 11, StreamKey(5, 0, "perm")
    ids = np.sort(np.random.default_rng(m).integers(0, 2**width, m))
    ids[-1] = 2**width - 1
    assert (np.diff(ids) > 0).all()
    b = np.uint64(max(1, (m - 1).bit_length()))
    draws = stream_fill(seed, key, m)
    expected = ids[np.lexsort((np.arange(m), draws >> b))]
    with mock.patch.object(rng_module, "FILL_BLOCK", block):
        assert np.array_equal(permutation(seed, key, m, ids), expected)
    # The case ties as claimed: sorted by their top 64 - width bits, neighbours i and i + 1 tie.
    tied = np.flatnonzero(np.diff(np.sort(draws >> np.uint64(width))) == 0)
    assert (np.diff(tied) == 1).any()  # a run of 3 or more keys
    assert block > m or ((tied + 1) % block == 0).any()  # a tie across a block edge
    assert not np.array_equal(expected, ids[np.lexsort((np.arange(m), draws >> np.uint64(width)))])


def test_permutation_needs_one_id_per_position():
    with pytest.raises(BatchforgeError) as err:
        permutation(1, StreamKey(), 4, np.arange(3))
    assert err.value.code == "BAD_SIZE"


@pytest.mark.parametrize("block", [2, rng_module.FILL_BLOCK])
@pytest.mark.parametrize(
    "ids",
    [
        [0, 1, 5],
        np.array([0, 1, 5], dtype=np.int32),
        np.array([0, 1, 5], dtype=np.uint64),
        np.array([0.0, 1.0, 5.0]),
        np.array([[0, 1, 5]]),
        np.array([5, 1, 0]),
        np.array([0, -1, 5]),
        np.array([-3, -1, 5]),
        np.array([0, 1, 1]),
        np.array([0, 2, 1]),  # with 2-id blocks, the decrease is across a block edge
    ],
    ids=["list", "int32", "uint64", "float", "2d", "decreasing", "negative_inside", "negative_first", "repeated",
         "decrease_at_block_edge"],
)
def test_permutation_ids_are_a_1d_int64_array_strictly_increasing_from_0(ids, block):
    with mock.patch.object(rng_module, "FILL_BLOCK", block), pytest.raises(BatchforgeError) as err:
        permutation(1, StreamKey(), 3, ids)
    assert err.value.code == "BAD_IDS"


@pytest.mark.parametrize(
    "draw",
    [
        lambda: permutation(1, StreamKey(), 2.5),
        lambda: permutation(1, StreamKey(), -3),
        lambda: permutation(1, StreamKey(), 3.0),
        lambda: permutation(1, StreamKey(), "3"),
        lambda: permutation(1, StreamKey(), True),
        lambda: stream_fill(1, StreamKey(), -1),
        lambda: stream_fill(1, StreamKey(), 1.5),
        lambda: stream_fill(1, StreamKey(), np.float64(4)),
        lambda: stream_fill(1, StreamKey(), False),
    ],
    ids=["perm_fraction", "perm_negative", "perm_float", "perm_str", "perm_bool", "fill_negative", "fill_fraction",
         "fill_np_float", "fill_bool"],
)
def test_draw_sizes_must_be_non_negative_integers(draw):
    with pytest.raises(BatchforgeError) as err:
        draw()
    assert err.value.code == "BAD_SIZE"


def test_draw_sizes_accept_python_and_numpy_integers():
    key = StreamKey(1, 0, "perm")
    for n in (5, np.int64(5), np.int32(5), np.uint16(5)):
        assert np.array_equal(stream_fill(4, key, n), stream_fill(4, key, 5))
        assert np.array_equal(permutation(4, key, n), permutation(4, key, 5))
    assert stream_fill(4, key, 0).shape == permutation(4, key, np.int64(0)).shape == (0,)


# -- keyed draws: the 1-D first shift and the floor-division reduction -----------------------

SET_SIZES = sorted({1, 2, 3, 5, 7, *(2**k + d for k in range(2, 41) for d in (-1, 1))})
draw_epochs = st.sampled_from([0, -1, 2**40, -(2**40)]) | st.integers(-(2**40), 2**40)


@st.composite
def draw_grids(draw):
    """(epoch, iterations): one epoch or a 1-D array of them, and a run of iterations that may cross 2**30 or 2**32."""
    epoch = draw(draw_epochs | st.lists(draw_epochs, min_size=1, max_size=4).map(np.array))
    start = draw(st.sampled_from([0, 2**30 - 3, 2**32 - 3]) | st.integers(0, 2**40))
    return epoch, np.arange(start, start + draw(st.integers(0, 6)))


@settings(max_examples=120, deadline=None, print_blob=False)
@given(
    grid=draw_grids(),
    seed=st.integers(0, 2**64 - 1),
    tag=st.sampled_from(["", "res", "clip"]),
    set_size=st.sampled_from(SET_SIZES),
)
def test_keyed_draws_match_the_scalar_stream_and_the_plain_modulo(grid, seed, tag, set_size):
    epoch, iterations = grid
    rows = np.atleast_1d(epoch).tolist()
    shape = (len(iterations),) if np.ndim(epoch) == 0 else (len(rows), len(iterations))
    expected = [[SeededRng(seed, StreamKey(e, t, tag)).draw(1) for t in iterations.tolist()] for e in rows]
    streams = stream_at(seed, epoch, iterations, tag)
    choices = choice_at(seed, epoch, iterations, tag, set_size)
    assert (streams.shape, streams.dtype, choices.shape, choices.dtype) == (shape, np.uint64, shape, np.int64)
    assert streams.reshape(len(rows), len(iterations)).tolist() == expected
    assert choices.reshape(len(rows), len(iterations)).tolist() == [[d % set_size for d in row] for row in expected]
    out, scratch = np.empty(shape, np.uint64), np.empty(shape, np.uint64)
    into = choice_at(seed, epoch, iterations, tag, set_size, out=out, scratch=scratch)
    assert np.array_equal(into, choices) and into.base is out


@pytest.mark.parametrize(
    "set_size, code",
    [
        (2.5, "BAD_SIZE"),
        (3.0, "BAD_SIZE"),
        (np.float64(3), "BAD_SIZE"),
        ("3", "BAD_SIZE"),
        (True, "BAD_SIZE"),
        (False, "BAD_SIZE"),
        (2**64, "BAD_SIZE"),
        (0, "ZERO_SET_SIZE"),
        (-3, "ZERO_SET_SIZE"),
        (np.int64(0), "ZERO_SET_SIZE"),
    ],
    ids=["fraction", "float", "np_float", "str", "true", "false", "past_uint64", "zero", "negative", "np_zero"],
)
def test_choice_set_size_must_be_an_integer_from_1_below_2_64(set_size, code):
    with pytest.raises(BatchforgeError) as err:
        choice_at(1, 0, np.arange(4), "res", set_size)
    assert err.value.code == code


def test_choice_set_size_accepts_python_and_numpy_integers():
    expected = choice_at(6, 2, np.arange(9), "res", 5)
    for k in (np.int64(5), np.int32(5), np.uint64(5), np.uint8(5)):
        assert np.array_equal(choice_at(6, 2, np.arange(9), "res", k), expected)
    widest = choice_at(6, 2, np.arange(9), "res", 2**64 - 1)
    assert widest.view(np.uint64).tolist() == [d % (2**64 - 1) for d in stream_at(6, 2, np.arange(9), "res").tolist()]


# -- two lanes: id-sized passes on two threads ------------------------------------------------

SPLIT = rng_module.SPLIT_SORT_MIN
LINEAR = rng_module.SPLIT_MIN


def usable_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def counted_threads(monkeypatch):
    made = mock.Mock(wraps=threading.Thread)
    monkeypatch.setattr(rng_module.threading, "Thread", made)
    return made


def lexsort_reference(seed, key, n, ids=None):
    draws = stream_fill(seed, key, n)
    order = np.lexsort((np.arange(n), draws >> np.uint64(max(1, (n - 1).bit_length()))))
    return order if ids is None else ids[order]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("n", [SPLIT - 1, SPLIT, SPLIT + 1, 3 * SPLIT // 2 + 7, LINEAR - 1, LINEAR, LINEAR + 1])
def test_a_split_sort_is_the_lexsort_at_the_threshold(monkeypatch, n, cpus):
    usable_cpus(monkeypatch, cpus)
    key = StreamKey(4, 0, "perm")
    expected = lexsort_reference(9, key, n)
    made = counted_threads(monkeypatch)
    assert np.array_equal(permutation(9, key, n), expected)
    # one lane thread for the sort from SPLIT keys up, one each for the fill and the key pass from LINEAR up
    assert made.call_count == (cpus > 1) * ((n >= SPLIT) + 2 * (n >= LINEAR))


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_split_sort_of_wide_ids_keeps_the_tie_order(monkeypatch, cpus):
    # 40-bit ids leave 24 draw bits in a key: about m**2 / 2**25 = 512 tied pairs, ordered after the sort.
    usable_cpus(monkeypatch, cpus)
    m, key = SPLIT + 1, StreamKey(2, 0, "perm")
    ids = np.unique(np.random.default_rng(5).integers(0, 2**40, m + 64))[:m]
    ids[-1] = 2**40 - 1
    assert len(ids) == m and (np.diff(ids) > 0).all()
    draws = stream_fill(3, key, m)
    assert (np.diff(np.sort(draws >> np.uint64(40))) == 0).sum() > 100
    assert np.array_equal(permutation(3, key, m, ids), lexsort_reference(3, key, m, ids))


def test_one_usable_cpu_starts_no_thread(monkeypatch):
    key = StreamKey(1, 0, "perm")
    usable_cpus(monkeypatch, 1)
    made = counted_threads(monkeypatch)
    one = permutation(2, key, LINEAR + 1)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # where the platform has no affinity set
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert np.array_equal(permutation(2, key, LINEAR + 1), one)
    assert made.call_count == 0
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert np.array_equal(permutation(2, key, LINEAR + 1), one)
    assert made.call_count == 3  # the fill, the key pass and the sort


def test_a_thread_that_cannot_start_leaves_its_half_to_the_caller(monkeypatch):
    usable_cpus(monkeypatch, 2)

    def refuse(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    key = StreamKey(6, 0, "perm")
    assert np.array_equal(permutation(8, key, SPLIT + 3), lexsort_reference(8, key, SPLIT + 3))


class SortFailsOffTheMainThread(np.ndarray):
    def sort(self, *args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("sort failed in the worker")
        super().sort(*args, **kwargs)


def test_an_exception_in_the_worker_reaches_the_caller(monkeypatch):
    usable_cpus(monkeypatch, 2)
    fill = stream_fill
    monkeypatch.setattr(rng_module, "stream_fill", lambda *args: fill(*args).view(SortFailsOffTheMainThread))
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="in the worker"):
        permutation(1, StreamKey(), SPLIT)
    assert threading.active_count() == threads  # the worker ended before the error reached the caller


def test_a_two_lane_fill_is_the_one_lane_fill_at_a_block_that_divides_nothing(monkeypatch):
    n, key = 2 * LINEAR + 12345, StreamKey(3, 9, "perm")
    monkeypatch.setattr(rng_module, "FILL_BLOCK", 1000)  # divides neither n nor the lanes' lengths
    usable_cpus(monkeypatch, 1)
    one = stream_fill(7, key, n)
    usable_cpus(monkeypatch, 2)
    made = counted_threads(monkeypatch)
    two = stream_fill(7, key, n)
    assert made.call_count == 1 and np.array_equal(two, one)
    edge = rng_module._lane_edge(n, LINEAR)
    assert edge % 1000 == 0 and n / 2 <= edge < n / 2 + 1000
    oracle = SeededRng(7, key)
    at = [0, edge - 1, edge, edge + 1, n - 1]
    assert [int(two[i]) for i in at] == [oracle.draw(i + 1) for i in at]


@pytest.mark.parametrize("where", ["upper", "both", "edge"])
def test_bad_ids_names_the_first_decrease_whichever_lane_finds_it(monkeypatch, where):
    n = LINEAR + 5
    usable_cpus(monkeypatch, 2)
    edge = rng_module._lane_edge(n, LINEAR)
    ids = np.arange(n, dtype=np.int64)
    swaps = {"upper": [edge + 100], "both": [10, edge + 100], "edge": [edge - 1]}[where]
    for i in swaps:  # ids i and i + 1 trade places: id i follows id i + 1
        ids[[i, i + 1]] = ids[[i + 1, i]]
    first = swaps[0]
    made = counted_threads(monkeypatch)
    with pytest.raises(BatchforgeError) as two:
        permutation(1, StreamKey(), n, ids)
    assert made.call_count == 2  # the fill and the key pass
    assert two.value.code == "BAD_IDS"
    assert two.value.message == f"ids must strictly increase; id {first} follows {first + 1}"
    usable_cpus(monkeypatch, 1)
    with pytest.raises(BatchforgeError) as one:
        permutation(1, StreamKey(), n, ids)
    assert str(one.value) == str(two.value)


@pytest.fixture
def small_lanes(monkeypatch):
    """Two usable CPUs, 16-id blocks, and two lanes from 64 ids up: lane edges in arrays of a few thousand ids."""
    usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(rng_module, "FILL_BLOCK", 16)
    monkeypatch.setattr(rng_module, "SPLIT_MIN", 64)
    monkeypatch.setattr(rng_module, "SPLIT_SORT_MIN", 64)


def wide_ids(m, width):
    ids = np.sort(np.random.default_rng(m).choice(2**width, m, replace=False)).astype(np.int64)
    ids[-1] = 2**width - 1
    return ids


def test_a_tie_run_across_the_lane_edge_keeps_the_lexsort_order(monkeypatch, small_lanes):
    # 50-bit ids leave a key 14 draw bits: in 3,000 keys, runs of tied keys are common. The block is chosen so
    # that the lanes meet inside such a run: the pair across the edge is found before the lanes mask their keys.
    m, seed, key = 3000, 11, StreamKey(5, 0, "perm")
    ids, draws = wide_ids(m, 50), stream_fill(seed, key, m)
    tied = set(np.flatnonzero(np.diff(np.sort(draws >> np.uint64(50))) == 0).tolist())  # sorted key i ties i + 1
    for block in range(5, 400):
        monkeypatch.setattr(rng_module, "FILL_BLOCK", block)
        edge = rng_module._lane_edge(m, 64)
        if edge - 1 in tied and (edge - 2 in tied or edge in tied):  # a run of 3 or more keys across the edge
            break
    else:
        pytest.fail("no block puts the lane edge inside a tie run")
    expected = ids[np.lexsort((np.arange(m), draws >> np.uint64((m - 1).bit_length())))]
    made = counted_threads(monkeypatch)
    assert np.array_equal(permutation(seed, key, m, ids), expected)
    assert made.call_count == 4  # the fill, the key pass, the sort and the tie scan


def fails_off_the_main_thread(function):
    def lane(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("a lane failed in the worker")
        return function(*args, **kwargs)

    return lane


LANE_KINDS = {  # kind: (op, the module and name of a function only that kind's lanes call)
    "fill": (lambda: stream_fill(5, StreamKey(1, 0, "perm"), 3000), (rng_module, "_mix64_array")),
    "key_pass": (lambda: permutation(5, StreamKey(1, 0, "perm"), 3000, wide_ids(3000, 50)), (np, "greater")),
    "tie_scan": (lambda: permutation(5, StreamKey(1, 0, "perm"), 3000, wide_ids(3000, 50)), (np, "bitwise_xor")),
    "digest": (lambda: schedule_io.id_digest(np.arange(3001)), (zlib, "crc32")),
}


@pytest.mark.parametrize("kind", list(LANE_KINDS))
def test_a_lane_that_cannot_start_runs_on_the_caller(monkeypatch, small_lanes, kind):
    op, _ = LANE_KINDS[kind]
    usable_cpus(monkeypatch, 1)
    one = op()

    def refuse(self):
        raise RuntimeError("can't start new thread")

    usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert np.array_equal(op(), one)


@pytest.mark.parametrize("kind", list(LANE_KINDS))
def test_an_exception_in_a_lane_reaches_the_caller_after_the_worker_ends(monkeypatch, small_lanes, kind):
    op, (module, name) = LANE_KINDS[kind]
    monkeypatch.setattr(module, name, fails_off_the_main_thread(getattr(module, name)))
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="in the worker"):
        op()
    assert threading.active_count() == threads


def test_the_caller_lane_error_wins_and_waits_for_the_worker():
    ended = []

    def lower():
        raise ValueError("lower")

    def upper():
        threading.Event().wait(0.05)
        ended.append(True)
        raise KeyError("upper")

    with pytest.raises(ValueError, match="lower"):
        rng_module._two_lanes(lower, upper)
    assert ended == [True]


def test_lanes_under_fast_thread_switching_give_the_one_lane_results(monkeypatch, small_lanes):
    # Four callers, each starting its own lanes (eight threads on fewer cores), switching every 10 us: every lane
    # writes its own range of the shared key buffer and its own entry of the shared tie and crc32 tables.
    ids, key = wide_ids(3000, 50), StreamKey(2, 0, "perm")
    usable_cpus(monkeypatch, 1)
    expected = permutation(4, key, 3000, ids), schedule_io.id_digest(np.arange(3001) * 7)
    usable_cpus(monkeypatch, 2)
    results, interval = [], sys.getswitchinterval()

    def caller():
        for _ in range(5):
            results.append((permutation(4, key, 3000, ids), schedule_io.id_digest(np.arange(3001) * 7)))

    callers = [threading.Thread(target=caller) for _ in range(4)]
    sys.setswitchinterval(1e-5)
    try:
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers) and len(results) == 20
    assert all(np.array_equal(perm, expected[0]) and digest == expected[1] for perm, digest in results)
