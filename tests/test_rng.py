import numpy as np
import pytest

import batchforge.rng as rng_module
from batchforge.rng import (
    MAX_PERMUTATION_SIZE,
    RngError,
    SeededRng,
    StreamKey,
    choice_at,
    derive_seed,
    permutation,
    stream_at,
    stream_fill,
    tag_hash,
)

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


def test_choice_single_element():
    assert SeededRng(0).choice(1) == 0


def test_choice_deterministic():
    key = StreamKey(0, 0, "res")
    first = SeededRng(42, key).choice(5)
    assert all(SeededRng(42, key).choice(5) == first for _ in range(5))


def test_choice_rejects_empty_set():
    with pytest.raises(RngError) as err:
        SeededRng(0).choice(0)
    assert err.value.code == "ZERO_SET_SIZE"
    with pytest.raises(RngError):
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
    with pytest.raises(RngError) as err:
        permutation(0, StreamKey(), MAX_PERMUTATION_SIZE + 1)
    assert err.value.code == "PERMUTATION_TOO_LARGE"


def test_stream_at_leaves_its_input_unchanged():
    iters = np.arange(16, dtype=np.uint64)
    stream_at(3, 1, iters, "res")
    assert np.array_equal(iters, np.arange(16, dtype=np.uint64))


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
