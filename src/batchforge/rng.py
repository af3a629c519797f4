"""Deterministic counter-based random streams.

Every random decision in this package is drawn from a stream addressed by
``(seed, epoch, iteration, purpose)``. A stream is a pure function of its
address, so draws are order-independent: rank 7 regenerating iteration 531
of epoch 12 sees exactly the numbers rank 0 saw, with no shared state and
no synchronisation.

The generator is splitmix64: a 64-bit counter advanced by a fixed odd
increment, pushed through an avalanching finalizer. Plain integer
arithmetic, fixed constants, no platform dependence. The scalar path
(:class:`SeededRng`) and the vectorised path (:func:`stream_fill`,
:func:`stream_at`) evaluate the same function and are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# Largest n :func:`permutation` accepts; see its docstring for why.
MAX_PERMUTATION_SIZE = 1 << 24


class RngError(ValueError):
    """Raised for invalid draw requests (e.g. ZERO_SET_SIZE)."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


def _mix64(x: int) -> int:
    """splitmix64 finalizer on a Python int."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX_A) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX_B) & _MASK64
    return x ^ (x >> 31)


def _mix64_array(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array (wrapping multiply).

    Mixes ``x`` in place and returns it; callers pass arrays they own.
    """
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX_A)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX_B)
    x ^= x >> np.uint64(31)
    return x


def tag_hash(tag: str) -> int:
    """FNV-1a hash of a purpose tag, fixed across platforms."""
    h = _FNV_OFFSET
    for byte in tag.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def stream_state(seed: int, epoch: int, iteration: int, tag: str) -> int:
    """Derive the base state of the stream addressed by the key tuple."""
    h = _mix64(seed & _MASK64)
    h = _mix64(h ^ tag_hash(tag))
    h = _mix64(h ^ (epoch & _MASK64))
    h = _mix64(h ^ (iteration & _MASK64))
    return h


@dataclass(frozen=True)
class StreamKey:
    """Address of one random stream."""

    epoch: int = 0
    iteration: int = 0
    tag: str = ""


class SeededRng:
    """Scalar view of one stream; successive calls walk the counter."""

    def __init__(self, seed: int, key: StreamKey = StreamKey()):
        self.seed = seed & _MASK64
        self.key = key
        self._state = stream_state(seed, key.epoch, key.iteration, key.tag)
        self._count = 0

    def next_u64(self) -> int:
        self._count += 1
        return _mix64((self._state + self._count * _GOLDEN) & _MASK64)

    def uniform(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def choice(self, set_size: int) -> int:
        """Uniform index in [0, set_size).

        Uses a plain modulo reduction; for any set size below 2^20 the
        bias is under 2^-44 and unobservable. Kept identical to the
        vectorised path so scalar and array draws agree bit-for-bit.
        """
        if set_size < 1:
            raise RngError("ZERO_SET_SIZE", "choice() requires set_size >= 1")
        return self.next_u64() % set_size


def stream_fill(seed: int, key: StreamKey, count: int) -> np.ndarray:
    """First ``count`` draws of one stream as a uint64 array.

    Equals ``count`` successive ``SeededRng(seed, key).next_u64()`` calls.
    """
    state = stream_state(seed, key.epoch, key.iteration, key.tag)
    counters = np.arange(1, count + 1, dtype=np.uint64)
    counters *= np.uint64(_GOLDEN)
    counters += np.uint64(state)
    return _mix64_array(counters)


def stream_at(seed: int, epoch: int, iterations: np.ndarray, tag: str) -> np.ndarray:
    """Draw #0 of the stream (epoch, t, tag) for every t in ``iterations``.

    This is the vectorised form of per-iteration draws: one independent
    stream per iteration, first value of each.
    """
    h = _mix64(seed & _MASK64)
    h = _mix64(h ^ tag_hash(tag))
    h = _mix64(h ^ (epoch & _MASK64))
    states = _mix64_array(np.uint64(h) ^ np.asarray(iterations, dtype=np.uint64))
    states += np.uint64(_GOLDEN)
    return _mix64_array(states)


def choice_at(seed: int, epoch: int, iterations: np.ndarray, tag: str, set_size: int) -> np.ndarray:
    """Vectorised ``choice``: one uniform index per iteration key."""
    if set_size < 1:
        raise RngError("ZERO_SET_SIZE", "choice requires set_size >= 1")
    return (stream_at(seed, epoch, iterations, tag) % np.uint64(set_size)).astype(np.int64)


def permutation(seed: int, key: StreamKey, n: int) -> np.ndarray:
    """Deterministic uniform permutation of [0, n) for the given stream.

    Orders the indices by their stream draws through one sort of composite
    keys: with ``b = max(1, (n - 1).bit_length())``, each draw keeps its top
    ``64 - b`` bits and takes the index in its low ``b`` bits. The keys are
    unique, so any sort order is deterministic, and the result is exactly
    ``np.lexsort((np.arange(n), draws >> b))``: two indices whose draws share
    their top ``64 - b`` bits keep index order, whatever their low bits.

    Only ``64 - b`` random bits decide the order, so ties grow with n (about
    n**3 / 2**65 tied pairs are expected); ``n`` is capped at
    ``MAX_PERMUTATION_SIZE`` (2**24, 128 expected tied pairs) and larger
    requests raise ``PERMUTATION_TOO_LARGE``.
    """
    if n > MAX_PERMUTATION_SIZE:
        raise RngError(
            "PERMUTATION_TOO_LARGE",
            f"permutation of {n} ids exceeds the {MAX_PERMUTATION_SIZE} supported",
        )
    low = np.uint64((1 << max(1, (int(n) - 1).bit_length())) - 1)
    keys = stream_fill(seed, key, n)
    keys &= ~low
    keys |= np.arange(n, dtype=np.uint64)
    keys.sort()
    keys &= low
    return keys.view(np.int64)


def derive_seed(seed: int, index: int) -> int:
    """Child seed for independent trials/streams."""
    return _mix64(_mix64(seed & _MASK64) ^ (index & _MASK64))
