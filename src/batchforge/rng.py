"""Deterministic counter-based random streams.

Every random decision in this package is drawn from a stream addressed by
``(seed, epoch, iteration, purpose)``. A stream is a pure function of its
address, so draws are order-independent: rank 7 regenerating iteration 531
of epoch 12 sees exactly the numbers rank 0 saw, with no shared state and
no synchronisation.

The generator is splitmix64: a 64-bit counter advanced by a fixed odd
increment, pushed through an avalanching finalizer. Plain integer
arithmetic, fixed constants, no platform dependence. Draws are made over
numpy arrays (:func:`stream_fill`, :func:`stream_at`); the key's base
state (:func:`stream_state`) is plain Python integer arithmetic.

:func:`stream_fill` fills its output ``FILL_BLOCK`` draws at a time, and
:func:`permutation` builds its sort keys over the same blocks, so neither
makes a temporary the size of its output: each block's counters, shifts
and indices stay in cache. The blocking does not change a single draw.

:func:`stream_at` keys a 2-D grid of streams, epochs by iterations, whose
first finalizer input is ``H ^ t``: ``H`` one epoch's mixed head, ``t`` the
iteration. A shift distributes over xor, so that finalizer's first step
``x ^ (x >> 30)`` is ``(H ^ (H >> 30)) ^ (t ^ (t >> 30))``, exact for every
input: it runs on the two 1-D factors before they are broadcast, and the
grid takes the remaining steps in place through one scratch buffer.
:func:`choice_at` reduces each draw ``d`` to ``d - (d // k) * k``, the
plain modulo by ``set_size`` ``k``, where numpy divides by the scalar
without a hardware divide per element.
"""

from __future__ import annotations

import operator
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

# Draws per block of :func:`stream_fill` and :func:`permutation`: a block's
# uint64 arrays (256 KiB each) stay in L2 through all their passes.
FILL_BLOCK = 1 << 15


class RngError(ValueError):
    """Raised for invalid draw requests (e.g. ZERO_SET_SIZE, BAD_SIZE)."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


def _mix64(x: int) -> int:
    """splitmix64 finalizer on a Python int."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX_A) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX_B) & _MASK64
    return x ^ (x >> 31)


def _mix64_array(x: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array (wrapping multiply).

    Mixes ``x`` in place and returns it; callers pass arrays they own. The
    shifts go into ``scratch``, a uint64 array of ``x``'s shape (one is made
    when none is given).
    """
    if scratch is None:
        scratch = np.empty_like(x)
    x ^= np.right_shift(x, np.uint64(30), out=scratch)
    return _mix64_tail(x, scratch)


def _mix64_tail(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """:func:`_mix64_array` after its first ``x ^= x >> 30``, in place on ``x``."""
    x *= np.uint64(_MIX_A)
    x ^= np.right_shift(x, np.uint64(27), out=scratch)
    x *= np.uint64(_MIX_B)
    x ^= np.right_shift(x, np.uint64(31), out=scratch)
    return x


def _size(count, what: str, least: int = 0, below: str = "BAD_SIZE") -> int:
    """``count`` as a Python int in [least, 2**64).

    An integer under ``least`` raises ``below``; anything else out of range,
    or not an integer at all, raises ``BAD_SIZE``.
    """
    try:
        size = operator.index(count)
    except TypeError:
        raise RngError("BAD_SIZE", f"{what} must be an integer, got {count!r}") from None
    if size < least:
        raise RngError(below, f"{what} must be >= {least}, got {size}")
    if size > _MASK64:
        raise RngError("BAD_SIZE", f"{what} must be below 2**64, got {size}")
    return size


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


def stream_fill(seed: int, key: StreamKey, count: int) -> np.ndarray:
    """First ``count`` draws of one stream as a uint64 array.

    Draw ``k`` (from 1) is the splitmix64 finalizer of the stream's base
    state plus ``k`` times the golden-ratio increment, modulo 2**64. The
    draws are made ``FILL_BLOCK`` at a time, straight into the output.
    """
    count = _size(count, "count")
    state = stream_state(seed, key.epoch, key.iteration, key.tag)
    draws = np.empty(count, dtype=np.uint64)
    block = FILL_BLOCK
    steps = np.arange(1, min(count, block) + 1, dtype=np.uint64)  # k * golden for k = 1 .. block
    steps *= np.uint64(_GOLDEN)
    scratch = np.empty_like(steps)
    for lo in range(0, count, block):
        out = draws[lo : lo + block]
        np.add(steps[: len(out)], np.uint64((state + lo * _GOLDEN) & _MASK64), out=out)
        _mix64_array(out, scratch[: len(out)])
    return draws


def stream_at(seed: int, epoch, iterations: np.ndarray, tag: str) -> np.ndarray:
    """Draw #0 of the stream (epoch, t, tag) for every t in ``iterations``.

    This is the vectorised form of per-iteration draws: one independent
    stream per iteration, first value of each. ``epoch`` is one epoch, or a
    1-D array of epochs for one row of draws per epoch. The first shift of
    the state finalizer runs on the 1-D heads and iterations before they
    are broadcast (see the module docstring); the grid is built once and
    both of its finalizers share one scratch buffer.
    """
    head = _mix64(_mix64(seed & _MASK64) ^ tag_hash(tag))
    heads = np.asarray(epoch).astype(np.uint64)  # a copy we own; negative epochs wrap like ``& _MASK64``
    heads ^= np.uint64(head)
    _mix64_array(heads)
    heads ^= heads >> np.uint64(30)
    steps = np.asarray(iterations, dtype=np.uint64)
    steps = steps ^ (steps >> np.uint64(30))  # a new array: the caller's iterations stay unchanged
    states = np.bitwise_xor(heads[..., None], steps)
    scratch = np.empty_like(states)
    _mix64_tail(states, scratch)
    states += np.uint64(_GOLDEN)
    return _mix64_array(states, scratch)


def choice_at(seed: int, epoch, iterations: np.ndarray, tag: str, set_size: int) -> np.ndarray:
    """One uniform index in [0, set_size) per key: draw #0 of :func:`stream_at` modulo ``set_size``.

    The modulo is exact: each draw ``d`` becomes ``d - (d // k) * k`` for
    ``k = set_size``, in place, and the result is the draws' int64 view (an
    index of 2**63 or more, possible only for such set sizes, reads negative
    as in any int64 cast). The plain modulo reduction is biased by under
    2**-44 for any set size below 2**20, which is unobservable.

    ``set_size`` must be an integer: below 1 raises ``ZERO_SET_SIZE``, and
    2**64 or more, or a non-integer such as 2.5, raises ``BAD_SIZE``.
    """
    k = np.uint64(_size(set_size, "set_size", least=1, below="ZERO_SET_SIZE"))
    draws = stream_at(seed, epoch, iterations, tag)
    quotients = np.floor_divide(draws, k)
    quotients *= k
    draws -= quotients
    return draws.view(np.int64)


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
    requests raise ``PERMUTATION_TOO_LARGE``. The keys are masked and given
    their index ``FILL_BLOCK`` at a time, so the sort is the only pass that
    needs more than the key array itself.
    """
    n = _size(n, "n")
    if n > MAX_PERMUTATION_SIZE:
        raise RngError(
            "PERMUTATION_TOO_LARGE",
            f"permutation of {n} ids exceeds the {MAX_PERMUTATION_SIZE} supported",
        )
    low = np.uint64((1 << max(1, (n - 1).bit_length())) - 1)
    keys = stream_fill(seed, key, n)
    block, high = FILL_BLOCK, ~low
    index = np.arange(min(n, block), dtype=np.uint64)
    for lo in range(0, n, block):
        out = keys[lo : lo + block]
        out &= high
        out |= index[: len(out)]
        index += np.uint64(block)
    keys.sort()
    keys &= low
    return keys.view(np.int64)


def derive_seed(seed: int, index: int) -> int:
    """Child seed for independent trials/streams."""
    return _mix64(_mix64(seed & _MASK64) ^ (index & _MASK64))
