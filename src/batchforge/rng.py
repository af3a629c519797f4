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

Id-sized passes run as two lanes where the process may run on two or more
CPUs: a fresh thread takes the upper lane while the caller takes the lower
one (numpy's loops, ``ndarray.sort`` and ``zlib.crc32`` release the GIL),
and the caller returns once both have ended. From ``SPLIT_MIN`` ids up, the
lanes of :func:`stream_fill`'s blocks, of :func:`permutation`'s key pass
and tie scan, and of :func:`~batchforge.schedule_io.id_digest`'s crc32 meet
at the first ``FILL_BLOCK`` edge past ``n / 2`` (:func:`_lane_edge`), so
the caller's lane is the longer one. From ``SPLIT_SORT_MIN`` keys up, one
in-place partition at that edge leaves each lane holding exactly the keys
of its rank range (the keys are unique), and each lane sorts its own. Every
lane computes what the one pass would over its range, so the result is the
same bit for bit on one CPU or two; on one CPU, or below the thresholds,
each pass runs once on the caller. A fresh thread per lane, not a pool,
keeps a forked child able to plan.

:func:`stream_at` keys a 2-D grid of streams, epochs by iterations, whose
first finalizer input is ``H ^ t``: ``H`` one epoch's mixed head, ``t`` the
iteration. A shift distributes over xor, so that finalizer's first step
``x ^ (x >> 30)`` is ``(H ^ (H >> 30)) ^ (t ^ (t >> 30))``, exact for every
input: it runs on the two 1-D factors before they are broadcast, and the
grid takes the remaining steps in place through one scratch buffer.

An invalid draw request raises :class:`~batchforge.core.BatchforgeError`
with a code: ``BAD_SIZE``, ``ZERO_SET_SIZE``, ``PERMUTATION_TOO_LARGE`` or
``BAD_IDS`` (a permutation's ids that are not a 1-D int64 array strictly
increasing from 0 or more).
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .core import MAX_PERMUTATION_SIZE, BatchforgeError, check_integer

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# Draws per block of :func:`stream_fill` and :func:`permutation`: a block's
# uint64 arrays (256 KiB each) stay in L2 through all their passes.
FILL_BLOCK = 1 << 15

# Sizes from which a pass runs as two lanes on two threads (module docstring): where two lanes, a thread start
# included, beat one pass on a 2-vCPU host (minimum of 80 timings, each after 5 ms idle). The sort pays from
# 2**17 keys: 1.08 against 0.84 ms, and 10.7 against 7.1 ms for ImageNet's 1,281,167 keys. The linear passes
# cost 1-3 ns an id and pay later: the fill and the crc32 from about 2**19, the key pass and the tie scan from
# about 800k (medians at 700k: 0.97 -> 1.18 and 1.77 -> 2.09 ms; at 900k: 0.92 -> 0.86 and 2.39 -> 2.23), so
# one threshold, 3 * 2**18, serves all four. At ImageNet's 1,281,167 ids: fill 3.9 -> 2.5, key pass
# 1.2 -> 1.0, tie scan 3.6 -> 3.1, crc32 2.6 -> 1.8 ms. ``train``'s plans (10k ids) run every pass once.
SPLIT_SORT_MIN = 1 << 17
SPLIT_MIN = 3 << 18


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
    draws are made ``FILL_BLOCK`` at a time, straight into the output, so
    each block's counters and shifts stay in cache; the blocks run as two
    lanes (module docstring).
    """
    count = check_integer(count, "count", "BAD_SIZE", below=1 << 64)
    state = stream_state(seed, key.epoch, key.iteration, key.tag)
    draws = np.empty(count, dtype=np.uint64)
    block = FILL_BLOCK
    steps = np.arange(1, min(count, block) + 1, dtype=np.uint64)  # k * golden for k = 1 .. block
    steps *= np.uint64(_GOLDEN)

    def fill(start: int, stop: int) -> None:
        scratch = np.empty(min(stop - start, block), dtype=np.uint64)  # one per lane
        for lo in range(start, stop, block):
            out = draws[lo : min(lo + block, stop)]
            np.add(steps[: len(out)], np.uint64((state + lo * _GOLDEN) & _MASK64), out=out)
            _mix64_array(out, scratch[: len(out)])

    _over_lanes(fill, count, _lane_edge(count, SPLIT_MIN))
    return draws


def _grid_draws(seed: int, epoch, iterations: np.ndarray, tag: str, out=None, scratch=None) -> tuple[np.ndarray, np.ndarray]:
    """:func:`stream_at`'s draws, in ``out`` when given, and the scratch buffer both finalizers used, ``scratch`` when given."""
    head = _mix64(_mix64(seed & _MASK64) ^ tag_hash(tag))
    heads = np.asarray(epoch).astype(np.uint64)  # a copy we own; negative epochs wrap like ``& _MASK64``
    heads ^= np.uint64(head)
    _mix64_array(heads)
    heads ^= heads >> np.uint64(30)
    steps = np.asarray(iterations, dtype=np.uint64)
    steps = steps ^ (steps >> np.uint64(30))  # a new array: the caller's iterations stay unchanged
    states = np.bitwise_xor(heads[..., None], steps, out=out)
    scratch = np.empty_like(states) if scratch is None else scratch
    _mix64_tail(states, scratch)
    states += np.uint64(_GOLDEN)
    return _mix64_array(states, scratch), scratch


def stream_at(seed: int, epoch, iterations: np.ndarray, tag: str) -> np.ndarray:
    """Draw #0 of the stream (epoch, t, tag) for every t in ``iterations``.

    This is the vectorised form of per-iteration draws: one independent
    stream per iteration, first value of each. ``epoch`` is one epoch, or a
    1-D array of epochs for one row of draws per epoch. The grid is built
    once (module docstring).
    """
    return _grid_draws(seed, epoch, iterations, tag)[0]


def choice_at(seed: int, epoch, iterations: np.ndarray, tag: str, set_size: int, out=None, scratch=None) -> np.ndarray:
    """One uniform index in [0, set_size) per key: draw #0 of :func:`stream_at` modulo ``set_size``.

    The modulo is exact: each draw ``d`` becomes ``d - (d // k) * k`` for
    ``k = set_size``, in place (numpy divides by the scalar without a
    hardware divide per element), and the result is the draws' int64 view (an
    index of 2**63 or more, possible only for such set sizes, reads negative
    as in any int64 cast). The quotient goes into the scratch buffer the
    hash's finalizers already used, so a call holds two grid-sized uint64
    arrays, the draws and that scratch, and allocates no third. A caller
    that draws grid after grid passes both: ``out`` receives the draws (the
    result is its int64 view) and ``scratch`` is the hash's, each a uint64
    array of the grid's shape; either left out is made. The plain modulo
    reduction is biased by under 2**-44 for any set size below 2**20, which
    is unobservable.

    ``set_size`` must be an integer: below 1 raises ``ZERO_SET_SIZE``, and
    2**64 or more, or a non-integer such as 2.5 or True, raises ``BAD_SIZE``.
    """
    k = np.uint64(check_integer(set_size, "set_size", "BAD_SIZE", least=1, below=1 << 64, low_code="ZERO_SET_SIZE"))
    draws, quotients = _grid_draws(seed, epoch, iterations, tag, out, scratch)
    np.floor_divide(draws, k, out=quotients)
    quotients *= k
    draws -= quotients
    return draws.view(np.int64)


def permutation(seed: int, key: StreamKey, n: int, ids: np.ndarray | None = None) -> np.ndarray:
    """Deterministic uniform permutation of ``ids`` for the given stream.

    ``ids`` are the increasing non-negative ids that the ``n`` positions
    stand for, an int64 array of length ``n``; by default the positions
    themselves, [0, n). The result orders them exactly as
    ``ids[np.lexsort((np.arange(n), draws >> b))]`` with
    ``b = max(1, (n - 1).bit_length())`` and ``draws`` the stream's first
    ``n`` draws: only the top ``64 - b`` bits of a draw decide, and two
    positions whose draws share them keep position order.

    One sort of composite keys makes the order: with ``B = max(b,
    bit_length(max id))``, each draw keeps its top ``64 - B`` bits and takes
    its id in the low ``B`` bits. The keys are unique, so the sort is
    deterministic, and masked they are the permuted ids: no index array, no
    gather. Where ``B > b``, keys equal above bit ``B`` (a tie) may still
    differ in draw bits ``[b, B)``. The pass that masks the keys finds each
    run of tied keys by a xor of adjacent ones, and the run is re-ordered by
    ``(draw >> b, position)`` from its own draws, a position being
    ``searchsorted(ids, id)``. About ``n**2 / 2**(65 - B)`` tied pairs are
    expected: 0.05 at 70 % of ImageNet (B = b + 1).

    Only ``64 - b`` random bits decide the order, so draw ties grow with n
    (about n**3 / 2**65 tied pairs are expected); ``n`` is capped at
    ``MAX_PERMUTATION_SIZE`` (2**24, 128 expected tied pairs) and larger
    requests raise ``PERMUTATION_TOO_LARGE``; ``ids`` of another length
    raise ``BAD_SIZE``. ``ids`` that are not a 1-D int64 array strictly
    increasing from 0 or more raise ``BAD_IDS``; their order is checked in
    the pass that builds the keys. The keys are built and masked
    ``FILL_BLOCK`` at a time, so the sort is the only pass that needs more
    than the key array. The key pass, the sort and the tie scan run as two
    lanes (module docstring).
    """
    n = check_integer(n, "n", "BAD_SIZE", below=1 << 64)
    if n > MAX_PERMUTATION_SIZE:
        raise BatchforgeError(
            "PERMUTATION_TOO_LARGE",
            f"permutation of {n} ids exceeds the {MAX_PERMUTATION_SIZE} supported",
        )
    if ids is not None:
        if not isinstance(ids, np.ndarray) or ids.ndim != 1 or ids.dtype != np.int64:
            shape = f"{ids.dtype} array of shape {ids.shape}" if isinstance(ids, np.ndarray) else type(ids).__name__
            raise BatchforgeError("BAD_IDS", f"ids must be a 1-D int64 array, got {shape}")
        if len(ids) != n:
            raise BatchforgeError("BAD_SIZE", f"a permutation of {n} positions needs {n} ids, got {len(ids)}")
        if n and ids[0] < 0:
            raise BatchforgeError("BAD_IDS", f"ids must be 0 or more, got {ids[0]}")
    b = max(1, (n - 1).bit_length())
    width = max(b, int(ids[-1]).bit_length()) if ids is not None and n else b
    low = np.uint64((1 << width) - 1)
    keys = stream_fill(seed, key, n)
    block, high = FILL_BLOCK, ~low
    edge, sort_edge = _lane_edge(n, SPLIT_MIN), _lane_edge(n, SPLIT_SORT_MIN)  # the key passes' lanes, the sort's

    def build(start: int, stop: int) -> None:  # the draws' top bits and the ids, whose order is checked
        index = np.arange(start, start + min(stop - start, block), dtype=np.uint64) if ids is None else None
        rising = np.empty(min(stop - start, block), dtype=bool) if ids is not None else None
        for lo in range(start, stop, block):
            out = keys[lo : min(lo + block, stop)]
            out &= high
            if ids is None:
                out |= index[: len(out)]
                index += np.uint64(block)
            else:  # after's last id is the next block's first, the upper lane's first at the lower lane's end
                part, after = ids[lo : lo + len(out)], ids[lo + 1 : lo + len(out) + 1]
                if not np.greater(after, part[: len(after)], out=rising[: len(after)]).all():
                    at = lo + int(np.argmin(rising[: len(after)]))
                    raise BatchforgeError("BAD_IDS", f"ids must strictly increase; id {ids[at + 1]} follows {ids[at]}")
                out |= part.view(np.uint64)

    def sort(start: int, stop: int) -> None:  # a lane's keys are exactly those of its rank range
        keys[start:stop].sort()
        if width == b:  # the id bits are the index bits: a draw tie already keeps position order
            keys[start:stop] &= low

    _over_lanes(build, n, edge)
    if sort_edge:
        keys.partition(sort_edge)
    _over_lanes(sort, n, sort_edge)
    if width == b:
        return keys.view(np.int64)
    # each lane's tied pairs; the pair across the lane edge is taken before the lanes mask its keys
    ties = {0: [], edge: [edge - 1] if edge and keys[edge - 1] ^ keys[edge] <= low else []}

    def scan(start: int, stop: int) -> None:
        scratch = np.empty(min(stop - start, block), dtype=np.uint64)
        for lo in range(start, stop, block):
            out = keys[lo : min(lo + block, stop)]
            after = keys[lo + 1 : min(lo + block + 1, stop)]  # its last key is the lane's next block's first, unmasked
            step = np.bitwise_xor(out[: len(after)], after, out=scratch[: len(after)])
            if len(step) and step.min() <= low:  # equal above bit B
                ties[start].extend((np.flatnonzero(step <= low) + lo).tolist())
            out &= low

    _over_lanes(scan, n, edge)
    pairs = sum(ties.values(), [])
    if pairs:
        _order_ties(keys, pairs, ids, b, stream_state(seed, key.epoch, key.iteration, key.tag))
    return keys.view(np.int64)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _lane_edge(n: int, least: int) -> int:
    """Where a pass over ``n`` items splits into two lanes from ``least`` items up, or 0 for one lane (module docstring)."""
    if n < least or _usable_cpus() < 2:
        return 0
    edge = -(-n // (2 * FILL_BLOCK)) * FILL_BLOCK
    return edge if edge < n else n // 2


def _over_lanes(run, n: int, edge: int) -> None:
    """``run(start, stop)`` over ``[0, n)``: once on the caller when ``edge`` is 0, else as the lanes
    ``[0, edge)`` and ``[edge, n)`` of :func:`_two_lanes`."""
    if edge:
        _two_lanes(lambda: run(0, edge), lambda: run(edge, n))
    else:
        run(0, n)


def _two_lanes(lower, upper) -> None:
    """Run ``upper()`` on a fresh thread and ``lower()`` on the caller, and return when both have ended.

    Where no thread can be started, the caller runs both. An exception re-raises here only once the worker
    has ended; when both lanes raise, the caller's (``lower``'s) exception wins.
    """
    errors = []

    def run_upper() -> None:
        try:
            upper()
        except BaseException as exc:  # re-raised in the caller below
            errors.append(exc)

    worker = threading.Thread(target=run_upper, name="batchforge-lane")
    try:
        worker.start()
    except RuntimeError:  # a thread or pid limit: the caller runs both lanes
        run_upper()
    try:
        lower()
    finally:
        if worker.ident is not None:  # it started
            worker.join()
    if errors:
        raise errors[0]


def _order_ties(ids_out: np.ndarray, pairs: list[int], ids: np.ndarray, b: int, state: int) -> None:
    """Re-order each run of tied ids in ``ids_out`` by ``(draw >> b, position)``.

    ``pairs`` are the increasing ``i`` whose ids ``i`` and ``i + 1`` tied;
    consecutive ones chain into one run. Each run recomputes only its own
    draws, by :func:`stream_fill`'s formula at the ids' positions in ``ids``;
    as ids increase with position, position order is id order. A run holds a
    few ids, so this is plain Python: no numpy call that planning makes
    nowhere else, whose first use would fault in code pages.
    """
    runs: list[list[int]] = []
    for i in pairs:
        if runs and runs[-1][1] == i + 1:  # pair i starts at the run's last id
            runs[-1][1] = i + 2
        else:
            runs.append([i, i + 2])
    for start, stop in runs:
        ranked = sorted((_mix64(state + (bisect_left(ids, i) + 1) * _GOLDEN) >> b, i) for i in ids_out[start:stop].tolist())
        ids_out[start:stop] = [i for _, i in ranked]


def derive_seed(seed: int, index: int) -> int:
    """Child seed for independent trials/streams."""
    return _mix64(_mix64(seed & _MASK64) ^ (index & _MASK64))
