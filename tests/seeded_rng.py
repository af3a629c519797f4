"""Test oracle: the scalar splitmix64 stream, one draw per call.

``batchforge.rng`` draws only through its vectorised functions
(``stream_fill``, ``stream_at``, ``choice_at``); ``test_rng.py`` checks
them draw for draw against this straight-line Python walk of one stream.
"""

from __future__ import annotations

from batchforge.core import BatchforgeError
from batchforge.rng import _GOLDEN, _MASK64, StreamKey, _mix64, stream_state


class SeededRng:
    """Scalar view of one stream; successive calls walk the counter."""

    def __init__(self, seed: int, key: StreamKey = StreamKey()):
        self.seed = seed & _MASK64
        self.key = key
        self._state = stream_state(seed, key.epoch, key.iteration, key.tag)
        self._count = 0

    def draw(self, k: int) -> int:
        """Draw ``k`` (from 1) of the stream; the walk does not move."""
        return _mix64((self._state + k * _GOLDEN) & _MASK64)

    def next_u64(self) -> int:
        self._count += 1
        return self.draw(self._count)

    def uniform(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def choice(self, set_size: int) -> int:
        """Uniform index in [0, set_size), by the same plain modulo reduction as ``choice_at``."""
        if set_size < 1:
            raise BatchforgeError("ZERO_SET_SIZE", "choice() requires set_size >= 1")
        return self.next_u64() % set_size
