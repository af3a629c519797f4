"""Sample-efficient training: the easy/hard sample state machine.

Each epoch every active sample gets one prediction record (was it
classified correctly, and with what confidence). A record is easy when it
is correct with confidence strictly above ``tau``. A sample whose last
``window`` records were all easy is removed from training. Removed samples
keep being evaluated forward-only; as soon as their latest evaluation is
not easy they rejoin the active set, with a fresh window so one lucky
epoch cannot re-remove them immediately.

Setting ``tau`` to 1.0 disables removal entirely (confidence never
exceeds 1), which makes the no-filtering baseline a special case rather
than a separate code path.

Optimizer updates and forward passes are tracked separately: filtering
cuts updates, but monitoring removed samples still costs forward passes.

Both rules read one small number per sample, so the state is three arrays
over sample ids ``0..N-1``, and recording a batch or ending an epoch is
whole-array logic with no Python work per sample:

- ``removed`` ``bool[N]``: the active/removed partition;
- ``recorded`` ``bool[N]``: the sample has a record this epoch;
- ``streak``: easy records in a row since the sample was last re-added,
  capped at ``window``; a record that is not easy sets it to 0.

At the end of epoch ``e``, once ``e >= start_epoch + window - 1``, active
samples with ``streak >= window`` are removed. Removed samples with
``streak == 0`` (their latest record was not easy) are re-added, and that
streak of 0 is their fresh window.

The checkpoint (schema version 2) is text JSON holding the settings, the
counters and the three arrays: ``removed`` and ``recorded`` as base64 of
``np.packbits``, ``streak`` as base64 of little-endian unsigned integers of
the smallest width that holds ``window``. Schema version 1 checkpoints
(per-sample histories) are rejected with ``BAD_SCHEMA``.

Errors are ``SetError`` with a code:

- ``UNKNOWN_SAMPLE``, ``CONFIDENCE_OUT_OF_RANGE``, ``LENGTH_MISMATCH``:
  a record names no tracked id, has a confidence outside [0, 1], or a batch
  whose id, correctness and confidence arrays differ in shape;
- ``DUPLICATE_RECORD``: a second record for one id in one epoch, whether
  across calls or twice in one batch;
- ``MISSING_RECORDS``: finalize_epoch with active samples left unrecorded;
- ``BAD_SCHEMA``, ``BAD_STATE``: a checkpoint of another schema version, or
  one that is malformed or inconsistent (not a JSON object, such as an
  empty or truncated file; a size, epoch or counter that is
  not an integer >= 0, an array that is not base64 of the right length, a
  streak above ``window`` or above the epochs recorded so far, a removed
  sample whose streak no run can produce);
- ``TAU_OUT_OF_RANGE``, ``NOT_INTEGER``, ``ZERO_WINDOW``,
  ``NEGATIVE_START``, ``ZERO_STRIDE``: an invalid ``SetConfig``; a
  checkpoint holding one raises ``BAD_STATE``.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from typing import IO

import numpy as np
from numpy.typing import ArrayLike

SCHEMA_VERSION = 2


class SetError(ValueError):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


@dataclass(frozen=True)
class SetConfig:
    """Filtering thresholds.

    start_epoch is the first epoch at which filtering may act; it
    defaults to ``window`` so no sample is judged before a full window
    of evidence exists. Removal at epoch e additionally requires
    e >= start_epoch + window - 1. reeval_stride controls how often
    removed samples are re-checked (1 = every epoch).
    """

    tau: float
    window: int
    start_epoch: int | None = None
    reeval_stride: int = 1

    def __post_init__(self):
        if not (0.0 <= self.tau <= 1.0):
            raise SetError("TAU_OUT_OF_RANGE", f"tau must be in [0, 1], got {self.tau}")
        if self.start_epoch is None:
            object.__setattr__(self, "start_epoch", self.window)
        for name in ("window", "start_epoch", "reeval_stride"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise SetError("NOT_INTEGER", f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.window < 1:
            raise SetError("ZERO_WINDOW", "window must be >= 1")
        if self.start_epoch < 0:
            raise SetError("NEGATIVE_START", "start_epoch must be >= 0")
        if self.reeval_stride < 1:
            raise SetError("ZERO_STRIDE", "reeval_stride must be >= 1")


@dataclass(frozen=True)
class EpochTransition:
    """What finalize_epoch decided."""

    epoch: int
    newly_removed: np.ndarray
    readded: np.ndarray
    active_count: int  # samples that trained this epoch
    active_next: int  # samples active for the next epoch
    forward_passes: int  # cumulative

    def __eq__(self, other) -> bool:
        if not isinstance(other, EpochTransition):
            return NotImplemented
        return (
            self.epoch == other.epoch
            and self.active_count == other.active_count
            and self.active_next == other.active_next
            and self.forward_passes == other.forward_passes
            and np.array_equal(self.newly_removed, other.newly_removed)
            and np.array_equal(self.readded, other.readded)
        )


def _decode(text: str, nbytes: int, name: str) -> np.ndarray:
    raw = base64.b64decode(text, validate=True)
    if len(raw) != nbytes:
        raise SetError("BAD_STATE", f"{name} holds {len(raw)} bytes, expected {nbytes}")
    return np.frombuffer(raw, dtype=np.uint8)


def _unpack_bits(text: str, n: int, name: str) -> np.ndarray:
    packed = _decode(text, (n + 7) // 8, name)
    if n % 8 and packed[-1] & (0xFF >> n % 8):
        raise SetError("BAD_STATE", f"{name} has bits set past sample {n - 1}")
    return np.unpackbits(packed, count=n).view(bool)


def _b64(array: np.ndarray) -> str:
    return base64.b64encode(array.tobytes()).decode("ascii")


class SetState:
    """The active/removed partition, this epoch's record bits and the easy streaks.

    Not internally locked: concurrent evaluation workers may call
    record_prediction only if calls are externally ordered per sample id,
    and finalize_epoch requires exclusive access.
    """

    def __init__(self, num_samples: int, config: SetConfig):
        self.config = config
        self.num_samples = num_samples
        self.epoch = 0
        self.removed = np.zeros(num_samples, dtype=bool)
        self.recorded = np.zeros(num_samples, dtype=bool)
        self.streak = np.zeros(num_samples, dtype=np.min_scalar_type(config.window))
        self.removed_count = 0
        self.readded_count = 0
        self.forward_passes = 0

    # -- recording ---------------------------------------------------

    def record_prediction(self, sample_id: int, correct: bool, confidence: float) -> None:
        self.record_batch([sample_id], [correct], [confidence])

    def record_batch(
        self, sample_ids: ArrayLike, correct: ArrayLike, confidence: ArrayLike
    ) -> None:
        """Record one batch; nothing is written unless the whole batch is valid."""
        ids = np.asarray(sample_ids)
        ok = np.asarray(correct, dtype=bool)
        conf = np.asarray(confidence, dtype=np.float64)
        if not (ids.ndim == 1 and ok.shape == ids.shape and conf.shape == ids.shape):
            raise SetError(
                "LENGTH_MISMATCH",
                f"ids, correct and confidence shapes differ: {ids.shape}, {ok.shape}, {conf.shape}",
            )
        if not len(ids):
            return
        if ids.dtype.kind not in "iu":
            raise SetError("UNKNOWN_SAMPLE", f"sample ids must be integers, got {ids.dtype}")
        unknown = (ids < 0) | (ids >= self.num_samples)
        if unknown.any():
            raise SetError("UNKNOWN_SAMPLE", f"sample {ids[unknown][0]} not tracked")
        in_range = (conf >= 0.0) & (conf <= 1.0)
        if not in_range.all():
            raise SetError(
                "CONFIDENCE_OUT_OF_RANGE", f"confidence {conf[~in_range][0]} outside [0, 1]"
            )
        ordered = np.sort(ids)
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        if len(repeated):
            raise SetError("DUPLICATE_RECORD", f"sample {repeated[0]} appears twice in one batch")
        again = self.recorded[ids]
        if again.any():
            raise SetError(
                "DUPLICATE_RECORD",
                f"sample {ids[again][0]} already has an epoch-{self.epoch} record",
            )
        streak = np.minimum(self.streak[ids], self.config.window - 1)
        streak += 1
        streak *= ok & (conf > self.config.tau)  # a record that is not easy resets to 0
        self.streak[ids] = streak
        self.recorded[ids] = True
        self.forward_passes += len(ids)

    # -- queries -----------------------------------------------------

    def active_samples(self) -> np.ndarray:
        """Sorted ids currently in the training set."""
        return np.flatnonzero(~self.removed)

    def removed_samples(self) -> np.ndarray:
        return np.flatnonzero(self.removed)

    def reevaluation_plan(self) -> np.ndarray:
        """Removed ids due a forward-only evaluation this epoch."""
        if self.epoch % self.config.reeval_stride != 0:
            return np.empty(0, dtype=np.int64)
        return self.removed_samples()

    # -- epoch transition ----------------------------------------------

    def finalize_epoch(self) -> EpochTransition:
        """Apply the removal/re-add rules and advance to the next epoch."""
        cfg = self.config
        epoch = self.epoch
        active = ~self.removed
        missing = np.flatnonzero(active & ~self.recorded)
        if len(missing):
            shown = ", ".join(str(i) for i in missing[:10])
            more = f" (+{len(missing) - 10} more)" if len(missing) > 10 else ""
            raise SetError(
                "MISSING_RECORDS", f"active samples without epoch-{epoch} records: {shown}{more}"
            )
        if epoch >= cfg.start_epoch + cfg.window - 1:
            newly_removed = np.flatnonzero(active & (self.streak >= cfg.window))
        else:
            newly_removed = np.empty(0, dtype=np.int64)
        readded = np.flatnonzero(self.removed & (self.streak == 0))
        active_now = int(np.count_nonzero(active))
        self.removed[newly_removed] = True
        self.removed[readded] = False  # their streak of 0 is the fresh window
        self.recorded[:] = False
        self.removed_count += len(newly_removed)
        self.readded_count += len(readded)
        self.epoch += 1
        return EpochTransition(
            epoch=epoch,
            newly_removed=newly_removed,
            readded=readded,
            active_count=active_now,
            active_next=active_now - len(newly_removed) + len(readded),
            forward_passes=self.forward_passes,
        )

    # -- serialization -------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "set_state",
            "epoch": self.epoch,
            "num_samples": self.num_samples,
            "config": {
                "tau": self.config.tau,
                "window": self.config.window,
                "start_epoch": self.config.start_epoch,
                "reeval_stride": self.config.reeval_stride,
            },
            "counters": {
                "removed_count": self.removed_count,
                "readded_count": self.readded_count,
                "forward_passes": self.forward_passes,
            },
            "removed": _b64(np.packbits(self.removed)),
            "recorded": _b64(np.packbits(self.recorded)),
            "streak": _b64(self.streak.astype(self.streak.dtype.newbyteorder("<"), copy=False)),
        }

    def dump(self, fp: IO[str]) -> None:
        fp.write(json.dumps(self.to_payload(), separators=(",", ":")))

    @classmethod
    def from_payload(cls, payload: dict) -> "SetState":
        try:
            version = payload.get("schema_version")
            if version != SCHEMA_VERSION:
                raise SetError("BAD_SCHEMA", f"unsupported set_state schema_version {version!r}")
            cfg = payload["config"]
            counters = payload["counters"]
            counts = [payload["num_samples"], payload["epoch"]] + [
                counters[key] for key in ("removed_count", "readded_count", "forward_passes")
            ]
            if not all(type(c) is int and c >= 0 for c in counts):
                raise SetError(
                    "BAD_STATE", f"num_samples, epoch and counters must be integers >= 0: {counts}"
                )
            try:
                config = SetConfig(
                    tau=cfg["tau"],
                    window=cfg["window"],
                    start_epoch=cfg["start_epoch"],
                    reeval_stride=cfg["reeval_stride"],
                )
            except SetError as exc:
                raise SetError("BAD_STATE", f"invalid filter settings: {exc}") from exc
            state = cls(payload["num_samples"], config)
            state.epoch = payload["epoch"]
            state.removed_count = counters["removed_count"]
            state.readded_count = counters["readded_count"]
            state.forward_passes = counters["forward_passes"]
            n, streak = state.num_samples, state.streak
            state.removed[:] = _unpack_bits(payload["removed"], n, "removed")
            state.recorded[:] = _unpack_bits(payload["recorded"], n, "recorded")
            raw = _decode(payload["streak"], n * streak.itemsize, "streak")
            streak[:] = raw.view(streak.dtype.newbyteorder("<"))
        except SetError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:  # AttributeError: not an object
            raise SetError("BAD_STATE", f"malformed set_state payload: {exc!r}") from exc
        state._check_reachable()
        return state

    def _check_reachable(self) -> None:
        """Reject arrays that no sequence of records and epoch ends produces."""
        window, streak = self.config.window, self.streak
        # One record per epoch: the epochs so far, plus this one if recorded.
        if (streak > np.minimum(window, min(self.epoch, window) + self.recorded)).any():
            raise SetError("BAD_STATE", f"a streak exceeds the window {window} or the epochs so far")
        # Removal needs a full streak, and a not-easy record re-adds at the epoch's end.
        odd = self.removed & (streak != window) & ~(self.recorded & (streak == 0))
        if odd.any():
            sid = int(np.flatnonzero(odd)[0])
            raise SetError(
                "BAD_STATE",
                f"removed sample {sid} has streak {streak[sid]}, not {window} "
                "(or 0 after a not-easy record this epoch)",
            )

    @classmethod
    def load(cls, fp: IO[str]) -> "SetState":
        try:
            payload = json.load(fp)
        except ValueError as exc:  # an empty or truncated file, or bytes that are not text
            raise SetError("BAD_STATE", f"not a JSON document: {exc}") from None
        return cls.from_payload(payload)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SetState):
            return NotImplemented
        return self.to_payload() == other.to_payload()
