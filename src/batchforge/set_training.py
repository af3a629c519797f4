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
counters and the three arrays, each packed by
:func:`~batchforge.core.pack_array`: ``removed`` and ``recorded`` as masks,
``streak`` as unsigned integers of the smallest width that holds
``window``. Schema version 1 checkpoints (per-sample histories) are
rejected with ``BAD_SCHEMA``.

Errors are ``BatchforgeError`` with a code:

- ``UNKNOWN_SAMPLE``, ``CONFIDENCE_OUT_OF_RANGE``, ``LENGTH_MISMATCH``:
  a record names no tracked id, has a confidence outside [0, 1], or a batch
  whose id, correctness and confidence arrays differ in shape;
- ``DUPLICATE_RECORD``: a second record for one id in one epoch, whether
  across calls or twice in one batch;
- ``MISSING_RECORDS``: finalize_epoch with active samples left unrecorded
  (:meth:`SetState.unrecorded_samples`);
- ``BAD_SCHEMA``, ``BAD_STATE``: a payload of another ``kind`` than
  ``set_state`` (a run report among them) or of another schema version, or
  one that is malformed or inconsistent (not a JSON object, such as an
  empty or truncated file; a size, epoch or counter that is not an
  integer in [0, 2**63), an array that :func:`~batchforge.core.unpack_array`
  rejects, a streak above ``window`` or above the epochs recorded so far, a
  removed sample whose streak no run can produce);
- ``TAU_OUT_OF_RANGE``, ``NOT_INTEGER``, ``ZERO_WINDOW``,
  ``NEGATIVE_START``, ``ZERO_STRIDE``: an invalid ``SetConfig``; a
  checkpoint holding one raises ``BAD_STATE``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import IO

import numpy as np
from numpy.typing import ArrayLike

from .core import BatchforgeError, check_integer, check_real, fields_equal, pack_array, unpack_array

SCHEMA_VERSION = 2
# What a checkpoint holds besides the settings and the epoch: the counters, and the arrays it packs.
_COUNTERS = ("removed_count", "readded_count", "forward_passes")
_ARRAYS = ("removed", "recorded", "streak")


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
        object.__setattr__(self, "tau", check_real(self.tau, "tau", "TAU_OUT_OF_RANGE", 0, 1))
        if self.start_epoch is None:
            object.__setattr__(self, "start_epoch", self.window)
        for name, least, low_code in (("window", 1, "ZERO_WINDOW"), ("start_epoch", 0, "NEGATIVE_START"),
                                      ("reeval_stride", 1, "ZERO_STRIDE")):
            value = check_integer(getattr(self, name), name, "NOT_INTEGER", least=least, low_code=low_code)
            object.__setattr__(self, name, value)


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
        return fields_equal(self, other)


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
            raise BatchforgeError(
                "LENGTH_MISMATCH",
                f"ids, correct and confidence shapes differ: {ids.shape}, {ok.shape}, {conf.shape}",
            )
        if not len(ids):
            return
        if ids.dtype.kind not in "iu":
            raise BatchforgeError("UNKNOWN_SAMPLE", f"sample ids must be integers, got {ids.dtype}")
        unknown = (ids < 0) | (ids >= self.num_samples)
        if unknown.any():
            raise BatchforgeError("UNKNOWN_SAMPLE", f"sample {ids[unknown][0]} not tracked")
        in_range = (conf >= 0.0) & (conf <= 1.0)
        if not in_range.all():
            raise BatchforgeError(
                "CONFIDENCE_OUT_OF_RANGE", f"confidence {conf[~in_range][0]} outside [0, 1]"
            )
        ordered = np.sort(ids)
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        if len(repeated):
            raise BatchforgeError("DUPLICATE_RECORD", f"sample {repeated[0]} appears twice in one batch")
        again = self.recorded[ids]
        if again.any():
            raise BatchforgeError(
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

    def unrecorded_samples(self) -> np.ndarray:
        """Sorted active ids that still owe this epoch a record: the ones ``finalize_epoch`` would name missing."""
        return np.flatnonzero(~(self.removed | self.recorded))

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
        missing = self.unrecorded_samples()
        if len(missing):
            shown = ", ".join(str(i) for i in missing[:10])
            more = f" (+{len(missing) - 10} more)" if len(missing) > 10 else ""
            raise BatchforgeError(
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
            "config": asdict(self.config),
            "counters": {key: getattr(self, key) for key in _COUNTERS},
            **{key: pack_array(getattr(self, key)) for key in _ARRAYS},
        }

    def dump(self, fp: IO[str]) -> None:
        fp.write(json.dumps(self.to_payload(), separators=(",", ":")))

    @classmethod
    def from_payload(cls, payload: dict) -> "SetState":
        try:
            kind = payload.get("kind")
            if kind != "set_state":
                raise BatchforgeError("BAD_SCHEMA", f"not a set_state payload: kind {kind!r}")
            version = payload.get("schema_version")
            if version != SCHEMA_VERSION:
                raise BatchforgeError("BAD_SCHEMA", f"unsupported set_state schema_version {version!r}")
            cfg = payload["config"]
            counters = payload["counters"]
            try:
                config = SetConfig(**{f.name: cfg[f.name] for f in fields(SetConfig)})
            except BatchforgeError as exc:
                raise BatchforgeError("BAD_STATE", f"invalid filter settings: {exc}") from exc
            state = cls(0, config)  # its empty arrays give way to the decoded ones: a huge num_samples allocates nothing
            state.num_samples = check_integer(payload["num_samples"], "num_samples", "BAD_STATE")
            state.epoch = check_integer(payload["epoch"], "epoch", "BAD_STATE")
            for key in _COUNTERS:
                setattr(state, key, check_integer(counters[key], key, "BAD_STATE"))
            for key in _ARRAYS:
                dtype = getattr(state, key).dtype
                setattr(state, key, unpack_array(payload[key], dtype, state.num_samples, key, "BAD_STATE").astype(dtype))
        except BatchforgeError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:  # AttributeError: not an object
            raise BatchforgeError("BAD_STATE", f"malformed set_state payload: {exc!r}") from exc
        state._check_reachable()
        return state

    def _check_reachable(self) -> None:
        """Reject arrays that no sequence of records and epoch ends produces."""
        window, streak = self.config.window, self.streak
        # One record per epoch: the epochs so far, plus this one if recorded.
        if (streak > np.minimum(window, min(self.epoch, window) + self.recorded)).any():
            raise BatchforgeError("BAD_STATE", f"a streak exceeds the window {window} or the epochs so far")
        # Removal needs a full streak, and a not-easy record re-adds at the epoch's end.
        odd = self.removed & (streak != window) & ~(self.recorded & (streak == 0))
        if odd.any():
            sid = int(np.flatnonzero(odd)[0])
            raise BatchforgeError(
                "BAD_STATE",
                f"removed sample {sid} has streak {streak[sid]}, not {window} "
                "(or 0 after a not-easy record this epoch)",
            )

    @classmethod
    def load(cls, fp: IO[str]) -> "SetState":
        try:
            payload = json.load(fp)
        except ValueError as exc:  # an empty or truncated file, or bytes that are not text
            raise BatchforgeError("BAD_STATE", f"not a JSON document: {exc}") from None
        return cls.from_payload(payload)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SetState):
            return NotImplemented
        return self.to_payload() == other.to_payload()
