"""Sample-efficient training: the easy/hard sample state machine.

Each epoch every active sample gets one prediction record (was it
classified correctly, and with what confidence). A sample whose last
``window`` consecutive epochs were all correct with confidence strictly
above ``tau`` is easy and is removed from training. Removed samples keep
being evaluated forward-only; as soon as their latest evaluation is wrong
or under-confident they rejoin the active set, with a fresh window so one
lucky epoch cannot re-remove them immediately.

Setting ``tau`` to 1.0 disables removal entirely (confidence never
exceeds 1), which makes the no-filtering baseline a special case rather
than a separate code path.

Optimizer updates and forward passes are tracked separately: filtering
cuts updates, but monitoring removed samples still costs forward passes.

The state is a struct of arrays over sample ids ``0..N-1``, so recording a
batch is one fancy-index write and an epoch transition is whole-array
logic, with no Python work per sample:

- ``removed`` ``bool[N]``: the active/removed partition;
- a ``window``-wide ring of the latest evaluations: ``ring_epoch``
  ``int64[N, W]``, ``ring_correct`` ``bool[N, W]`` and ``ring_confidence``
  ``float64[N, W]``;
- ``ring_count`` ``int64[N]``: evaluations since the sample was last
  re-added. The next one goes to slot ``ring_count % W`` and the ring holds
  the last ``min(ring_count, W)`` of them; re-adding sets it to 0.

Errors are ``SetError`` with a code:

- ``UNKNOWN_SAMPLE``, ``CONFIDENCE_OUT_OF_RANGE``, ``LENGTH_MISMATCH``:
  a record names no tracked id, has a confidence outside [0, 1], or a batch
  whose id, correctness and confidence arrays differ in shape;
- ``DUPLICATE_RECORD``: a second record for one id in one epoch, whether
  across calls or twice in one batch;
- ``MISSING_RECORDS``: finalize_epoch with active samples left unrecorded;
- ``BAD_SCHEMA``, ``BAD_STATE``: a checkpoint of another schema version, or
  one that is malformed or inconsistent (a size, epoch or counter that is
  not an integer >= 0, ids not exactly ``0..N-1`` once each, unknown
  status, a history longer than ``window`` or whose epochs do not strictly
  increase within ``[0, epoch]``);
- ``TAU_OUT_OF_RANGE``, ``ZERO_WINDOW``, ``NEGATIVE_START``,
  ``ZERO_STRIDE``: an invalid ``SetConfig``.
"""

from __future__ import annotations

import csv
import json
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterable, Iterator

import numpy as np
from numpy.typing import ArrayLike

SCHEMA_VERSION = 1


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
        if self.window < 1:
            raise SetError("ZERO_WINDOW", "window must be >= 1")
        if self.start_epoch is None:
            object.__setattr__(self, "start_epoch", self.window)
        if self.start_epoch < 0:
            raise SetError("NEGATIVE_START", "start_epoch must be >= 0")
        if self.reeval_stride < 1:
            raise SetError("ZERO_STRIDE", "reeval_stride must be >= 1")


class SampleStatus(str, Enum):
    ACTIVE = "active"
    REMOVED = "removed"


@dataclass(frozen=True)
class SampleRecord:
    """Snapshot of one sample's evidence, oldest first: (epoch, correct, confidence)."""

    sample_id: int
    history: tuple[tuple[int, bool, float], ...]
    status: SampleStatus = SampleStatus.ACTIVE

    def latest(self) -> tuple[int, bool, float] | None:
        return self.history[-1] if self.history else None


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


class _RecordView(Mapping):
    """``state.records[sid]``: read-only SampleRecord snapshots of the arrays."""

    def __init__(self, state: "SetState"):
        self._state = state

    def __getitem__(self, sample_id) -> SampleRecord:
        state = self._state
        window = state.config.window
        if not (isinstance(sample_id, (int, np.integer)) and 0 <= sample_id < state.num_samples):
            raise KeyError(sample_id)
        count = int(state.ring_count[sample_id])
        start = count % window if count >= window else 0
        slots = [(start + k) % window for k in range(min(count, window))]
        history = zip(
            state.ring_epoch[sample_id, slots].tolist(),
            state.ring_correct[sample_id, slots].tolist(),
            state.ring_confidence[sample_id, slots].tolist(),
        )
        status = SampleStatus.REMOVED if state.removed[sample_id] else SampleStatus.ACTIVE
        return SampleRecord(int(sample_id), tuple(history), status)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._state.num_samples))

    def __len__(self) -> int:
        return self._state.num_samples


class SetState:
    """Per-sample evaluation rings plus the active/removed partition, as arrays.

    Not internally locked: concurrent evaluation workers may call
    record_prediction only if calls are externally ordered per sample id,
    and finalize_epoch requires exclusive access.
    """

    def __init__(self, num_samples: int, config: SetConfig):
        self.config = config
        self.num_samples = num_samples
        self.epoch = 0
        window = config.window
        self.removed = np.zeros(num_samples, dtype=bool)
        self.ring_epoch = np.zeros((num_samples, window), dtype=np.int64)
        self.ring_correct = np.zeros((num_samples, window), dtype=bool)
        self.ring_confidence = np.zeros((num_samples, window), dtype=np.float64)
        self.ring_count = np.zeros(num_samples, dtype=np.int64)
        self.removed_count = 0
        self.readded_count = 0
        self.forward_passes = 0

    @property
    def records(self) -> Mapping[int, SampleRecord]:
        return _RecordView(self)

    # -- recording ---------------------------------------------------

    def record_prediction(self, sample_id: int, correct: bool, confidence: float) -> None:
        try:
            sid = operator.index(sample_id)
        except TypeError:
            sid = -1
        if not 0 <= sid < self.num_samples:
            raise SetError("UNKNOWN_SAMPLE", f"sample {sample_id} not tracked")
        if not (0.0 <= confidence <= 1.0):
            raise SetError(
                "CONFIDENCE_OUT_OF_RANGE", f"confidence {confidence} outside [0, 1]"
            )
        window = self.config.window
        count = int(self.ring_count[sid])
        if count and self.ring_epoch[sid, (count - 1) % window] == self.epoch:
            raise SetError(
                "DUPLICATE_RECORD", f"sample {sid} already has an epoch-{self.epoch} record"
            )
        slot = count % window
        self.ring_epoch[sid, slot] = self.epoch
        self.ring_correct[sid, slot] = bool(correct)
        self.ring_confidence[sid, slot] = float(confidence)
        self.ring_count[sid] = count + 1
        self.forward_passes += 1

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
        window = self.config.window
        count = self.ring_count[ids]
        again = (count > 0) & (self.ring_epoch[ids, (count - 1) % window] == self.epoch)
        if again.any():
            raise SetError(
                "DUPLICATE_RECORD",
                f"sample {ids[again][0]} already has an epoch-{self.epoch} record",
            )
        slot = count % window
        self.ring_epoch[ids, slot] = self.epoch
        self.ring_correct[ids, slot] = ok
        self.ring_confidence[ids, slot] = conf
        self.ring_count[ids] = count + 1
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
        count = self.ring_count
        active = ~self.removed
        seen = count > 0
        latest = ((count - 1) % cfg.window)[:, None]
        latest_epoch = np.take_along_axis(self.ring_epoch, latest, axis=1)[:, 0]
        missing = np.flatnonzero(active & ~(seen & (latest_epoch == epoch)))
        if len(missing):
            shown = ", ".join(str(i) for i in missing[:10])
            more = f" (+{len(missing) - 10} more)" if len(missing) > 10 else ""
            raise SetError(
                "MISSING_RECORDS", f"active samples without epoch-{epoch} records: {shown}{more}"
            )
        easy = self.ring_correct & (self.ring_confidence > cfg.tau)
        if epoch >= cfg.start_epoch + cfg.window - 1:
            newly_removed = np.flatnonzero(active & (count >= cfg.window) & easy.all(axis=1))
        else:
            newly_removed = np.empty(0, dtype=np.int64)
        latest_easy = np.take_along_axis(easy, latest, axis=1)[:, 0]
        readded = np.flatnonzero(self.removed & seen & ~latest_easy)
        active_now = int(np.count_nonzero(active))
        self.removed[newly_removed] = True
        self.removed[readded] = False
        count[readded] = 0  # fresh window after re-adding
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
        window, count = self.config.window, self.ring_count
        start = np.where(count >= window, count % window, 0)
        order = (start[:, None] + np.arange(window)) % window  # ring slots, oldest first
        lengths = np.minimum(count, window)
        epochs = np.take_along_axis(self.ring_epoch, order, axis=1).tolist()
        correct = np.take_along_axis(self.ring_correct, order, axis=1).tolist()
        confidence = np.take_along_axis(self.ring_confidence, order, axis=1).tolist()
        status = (SampleStatus.ACTIVE.value, SampleStatus.REMOVED.value)
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
            "samples": [
                {
                    "id": sid,
                    "status": status[gone],
                    "history": list(map(list, zip(ep[:n], ok[:n], conf[:n]))),
                }
                for sid, (gone, n, ep, ok, conf) in enumerate(
                    zip(self.removed.tolist(), lengths.tolist(), epochs, correct, confidence)
                )
            ],
        }

    def dump(self, fp: IO[str]) -> None:
        # json.dumps takes the C encoder; json.dump streams through the pure
        # Python one, ~4x slower for the same bytes.
        fp.write(json.dumps(self.to_payload(), separators=(",", ":")))

    @classmethod
    def from_payload(cls, payload: dict) -> "SetState":
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise SetError("BAD_SCHEMA", f"unsupported set_state schema_version {version!r}")
        try:
            cfg = payload["config"]
            counters = payload["counters"]
            counts = [payload["num_samples"], payload["epoch"]] + [
                counters[key] for key in ("removed_count", "readded_count", "forward_passes")
            ]
            if not all(type(c) is int and c >= 0 for c in counts):
                raise SetError(
                    "BAD_STATE", f"num_samples, epoch and counters must be integers >= 0: {counts}"
                )
            state = cls(
                payload["num_samples"],
                SetConfig(
                    tau=cfg["tau"],
                    window=cfg["window"],
                    start_epoch=cfg["start_epoch"],
                    reeval_stride=cfg["reeval_stride"],
                ),
            )
            state.epoch = payload["epoch"]
            state.removed_count = counters["removed_count"]
            state.readded_count = counters["readded_count"]
            state.forward_passes = counters["forward_passes"]
            state._load_samples(payload["samples"])
        except SetError:
            raise
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise SetError("BAD_STATE", f"malformed set_state payload: {exc!r}") from exc
        return state

    def _load_samples(self, samples: list) -> None:
        """Fill the arrays from v1 ``samples`` entries, rejecting inconsistent ones."""
        n, window = self.num_samples, self.config.window
        ids = np.asarray([s["id"] for s in samples])
        if len(ids) != n or (n and ids.dtype.kind not in "iu"):
            raise SetError("BAD_STATE", f"samples must list the ids 0..{n - 1}, got {len(ids)} entries")
        if not np.array_equal(np.sort(ids), np.arange(n)):
            raise SetError("BAD_STATE", f"sample ids must be 0..{n - 1}, each exactly once")
        ids = ids.astype(np.int64)
        statuses = [s["status"] for s in samples]
        unknown = set(statuses) - {status.value for status in SampleStatus}
        if unknown:
            raise SetError("BAD_STATE", f"unknown sample status {sorted(map(repr, unknown))[0]}")
        histories = [s["history"] for s in samples]
        lengths = np.asarray([len(h) for h in histories], dtype=np.int64)
        if (lengths > window).any():
            raise SetError("BAD_STATE", f"a sample history is longer than the window {window}")
        flat = [entry for h in histories for entry in h]
        entries = np.asarray(flat, dtype=np.float64)
        if flat and entries.shape != (len(flat), 3):
            raise SetError("BAD_STATE", "history entries must be [epoch, correct, confidence]")
        epochs, correct, confidence = entries.reshape(len(flat), 3).T
        if not np.all((epochs == np.floor(epochs)) & (epochs >= 0) & (epochs <= self.epoch)):
            raise SetError("BAD_STATE", f"history epochs must be integers in [0, {self.epoch}]")
        starts = np.cumsum(lengths) - lengths
        first = np.zeros(len(flat), dtype=bool)
        first[starts[lengths > 0]] = True
        if (~first[1:] & (np.diff(epochs) <= 0)).any():
            raise SetError("BAD_STATE", "history epochs must strictly increase")
        if not np.all((confidence >= 0.0) & (confidence <= 1.0)):
            raise SetError("BAD_STATE", "history confidences must lie in [0, 1]")
        rows = np.repeat(ids, lengths)
        slots = np.arange(len(flat)) - np.repeat(starts, lengths)
        self.removed[ids] = [status == SampleStatus.REMOVED.value for status in statuses]
        self.ring_count[ids] = lengths
        self.ring_epoch[rows, slots] = epochs
        self.ring_correct[rows, slots] = correct != 0
        self.ring_confidence[rows, slots] = confidence

    @classmethod
    def load(cls, fp: IO[str]) -> "SetState":
        return cls.from_payload(json.load(fp))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SetState):
            return NotImplemented
        return self.to_payload() == other.to_payload()


def write_epoch_report_csv(fp: IO[str], transitions: Iterable[EpochTransition]) -> None:
    """Per-epoch CSV: epoch, active, removed, readded, forward_passes."""
    writer = csv.writer(fp)
    writer.writerow(["epoch", "active", "removed", "readded", "forward_passes"])
    for t in transitions:
        writer.writerow([t.epoch, t.active_count, len(t.newly_removed), len(t.readded), t.forward_passes])
