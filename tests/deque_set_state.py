"""Test oracle: the original per-sample filter state, one deque per sample.

This is the reference implementation the array-based ``SetState`` must
match step for step (see ``test_set_state_arrays.py``). It keeps the
original behaviour, including silently accepting a second record for one
id in one epoch, so drive it only with streams that record each id at most
once per epoch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from batchforge.set_training import EpochTransition, SetConfig, SetError

SCHEMA_VERSION = 1  # to_payload writes the per-sample history checkpoint


class SampleStatus(str, Enum):
    ACTIVE = "active"
    REMOVED = "removed"


@dataclass
class DequeRecord:
    sample_id: int
    history: deque
    status: SampleStatus = SampleStatus.ACTIVE

    def latest(self) -> tuple[int, bool, float] | None:
        return self.history[-1] if self.history else None


class DequeSetState:
    def __init__(self, num_samples: int, config: SetConfig):
        self.config = config
        self.num_samples = num_samples
        self.epoch = 0
        self.records = {
            i: DequeRecord(i, deque(maxlen=config.window)) for i in range(num_samples)
        }
        self.removed_count = 0
        self.readded_count = 0
        self.forward_passes = 0

    def record_prediction(self, sample_id: int, correct: bool, confidence: float) -> None:
        if sample_id not in self.records:
            raise SetError("UNKNOWN_SAMPLE", f"sample {sample_id} not tracked")
        if not (0.0 <= confidence <= 1.0):
            raise SetError(
                "CONFIDENCE_OUT_OF_RANGE", f"confidence {confidence} outside [0, 1]"
            )
        self.records[sample_id].history.append((self.epoch, bool(correct), float(confidence)))
        self.forward_passes += 1

    def active_samples(self) -> np.ndarray:
        return np.asarray(
            sorted(i for i, r in self.records.items() if r.status is SampleStatus.ACTIVE),
            dtype=np.int64,
        )

    def removed_samples(self) -> np.ndarray:
        return np.asarray(
            sorted(i for i, r in self.records.items() if r.status is SampleStatus.REMOVED),
            dtype=np.int64,
        )

    def reevaluation_plan(self) -> np.ndarray:
        if self.epoch % self.config.reeval_stride != 0:
            return np.empty(0, dtype=np.int64)
        return self.removed_samples()

    def _is_easy(self, entry: tuple[int, bool, float]) -> bool:
        _, correct, confidence = entry
        return correct and confidence > self.config.tau

    def finalize_epoch(self) -> EpochTransition:
        cfg = self.config
        epoch = self.epoch
        active_now = 0
        missing = []
        newly_removed = []
        readded = []
        removal_open = epoch >= cfg.start_epoch + cfg.window - 1
        for sid, rec in self.records.items():
            if rec.status is SampleStatus.ACTIVE:
                active_now += 1
                last = rec.latest()
                if last is None or last[0] != epoch:
                    missing.append(sid)
                    continue
                if (
                    removal_open
                    and len(rec.history) == cfg.window
                    and all(self._is_easy(entry) for entry in rec.history)
                ):
                    newly_removed.append(sid)
            else:
                last = rec.latest()
                if last is not None and not self._is_easy(last):
                    readded.append(sid)
        if missing:
            raise SetError("MISSING_RECORDS", f"active samples without epoch-{epoch} records")
        for sid in newly_removed:
            self.records[sid].status = SampleStatus.REMOVED
        for sid in readded:
            rec = self.records[sid]
            rec.status = SampleStatus.ACTIVE
            rec.history.clear()
        self.removed_count += len(newly_removed)
        self.readded_count += len(readded)
        self.epoch += 1
        return EpochTransition(
            epoch=epoch,
            newly_removed=np.asarray(sorted(newly_removed), dtype=np.int64),
            readded=np.asarray(sorted(readded), dtype=np.int64),
            active_count=active_now,
            active_next=active_now - len(newly_removed) + len(readded),
            forward_passes=self.forward_passes,
        )

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
            "samples": [
                {
                    "id": sid,
                    "status": rec.status.value,
                    "history": [[e, c, conf] for (e, c, conf) in rec.history],
                }
                for sid, rec in sorted(self.records.items())
            ],
        }
