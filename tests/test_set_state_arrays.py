"""The array-based SetState: record validation, checkpoint checks, and
step-for-step equivalence with the deque-based oracle."""

import copy
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batchforge.set_training import SampleStatus, SetConfig, SetError, SetState
from deque_set_state import DequeSetState


def run_stream(state, epochs, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        ids = np.concatenate([state.active_samples(), state.reevaluation_plan()])
        confidence = rng.random(len(ids))
        state.record_batch(ids, confidence > 0.2, confidence)
        state.finalize_epoch()
    return state


# -- one record per id per epoch ------------------------------------------------


def test_second_record_for_an_id_in_one_epoch_rejected():
    state = SetState(3, SetConfig(tau=0.5, window=2, start_epoch=0))
    state.record_prediction(0, True, 0.9)
    with pytest.raises(SetError) as err:
        state.record_prediction(0, False, 0.1)
    assert err.value.code == "DUPLICATE_RECORD"
    with pytest.raises(SetError) as err:
        state.record_batch([1, 0], [True, True], [0.9, 0.9])
    assert err.value.code == "DUPLICATE_RECORD"
    assert state.forward_passes == 1
    assert state.records[0].history == ((0, True, 0.9),)
    assert state.records[1].history == ()  # a rejected batch writes nothing
    state.record_batch([1, 2], [True, True], [0.9, 0.9])
    state.finalize_epoch()
    state.record_prediction(0, True, 0.8)  # a new epoch takes a new record
    assert state.forward_passes == 4


def test_id_twice_in_one_batch_rejected():
    state = SetState(4, SetConfig(tau=0.5, window=2, start_epoch=0))
    with pytest.raises(SetError) as err:
        state.record_batch(np.array([2, 1, 2]), [True, True, False], [0.9, 0.8, 0.1])
    assert err.value.code == "DUPLICATE_RECORD"
    assert state.forward_passes == 0
    assert all(record.history == () for record in state.records.values())


def test_duplicate_check_survives_a_mid_epoch_checkpoint():
    state = SetState(2, SetConfig(tau=0.5, window=1, start_epoch=0))
    state.record_prediction(1, True, 0.9)
    buf = io.StringIO()
    state.dump(buf)
    restored = SetState.load(io.StringIO(buf.getvalue()))
    with pytest.raises(SetError) as err:
        restored.record_batch([0, 1], [True, True], [0.9, 0.9])
    assert err.value.code == "DUPLICATE_RECORD"


def test_record_batch_validates_before_writing():
    state = SetState(3, SetConfig(tau=0.5, window=1, start_epoch=0))
    cases = [
        (([0, 1], [True], [0.9, 0.9]), "LENGTH_MISMATCH"),
        (([0, 3], [True, True], [0.9, 0.9]), "UNKNOWN_SAMPLE"),
        (([0, -1], [True, True], [0.9, 0.9]), "UNKNOWN_SAMPLE"),
        (([0.0, 1.0], [True, True], [0.9, 0.9]), "UNKNOWN_SAMPLE"),
        (([0, 1], [True, True], [0.9, float("nan")]), "CONFIDENCE_OUT_OF_RANGE"),
        (([0, 1], [True, True], [0.9, 1.5]), "CONFIDENCE_OUT_OF_RANGE"),
    ]
    for args, code in cases:
        with pytest.raises(SetError) as err:
            state.record_batch(*args)
        assert err.value.code == code
    assert state.forward_passes == 0
    state.record_batch([], [], [])
    assert state.forward_passes == 0


# -- checkpoint consistency -----------------------------------------------------


def _set(path, value):
    def mutate(payload):
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return mutate


def _drop_last_sample(payload):
    payload["samples"].pop()


def _overlong_history(payload):
    payload["samples"][0]["history"] = [[0, True, 0.9], [1, True, 0.9], [2, True, 0.9]]


def _unordered_history(payload):
    payload["samples"][0]["history"] = [[2, True, 0.9], [1, True, 0.9]]


@pytest.mark.parametrize(
    "mutate",
    [
        _set(("samples", 0, "id"), 99),
        _set(("samples", 1, "id"), 0),
        _set(("samples", 0, "id"), "0"),
        _drop_last_sample,
        _set(("samples", 0, "status"), "gone"),
        _overlong_history,
        _unordered_history,
        _set(("samples", 0, "history"), [[1, True, 0.9], [1, True, 0.8]]),
        _set(("samples", 0, "history"), [[4, True, 0.9]]),
        _set(("samples", 0, "history"), [[-1, True, 0.9]]),
        _set(("samples", 0, "history"), [[1.5, True, 0.9]]),
        _set(("samples", 0, "history"), [[1, True]]),
        _set(("samples", 0, "history"), [[1, True, 1.5]]),
        _set(("counters",), {}),
        _set(("epoch",), 3.0),
        _set(("epoch",), -1),
        _set(("counters", "forward_passes"), -1),
        _set(("num_samples",), True),
    ],
    ids=[
        "id_out_of_range",
        "id_twice",
        "id_not_integer",
        "sample_missing",
        "unknown_status",
        "history_longer_than_window",
        "history_epochs_decrease",
        "history_epoch_repeated",
        "history_epoch_after_state_epoch",
        "history_epoch_negative",
        "history_epoch_not_integer",
        "history_entry_malformed",
        "history_confidence_out_of_range",
        "missing_key",
        "epoch_not_integer",
        "epoch_negative",
        "counter_negative",
        "num_samples_not_integer",
    ],
)
def test_from_payload_rejects_inconsistent_checkpoints(mutate):
    payload = run_stream(SetState(6, SetConfig(tau=0.5, window=2, start_epoch=0)), 3).to_payload()
    assert payload["epoch"] == 3
    SetState.from_payload(copy.deepcopy(payload))  # the unmutated payload loads
    mutate(payload)
    with pytest.raises(SetError) as err:
        SetState.from_payload(payload)
    assert err.value.code == "BAD_STATE"


def test_from_payload_accepts_any_sample_order():
    state = run_stream(SetState(20, SetConfig(tau=0.4, window=2, start_epoch=0)), 5, seed=7)
    payload = state.to_payload()
    payload["samples"].reverse()
    assert SetState.from_payload(payload) == state


def test_empty_state_round_trips():
    state = SetState(0, SetConfig(tau=0.5, window=2))
    state.finalize_epoch()
    buf = io.StringIO()
    state.dump(buf)
    assert SetState.load(io.StringIO(buf.getvalue())) == state


# -- equivalence with the deque oracle ------------------------------------------


def _epoch_stream(rng, ease, tau):
    """Correctness and confidence for every sample; some confidences sit
    exactly at tau (never easy) or at the ends of [0, 1]."""
    n = len(ease)
    correct = rng.random(n) < 0.85
    confidence = np.clip(ease + 0.1 * rng.standard_normal(n), 0.0, 1.0)
    pick = rng.random(n)
    confidence[pick < 0.2] = tau
    confidence[(pick >= 0.2) & (pick < 0.25)] = 1.0
    confidence[(pick >= 0.25) & (pick < 0.3)] = 0.0
    return correct, confidence


def _record(state, rng, ids, correct, confidence):
    """Record ids on the array state: one call per id, or shuffled batches."""
    ids = rng.permutation(ids)
    if rng.random() < 0.3:
        for sid in ids:
            state.record_prediction(int(sid), bool(correct[sid]), float(confidence[sid]))
        return
    for chunk in np.array_split(ids, int(rng.integers(1, 4))):
        state.record_batch(chunk, correct[chunk], confidence[chunk])


def _assert_same(new, old):
    assert new.epoch == old.epoch
    assert new.active_samples().tolist() == old.active_samples().tolist()
    assert new.removed_samples().tolist() == old.removed_samples().tolist()
    assert new.reevaluation_plan().tolist() == old.reevaluation_plan().tolist()
    assert (new.removed_count, new.readded_count, new.forward_passes) == (
        old.removed_count,
        old.readded_count,
        old.forward_passes,
    )
    assert new.to_payload() == old.to_payload()


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 60),
    window=st.integers(1, 4),
    tau=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    start_epoch=st.integers(0, 5),
    reeval_stride=st.integers(1, 3),
    epochs=st.integers(1, 14),
    reload_at=st.integers(-1, 13),
    seed=st.integers(0, 2**32 - 1),
)
def test_array_state_matches_deque_oracle(
    n, window, tau, start_epoch, reeval_stride, epochs, reload_at, seed
):
    config = SetConfig(tau=tau, window=window, start_epoch=start_epoch, reeval_stride=reeval_stride)
    new, old = SetState(n, config), DequeSetState(n, config)
    rng = np.random.default_rng(seed)
    ease = rng.random(n)
    for epoch in range(epochs):
        correct, confidence = _epoch_stream(rng, ease, tau)
        ids = np.concatenate([old.active_samples(), old.reevaluation_plan()])
        if not len(old.reevaluation_plan()):
            # off-plan forward-only records on a strided-out epoch
            removed = old.removed_samples()
            ids = np.concatenate([ids, removed[rng.random(len(removed)) < 0.3]])
        for sid in ids:
            old.record_prediction(int(sid), bool(correct[sid]), float(confidence[sid]))
        _record(new, rng, ids, correct, confidence)
        if epoch == reload_at:  # mid-epoch checkpoint: recorded, not yet finalized
            assert new.to_payload() == old.to_payload()
            buf = io.StringIO()
            new.dump(buf)
            new = SetState.load(io.StringIO(buf.getvalue()))
        assert new.finalize_epoch() == old.finalize_epoch()
        _assert_same(new, old)
    for sid, record in old.records.items():
        snapshot = new.records[sid]
        assert snapshot.history == tuple(record.history)
        assert snapshot.status is record.status
        assert snapshot.latest() == record.latest()
    assert all(
        (new.records[sid].status is SampleStatus.REMOVED) == (sid in set(new.removed_samples().tolist()))
        for sid in range(n)
    )


def test_removed_sample_without_history_is_not_readded():
    payload = SetState(2, SetConfig(tau=0.5, window=1, start_epoch=0)).to_payload()
    payload["samples"][1]["status"] = "removed"
    state = SetState.from_payload(payload)
    state.record_prediction(0, False, 0.1)
    transition = state.finalize_epoch()
    assert transition.readded.tolist() == []
    assert state.removed_samples().tolist() == [1]
