"""The array-based SetState: record validation, checkpoint checks, and
step-for-step equivalence with the deque-based oracle."""

import base64
import copy
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batchforge.set_training import SetConfig, SetError, SetState
from deque_set_state import DequeSetState


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
    assert state.recorded.tolist() == [True, False, False]  # a rejected batch writes nothing
    assert state.streak.tolist() == [1, 0, 0]
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
    assert not state.recorded.any() and not state.streak.any()


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


def _checkpoint_state():
    """Mid-epoch state with every kind of sample: window 2, samples 0-3 easy.

    Epochs 0-1 remove 0-3; epoch 2 re-adds 1 (a hard re-evaluation) and
    leaves 2 and 3 unevaluated; epoch 3 has recorded 4 (easy), 5 (hard) and
    removed 0 (hard, so due to be re-added).
    """
    state = SetState(10, SetConfig(tau=0.5, window=2, start_epoch=0))
    for _ in range(2):
        state.record_batch(np.arange(10), np.ones(10, bool), [0.9] * 4 + [0.1] * 6)
        state.finalize_epoch()
    state.record_batch([4, 5, 6, 7, 8, 9, 0, 1], np.ones(8, bool), [0.1] * 6 + [0.9, 0.1])
    state.finalize_epoch()
    state.record_batch([4, 5, 0], [True, True, False], [0.9, 0.1, 0.9])
    return state


def _set(path, value):
    def mutate(payload):
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return mutate


def _bits(*ids, n=10):
    mask = np.zeros(n, dtype=bool)
    mask[list(ids)] = True
    return base64.b64encode(np.packbits(mask).tobytes()).decode()


def _streak(*values):
    return base64.b64encode(np.asarray(values, dtype="<u1").tobytes()).decode()


def test_checkpoint_state_covers_every_kind_of_sample():
    state = _checkpoint_state()
    assert state.epoch == 3
    assert state.removed_samples().tolist() == [0, 2, 3]
    assert np.flatnonzero(state.recorded).tolist() == [0, 4, 5]
    assert state.streak.tolist() == [0, 0, 2, 2, 1, 0, 0, 0, 0, 0]
    assert state.to_payload()["removed"] == _bits(0, 2, 3)
    assert state.to_payload()["streak"] == _streak(0, 0, 2, 2, 1, 0, 0, 0, 0, 0)


@pytest.mark.parametrize(
    "mutate",
    [
        _set(("removed",), _bits(0, 2, 3, n=24)),
        _set(("recorded",), _bits(0, 4, 5, n=8)),
        _set(("streak",), _streak(0, 0, 2, 2, 1, 0, 0, 0, 0)),
        _set(("streak",), _streak(0, 0, 2, 2, 1, 0, 0, 0, 0, 0)[:-4]),
        _set(("streak",), _streak(0, 0, 2, 2, 1, 0, 0, 0, 0, 0)[:-1]),
        _set(("removed",), "not base64!"),
        _set(("recorded",), 7),
        _set(("removed",), _bits(0, 2, 3, 10, n=16)),
        _set(("streak",), _streak(0, 0, 2, 2, 3, 0, 0, 0, 0, 0)),
        _set(("epoch",), 1),
        _set(("streak",), _streak(0, 0, 2, 1, 1, 0, 0, 0, 0, 0)),
        _set(("recorded",), _bits(4, 5)),
        _set(("streak",), _streak(1, 0, 2, 2, 1, 0, 0, 0, 0, 0)),
        _set(("num_samples",), 11),
        _set(("counters",), {}),
        _set(("epoch",), 3.0),
        _set(("epoch",), -1),
        _set(("counters", "forward_passes"), -1),
        _set(("num_samples",), True),
        _set(("config", "window"), 2.0),
    ],
    ids=[
        "removed_wrong_length",
        "recorded_wrong_length",
        "sample_missing",
        "streak_truncated",
        "streak_truncated_padding",
        "removed_not_base64",
        "recorded_not_a_string",
        "id_out_of_range",
        "streak_above_window",
        "streak_above_epochs_so_far",
        "removed_streak_not_window",
        "removed_streak_zero_unrecorded",
        "removed_recorded_streak_partial",
        "num_samples_differs_from_arrays",
        "missing_key",
        "epoch_not_integer",
        "epoch_negative",
        "counter_negative",
        "num_samples_not_integer",
        "window_not_integer",
    ],
)
def test_from_payload_rejects_inconsistent_checkpoints(mutate):
    payload = _checkpoint_state().to_payload()
    assert SetState.from_payload(copy.deepcopy(payload)).to_payload() == payload
    mutate(payload)
    with pytest.raises(SetError) as err:
        SetState.from_payload(payload)
    assert err.value.code == "BAD_STATE"


def test_v1_checkpoint_rejected():
    old = DequeSetState(3, SetConfig(tau=0.5, window=2))
    old.record_prediction(0, True, 0.9)
    payload = old.to_payload()
    assert payload["schema_version"] == 1 and "samples" in payload
    for bad in (payload, {k: v for k, v in payload.items() if k != "schema_version"}):
        with pytest.raises(SetError) as err:
            SetState.from_payload(bad)
        assert err.value.code == "BAD_SCHEMA"


def test_imagenet_size_checkpoint_round_trips_under_10_mb():
    n = 1_281_167
    state = SetState(n, SetConfig(tau=0.7, window=2, start_epoch=0))
    rng = np.random.default_rng(0)
    ease = rng.random(n)
    for epoch in range(3):
        ids = np.concatenate([state.active_samples(), state.reevaluation_plan()])
        confidence = np.clip(ease[ids] + 0.15 * rng.standard_normal(len(ids)), 0.0, 1.0)
        if epoch == 2:  # end mid-epoch, half recorded
            ids, confidence = ids[::2], confidence[::2]
        state.record_batch(ids, confidence > 0.3, confidence)
        if epoch < 2:
            state.finalize_epoch()
    assert len(state.removed_samples()) and state.recorded.any() and not state.recorded.all()
    buf = io.StringIO()
    state.dump(buf)
    assert len(buf.getvalue()) < 10_000_000
    restored = SetState.load(io.StringIO(buf.getvalue()))
    assert restored.to_payload() == state.to_payload()
    assert np.array_equal(restored.streak, state.streak)


def test_large_window_round_trips():
    state = SetState(5, SetConfig(tau=0.5, window=1000, start_epoch=0))
    for epoch in range(300):  # streaks pass 255, so they need two bytes
        state.record_batch(np.arange(5), [True] * 5, [0.9, 0.9, 0.9, 0.9, 0.1 if epoch == 299 else 0.9])
        state.finalize_epoch()
    assert state.streak.tolist() == [300, 300, 300, 300, 0]
    buf = io.StringIO()
    state.dump(buf)
    restored = SetState.load(io.StringIO(buf.getvalue()))
    assert restored == state and restored.streak.tolist() == [300, 300, 300, 300, 0]


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
    """Same decisions so far, and the same evidence left to decide on."""
    assert new.epoch == old.epoch
    assert new.active_samples().tolist() == old.active_samples().tolist()
    assert new.removed_samples().tolist() == old.removed_samples().tolist()
    assert new.reevaluation_plan().tolist() == old.reevaluation_plan().tolist()
    assert (new.removed_count, new.readded_count, new.forward_passes) == (
        old.removed_count,
        old.readded_count,
        old.forward_passes,
    )
    for sid, record in old.records.items():  # streak: the oracle's trailing easy entries
        easy = [old._is_easy(entry) for entry in record.history]
        assert new.streak[sid] == (easy[::-1] + [False]).index(False)
        assert new.recorded[sid] == (bool(record.history) and record.latest()[0] == old.epoch)


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
            _assert_same(new, old)
            buf = io.StringIO()
            new.dump(buf)
            new = SetState.load(io.StringIO(buf.getvalue()))
        assert new.finalize_epoch() == old.finalize_epoch()
        _assert_same(new, old)
