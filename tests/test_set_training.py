import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batchforge.set_training import SetConfig, SetError, SetState


def feed_epoch(state, easy_ids=(), conf_easy=0.9, conf_hard=0.3, correct_hard=False):
    """Record one epoch: easy_ids get (True, conf_easy), the rest of the
    active set gets (correct_hard, conf_hard)."""
    easy = set(easy_ids)
    for sid in state.active_samples():
        sid = int(sid)
        if sid in easy:
            state.record_prediction(sid, True, conf_easy)
        else:
            state.record_prediction(sid, correct_hard, conf_hard)


def test_config_validation():
    with pytest.raises(SetError):
        SetConfig(tau=1.5, window=1)
    with pytest.raises(SetError):
        SetConfig(tau=0.5, window=0)
    assert SetConfig(tau=0.5, window=3).start_epoch == 3
    assert SetConfig(tau=0.5, window=3, start_epoch=0).start_epoch == 0
    for bad in (dict(window=2.0), dict(window=True), dict(window=2, start_epoch=1.0), dict(window=2, reeval_stride=1.5)):
        with pytest.raises(SetError) as err:
            SetConfig(tau=0.5, **bad)
        assert err.value.code == "NOT_INTEGER", bad
    assert type(SetConfig(tau=0.5, window=np.int64(2)).window) is int  # checkpoints write it as JSON


def test_record_appends_and_counts_forward_passes():
    state = SetState(5, SetConfig(tau=0.5, window=3, start_epoch=0))
    state.record_prediction(0, True, 0.9)
    assert state.recorded.tolist() == [True, False, False, False, False]
    assert state.streak.tolist() == [1, 0, 0, 0, 0]
    assert state.forward_passes == 1


def test_record_rejects_bad_confidence():
    state = SetState(2, SetConfig(tau=0.5, window=1))
    with pytest.raises(SetError) as err:
        state.record_prediction(0, True, 1.3)
    assert err.value.code == "CONFIDENCE_OUT_OF_RANGE"


def test_record_rejects_unknown_sample():
    state = SetState(2, SetConfig(tau=0.5, window=1))
    with pytest.raises(SetError) as err:
        state.record_prediction(7, True, 0.5)
    assert err.value.code == "UNKNOWN_SAMPLE"


def test_ring_buffer_evicts_beyond_window():
    # Evidence older than the window stops counting: one hard epoch, then
    # `window` easy ones, and the sample is removed.
    state = SetState(1, SetConfig(tau=0.5, window=3, start_epoch=0))
    removed_at = []
    for epoch, conf in enumerate((0.3, 0.9, 0.9, 0.9)):
        state.record_prediction(0, True, conf)
        if len(state.finalize_epoch().newly_removed):
            removed_at.append(epoch)
    assert removed_at == [3]


def test_window_one_removes_after_single_easy_epoch():
    state = SetState(3, SetConfig(tau=0.5, window=1, start_epoch=0))
    feed_epoch(state, easy_ids=[1])
    transition = state.finalize_epoch()
    assert transition.newly_removed.tolist() == [1]
    assert state.removed_samples().tolist() == [1]
    assert state.active_samples().tolist() == [0, 2]


def test_tau_one_never_removes():
    state = SetState(4, SetConfig(tau=1.0, window=1, start_epoch=0))
    for _ in range(5):
        feed_epoch(state, easy_ids=range(4), conf_easy=1.0)
        transition = state.finalize_epoch()
        assert len(transition.newly_removed) == 0
    assert len(state.active_samples()) == 4


def test_one_weak_entry_blocks_removal():
    # w=3: [T/.9, T/.9, T/.4] at tau=0.5 stays active
    state = SetState(1, SetConfig(tau=0.5, window=3, start_epoch=0))
    for conf in (0.9, 0.9, 0.4):
        state.record_prediction(0, True, conf)
        state.finalize_epoch()
    assert state.active_samples().tolist() == [0]
    # one more strong epoch still is not enough (window holds .9, .4, .9)
    state.record_prediction(0, True, 0.9)
    state.finalize_epoch()
    assert state.active_samples().tolist() == [0]


def test_removal_requires_full_window_and_start_epoch_gate():
    config = SetConfig(tau=0.5, window=2, start_epoch=3)
    state = SetState(1, config)
    for epoch in range(6):
        state.record_prediction(0, True, 0.9)
        transition = state.finalize_epoch()
        removable_from = config.start_epoch + config.window - 1
        assert (len(transition.newly_removed) == 1) == (epoch == removable_from)
        if epoch == removable_from:
            break


def test_missing_records_error_lists_ids():
    state = SetState(3, SetConfig(tau=0.5, window=1, start_epoch=0))
    state.record_prediction(0, True, 0.9)
    with pytest.raises(SetError) as err:
        state.finalize_epoch()
    assert err.value.code == "MISSING_RECORDS"
    assert "1" in str(err.value) and "2" in str(err.value)


def test_readd_on_hard_evidence_and_window_reset():
    state = SetState(2, SetConfig(tau=0.5, window=1, start_epoch=0))
    feed_epoch(state, easy_ids=[0, 1])
    state.finalize_epoch()
    assert len(state.active_samples()) == 0
    # forward-only re-evaluation: 0 stays easy, 1 turns hard
    state.record_prediction(0, True, 0.9)
    state.record_prediction(1, True, 0.2)
    transition = state.finalize_epoch()
    assert transition.readded.tolist() == [1]
    assert state.active_samples().tolist() == [1]
    assert state.readded_count == 1
    # fresh window after re-add: the easy epochs before removal do not count,
    # so one more easy epoch (window 1) removes it again, and not before
    state.record_prediction(0, True, 0.9)
    state.record_prediction(1, True, 0.9)
    assert state.finalize_epoch().newly_removed.tolist() == [1]


def test_readded_sample_needs_a_full_window_again():
    state = SetState(1, SetConfig(tau=0.5, window=3, start_epoch=0))
    removed_at, readded_at = [], []
    for epoch, conf in enumerate((0.9, 0.9, 0.9, 0.2, 0.9, 0.9, 0.9)):
        state.record_prediction(0, True, conf)
        transition = state.finalize_epoch()
        removed_at += [epoch] * len(transition.newly_removed)
        readded_at += [epoch] * len(transition.readded)
    # removed after 3 easy epochs, re-added on the hard one, removed again
    # only after 3 more easy epochs
    assert removed_at == [2, 6]
    assert readded_at == [3]


def test_readd_on_incorrect_prediction():
    state = SetState(1, SetConfig(tau=0.5, window=1, start_epoch=0))
    state.record_prediction(0, True, 0.9)
    state.finalize_epoch()
    state.record_prediction(0, False, 0.9)  # confident but wrong
    transition = state.finalize_epoch()
    assert transition.readded.tolist() == [0]


def test_active_samples_listing():
    state = SetState(100, SetConfig(tau=0.5, window=1, start_epoch=0))
    assert state.active_samples().tolist() == list(range(100))
    feed_epoch(state, easy_ids=[3, 7])
    state.finalize_epoch()
    active = state.active_samples()
    assert len(active) == 98 and 3 not in active and 7 not in active
    feed_epoch(state)  # the 98 still-active samples
    state.record_prediction(3, False, 0.1)
    state.record_prediction(7, True, 0.9)
    state.finalize_epoch()
    active = state.active_samples()
    assert len(active) == 99 and 3 in active and 7 not in active


def test_reevaluation_plan_and_stride():
    state = SetState(100, SetConfig(tau=0.5, window=1, start_epoch=0, reeval_stride=2))
    assert state.reevaluation_plan().tolist() == []
    feed_epoch(state, easy_ids=range(10))
    state.finalize_epoch()  # epoch now 1
    assert state.reevaluation_plan().tolist() == []  # 1 % 2 != 0
    feed_epoch(state)
    state.finalize_epoch()  # epoch now 2
    assert state.reevaluation_plan().tolist() == list(range(10))


def test_forward_pass_accounting():
    state = SetState(100, SetConfig(tau=0.5, window=1, start_epoch=0))
    feed_epoch(state, easy_ids=range(10))
    state.finalize_epoch()
    before = state.forward_passes
    assert before == 100
    feed_epoch(state)  # 90 active
    for sid in state.reevaluation_plan():  # 10 removed
        state.record_prediction(int(sid), True, 0.9)
    state.finalize_epoch()
    assert state.forward_passes - before == 100


def test_serialization_round_trip_bit_exact():
    state = SetState(50, SetConfig(tau=0.7, window=2, start_epoch=0))
    rng = np.random.default_rng(3)
    for _ in range(5):
        for sid in state.active_samples():
            state.record_prediction(int(sid), bool(rng.integers(2)), float(rng.random()))
        for sid in state.reevaluation_plan():
            state.record_prediction(int(sid), bool(rng.integers(2)), float(rng.random()))
        state.finalize_epoch()
    buf = io.StringIO()
    state.dump(buf)
    restored = SetState.load(io.StringIO(buf.getvalue()))
    assert restored == state
    buf2 = io.StringIO()
    restored.dump(buf2)
    assert buf2.getvalue() == buf.getvalue()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 40),
    window=st.integers(1, 4),
    tau=st.floats(0.0, 1.0),
    epochs=st.integers(1, 12),
    seed=st.integers(0, 2**32),
)
def test_partition_invariant_under_random_streams(n, window, tau, epochs, seed):
    state = SetState(n, SetConfig(tau=tau, window=window, start_epoch=0))
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        for sid in state.active_samples():
            state.record_prediction(int(sid), bool(rng.integers(2)), float(rng.random()))
        for sid in state.reevaluation_plan():
            state.record_prediction(int(sid), bool(rng.integers(2)), float(rng.random()))
        transition = state.finalize_epoch()
        active = set(state.active_samples().tolist())
        removed = set(state.removed_samples().tolist())
        assert active | removed == set(range(n))
        assert not (active & removed)
        assert transition.active_next == len(active)


def fixed_stream_updates(streams, tau, window, batch=8):
    """Total updates when replaying recorded streams through the filter."""
    n, epochs = streams["correct"].shape
    state = SetState(n, SetConfig(tau=tau, window=window, start_epoch=0))
    updates = 0
    for epoch in range(epochs):
        active = state.active_samples()
        updates += math.ceil(len(active) / batch) if len(active) else 0
        for sid in active:
            state.record_prediction(
                int(sid), bool(streams["correct"][sid, epoch]), float(streams["conf"][sid, epoch])
            )
        for sid in state.reevaluation_plan():
            state.record_prediction(
                int(sid), bool(streams["correct"][sid, epoch]), float(streams["conf"][sid, epoch])
            )
        state.finalize_epoch()
    return updates


def test_updates_monotone_in_tau_over_fixed_streams():
    rng = np.random.default_rng(42)
    n, epochs = 300, 25
    conf = np.clip(rng.beta(5, 2, size=(n, epochs)), 0, 1)
    streams = {"correct": rng.random((n, epochs)) < 0.9, "conf": conf}
    taus = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
    totals = [fixed_stream_updates(streams, tau, window=2) for tau in taus]
    assert totals == sorted(totals)
    assert totals[0] < totals[-1]  # filtering actually bites at low tau
