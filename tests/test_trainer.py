import io
import math
import tracemalloc
from dataclasses import fields, replace
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import batchforge.trainer as trainer_module
from batchforge.core import (
    BatchforgeError,
    ConfigValidationError,
    Resolution,
    ResolutionSet,
    SamplerConfig,
    Strategy,
    VideoClipSpec,
)
from batchforge.set_training import SetConfig
from batchforge.trainer import (
    EPOCH_COLUMNS,
    PooledLinearModel,
    RunReport,
    TrainerConfig,
    _forward_only,
    _pool,
    batch_label_smoothed_ce,
    ema_update,
    label_smoothed_ce,
    lr_at_epoch_fraction,
    make_synthetic_task,
    read_run_report,
    run_report_payload,
    sgd_momentum_step,
    train,
    write_run_report_json,
)

from reference_trainer import reference_batch_label_smoothed_ce, reference_reevaluation, reference_train

TOY_RESOLUTIONS = ResolutionSet.parse("8x8,16x16,32x32")


def toy_sampler(**overrides):
    kwargs = dict(
        strategy=Strategy.MSC_VBS,
        dataset_size=2000,
        base_batch=128,
        base_resolution=Resolution(16, 16),
        resolutions=TOY_RESOLUTIONS,
        epochs=10,
        seed=0,
        drop_last=False,
    )
    kwargs.update(overrides)
    return SamplerConfig(**kwargs)


def toy_trainer(**overrides):
    kwargs = dict(
        max_lr=0.2,
        warmup_epochs=3,
        total_epochs=10,
        weight_decay=1e-4,
        label_smoothing=0.1,
        ema_decay=0.999,
    )
    kwargs.update(overrides)
    return TrainerConfig(**kwargs)


# -- learning rate -----------------------------------------------------------


RESNET = TrainerConfig(max_lr=0.4, warmup_epochs=5, total_epochs=150)


def test_lr_reaches_max_at_warmup_end():
    assert lr_at_epoch_fraction(5, RESNET) == 0.4


def test_lr_midpoint_is_exact_average():
    cfg = TrainerConfig(max_lr=0.4, warmup_epochs=5, total_epochs=150, min_lr=0.01)
    midpoint = 5 + (150 - 5) / 2
    assert lr_at_epoch_fraction(midpoint, cfg) == (0.4 + 0.01) / 2


def test_lr_final_step_hits_min():
    assert lr_at_epoch_fraction(150, RESNET) == 0.0
    cfg = TrainerConfig(max_lr=0.4, warmup_epochs=5, total_epochs=150, min_lr=0.004)
    assert lr_at_epoch_fraction(150, cfg) == 0.004


def test_lr_warmup_is_linear_from_zero():
    assert lr_at_epoch_fraction(0, RESNET) == 0.0
    assert lr_at_epoch_fraction(2.5, RESNET) == pytest.approx(0.4 * 2.5 / 5)


def test_lr_continuous_at_warmup_boundary():
    left = lr_at_epoch_fraction(5 - 1e-9, RESNET)
    right = lr_at_epoch_fraction(5 + 1e-9, RESNET)
    assert abs(left - right) < 1e-8


def test_lr_non_increasing_after_warmup():
    values = [lr_at_epoch_fraction(5 + f * 145 / 2000, RESNET) for f in range(2001)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_lr_step_out_of_range():
    with pytest.raises(BatchforgeError) as err:
        lr_at_epoch_fraction(-0.01, RESNET)
    assert err.value.code == "STEP_OUT_OF_RANGE"
    with pytest.raises(BatchforgeError) as err:
        lr_at_epoch_fraction(150.01, RESNET)
    assert err.value.code == "STEP_OUT_OF_RANGE"


def test_trainer_config_invariants():
    with pytest.raises(BatchforgeError):
        TrainerConfig(max_lr=0.1, warmup_epochs=10, total_epochs=10)
    with pytest.raises(BatchforgeError):
        TrainerConfig(max_lr=0.1, warmup_epochs=0, total_epochs=10, label_smoothing=1.0)
    with pytest.raises(BatchforgeError):
        TrainerConfig(max_lr=0.1, warmup_epochs=0, total_epochs=10, ema_decay=1.5)
    for name in ("max_lr", "min_lr", "momentum", "weight_decay"):
        with pytest.raises(BatchforgeError) as err:
            TrainerConfig(**{"max_lr": 0.1, "warmup_epochs": 0, "total_epochs": 10, name: float("inf")})
        assert err.value.code == "NON_FINITE_SETTING", name


@pytest.mark.parametrize(
    "field, value, code",
    [
        ("max_lr", "0.1", "NON_FINITE_SETTING"),
        ("momentum", None, "NON_FINITE_SETTING"),
        ("weight_decay", True, "NON_FINITE_SETTING"),
        ("label_smoothing", "0.1", "BAD_SMOOTHING"),
        ("ema_decay", np.True_, "BAD_EMA"),
        ("total_epochs", True, "NOT_INTEGER"),
        ("warmup_epochs", 0.5, "NOT_INTEGER"),
        ("warmup_epochs", -1, "BAD_WARMUP"),
    ],
    ids=["text_max_lr", "none_momentum", "bool_weight_decay", "text_smoothing", "np_bool_ema", "bool_total_epochs",
         "fraction_warmup", "negative_warmup"],
)
def test_trainer_config_rejects_wrong_types_with_a_code(field, value, code):
    with pytest.raises(BatchforgeError) as err:
        TrainerConfig(**{"max_lr": 0.1, "warmup_epochs": 0, "total_epochs": 10, field: value})
    assert err.value.code == code and field in err.value.message


def test_trainer_config_stores_numpy_settings_as_python_numbers():
    config = TrainerConfig(max_lr=np.float64(0.1), warmup_epochs=np.int64(1), total_epochs=np.uint8(10), momentum=1)
    assert [type(getattr(config, f.name)) for f in fields(config)] == [float, int, int] + [float] * 5


# -- label-smoothed cross entropy ---------------------------------------------


def test_zero_smoothing_reduces_to_cross_entropy():
    logits = np.array([1.5, -0.3, 0.2])
    loss, grad = label_smoothed_ce(logits, 2, 0.0)
    shifted = logits - logits.max()
    probs = np.exp(shifted) / np.exp(shifted).sum()
    assert loss == pytest.approx(-math.log(probs[2]), rel=1e-12)
    expected = probs.copy()
    expected[2] -= 1.0
    assert np.allclose(grad, expected, atol=1e-12)


def test_uniform_logits_loss_is_log_k():
    for k in (2, 5, 10, 100):
        for eps in (0.0, 0.1, 0.5, 0.9):
            loss, _ = label_smoothed_ce(np.zeros(k), k // 2, eps)
            assert abs(loss - math.log(k)) < 1e-12


def test_two_class_value_against_high_precision_oracle():
    mp.mp.dps = 40
    e2 = mp.e**2
    p = [e2 / (e2 + 1), 1 / (e2 + 1)]
    q = [mp.mpf("0.95"), mp.mpf("0.05")]
    want = float(-(q[0] * mp.log(p[0]) + q[1] * mp.log(p[1])))
    loss, grad = label_smoothed_ce(np.array([2.0, 0.0]), 0, 0.1)
    assert loss == pytest.approx(want, rel=1e-14)
    fd = central_difference(lambda z: label_smoothed_ce(z, 0, 0.1)[0], np.array([2.0, 0.0]))
    assert np.allclose(grad, fd, rtol=1e-6, atol=1e-9)


def central_difference(f, x, h=1e-6):
    grad = np.zeros_like(x)
    for i in range(x.size):
        up, down = x.copy(), x.copy()
        up.flat[i] += h
        down.flat[i] -= h
        grad.flat[i] = (f(up) - f(down)) / (2 * h)
    return grad


def test_loss_rejects_non_finite():
    with pytest.raises(BatchforgeError) as err:
        label_smoothed_ce(np.array([np.inf, 0.0]), 0, 0.1)
    assert err.value.code == "NON_FINITE_INPUT"


def test_loss_lower_bound_with_equality_at_target_distribution():
    k, eps = 5, 0.2
    q = np.full(k, eps / k)
    q[1] += 1 - eps
    entropy = float(-(q * np.log(q)).sum())
    rng = np.random.default_rng(0)
    for _ in range(50):
        loss, _ = label_smoothed_ce(rng.normal(size=k) * 3, 1, eps)
        assert loss >= entropy - 1e-12
    loss_at_q, _ = label_smoothed_ce(np.log(q), 1, eps)
    assert loss_at_q == pytest.approx(entropy, rel=1e-12)


def test_batch_ce_matches_per_sample():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(6, 4))
    targets = rng.integers(0, 4, size=6)
    loss_b, grad_b, probs_b = batch_label_smoothed_ce(logits, targets, 0.1)
    singles = [label_smoothed_ce(logits[i], int(targets[i]), 0.1) for i in range(6)]
    assert loss_b == pytest.approx(np.mean([s[0] for s in singles]), rel=1e-12)
    assert np.allclose(grad_b, np.stack([s[1] for s in singles]) / 6, atol=1e-12)
    assert np.all((0 < probs_b) & (probs_b < 1))


def assert_rejected(call):
    with pytest.raises(BatchforgeError) as err:
        call()
    assert err.value.code == "NON_FINITE_INPUT"


def assert_batch_paths_reject(logits, targets):
    assert_rejected(lambda: batch_label_smoothed_ce(logits, targets, 0.1))
    assert_rejected(lambda: _forward_only(logits, targets))


@pytest.mark.parametrize("bad", [-1, 3], ids=["negative", "k"])
def test_loss_rejects_a_target_outside_the_classes(bad):
    assert_batch_paths_reject(np.zeros((2, 3)), np.array([0, bad]))
    assert_rejected(lambda: label_smoothed_ce(np.zeros(3), bad, 0.1))


def test_loss_rejects_a_target_count_that_differs_from_the_rows():
    for targets in (np.array([0, 1]), np.array([0, 1, 2, 3]), np.zeros((3, 1), dtype=np.int64)):
        assert_batch_paths_reject(np.zeros((3, 4)), targets)


def test_loss_rejects_a_single_class():
    assert_batch_paths_reject(np.zeros((2, 1)), np.zeros(2, dtype=np.int64))
    assert_rejected(lambda: label_smoothed_ce(np.zeros(1), 0, 0.1))


def test_batch_loss_does_not_depend_on_the_memory_order():
    rng = np.random.default_rng(2)
    logits, targets = rng.normal(size=(7, 5)), rng.integers(0, 5, size=7)
    c_order = batch_label_smoothed_ce(logits, targets, 0.1)
    f_order = batch_label_smoothed_ce(np.asfortranarray(logits), targets, 0.1)
    assert f_order[0] == pytest.approx(c_order[0], rel=1e-14)
    assert np.allclose(f_order[1], c_order[1], rtol=1e-14, atol=0)
    assert np.allclose(f_order[2], c_order[2], rtol=1e-14, atol=0)


@settings(max_examples=150, deadline=None, print_blob=False)
@example(rows=1, k=2, scale=1e-3, ties=False, eps=0.1, poison=None, seed=0)
@example(rows=1, k=2, scale=30.0, ties=True, eps=0.0, poison=None, seed=0)
@given(
    rows=st.integers(1, 64),
    k=st.integers(2, 12),
    scale=st.floats(1e-3, 30.0),
    ties=st.booleans(),
    eps=st.sampled_from([0.0, 0.1, 0.5, 0.9]),
    poison=st.sampled_from([None, None, None, np.nan, np.inf, -np.inf]),
    seed=st.integers(0, 2**32 - 1),
)
def test_loss_and_forward_only_pass_match_the_frozen_loss(rows, k, scale, ties, eps, poison, seed):
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((rows, k))
    logits = (np.floor(logits) if ties else logits) * scale  # floor leaves a few values per row: ties
    targets = rng.integers(0, k, size=rows)
    if poison is not None:
        logits[rng.integers(rows), rng.integers(k)] = poison
        assert_batch_paths_reject(logits, targets)
        assert_rejected(lambda: reference_batch_label_smoothed_ce(logits, targets, eps))
        return
    correct, probs = _forward_only(logits, targets)
    want_correct, want_probs = reference_reevaluation(logits, targets, eps)
    assert np.array_equal(correct, want_correct)
    assert np.array_equal(probs, want_probs)
    loss, grad, true_probs = batch_label_smoothed_ce(logits, targets, eps)
    want_loss, want_grad, want_true_probs = reference_batch_label_smoothed_ce(logits, targets, eps)
    assert loss == want_loss
    assert np.array_equal(grad, want_grad)
    assert np.array_equal(true_probs, want_true_probs)


# -- optimizer and EMA ---------------------------------------------------------


def test_sgd_plain_gradient_descent():
    params = np.array([1.0, 2.0])
    grads = np.array([0.5, -0.5])
    new, vel = sgd_momentum_step(params, grads, np.zeros(2), lr=0.1, momentum=0.0)
    assert np.allclose(new, params - 0.1 * grads)
    assert np.allclose(vel, grads)


def test_sgd_zero_lr_updates_velocity_only():
    params = np.array([1.0])
    new, vel = sgd_momentum_step(params, np.array([2.0]), np.array([1.0]), lr=0.0, momentum=0.9)
    assert np.array_equal(new, params)
    assert vel == pytest.approx(0.9 * 1.0 + 2.0)


def test_sgd_two_step_displacement_closed_form():
    g = np.array([1.0])
    params, vel = np.array([0.0]), np.zeros(1)
    for _ in range(2):
        params, vel = sgd_momentum_step(params, g, vel, lr=0.1, momentum=0.9)
    assert params[0] == pytest.approx(-0.1 * 1.0 * (1 + 1.9), rel=1e-12)


def test_sgd_weight_decay_coupled():
    params = np.array([2.0])
    new, vel = sgd_momentum_step(params, np.zeros(1), np.zeros(1), lr=0.1, momentum=0.0, weight_decay=0.5)
    assert vel[0] == pytest.approx(1.0)  # wd * param
    assert new[0] == pytest.approx(2.0 - 0.1)


def test_sgd_shape_mismatch():
    with pytest.raises(BatchforgeError) as err:
        sgd_momentum_step(np.zeros(2), np.zeros(3), np.zeros(2), 0.1, 0.9)
    assert err.value.code == "SHAPE_MISMATCH"


def test_ema_extremes_and_convergence():
    params = np.array([3.0])
    assert ema_update(np.array([7.0]), params, decay=0.0)[0] == 3.0
    assert ema_update(np.array([7.0]), params, decay=1.0)[0] == 7.0
    shadow, start, decay = np.array([7.0]), 7.0, 0.9
    for t in range(1, 50):
        shadow = ema_update(shadow, params, decay)
        want = start * decay**t + 3.0 * (1 - decay**t)
        assert shadow[0] == pytest.approx(want, rel=1e-12)


def test_ema_shape_mismatch():
    with pytest.raises(BatchforgeError):
        ema_update(np.zeros(2), np.zeros(3), 0.9)


# -- model and synthetic data ---------------------------------------------------


def test_model_gradient_matches_finite_differences_over_many_seeds():
    # full-model analytic gradient vs central differences, 1e-5 relative
    for seed in range(100):
        rng = np.random.default_rng(seed)
        model = PooledLinearModel(3, 4, ResolutionSet.parse("4x4,8x8,16x16"))
        model.theta = rng.normal(size=model.theta.size) * 0.5
        features = rng.normal(size=(5, 4, 4))
        targets = rng.integers(0, 3, size=5)
        resolution = list(model.resolutions)[seed % 3]
        _, grad, _, _ = model.loss_and_grad(features, targets, resolution, 0.1)

        def loss_at(theta):
            probe = PooledLinearModel(3, 4, model.resolutions)
            probe.theta = theta
            x = probe.inputs_at(features, resolution)
            logits = x @ probe.weights.T + probe.bias
            loss, _, _ = batch_label_smoothed_ce(logits, targets, 0.1)
            return loss

        fd = central_difference(loss_at, model.theta.copy(), h=1e-6)
        denom = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(grad - fd) / denom < 1e-5, seed


def test_pooling_factors_coarsest_blurs_most():
    model = PooledLinearModel(10, 8, TOY_RESOLUTIONS)
    factors = [model.pool_factor(r) for r in TOY_RESOLUTIONS]
    assert factors == [4, 2, 1]
    with pytest.raises(BatchforgeError):
        model.pool_factor(Resolution(64, 64))


def test_blur_removes_fine_detail_but_keeps_coarse():
    model = PooledLinearModel(10, 8, TOY_RESOLUTIONS)
    fine = np.zeros((1, 8, 8))
    fine[0, 0, 0], fine[0, 0, 1] = 1.0, -1.0  # zero-mean inside one 2x2 block
    assert np.allclose(model.inputs_at(fine, Resolution(16, 16)), 0.0)
    coarse = np.ones((1, 8, 8))
    assert np.allclose(model.inputs_at(coarse, Resolution(8, 8)), 1.0)


@pytest.mark.parametrize("grid", [8, 6, 16])
def test_pooled_grids_give_the_same_inputs_as_raw_grids(grid):
    # train pools a whole dataset once and gathers each batch's rows from it;
    # that must equal pooling the gathered raw rows, bit for bit, and the one-take
    # expansion must equal the double repeat, C-ordered, for any row count
    resolutions = TOY_RESOLUTIONS if grid < 16 else ResolutionSet.parse("64x64,96x96,128x128,160x160,192x192")
    model = PooledLinearModel(10, grid, resolutions)
    factors = {8: [4, 2, 1], 6: [2, 2, 1], 16: [16, 8, 4, 2, 1]}[grid]
    assert [model.pool_factor(r) for r in resolutions] == factors
    rng = np.random.default_rng(grid)
    features = rng.normal(size=(500, grid, grid))
    for ids in (rng.permutation(500)[:128], np.zeros(0, dtype=np.int64)):
        n = len(ids)
        for res in resolutions:
            f = model.pool_factor(res)
            raw = model.inputs_at(features[ids], res)
            assert raw.flags.c_contiguous and raw.shape == (n, grid * grid)
            assert np.array_equal(model.inputs_at(_pool(features, f)[ids], res), raw)
            assert model.inputs_at(raw, res) is raw  # expanded rows pass through
            coarse = features[ids].reshape(n, grid // f, f, grid // f, f).mean(axis=(2, 4))
            assert np.array_equal(raw, coarse.repeat(f, axis=1).repeat(f, axis=2).reshape(n, grid * grid))


@pytest.mark.parametrize("grid", [2, 4, 6, 8, 12, 16])
def test_pool_is_the_block_mean_bit_for_bit(grid):
    # the ordered strided adds follow numpy's own summation order for the mean, so no bit differs;
    # rows of 1e-3, 1 and 1e3 scale make any other order round differently somewhere
    rng = np.random.default_rng(grid)
    features = rng.normal(size=(2000, grid, grid)) * rng.choice([1e-3, 1.0, 1e3], size=(2000, 1, 1))
    for f in [f for f in range(1, grid + 1) if grid % f == 0]:
        mean = features.reshape(2000, grid // f, f, grid // f, f).mean(axis=(2, 4))
        pooled = _pool(features, f)
        assert pooled.shape == mean.shape and np.array_equal(pooled.view(np.int64), mean.view(np.int64)), f


def test_inputs_of_another_width_are_rejected():
    model = PooledLinearModel(10, 8, TOY_RESOLUTIONS)
    for side in (4, 3, 16):  # pooled by 2 (not 4), no factor at all, too wide
        with pytest.raises(BatchforgeError) as err:
            model.forward(np.zeros((2, side, side)), Resolution(8, 8))
        assert err.value.code == "SHAPE_MISMATCH"
    with pytest.raises(BatchforgeError) as err:
        model.inputs_at(np.zeros((2, 8, 4)), Resolution(8, 8))
    assert err.value.code == "SHAPE_MISMATCH"


@pytest.mark.parametrize("resolution", list(TOY_RESOLUTIONS), ids=str)
def test_inputs_at_takes_zero_rows(resolution):
    inputs = PooledLinearModel(10, 8, TOY_RESOLUTIONS).inputs_at(np.zeros((0, 8, 8)), resolution)
    assert inputs.shape == (0, 64)


def test_inputs_at_factor_one_are_the_raw_grids_flattened():
    model = PooledLinearModel(10, 8, TOY_RESOLUTIONS)
    finest = Resolution(32, 32)
    assert model.pool_factor(finest) == 1
    features = np.random.default_rng(4).normal(size=(50, 8, 8))
    assert np.array_equal(model.inputs_at(features, finest), features.reshape(50, 64))


@pytest.mark.parametrize("resolution", list(TOY_RESOLUTIONS), ids=str)
def test_forward_takes_zero_rows(resolution):
    assert PooledLinearModel(10, 8, TOY_RESOLUTIONS).forward(np.zeros((0, 8, 8)), resolution).shape == (0, 10)


@pytest.mark.parametrize("resolution", list(TOY_RESOLUTIONS), ids=str)
def test_predict_takes_zero_rows(resolution):
    predicted = PooledLinearModel(10, 8, TOY_RESOLUTIONS).predict(np.zeros((0, 8, 8)), resolution)
    assert predicted.shape == (0,)


@pytest.mark.parametrize("resolution", list(TOY_RESOLUTIONS), ids=str)
def test_forward_allocates_one_block_at_a_time(resolution):
    # 10,000 rows expanded at once take 5.1 MB (8x8) plus the pooling temporaries
    model = PooledLinearModel(10, 8, TOY_RESOLUTIONS)
    features = np.random.default_rng(0).normal(size=(10_000, 8, 8))
    tracemalloc.start()
    try:
        model.forward(features, resolution)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("rows", [1, 409, 410, 5000])  # one block is 2**18 // (64 * 10) = 409 rows
def test_blocked_forward_matches_one_gemm(rows):
    model = PooledLinearModel(10, 8, TOY_RESOLUTIONS)
    rng = np.random.default_rng(rows)
    model.theta = rng.normal(size=model.theta.size)
    features = rng.normal(size=(rows, 8, 8))
    for res in TOY_RESOLUTIONS:
        logits = model.forward(features, res)
        assert np.allclose(logits, model.inputs_at(features, res) @ model.weights.T + model.bias, rtol=1e-12)
        assert np.array_equal(model.predict(features, res), logits.argmax(axis=1))


def test_synthetic_task_balanced_and_reproducible():
    train_ds, eval_ds = make_synthetic_task(1001, num_classes=10, seed=7)
    counts = np.bincount(train_ds.labels, minlength=10)
    assert counts.max() - counts.min() <= 1
    again, _ = make_synthetic_task(1001, num_classes=10, seed=7)
    assert np.array_equal(train_ds.features, again.features)
    assert np.array_equal(train_ds.labels, again.labels)
    other, _ = make_synthetic_task(1001, num_classes=10, seed=8)
    assert not np.array_equal(train_ds.features, other.features)
    assert len(eval_ds) == 2000


@pytest.mark.parametrize(
    "kwargs, code",
    [(dict(grid=8.0), "BAD_GRID"), (dict(grid="8"), "BAD_GRID"), (dict(num_classes=2.5), "BAD_CLASSES"),
     (dict(num_classes=np.float64(3)), "BAD_CLASSES")],
    ids=["float_grid", "text_grid", "fraction_classes", "np_float_classes"],
)
def test_synthetic_task_rejects_non_integer_grid_and_classes(kwargs, code):
    with pytest.raises(BatchforgeError) as err:
        make_synthetic_task(100, **kwargs)
    assert err.value.code == code


@pytest.mark.parametrize(
    "kwargs, code",
    [(dict(num_samples=2.5), "BAD_SAMPLES"), (dict(num_samples=-1), "BAD_SAMPLES"), (dict(eval_samples=2.5), "BAD_SAMPLES"),
     (dict(eval_samples=True), "BAD_SAMPLES"), (dict(noise_scale="1.0"), "NON_FINITE_SETTING")],
    ids=["fraction_samples", "negative_samples", "fraction_eval_samples", "bool_eval_samples", "text_noise_scale"],
)
def test_synthetic_task_rejects_bad_sizes_and_noise(kwargs, code):
    with pytest.raises(BatchforgeError) as err:
        make_synthetic_task(**{"num_samples": 100, **kwargs})
    assert err.value.code == code


def test_synthetic_task_of_no_samples_is_empty():
    train_ds, eval_ds = make_synthetic_task(0, eval_samples=np.int64(0))
    assert len(train_ds) == len(eval_ds) == 0 and train_ds.features.shape == (0, 8, 8)


@pytest.mark.parametrize(
    "num_classes, grid, code",
    [(2.5, 8, "BAD_CLASSES"), (1, 8, "BAD_CLASSES"), (10, 8.0, "BAD_GRID"), (10, "8", "BAD_GRID"), (10, 0, "BAD_GRID")],
    ids=["fraction_classes", "one_class", "float_grid", "text_grid", "zero_grid"],
)
def test_model_rejects_bad_classes_and_grid(num_classes, grid, code):
    with pytest.raises(BatchforgeError) as err:
        PooledLinearModel(num_classes, grid, TOY_RESOLUTIONS)
    assert err.value.code == code


# -- training loop ----------------------------------------------------------------


def run_toy(tau=None, seed=0, **sampler_overrides):
    sampler = toy_sampler(seed=seed, **sampler_overrides)
    dataset, eval_dataset = make_synthetic_task(sampler.dataset_size, 10, 8, seed=seed)
    model = PooledLinearModel(10, 8, sampler.resolutions)
    set_config = SetConfig(tau=tau, window=2) if tau is not None else None
    return train(model, dataset, sampler, toy_trainer(), set_config, eval_dataset)


@pytest.mark.parametrize(
    "tau, drop_last", [(None, False), (0.7, False), (0.7, True)], ids=["unfiltered", "filtered", "filtered_drop_last"]
)
def test_train_matches_a_raw_grid_loop_bit_for_bit(tau, drop_last):
    set_config = SetConfig(tau=tau, window=2) if tau is not None else None
    report = assert_train_matches_reference(toy_sampler(drop_last=drop_last), set_config)
    if tau is not None:
        assert report.removed_count > 0


@pytest.mark.parametrize("reeval_stride", [1, 2])
@pytest.mark.parametrize("drop_last", [False, True])
@pytest.mark.parametrize("tau", [0.7, 1.0])
def test_filtered_train_matches_the_frozen_trainer(tau, drop_last, reeval_stride):
    set_config = SetConfig(tau=tau, window=2, reeval_stride=reeval_stride)
    report = assert_train_matches_reference(toy_sampler(drop_last=drop_last, epochs=8), set_config, total_epochs=8)
    assert (report.removed_count > 0) == (tau < 1.0)


def assert_train_matches_reference(sampler, set_config, **trainer_overrides):
    """train() equals the oracle's loop in params, EMA, losses, eval accuracy and transitions."""
    dataset, eval_dataset = make_synthetic_task(sampler.dataset_size, 10, 8, seed=1)
    tc = toy_trainer(**trainer_overrides)
    report = train(PooledLinearModel(10, 8, TOY_RESOLUTIONS), dataset, sampler, tc, set_config, eval_dataset)
    params, ema, losses, accuracies, transitions = reference_train(
        PooledLinearModel(10, 8, TOY_RESOLUTIONS), dataset, sampler, tc, set_config, eval_dataset
    )
    assert np.array_equal(report.final_params, params)
    assert np.array_equal(report.ema_params, ema)
    assert np.array_equal(report.losses(), losses, equal_nan=True)  # drop_last can leave no batch
    assert np.array_equal([row.eval_accuracy for row in report.per_epoch], accuracies)
    assert report.transitions == transitions
    return report


def test_video_train_matches_the_frozen_trainer():
    # train() reads each iteration's resolution from the schedule's shape table; a clip trains at its resolution
    specs = (VideoClipSpec(8, 1, Resolution(8, 8)), VideoClipSpec(8, 1, Resolution(16, 16)), VideoClipSpec(16, 1, Resolution(32, 32)))
    sampler = toy_sampler(strategy=Strategy.VIDEO_VBS, dataset_size=1000, base_batch=32, epochs=4, clips=specs, base_clip=specs[1])
    assert_train_matches_reference(sampler, SetConfig(tau=0.7, window=2), total_epochs=4)


def test_single_scale_train_pools_at_the_base_factor_alone():
    # a single-scale schedule's one shape is the base resolution, so the train set is pooled at its factor only
    sampler = toy_sampler(strategy=Strategy.SSC_FBS, epochs=3)
    with mock.patch.object(trainer_module, "_pool", wraps=trainer_module._pool) as pool:
        assert_train_matches_reference(sampler, SetConfig(tau=0.7, window=2), warmup_epochs=1, total_epochs=3)
    base_factor = PooledLinearModel(10, 8, TOY_RESOLUTIONS).pool_factor(sampler.base_resolution)
    assert {call.args[1] for call in pool.call_args_list} == {base_factor}


def test_grid_16_train_over_five_resolutions_matches_the_frozen_trainer():
    # pool factors 16 (the whole grid), 8, 4, 2 and 1: every pooling path and column map against the oracle's loop
    resolutions = ResolutionSet.parse("64x64,96x96,128x128,160x160,192x192")
    sampler = toy_sampler(dataset_size=1000, base_batch=64, base_resolution=Resolution(128, 128), resolutions=resolutions,
                          epochs=4)
    tc, set_config = toy_trainer(warmup_epochs=1, total_epochs=4), SetConfig(tau=0.7, window=2)
    dataset, eval_dataset = make_synthetic_task(1000, 10, 16, seed=2, eval_samples=500)
    model = PooledLinearModel(10, 16, resolutions)
    assert [model.pool_factor(r) for r in resolutions] == [16, 8, 4, 2, 1]
    report = train(model, dataset, sampler, tc, set_config, eval_dataset)
    params, ema, losses, accuracies, transitions = reference_train(
        PooledLinearModel(10, 16, resolutions), dataset, sampler, tc, set_config, eval_dataset
    )
    assert np.array_equal(report.final_params, params)
    assert np.array_equal(report.ema_params, ema)
    assert report.losses() == losses
    assert [row.eval_accuracy for row in report.per_epoch] == accuracies
    assert report.transitions == transitions
    assert report.removed_count > 0


def test_train_leaves_the_callers_parameters_unchanged():
    # train updates its own copy of the parameters in place; the array the caller set is never written
    sampler = toy_sampler(epochs=3)
    dataset, eval_dataset = make_synthetic_task(sampler.dataset_size, 10, 8, seed=0)
    model = PooledLinearModel(10, 8, TOY_RESOLUTIONS)
    start = np.random.default_rng(6).normal(size=model.theta.size) * 0.01
    model.theta, kept = start, start.copy()
    report = train(model, dataset, sampler, toy_trainer(warmup_epochs=1, total_epochs=3), SetConfig(tau=0.7, window=2),
                   eval_dataset)
    assert np.array_equal(start, kept)
    assert model.theta is not start and np.array_equal(model.theta, report.final_params)
    assert not np.array_equal(report.final_params, kept) and report.final_params is not report.ema_params


def test_a_diverging_run_fails_with_non_finite_input():
    # a step checks only that its loss is finite: parameters blown up by the learning rate make the logits overflow
    sampler = toy_sampler(epochs=3)
    dataset, eval_dataset = make_synthetic_task(sampler.dataset_size, 10, 8, seed=0)
    tc = toy_trainer(max_lr=1e300, warmup_epochs=1, total_epochs=3)
    with np.errstate(all="ignore"), pytest.raises(BatchforgeError) as err:
        train(PooledLinearModel(10, 8, TOY_RESOLUTIONS), dataset, sampler, tc, SetConfig(tau=0.7, window=2), eval_dataset)
    assert err.value.code == "NON_FINITE_INPUT"


def test_sampler_resolution_missing_from_model_is_rejected():
    sampler = toy_sampler(epochs=3)
    dataset, eval_dataset = make_synthetic_task(sampler.dataset_size, 10, 8, seed=0)
    model = PooledLinearModel(10, 8, ResolutionSet.parse("16x16,32x32"))  # no 8x8
    with pytest.raises(BatchforgeError) as err:
        train(model, dataset, sampler, toy_trainer(warmup_epochs=1, total_epochs=3), None, eval_dataset)
    assert err.value.code == "UNKNOWN_RESOLUTION"


def test_training_is_bit_deterministic():
    a, b = run_toy(seed=3), run_toy(seed=3)
    assert a.losses() == b.losses()
    assert np.array_equal(a.final_params, b.final_params)
    assert np.array_equal(a.ema_params, b.ema_params)
    assert [r.eval_accuracy for r in a.per_epoch] == [r.eval_accuracy for r in b.per_epoch]


def test_tau_one_matches_disabled_filtering_exactly():
    for drop_last in (True, False):
        base, gated = run_toy(drop_last=drop_last), run_toy(tau=1.0, drop_last=drop_last)
        counts = ["total_updates", "total_forward_passes", "removed_count", "readded_count"]
        for name in [f.name for f in fields(RunReport)] + counts:
            a, b = getattr(base, name), getattr(gated, name)
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, (drop_last, name)
        assert len(gated.transitions) == 10 and gated.removed_count == 0


def test_filtering_reduces_updates_without_losing_accuracy():
    base, filtered = run_toy(), run_toy(tau=0.7)
    assert filtered.total_updates < base.total_updates
    assert abs(filtered.final_eval_accuracy - base.final_eval_accuracy) <= 0.02
    assert filtered.removed_count > 0


def test_epoch_updates_match_sampler_accounting():
    report = run_toy(tau=0.7, strategy=Strategy.SSC_FBS, resolutions=ResolutionSet.parse("16x16"))
    for row, transition in zip(report.per_epoch, report.transitions):
        assert row.updates == math.ceil(transition.active_count / 128)


def test_update_ratio_tracks_closed_form_prediction():
    from batchforge.analysis import count_updates

    vbs = run_toy(strategy=Strategy.MSC_VBS)
    ssc = run_toy(strategy=Strategy.SSC_FBS)
    # the trainer consumes exactly the schedules the counter walks
    assert vbs.total_updates == count_updates(toy_sampler(strategy=Strategy.MSC_VBS)).exact
    assert ssc.total_updates == count_updates(toy_sampler(strategy=Strategy.SSC_FBS)).exact
    predicted = (
        count_updates(toy_sampler(strategy=Strategy.MSC_VBS)).closed_form
        / count_updates(toy_sampler(strategy=Strategy.SSC_FBS)).closed_form
    )
    got = vbs.total_updates / ssc.total_updates
    # short toy epochs leave visible end-of-epoch rounding; the expectation
    # still predicts the ballpark
    assert abs(got - predicted) / predicted < 0.15


def test_forward_passes_exceed_updates_with_filtering():
    report = run_toy(tau=0.7)
    # every trained sample plus one forward-only pass per removed sample per epoch
    assert report.total_forward_passes >= sum(t.active_count for t in report.transitions)


def test_filtering_with_drop_last_evaluates_the_dropped_tail():
    # active ids the drop_last tail leaves out get a forward-only record, so
    # every id costs one forward pass per epoch with or without drop_last,
    # filtered or not
    for tau in (0.7, None):
        for drop_last in (True, False):
            report = run_toy(tau=tau, drop_last=drop_last)
            assert [t.forward_passes for t in report.transitions] == [2000 * (e + 1) for e in range(10)]
            assert report.total_forward_passes == 10 * 2000
            assert (report.removed_count > 0) == (tau is not None)


def test_video_strategy_trains():
    specs = (
        VideoClipSpec(8, 1, Resolution(8, 8)),
        VideoClipSpec(8, 1, Resolution(16, 16)),
        VideoClipSpec(16, 1, Resolution(16, 16)),
    )
    sampler = toy_sampler(
        strategy=Strategy.VIDEO_VBS, dataset_size=1000, base_batch=32, epochs=4, clips=specs, base_clip=specs[1]
    )
    dataset, eval_dataset = make_synthetic_task(1000, 10, 8, seed=2)
    model = PooledLinearModel(10, 8, sampler.resolutions)
    report = train(model, dataset, sampler, toy_trainer(total_epochs=4), eval_dataset=eval_dataset)
    assert report.total_updates == sum(r.updates for r in report.per_epoch)
    assert report.final_eval_accuracy > 0.5

    with pytest.raises(ConfigValidationError) as err:
        train(model, dataset, replace(sampler, clips=()), toy_trainer(total_epochs=4))
    assert err.value.codes == ["EMPTY_SPEC_SET"]
    # a clip at a resolution the model lacks is rejected before any epoch runs
    outside = replace(sampler, clips=specs + (VideoClipSpec(8, 1, Resolution(48, 48)),))
    with pytest.raises(ConfigValidationError) as err:
        train(model, dataset, outside, toy_trainer(total_epochs=4))
    assert err.value.codes == ["CLIP_RES_NOT_IN_SET"]


def test_epoch_mismatch_rejected():
    sampler = toy_sampler(epochs=5)
    dataset, eval_dataset = make_synthetic_task(sampler.dataset_size, 10, 8, seed=0)
    model = PooledLinearModel(10, 8, sampler.resolutions)
    with pytest.raises(BatchforgeError) as err:
        train(model, dataset, sampler, toy_trainer(total_epochs=10), None, eval_dataset)
    assert err.value.code == "EPOCH_MISMATCH"


@pytest.mark.parametrize("which", ["train", "eval"])
def test_a_set_of_another_grid_is_rejected_before_any_work(which, monkeypatch):
    sampler = toy_sampler(epochs=3)
    wide = make_synthetic_task(sampler.dataset_size, 10, 8, seed=0)
    narrow = make_synthetic_task(sampler.dataset_size, 10, 4, seed=0)
    train_set, eval_set = (narrow[0], wide[1]) if which == "train" else (wide[0], narrow[1])
    monkeypatch.setattr("batchforge.trainer.plan_epoch", None)  # planning an epoch would raise TypeError
    model = PooledLinearModel(10, 8, TOY_RESOLUTIONS)
    with pytest.raises(BatchforgeError) as err:
        train(model, train_set, sampler, toy_trainer(warmup_epochs=1, total_epochs=3), None, eval_set)
    assert err.value.code == "SHAPE_MISMATCH"
    assert which in str(err.value)


@pytest.mark.parametrize("which", ["train", "eval"])
def test_labels_outside_the_model_classes_are_rejected_before_any_work(which, monkeypatch):
    sampler = toy_sampler(epochs=3)
    train_set, eval_set = make_synthetic_task(sampler.dataset_size, 10, 8, seed=0)
    if which == "eval":
        train_set = replace(train_set, labels=train_set.labels % 5)
    monkeypatch.setattr("batchforge.trainer.plan_epoch", None)  # planning an epoch would raise TypeError
    model = PooledLinearModel(5, 8, TOY_RESOLUTIONS)  # labels 5..9 are not its classes
    with pytest.raises(BatchforgeError) as err:
        train(model, train_set, sampler, toy_trainer(warmup_epochs=1, total_epochs=3), None, eval_set)
    assert err.value.code == "BAD_LABELS"
    assert f"{which} labels [5, 6, 7, 8, 9]" in str(err.value)


def test_a_train_set_of_another_size_than_the_config_is_rejected_before_any_work(monkeypatch):
    sampler = toy_sampler(epochs=3)
    train_set, eval_set = make_synthetic_task(sampler.dataset_size - 1, 10, 8, seed=0)
    monkeypatch.setattr("batchforge.trainer.plan_epoch", None)  # planning an epoch would raise TypeError
    model = PooledLinearModel(10, 8, TOY_RESOLUTIONS)
    with pytest.raises(BatchforgeError) as err:
        train(model, train_set, sampler, toy_trainer(warmup_epochs=1, total_epochs=3), None, eval_set)
    assert err.value.code == "SIZE_MISMATCH"
    assert f"dataset has {sampler.dataset_size - 1} samples, config says {sampler.dataset_size}" in str(err.value)


def _report_text(report, header=None):
    buf = io.StringIO()
    write_run_report_json(buf, report, header=header)
    return buf.getvalue()


@pytest.mark.parametrize(
    "tau, drop_last", [(None, False), (0.7, False), (0.7, True)], ids=["unfiltered", "filtered", "filtered_drop_last"]
)
def test_final_params_round_trip_bitwise(tau, drop_last):
    import base64
    import json

    report = run_toy(tau=tau, drop_last=drop_last)
    theta = np.frombuffer(base64.b64decode(json.loads(_report_text(report))["final_params"]), dtype="<f8")
    assert theta.tobytes() == report.final_params.astype("<f8").tobytes()
    assert np.array_equal(theta, report.final_params)


@pytest.mark.parametrize("drop_last", [False, True], ids=["filtered", "filtered_drop_last"])
def test_per_epoch_rows_carry_the_transitions(drop_last):
    report = run_toy(tau=0.7, drop_last=drop_last)
    rows = run_report_payload(report)["per_epoch"]
    assert [tuple(row) for row in rows] == [EPOCH_COLUMNS] * len(report.transitions)
    assert [(row["active"], row["removed"], row["readded"], row["forward_passes"]) for row in rows] == [
        (t.active_count, len(t.newly_removed), len(t.readded), t.forward_passes) for t in report.transitions
    ]
    assert sum(row["removed"] for row in rows) == report.removed_count > 0


def test_run_report_reader_rejects_truncated_or_padded_files():
    report = run_toy(tau=0.7)
    text = _report_text(report, header={"seed": 0})
    header, rows = read_run_report(io.StringIO(text))
    assert header == {"seed": 0} and rows == run_report_payload(report)["per_epoch"]
    for damaged in (text[:-16], text + "\0" * 8, text[:10], ""):
        with pytest.raises(BatchforgeError) as err:
            read_run_report(io.StringIO(damaged))
        assert err.value.code == "BAD_JSON"


def test_run_report_payload_is_json_ready():
    import json

    payload = run_report_payload(run_toy(tau=0.7))
    text = json.dumps(payload)
    assert payload["schema_version"] == 2 and "per_epoch" in payload
    assert not {"set_transitions", "param_checksum"} & set(payload)
    assert len(payload["per_epoch"]) == 10
    assert json.loads(text)["total_updates"] == payload["total_updates"]


def test_run_report_writes_non_finite_floats_as_null():
    import json

    sampler = toy_sampler()
    dataset, _ = make_synthetic_task(sampler.dataset_size, 10, 8, seed=0)
    report = train(PooledLinearModel(10, 8, sampler.resolutions), dataset, sampler, toy_trainer(), None, None)
    assert np.isnan(report.final_eval_accuracy)  # no eval set
    buf = io.StringIO()
    write_run_report_json(buf, report)
    payload = json.loads(buf.getvalue(), parse_constant=lambda constant: pytest.fail(f"not strict JSON: {constant}"))
    assert payload["final_eval_accuracy"] is None
    assert [row["eval_accuracy"] for row in payload["per_epoch"]] == [None] * len(report.per_epoch)
    assert [row["mean_loss"] for row in payload["per_epoch"]] == [row.mean_loss for row in report.per_epoch]
