"""Test oracle: the plain label-smoothed loss and a step-by-step training loop.

``reference_batch_label_smoothed_ce`` builds the full ``(B, K)`` target
matrix and gathers with 2-D fancy indexing; ``reference_reevaluation`` is the
forward-only record of removed samples and the ``drop_last`` tail computed
through that full loss. ``reference_train`` is ``train`` written out step by
step on raw grids, recording batch by batch, and calls neither the loss nor
``loss_and_grad`` of ``batchforge.trainer``. ``test_trainer.py`` checks the
trainer against it bit for bit.
"""

from __future__ import annotations

import numpy as np

from batchforge.core import BatchforgeError
from batchforge.samplers import plan_epoch
from batchforge.set_training import SetConfig, SetState
from batchforge.trainer import ema_update, lr_at_epoch_fraction, sgd_momentum_step


def reference_batch_label_smoothed_ce(
    logits: np.ndarray, targets: np.ndarray, label_smoothing: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean loss, mean-logit gradient, and per-sample true-class probability."""
    if not np.all(np.isfinite(logits)):
        raise BatchforgeError("NON_FINITE_INPUT", "logits must be finite")
    n, k = logits.shape
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    probs = np.exp(log_probs)
    rows = np.arange(n)
    true_log_probs = log_probs[rows, targets]
    loss = float(
        -(1.0 - label_smoothing) * true_log_probs.mean()
        - (label_smoothing / k) * log_probs.sum(axis=1).mean()
    )
    q = np.full_like(probs, label_smoothing / k)
    q[rows, targets] += 1.0 - label_smoothing
    grad = (probs - q) / n
    return loss, grad, probs[rows, targets]


def reference_reevaluation(
    logits: np.ndarray, labels: np.ndarray, label_smoothing: float
) -> tuple[np.ndarray, np.ndarray]:
    """(correct, true-class probability) of a forward-only pass, through the full loss."""
    _, _, probs = reference_batch_label_smoothed_ce(logits, labels, label_smoothing)
    return logits.argmax(axis=1) == labels, probs


def reference_loss_and_grad(model, features, targets, resolution, label_smoothing):
    """``PooledLinearModel.loss_and_grad`` through the full loss."""
    x = model.inputs_at(features, resolution)
    logits = x @ model.weights.T + model.bias
    loss, dlogits, true_probs = reference_batch_label_smoothed_ce(logits, targets, label_smoothing)
    grad = np.concatenate([(dlogits.T @ x).ravel(), dlogits.sum(axis=0)])
    return loss, grad, logits.argmax(axis=1) == targets, true_probs


def reference_train(model, dataset, sampler, tc, set_config, eval_dataset):
    """train() written out step by step, every call on raw grids, recording batch by batch."""
    state = SetState(len(dataset), set_config or SetConfig(tau=1.0, window=1))  # None is tau 1.0
    velocity, shadow = np.zeros_like(model.theta), model.theta.copy()
    losses, accuracies, transitions = [], [], []
    for epoch in range(tc.total_epochs):
        active = state.active_samples()
        schedule = plan_epoch(sampler, epoch, active)
        batch_losses = []
        for plan in schedule.plans:
            lr = lr_at_epoch_fraction(epoch + plan.iteration / schedule.total_updates, tc)
            ids = plan.sample_ids
            loss, grad, correct, confidences = reference_loss_and_grad(
                model, dataset.features[ids], dataset.labels[ids], plan.resolution, tc.label_smoothing
            )
            state.record_batch(ids, correct, confidences)
            model.theta, velocity = sgd_momentum_step(
                model.theta, grad, velocity, lr, tc.momentum, tc.weight_decay
            )
            shadow = ema_update(shadow, model.theta, tc.ema_decay)
            batch_losses.append(loss)
        tail = np.setdiff1d(active, schedule.ids, assume_unique=True)
        reeval = np.concatenate([state.reevaluation_plan(), tail])
        if len(reeval):
            logits = model.forward(dataset.features[reeval], sampler.base_resolution)
            state.record_batch(reeval, *reference_reevaluation(logits, dataset.labels[reeval], tc.label_smoothing))
        transitions.append(state.finalize_epoch())
        predicted = model.predict(eval_dataset.features, sampler.base_resolution)
        accuracies.append(float((predicted == eval_dataset.labels).mean()))
        losses.append(float(np.mean(batch_losses)) if batch_losses else float("nan"))
    return model.theta, shadow, losses, accuracies, transitions
