"""A small numerical trainer that exercises schedules and sample filtering
end to end.

The learner is multinomial logistic regression over a synthetic feature
grid (:func:`make_synthetic_task`). Resolution enters through a pooling
trick: before the linear layer, the grid is average-pooled by a factor tied
to the sampled resolution's rank in the resolution set (coarsest resolution
= heaviest blur), then re-expanded.

Recipe ingredients implemented here: linear-warmup cosine annealing,
label-smoothed cross entropy, SGD with momentum and coupled weight decay,
and an exponential moving average of the parameters. Training is
bit-deterministic given its seeds. Its forward-only GEMMs run in row blocks
of at most ``FORWARD_MACS`` multiply-adds (:meth:`PooledLinearModel.forward`);
each training step's two GEMMs are bounded by its batch (batch x grid² x K
multiply-adds).

A run's one artifact is its JSON run report: the totals, the final
parameters and one ``per_epoch`` row of ``EPOCH_COLUMNS`` per epoch.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Callable

import numpy as np

from .core import BatchforgeError, Resolution, ResolutionSet, SamplerConfig, check_integer, check_real, ensure_valid, pack_array
from .rng import derive_seed
from .samplers import plan_epoch, shape_resolution
from .set_training import EpochTransition, SetConfig, SetState

RUN_REPORT_SCHEMA = 2
EPOCH_COLUMNS = ("epoch", "mean_loss", "eval_accuracy", "updates", "active", "removed", "readded", "forward_passes")
# OpenBLAS runs a GEMM of at most 65,536 x 4 multiply-adds on the calling thread alone.
FORWARD_MACS = 2**18
# Amplitudes of the synthetic class means' coarse, mid and fine bands (``_class_means``).
COARSE_SCALE, MID_SCALE, FINE_SCALE = 0.6, 0.8, 0.8


@dataclass(frozen=True)
class TrainerConfig:
    """Optimizer and schedule hyperparameters."""

    max_lr: float
    warmup_epochs: int
    total_epochs: int
    min_lr: float = 0.0
    momentum: float = 0.9
    weight_decay: float = 0.0
    label_smoothing: float = 0.0
    ema_decay: float = 0.9995

    def __post_init__(self):
        for name in ("max_lr", "min_lr", "momentum", "weight_decay"):
            object.__setattr__(self, name, check_real(getattr(self, name), name, "NON_FINITE_SETTING"))
        for name in ("warmup_epochs", "total_epochs"):
            object.__setattr__(self, name, check_integer(getattr(self, name), name, "NOT_INTEGER", low_code="BAD_WARMUP"))
        if self.warmup_epochs >= self.total_epochs:
            raise BatchforgeError(
                "BAD_WARMUP", f"need 0 <= warmup ({self.warmup_epochs}) < total ({self.total_epochs})"
            )
        smoothing = check_real(self.label_smoothing, "label_smoothing", "BAD_SMOOTHING", 0, 1, open_top=True)
        object.__setattr__(self, "label_smoothing", smoothing)
        object.__setattr__(self, "ema_decay", check_real(self.ema_decay, "ema_decay", "BAD_EMA", 0, 1))


def _cos_pi(progress: float) -> float:
    # sin(pi*(1/2 - p)) == cos(pi*p) but is exact at p = 0, 1/2, 1
    return math.sin(math.pi * (0.5 - progress))


def lr_at_epoch_fraction(fraction: float, config: TrainerConfig) -> float:
    """Learning rate at a position measured in (possibly fractional) epochs.

    Linear 0 -> max_lr over the warmup epochs, then cosine annealing from
    max_lr down to min_lr over the remaining epochs. Continuous at the
    warmup boundary.
    """
    if fraction < 0 or fraction > config.total_epochs:
        raise BatchforgeError(
            "STEP_OUT_OF_RANGE", f"epoch fraction {fraction} outside [0, {config.total_epochs}]"
        )
    if config.warmup_epochs > 0 and fraction < config.warmup_epochs:
        return config.max_lr * fraction / config.warmup_epochs
    progress = (fraction - config.warmup_epochs) / (config.total_epochs - config.warmup_epochs)
    return config.min_lr + 0.5 * (config.max_lr - config.min_lr) * (1.0 + _cos_pi(progress))


def _checked_copy(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """A float64 copy of ``(n, K)`` logits for the in-place kernels, after the loss's input checks."""
    if not np.all(np.isfinite(logits)):
        raise BatchforgeError("NON_FINITE_INPUT", "logits must be finite")
    n, k = logits.shape
    if k < 2:
        raise BatchforgeError("NON_FINITE_INPUT", "need at least two classes")
    if targets.shape != (n,) or not np.all((targets >= 0) & (targets < k)):
        raise BatchforgeError("NON_FINITE_INPUT", f"need one target in [0, {k}) per row, got {targets.shape} for {n} rows")
    return logits.astype(np.float64)


def _shift(logits: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shift ``(n, K)`` logits by their row max in place; return ``exp`` of them, their ``(n, 1)`` log-sum-exp
    and the flat index of each row's target.

    The row max is taken column by column, which is exact and, for few classes, faster than a reduction along
    each short row. A NaN or infinite logit leaves its row's log-sum-exp NaN or infinite.
    """
    n, k = logits.shape
    row_max = logits[:, 0].copy()
    for j in range(1, k):
        np.maximum(row_max, logits[:, j], out=row_max)
    logits -= row_max[:, None]
    exp = np.exp(logits)
    lse = exp.sum(axis=1, keepdims=True)
    return exp, np.log(lse, out=lse), np.arange(0, n * k, k) + targets


def _ce_kernel(logits: np.ndarray, targets: np.ndarray, label_smoothing: float) -> tuple[float, np.ndarray, np.ndarray]:
    """:func:`batch_label_smoothed_ce` in place on ``logits``, unchecked: the gradient is the ``exp`` buffer of
    :func:`_shift`, which holds the probabilities before it. Each mean is ``sum() / n``, numpy's own ``mean``."""
    exp, lse, at_target = _shift(logits, targets)
    log_probs = np.subtract(logits, lse, out=logits)
    n, k = log_probs.shape
    smooth = label_smoothing / k
    true_log_probs = log_probs.ravel()[at_target]
    loss = float(-(1.0 - label_smoothing) * (true_log_probs.sum() / n) - smooth * (log_probs.sum(axis=1).sum() / n))
    grad = np.exp(log_probs, out=exp)
    true_probs = grad.ravel()[at_target]
    grad -= smooth
    grad.flat[at_target] = true_probs - (smooth + (1.0 - label_smoothing))  # .flat writes through in any memory order
    grad /= n
    return loss, grad, true_probs


def batch_label_smoothed_ce(logits: np.ndarray, targets: np.ndarray,
                            label_smoothing: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean loss, mean-logit gradient, and per-sample true-class probability.

    With smoothing eps the target distribution is (1 - eps) * onehot + eps / K;
    the gradient is softmax(logits) minus that distribution, over the row count.
    """
    return _ce_kernel(_checked_copy(logits, targets), targets, label_smoothing)


def label_smoothed_ce(logits: np.ndarray, target: int, label_smoothing: float) -> tuple[float, np.ndarray]:
    """Loss and logit gradient for one sample: the one-row batch loss."""
    logits = np.asarray(logits, dtype=np.float64)
    loss, grad, _ = batch_label_smoothed_ce(logits[None], np.array([target]), label_smoothing)
    return loss, grad[0]


def _forward_only(logits: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample correctness and true-class probability: the log-softmax of the target column only.

    The one record path of forward-only passes. A non-finite logit raises ``NON_FINITE_INPUT``, as do fewer than two
    classes and a target outside them; the shift runs in place on a float64 copy, so ``logits`` is never written.
    ``train`` runs these checks once per epoch, its labels included, although it checked them once per run: the
    price of one forward-only path.
    """
    logits = _checked_copy(logits, targets)
    correct = logits.argmax(axis=1) == targets
    _, lse, at_target = _shift(logits, targets)
    return correct, np.exp(logits.ravel()[at_target] - lse[:, 0])


def _sgd_kernel(params, grads, velocity, lr, momentum, weight_decay, scratch) -> None:
    """:func:`sgd_momentum_step` in place on ``params`` and ``velocity``, each product in its order."""
    velocity *= momentum
    velocity += grads
    velocity += np.multiply(weight_decay, params, out=scratch)
    params -= np.multiply(lr, velocity, out=scratch)


def _ema_kernel(shadow, params, decay, scratch) -> None:
    """:func:`ema_update` in place on ``shadow``."""
    shadow *= decay
    shadow += np.multiply(1.0 - decay, params, out=scratch)


def sgd_momentum_step(params: np.ndarray, grads: np.ndarray, velocity: np.ndarray, lr: float, momentum: float,
                      weight_decay: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Classical SGD-M with weight decay folded into the gradient, as new arrays.

    v <- momentum * v + grad + wd * param;  param <- param - lr * v.
    """
    if params.shape != grads.shape or params.shape != velocity.shape:
        raise BatchforgeError("SHAPE_MISMATCH", "params, grads, velocity must share a shape")
    params, velocity = params.astype(np.float64), velocity.astype(np.float64)
    _sgd_kernel(params, grads, velocity, lr, momentum, weight_decay, np.empty_like(params))
    return params, velocity


def ema_update(shadow: np.ndarray, params: np.ndarray, decay: float) -> np.ndarray:
    """shadow <- decay * shadow + (1 - decay) * params, as a new array."""
    if shadow.shape != params.shape:
        raise BatchforgeError("SHAPE_MISMATCH", "shadow and params must share a shape")
    shadow = shadow.astype(np.float64)
    _ema_kernel(shadow, params, decay, np.empty_like(shadow))
    return shadow


def _pool_factors(resolutions: ResolutionSet, grid: int) -> dict[Resolution, int]:
    """Blur factor per resolution: coarsest entry pools the largest blocks."""
    n = len(resolutions)
    factors = {}
    for rank, res in enumerate(resolutions):
        f = 2 ** (n - 1 - rank)
        while f > 1 and (f > grid or grid % f != 0):
            f //= 2
        factors[res] = f
    return factors


def _pool(features: np.ndarray, factor: int) -> np.ndarray:
    """Average-pool ``(B, g, g)`` grids by ``factor`` to ``(B, g/f, g/f)``.

    Bit for bit ``reshape(B, g/f, f, g/f, f).mean(axis=(2, 4))``, summed in that mean's own order by
    strided adds: each block row along its contiguous axis (in sequence below 8 values, numpy's
    pairwise ``sum(axis=-1)`` from 8), then the block's rows in order, over f². A block that is the
    whole grid is one contiguous sum.
    """
    if factor == 1:
        return features
    b, g, _ = features.shape
    if factor == g:
        return (features.reshape(b, g * g).sum(axis=1) / (g * g)).reshape(b, 1, 1)
    blocks = features.reshape(b, g // factor, factor, g // factor, factor)

    def block_row(j: int, out: np.ndarray | None = None) -> np.ndarray:
        """Row ``j`` of every block summed along its contiguous axis."""
        if factor >= 8:
            return blocks[:, :, j].sum(axis=-1, out=out)
        out = np.add(blocks[:, :, j, :, 0], blocks[:, :, j, :, 1], out=out)
        for k in range(2, factor):
            out += blocks[:, :, j, :, k]
        return out

    pooled, row = block_row(0), None
    for j in range(1, factor):  # one block row at a time: the temporaries stay at one pooled size
        row = block_row(j, row)
        pooled += row
    pooled /= factor * factor
    return pooled


class PooledLinearModel:
    """Linear softmax classifier over a resolution-blurred feature grid.

    Parameters live in one flat float64 vector; ``weights`` and ``bias``
    are named views into it. Zero initialisation keeps construction
    deterministic and makes the initial loss exactly log K.
    """

    def __init__(self, num_classes: int, grid: int, resolutions: ResolutionSet):
        self.num_classes = check_integer(num_classes, "num_classes", "BAD_CLASSES", least=2)
        self.grid = check_integer(grid, "grid", "BAD_GRID", least=2)
        self.resolutions = resolutions
        self._factors = _pool_factors(resolutions, self.grid)
        # per factor above 1, the pooled cell of each expanded column: one take re-expands a batch C-ordered
        self._columns = {}
        for f in set(self._factors.values()) - {1}:
            cells = np.arange(self.grid) // f
            self._columns[f] = (cells[:, None] * (self.grid // f) + cells).ravel()
        self.theta = np.zeros(self.num_classes * self.grid * self.grid + self.num_classes, dtype=np.float64)

    @property
    def weights(self) -> np.ndarray:
        return self.theta[: self.num_classes * self.grid * self.grid].reshape(
            self.num_classes, self.grid * self.grid
        )

    @property
    def bias(self) -> np.ndarray:
        return self.theta[self.num_classes * self.grid * self.grid :]

    def pool_factor(self, resolution: Resolution) -> int:
        try:
            return self._factors[resolution]
        except KeyError:
            raise BatchforgeError(
                "UNKNOWN_RESOLUTION", f"{resolution} is not in the model's resolution set"
            ) from None

    def _expander(self, features: np.ndarray, resolution: Resolution) -> Callable[[np.ndarray], np.ndarray]:
        """The map from a row block of ``features`` to its flat ``(n, grid²)`` inputs at ``resolution``.

        Raw ``grid``-wide grids are pooled, and pooled grids are expanded with one ``take`` through the column
        map, which keeps C order; at factor 1 the rows are a reshape view. Rows already expanded pass through.
        """
        g, factor = self.grid, self.pool_factor(resolution)
        if features.ndim == 2 and features.shape[1] == g * g:
            return lambda rows: rows
        raw = features.shape[1:] == (g, g)
        if not raw and features.shape[1:] != (g // factor,) * 2:
            raise BatchforgeError("SHAPE_MISMATCH", f"grids {features.shape[1:]} are neither raw nor pooled by {factor}")
        cols, width = self._columns.get(factor), (g // factor) ** 2

        def expand(rows: np.ndarray) -> np.ndarray:
            flat = (_pool(rows, factor) if raw else rows).reshape(len(rows), width)
            return flat if cols is None else flat.take(cols, axis=1)
        return expand

    def inputs_at(self, features: np.ndarray, resolution: Resolution) -> np.ndarray:
        """Flat ``(n, grid²)`` inputs from raw ``grid``-wide grids, grids already pooled for ``resolution``,
        or rows already expanded (returned as they are)."""
        return self._expander(features, resolution)(features)

    def forward(self, features: np.ndarray, resolution: Resolution) -> np.ndarray:
        """``(n, K)`` logits, expanded and multiplied ``max(1, FORWARD_MACS // (grid² K))`` rows at a time.

        Each block's GEMM stays within ``FORWARD_MACS`` multiply-adds, so BLAS runs it on
        the calling thread, and no temporary outgrows one block.
        """
        rows = max(1, FORWARD_MACS // (self.grid * self.grid * self.num_classes))
        expand, weights_t = self._expander(features, resolution), self.weights.T
        logits = np.empty((len(features), self.num_classes))
        for lo in range(0, len(features), rows):
            np.matmul(expand(features[lo : lo + rows]), weights_t, out=logits[lo : lo + rows])
        logits += self.bias
        return logits

    def _step(self, x: np.ndarray, targets: np.ndarray, label_smoothing: float, grad: np.ndarray, loss_fn=_ce_kernel):
        """(loss, per-sample correctness, true-class prob) of expanded rows ``x``, its flat gradient written into
        ``grad``. A non-finite loss, which any non-finite logit makes, raises ``NON_FINITE_INPUT``. ``loss_fn`` is
        :func:`batch_label_smoothed_ce` or its unchecked in-place kernel, which ``train`` runs on labels it checked."""
        logits = x @ self.weights.T
        logits += self.bias
        correct = logits.argmax(axis=1) == targets
        loss, dlogits, true_probs = loss_fn(logits, targets, label_smoothing)
        if not math.isfinite(loss):
            raise BatchforgeError("NON_FINITE_INPUT", f"the loss is {loss}: logits must be finite")
        k = self.num_classes
        np.matmul(dlogits.T, x, out=grad[:-k].reshape(k, -1))
        dlogits.sum(axis=0, out=grad[-k:])
        return loss, correct, true_probs

    def loss_and_grad(self, features: np.ndarray, targets: np.ndarray, resolution: Resolution,
                      label_smoothing: float) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """(loss, flat gradient, per-sample correctness, true-class prob)."""
        grad = np.empty_like(self.theta)
        loss, correct, true_probs = self._step(self.inputs_at(features, resolution), targets, label_smoothing, grad,
                                               batch_label_smoothed_ce)
        return loss, grad, correct, true_probs

    def predict(self, features: np.ndarray, resolution: Resolution) -> np.ndarray:
        return self.forward(features, resolution).argmax(axis=1)


@dataclass(frozen=True)
class SyntheticDataset:
    """Class-balanced Gaussian-mixture feature grids, regenerable from seed."""

    features: np.ndarray  # (N, grid, grid)
    labels: np.ndarray  # (N,)

    def __len__(self) -> int:
        return len(self.labels)


def _remove_block_means(pattern: np.ndarray, block: int) -> np.ndarray:
    k, g, _ = pattern.shape
    blocks = pattern.reshape(k, g // block, block, g // block, block)
    return (blocks - blocks.mean(axis=(2, 4), keepdims=True)).reshape(k, g, g)


def _class_means(num_classes: int, grid: int, rng: np.random.Generator) -> np.ndarray:
    """Class patterns in three frequency bands.

    The coarse band is constant over 4x4 blocks, so it survives any
    pooling the model applies. The mid band is constant over 2x2 blocks
    but zero-mean within 4x4 blocks: factor-2 pooling keeps it, factor-4
    pooling erases it. The fine band is zero-mean within 2x2 blocks and
    dies under any pooling. Coarser sampled resolutions therefore see
    strictly less class-separating signal.
    """
    quarter = max(grid // 4, 1)
    coarse = rng.standard_normal((num_classes, quarter, quarter))
    coarse = coarse.repeat(grid // quarter, axis=1).repeat(grid // quarter, axis=2)
    mid = rng.standard_normal((num_classes, grid // 2, grid // 2)).repeat(2, axis=1).repeat(2, axis=2)
    if grid >= 4:
        mid = _remove_block_means(mid, 4)
    fine = _remove_block_means(rng.standard_normal((num_classes, grid, grid)), 2)
    return COARSE_SCALE * coarse + MID_SCALE * mid + FINE_SCALE * fine


def make_synthetic_task(
    num_samples: int,
    num_classes: int = 10,
    grid: int = 8,
    seed: int = 0,
    eval_samples: int = 2000,
    noise_scale: float = 1.15,
) -> tuple[SyntheticDataset, SyntheticDataset]:
    """Train and eval splits drawn from one class-mean draw.

    The noise level is chosen so a linear model separates most but not
    all samples: confidences near the threshold keep drifting as the
    parameters move, which is what exercises removal and re-adding. The
    three-band class means need ``grid`` to be 2 or a multiple of 4.
    """
    grid = check_integer(grid, "grid", "BAD_GRID", least=2)
    if not (grid == 2 or grid % 4 == 0):
        raise BatchforgeError("BAD_GRID", f"grid must be 2 or a positive multiple of 4, got {grid}")
    num_classes = check_integer(num_classes, "num_classes", "BAD_CLASSES", least=2)
    num_samples = check_integer(num_samples, "num_samples", "BAD_SAMPLES")
    eval_samples = check_integer(eval_samples, "eval_samples", "BAD_SAMPLES")
    noise_scale = check_real(noise_scale, "noise_scale", "NON_FINITE_SETTING")
    means = _class_means(num_classes, grid, np.random.default_rng(derive_seed(seed, 1)))

    def split(count: int, stream: int) -> SyntheticDataset:
        rng = np.random.default_rng(derive_seed(seed, stream))
        labels = np.arange(count, dtype=np.int64) % num_classes
        labels = labels[rng.permutation(count)]
        features = means[labels] + noise_scale * rng.standard_normal((count, grid, grid))
        return SyntheticDataset(features, labels)

    return split(num_samples, 2), split(eval_samples, 3)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    mean_loss: float
    eval_accuracy: float
    updates: int


@dataclass
class RunReport:
    """Everything a training run produced, deterministic given seeds.

    The filter counts are read from ``transitions``, one per epoch.
    """

    per_epoch: list[EpochStats]
    final_params: np.ndarray
    ema_params: np.ndarray
    transitions: list[EpochTransition]

    @property
    def total_updates(self) -> int:
        return sum(row.updates for row in self.per_epoch)

    @property
    def total_forward_passes(self) -> int:
        return self.transitions[-1].forward_passes if self.transitions else 0

    @property
    def removed_count(self) -> int:
        return sum(len(t.newly_removed) for t in self.transitions)

    @property
    def readded_count(self) -> int:
        return sum(len(t.readded) for t in self.transitions)

    @property
    def final_eval_accuracy(self) -> float:
        return self.per_epoch[-1].eval_accuracy if self.per_epoch else 0.0

    def losses(self) -> list[float]:
        return [row.mean_loss for row in self.per_epoch]


def train(
    model: PooledLinearModel,
    dataset: SyntheticDataset,
    sampler_config: SamplerConfig,
    trainer_config: TrainerConfig,
    set_config: SetConfig | None = None,
    eval_dataset: SyntheticDataset | None = None,
) -> RunReport:
    """Drive the sampler, optimizer, and sample filtering.

    Filtering is always on: ``set_config=None`` means
    ``SetConfig(tau=1.0, window=1)``, and tau 1.0 removes nothing, so such a
    run trains every id every epoch. Per epoch: plan batches over the active
    ids, take one SGD-M step per batch with the warmup/cosine learning rate,
    maintain the parameter EMA, record the trained samples' correctness and
    confidence in one call, evaluate the removed samples due a check and the
    active ones still unrecorded (the ``drop_last`` tail) forward-only at the
    base resolution, then apply the removal/re-add rules.

    Any of the four strategies works; video reads its clip table from
    ``sampler_config.clips`` and ``base_clip``, and the model sees each
    clip's spatial resolution (frames/clips only shape the batch sizes).
    Before any work, the train and eval sets must hold ``model.grid``-wide
    grids (``SHAPE_MISMATCH``) and labels in ``[0, model.num_classes)``
    (``BAD_LABELS``); after that, a step checks only its loss, which any NaN
    or infinite logit makes NaN or infinite (``NON_FINITE_INPUT``).

    Pooling is per sample, so the train set is pooled once per factor its
    schedules' shapes use, and the eval set is pooled and expanded once per
    run (eval samples x grid² x 8 bytes: 1 MB for 2,000 samples on an 8x8
    grid). Each step runs its loss, gradient, SGD-M and EMA in place on the
    run's own copy of ``model.theta`` and buffers, so the caller's array is
    never written.
    """
    ensure_valid(sampler_config)
    if sampler_config.epochs != trainer_config.total_epochs:
        raise BatchforgeError(
            "EPOCH_MISMATCH",
            f"sampler epochs {sampler_config.epochs} != trainer total_epochs {trainer_config.total_epochs}",
        )
    if len(dataset) != sampler_config.dataset_size:
        raise BatchforgeError(
            "SIZE_MISMATCH",
            f"dataset has {len(dataset)} samples, config says {sampler_config.dataset_size}",
        )

    for name, data in (("train", dataset), ("eval", eval_dataset)):
        if data is None:
            continue
        if data.features.shape[1:] != (model.grid, model.grid):
            raise BatchforgeError(
                "SHAPE_MISMATCH", f"{name} grids {data.features.shape[1:]} are not the model's {model.grid}x{model.grid}"
            )
        outside = np.unique(data.labels[(data.labels < 0) | (data.labels >= model.num_classes)])
        if len(outside):
            raise BatchforgeError(
                "BAD_LABELS",
                f"{name} labels {outside[:8].tolist()}{' ...' if len(outside) > 8 else ''} are outside the model's"
                f" classes [0, {model.num_classes})",
            )

    pooled: dict[int, tuple] = {}  # per factor, the train set pooled once and the map that expands its rows
    def pooled_at(resolution: Resolution) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        factor = model.pool_factor(resolution)
        if factor not in pooled:
            grids = _pool(dataset.features, factor)
            pooled[factor] = grids, model._expander(grids, resolution)
        return pooled[factor]

    base = sampler_config.base_resolution
    eval_inputs = model.inputs_at(eval_dataset.features, base) if eval_dataset else None  # expanded once per run
    state = SetState(len(dataset), set_config or SetConfig(tau=1.0, window=1))
    theta = model.theta = model.theta.astype(np.float64)  # the run's own copy: the caller's array is never written
    velocity, shadow, grad, scratch = np.zeros_like(theta), theta.copy(), np.empty_like(theta), np.empty_like(theta)
    per_epoch: list[EpochStats] = []
    transitions: list[EpochTransition] = []

    for epoch in range(trainer_config.total_epochs):
        schedule = plan_epoch(sampler_config, epoch, state.active_samples())
        bounds, labels = schedule.offsets.tolist(), dataset.labels[schedule.ids]
        inputs = [pooled_at(shape_resolution(shape)) for shape in schedule.shapes]  # once per epoch, not per step
        correct = np.empty(schedule.total_samples, dtype=bool)
        confidence = np.empty(schedule.total_samples)
        batch_losses = []
        for t, k in enumerate(schedule.shape_idx.tolist()):
            lr = lr_at_epoch_fraction(epoch + t / schedule.total_updates, trainer_config)
            (grids, expand), lo, hi = inputs[k], bounds[t], bounds[t + 1]
            loss, correct[lo:hi], confidence[lo:hi] = model._step(
                expand(grids[schedule.ids[lo:hi]]), labels[lo:hi], trainer_config.label_smoothing, grad
            )
            _sgd_kernel(theta, grad, velocity, lr, trainer_config.momentum, trainer_config.weight_decay, scratch)
            _ema_kernel(shadow, theta, trainer_config.ema_decay, scratch)
            batch_losses.append(loss)
        state.record_batch(schedule.ids, correct, confidence)

        # removed ids due a check, then the active ids of the dropped tail, which still owe this epoch a record
        reeval = np.concatenate([state.reevaluation_plan(), state.unrecorded_samples()])
        if len(reeval):
            logits = model.forward(pooled_at(base)[0][reeval], base)
            state.record_batch(reeval, *_forward_only(logits, dataset.labels[reeval]))
        transitions.append(state.finalize_epoch())

        accuracy = float((model.predict(eval_inputs, base) == eval_dataset.labels).mean()) if eval_dataset else float("nan")
        mean_loss = float(np.mean(batch_losses)) if batch_losses else float("nan")
        per_epoch.append(EpochStats(epoch, mean_loss, accuracy, schedule.total_updates))

    return RunReport(per_epoch, theta.copy(), shadow, transitions)


# -- artifacts ----------------------------------------------------------


def _finite(value: float) -> float | None:
    """``value``, or None (JSON ``null``) where it is NaN or infinite: an empty epoch's loss, a run without eval."""
    return value if math.isfinite(value) else None


def run_report_payload(report: RunReport) -> dict:
    """The run report as strict-JSON types: non-finite floats become None, the float64 parameters packed
    by :func:`~batchforge.core.pack_array`."""
    return {
        "schema_version": RUN_REPORT_SCHEMA,
        "kind": "run_report",
        "total_updates": report.total_updates,
        "total_forward_passes": report.total_forward_passes,
        "removed_count": report.removed_count,
        "readded_count": report.readded_count,
        "final_eval_accuracy": _finite(report.final_eval_accuracy),
        "final_params": pack_array(np.asarray(report.final_params, dtype=np.float64)),
        "per_epoch": [
            {
                "epoch": row.epoch,
                "mean_loss": _finite(row.mean_loss),
                "eval_accuracy": _finite(row.eval_accuracy),
                "updates": row.updates,
                "active": t.active_count,
                "removed": len(t.newly_removed),
                "readded": len(t.readded),
                "forward_passes": t.forward_passes,
            }
            for row, t in zip(report.per_epoch, report.transitions)
        ],
    }


def write_run_report_json(fp: IO[str], report: RunReport, header: dict | None = None) -> None:
    payload = run_report_payload(report)
    if header:
        payload["config"] = header
    json.dump(payload, fp, indent=2, allow_nan=False)
    fp.write("\n")


def read_run_report(fp: IO[str]) -> tuple[dict | None, list[dict]]:
    """The ``config`` header (None without one) and the ``per_epoch`` rows of a run report.

    A file that is not JSON (such as a truncated one) raises ``BAD_JSON``; one that is not a schema 2
    run report with a number or null in each row's every ``EPOCH_COLUMNS`` column raises ``BAD_SCHEMA``.
    """
    try:
        payload = json.load(fp)
    except ValueError as err:
        raise BatchforgeError("BAD_JSON", f"not a JSON document: {err}") from None
    ours = isinstance(payload, dict) and (payload.get("kind"), payload.get("schema_version")) == ("run_report", RUN_REPORT_SCHEMA)
    rows = payload.get("per_epoch") if ours else None
    if not isinstance(rows, list) or not all(
        isinstance(row, dict) and all(type(row.get(c, "absent")) in (int, float, type(None)) for c in EPOCH_COLUMNS) for row in rows
    ):
        raise BatchforgeError("BAD_SCHEMA", f"not a schema {RUN_REPORT_SCHEMA} run report with rows of {', '.join(EPOCH_COLUMNS)}")
    return payload.get("config"), rows


def write_epoch_csv(fp: IO[str], rows: list[dict]) -> None:
    """``per_epoch`` rows as CSV in ``EPOCH_COLUMNS`` order; a null is an empty field."""
    fp.write(",".join(EPOCH_COLUMNS) + "\n")
    for row in rows:
        fp.write(",".join("" if row[c] is None else str(row[c]) for c in EPOCH_COLUMNS) + "\n")
