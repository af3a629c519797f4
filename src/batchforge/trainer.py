"""A small numerical trainer that exercises schedules and sample filtering
end to end.

The learner is multinomial logistic regression over a synthetic feature
grid. Resolution enters through a pooling trick: before the linear layer,
the grid is average-pooled by a factor tied to the sampled resolution's
rank in the resolution set (coarsest resolution = heaviest blur), then
re-expanded. Pooling is per sample, so ``train`` pools the train and eval
sets once per factor per run; each batch gathers its pooled rows and
re-expands them. The synthetic classes carry both a blocky pattern that
survives blurring and a high-frequency pattern that does not, so coarse
iterations genuinely see less class detail.

Recipe ingredients implemented here: linear-warmup cosine annealing,
label-smoothed cross entropy, SGD with momentum and coupled weight decay,
and an exponential moving average of the parameters. Sample filtering is
always on; an unfiltered run is a tau 1.0 run, which removes nothing.
Forward-only passes (re-evaluated removed samples and the ``drop_last``
tail) compute only the forward pass and the true-class probability.
Training is bit-deterministic given its seeds. Its forward-only GEMMs
(``forward``: ``predict``, the per-epoch eval and the forward-only passes)
run in row blocks of at most ``FORWARD_MACS`` = 2**18 multiply-adds, which
OpenBLAS runs on the calling thread; each training step's two GEMMs are
bounded by its batch (batch x grid² x K multiply-adds).

A run's one artifact is its JSON run report: the totals, the final
parameters and one ``per_epoch`` row of ``EPOCH_COLUMNS`` per epoch.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .core import Resolution, ResolutionSet, SamplerConfig, ensure_valid
from .rng import derive_seed
from .samplers import plan_epoch
from .set_training import EpochTransition, SetConfig, SetState

RUN_REPORT_SCHEMA = 2
EPOCH_COLUMNS = ("epoch", "mean_loss", "eval_accuracy", "updates", "active", "removed", "readded", "forward_passes")
# OpenBLAS runs a GEMM of at most 65,536 x 4 multiply-adds on the calling thread alone.
FORWARD_MACS = 2**18
# Amplitudes of the synthetic class means' coarse, mid and fine bands (``_class_means``).
COARSE_SCALE, MID_SCALE, FINE_SCALE = 0.6, 0.8, 0.8


class TrainerError(ValueError):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


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
        bad = [k for k in ("max_lr", "min_lr", "momentum", "weight_decay") if not math.isfinite(getattr(self, k))]
        if bad:
            raise TrainerError("NON_FINITE_SETTING", f"{', '.join(bad)} must be finite")
        if not (0 <= self.warmup_epochs < self.total_epochs):
            raise TrainerError(
                "BAD_WARMUP", f"need 0 <= warmup ({self.warmup_epochs}) < total ({self.total_epochs})"
            )
        if not (0.0 <= self.label_smoothing < 1.0):
            raise TrainerError("BAD_SMOOTHING", "label_smoothing must be in [0, 1)")
        if not (0.0 <= self.ema_decay <= 1.0):
            raise TrainerError("BAD_EMA", "ema_decay must be in [0, 1]")


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
        raise TrainerError(
            "STEP_OUT_OF_RANGE", f"epoch fraction {fraction} outside [0, {config.total_epochs}]"
        )
    if config.warmup_epochs > 0 and fraction < config.warmup_epochs:
        return config.max_lr * fraction / config.warmup_epochs
    progress = (fraction - config.warmup_epochs) / (config.total_epochs - config.warmup_epochs)
    return config.min_lr + 0.5 * (config.max_lr - config.min_lr) * (1.0 + _cos_pi(progress))


def _log_softmax(logits: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise log-softmax of ``(n, K)`` logits and the flat index of each row's target: the loss's one input check."""
    if not np.all(np.isfinite(logits)):
        raise TrainerError("NON_FINITE_INPUT", "logits must be finite")
    n, k = logits.shape
    if k < 2:
        raise TrainerError("NON_FINITE_INPUT", "need at least two classes")
    if targets.shape != (n,) or not np.all((targets >= 0) & (targets < k)):
        raise TrainerError("NON_FINITE_INPUT", f"need one target in [0, {k}) per row, got {targets.shape} for {n} rows")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return log_probs, np.arange(0, n * k, k) + targets


def batch_label_smoothed_ce(
    logits: np.ndarray, targets: np.ndarray, label_smoothing: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean loss, mean-logit gradient, and per-sample true-class probability.

    With smoothing eps the target distribution is (1 - eps) * onehot + eps / K;
    the gradient is softmax(logits) minus that distribution, over the row count.
    """
    log_probs, at_target = _log_softmax(logits, targets)
    n, k = log_probs.shape
    smooth = label_smoothing / k
    true_log_probs = log_probs.ravel()[at_target]
    loss = float(-(1.0 - label_smoothing) * true_log_probs.mean() - smooth * log_probs.sum(axis=1).mean())
    probs = np.exp(log_probs)
    true_probs = probs.ravel()[at_target]
    grad = probs - smooth
    grad.flat[at_target] = true_probs - (smooth + (1.0 - label_smoothing))  # .flat writes through in any memory order
    grad /= n
    return loss, grad, true_probs


def label_smoothed_ce(logits: np.ndarray, target: int, label_smoothing: float) -> tuple[float, np.ndarray]:
    """Loss and logit gradient for one sample: the one-row batch loss."""
    logits = np.asarray(logits, dtype=np.float64)
    loss, grad, _ = batch_label_smoothed_ce(logits[None], np.array([target]), label_smoothing)
    return loss, grad[0]


def _forward_only(logits: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample correctness and true-class probability: no loss, gradient or target matrix."""
    log_probs, at_target = _log_softmax(logits, targets)
    return logits.argmax(axis=1) == targets, np.exp(log_probs.ravel()[at_target])


def sgd_momentum_step(
    params: np.ndarray,
    grads: np.ndarray,
    velocity: np.ndarray,
    lr: float,
    momentum: float,
    weight_decay: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Classical SGD-M with weight decay folded into the gradient.

    v <- momentum * v + grad + wd * param;  param <- param - lr * v.
    """
    if params.shape != grads.shape or params.shape != velocity.shape:
        raise TrainerError("SHAPE_MISMATCH", "params, grads, velocity must share a shape")
    velocity = momentum * velocity + grads + weight_decay * params
    return params - lr * velocity, velocity


def ema_update(shadow: np.ndarray, params: np.ndarray, decay: float) -> np.ndarray:
    """shadow <- decay * shadow + (1 - decay) * params."""
    if shadow.shape != params.shape:
        raise TrainerError("SHAPE_MISMATCH", "shadow and params must share a shape")
    return decay * shadow + (1.0 - decay) * params


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
    """Average-pool ``(B, g, g)`` grids by ``factor`` to ``(B, g/f, g/f)``."""
    if factor == 1:
        return features
    b, g, _ = features.shape
    return features.reshape(b, g // factor, factor, g // factor, factor).mean(axis=(2, 4))


class PooledLinearModel:
    """Linear softmax classifier over a resolution-blurred feature grid.

    Parameters live in one flat float64 vector; ``weights`` and ``bias``
    are named views into it. Zero initialisation keeps construction
    deterministic and makes the initial loss exactly log K.
    """

    def __init__(self, num_classes: int, grid: int, resolutions: ResolutionSet):
        self.num_classes = num_classes
        self.grid = grid
        self.resolutions = resolutions
        self._factors = _pool_factors(resolutions, grid)
        self.theta = np.zeros(num_classes * grid * grid + num_classes, dtype=np.float64)

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
            raise TrainerError(
                "UNKNOWN_RESOLUTION", f"{resolution} is not in the model's resolution set"
            ) from None

    def inputs_at(self, features: np.ndarray, resolution: Resolution) -> np.ndarray:
        """Flat inputs from raw ``grid``-wide grids or grids already pooled for ``resolution``."""
        factor = self.pool_factor(resolution)
        if features.shape[1:] == (self.grid, self.grid):
            features = _pool(features, factor)
        elif features.shape[1:] != (self.grid // factor,) * 2:
            raise TrainerError("SHAPE_MISMATCH", f"grids {features.shape[1:]} are neither raw nor pooled by {factor}")
        return features.repeat(factor, axis=1).repeat(factor, axis=2).reshape(len(features), self.grid * self.grid)

    def forward(self, features: np.ndarray, resolution: Resolution) -> np.ndarray:
        """``(n, K)`` logits, expanded and multiplied ``max(1, FORWARD_MACS // (grid² K))`` rows at a time.

        Each block's GEMM stays within ``FORWARD_MACS`` multiply-adds, so BLAS runs it on
        the calling thread, and no temporary outgrows one block. Zero rows still run one
        empty block, so their grid shape is checked.
        """
        rows = max(1, FORWARD_MACS // (self.grid * self.grid * self.num_classes))
        weights_t = self.weights.T
        logits = np.empty((len(features), self.num_classes))
        for lo in range(0, max(len(features), 1), rows):
            np.matmul(self.inputs_at(features[lo : lo + rows], resolution), weights_t, out=logits[lo : lo + rows])
        logits += self.bias
        return logits

    def loss_and_grad(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        resolution: Resolution,
        label_smoothing: float,
    ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """(loss, flat gradient, per-sample correctness, true-class prob)."""
        x = self.inputs_at(features, resolution)
        logits = x @ self.weights.T + self.bias
        loss, dlogits, true_probs = batch_label_smoothed_ce(logits, targets, label_smoothing)
        grad = np.concatenate([(dlogits.T @ x).ravel(), dlogits.sum(axis=0)])
        correct = logits.argmax(axis=1) == targets
        return loss, grad, correct, true_probs

    def predict(self, features: np.ndarray, resolution: Resolution) -> np.ndarray:
        return self.forward(features, resolution).argmax(axis=1)


@dataclass(frozen=True)
class SyntheticDataset:
    """Class-balanced Gaussian-mixture feature grids, regenerable from seed."""

    features: np.ndarray  # (N, grid, grid)
    labels: np.ndarray  # (N,)
    num_classes: int
    grid: int
    seed: int

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
    if not (grid == 2 or (grid > 0 and grid % 4 == 0)):
        raise TrainerError("BAD_GRID", f"grid must be 2 or a positive multiple of 4, got {grid}")
    if num_classes < 2:
        raise TrainerError("BAD_CLASSES", f"need at least two classes, got {num_classes}")
    if not math.isfinite(noise_scale):
        raise TrainerError("NON_FINITE_SETTING", f"noise_scale must be finite, got {noise_scale}")
    means = _class_means(num_classes, grid, np.random.default_rng(derive_seed(seed, 1)))

    def split(count: int, stream: int) -> SyntheticDataset:
        rng = np.random.default_rng(derive_seed(seed, stream))
        labels = np.arange(count, dtype=np.int64) % num_classes
        labels = labels[rng.permutation(count)]
        features = means[labels] + noise_scale * rng.standard_normal((count, grid, grid))
        return SyntheticDataset(features, labels, num_classes, grid, seed)

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
    confidence in one call, evaluate removed samples and the ``drop_last``
    tail forward-only at the base resolution, then apply the removal/re-add rules.

    Any of the four strategies works; video reads its clip table from
    ``sampler_config.clips`` and ``base_clip``, and the model sees each
    clip's spatial resolution (frames/clips only shape the batch sizes).
    Before any work, the train and eval sets must hold ``model.grid``-wide
    grids (``SHAPE_MISMATCH``) and labels in ``[0, model.num_classes)``
    (``BAD_LABELS``).
    """
    ensure_valid(sampler_config)
    if sampler_config.epochs != trainer_config.total_epochs:
        raise TrainerError(
            "EPOCH_MISMATCH",
            f"sampler epochs {sampler_config.epochs} != trainer total_epochs {trainer_config.total_epochs}",
        )
    if len(dataset) != sampler_config.dataset_size:
        raise TrainerError(
            "SIZE_MISMATCH",
            f"dataset has {len(dataset)} samples, config says {sampler_config.dataset_size}",
        )

    for name, data in (("train", dataset), ("eval", eval_dataset)):
        if data is None:
            continue
        if data.features.shape[1:] != (model.grid, model.grid):
            raise TrainerError(
                "SHAPE_MISMATCH", f"{name} grids {data.features.shape[1:]} are not the model's {model.grid}x{model.grid}"
            )
        outside = np.unique(data.labels[(data.labels < 0) | (data.labels >= model.num_classes)])
        if len(outside):
            raise TrainerError(
                "BAD_LABELS",
                f"{name} labels {outside[:8].tolist()}{' ...' if len(outside) > 8 else ''} are outside the model's"
                f" classes [0, {model.num_classes})",
            )

    pooled: dict[int, np.ndarray] = {}  # the train set pooled once per factor
    def pooled_at(resolution: Resolution) -> np.ndarray:
        factor = model.pool_factor(resolution)
        if factor not in pooled:
            pooled[factor] = _pool(dataset.features, factor)
        return pooled[factor]

    base = sampler_config.base_resolution
    eval_inputs = _pool(eval_dataset.features, model.pool_factor(base)) if eval_dataset else None
    state = SetState(len(dataset), set_config or SetConfig(tau=1.0, window=1))
    velocity = np.zeros_like(model.theta)
    shadow = model.theta.copy()
    per_epoch: list[EpochStats] = []
    transitions: list[EpochTransition] = []

    for epoch in range(trainer_config.total_epochs):
        active_ids = state.active_samples()
        schedule = plan_epoch(sampler_config, epoch, active_ids)
        bounds = schedule.offsets.tolist()
        correct = np.empty(schedule.total_samples, dtype=bool)
        confidence = np.empty(schedule.total_samples)
        batch_losses = []
        for plan in schedule.plans:
            lr = lr_at_epoch_fraction(epoch + plan.iteration / schedule.total_updates, trainer_config)
            ids, res = plan.sample_ids, plan.resolution
            lo, hi = bounds[plan.iteration], bounds[plan.iteration + 1]
            loss, grad, correct[lo:hi], confidence[lo:hi] = model.loss_and_grad(
                pooled_at(res)[ids], dataset.labels[ids], res, trainer_config.label_smoothing
            )
            model.theta, velocity = sgd_momentum_step(
                model.theta, grad, velocity, lr, trainer_config.momentum, trainer_config.weight_decay
            )
            shadow = ema_update(shadow, model.theta, trainer_config.ema_decay)
            batch_losses.append(loss)
        state.record_batch(schedule.ids, correct, confidence)

        reeval = state.reevaluation_plan()
        if schedule.total_samples < len(active_ids):
            # active ids in the dropped tail still owe this epoch a record
            tail = np.setdiff1d(active_ids, schedule.ids, assume_unique=True)
            reeval = np.concatenate([reeval, tail])
        if len(reeval):
            logits = model.forward(pooled_at(base)[reeval], base)
            state.record_batch(reeval, *_forward_only(logits, dataset.labels[reeval]))
        transitions.append(state.finalize_epoch())

        if eval_dataset:
            predicted = model.predict(eval_inputs, base)
            eval_accuracy = float((predicted == eval_dataset.labels).mean())
        else:
            eval_accuracy = float("nan")

        per_epoch.append(
            EpochStats(
                epoch=epoch,
                mean_loss=float(np.mean(batch_losses)) if batch_losses else float("nan"),
                eval_accuracy=eval_accuracy,
                updates=schedule.total_updates,
            )
        )

    return RunReport(per_epoch, model.theta.copy(), shadow, transitions)


# -- artifacts ----------------------------------------------------------


def _finite(value: float) -> float | None:
    """``value``, or None (JSON ``null``) where it is NaN or infinite: an empty epoch's loss, a run without eval."""
    return value if math.isfinite(value) else None


def run_report_payload(report: RunReport) -> dict:
    """The run report as strict-JSON types: non-finite floats become None, the parameters base64 of float64 LE."""
    return {
        "schema_version": RUN_REPORT_SCHEMA,
        "kind": "run_report",
        "total_updates": report.total_updates,
        "total_forward_passes": report.total_forward_passes,
        "removed_count": report.removed_count,
        "readded_count": report.readded_count,
        "final_eval_accuracy": _finite(report.final_eval_accuracy),
        "final_params": base64.b64encode(np.ascontiguousarray(report.final_params, dtype="<f8").tobytes()).decode("ascii"),
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
        raise TrainerError("BAD_JSON", f"not a JSON document: {err}") from None
    ours = isinstance(payload, dict) and (payload.get("kind"), payload.get("schema_version")) == ("run_report", RUN_REPORT_SCHEMA)
    rows = payload.get("per_epoch") if ours else None
    if not isinstance(rows, list) or not all(
        isinstance(row, dict) and all(type(row.get(c, "absent")) in (int, float, type(None)) for c in EPOCH_COLUMNS) for row in rows
    ):
        raise TrainerError("BAD_SCHEMA", f"not a schema {RUN_REPORT_SCHEMA} run report with rows of {', '.join(EPOCH_COLUMNS)}")
    return payload.get("config"), rows


def write_epoch_csv(fp: IO[str], rows: list[dict]) -> None:
    """``per_epoch`` rows as CSV in ``EPOCH_COLUMNS`` order; a null is an empty field."""
    fp.write(",".join(EPOCH_COLUMNS) + "\n")
    for row in rows:
        fp.write(",".join("" if row[c] is None else str(row[c]) for c in EPOCH_COLUMNS) + "\n")
