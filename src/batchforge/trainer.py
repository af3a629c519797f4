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
and an exponential moving average of the parameters. Training is
single-threaded and bit-deterministic given its seeds.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .core import Resolution, ResolutionSet, SamplerConfig, Strategy, ensure_valid
from .rng import derive_seed
from .samplers import EpochSchedule, VideoClipSpec, plan_epoch, plan_video_vbs
from .set_training import EpochTransition, SetConfig, SetState

CHECKPOINT_MAGIC = b"BFPM"
CHECKPOINT_VERSION = 1


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


def cosine_lr(step: int, steps_per_epoch: int, config: TrainerConfig) -> float:
    """Learning rate for a global step index on a fixed steps-per-epoch grid."""
    if steps_per_epoch < 1:
        raise TrainerError("STEP_OUT_OF_RANGE", "steps_per_epoch must be >= 1")
    total_steps = config.total_epochs * steps_per_epoch
    if not (0 <= step <= total_steps):
        raise TrainerError("STEP_OUT_OF_RANGE", f"step {step} outside [0, {total_steps}]")
    return lr_at_epoch_fraction(step / steps_per_epoch, config)


def label_smoothed_ce(
    logits: np.ndarray, target: int, label_smoothing: float
) -> tuple[float, np.ndarray]:
    """Loss and logit gradient for one sample.

    With smoothing eps the target distribution is
    (1 - eps) * onehot + eps / K; the gradient is softmax(logits) minus
    that distribution.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise TrainerError("NON_FINITE_INPUT", "logits must be finite")
    k = logits.shape[-1]
    if k < 2:
        raise TrainerError("NON_FINITE_INPUT", "need at least two classes")
    if not (0 <= target < k):
        raise TrainerError("NON_FINITE_INPUT", f"target {target} outside [0, {k})")
    shifted = logits - logits.max()
    log_probs = shifted - math.log(np.exp(shifted).sum())
    q = np.full(k, label_smoothing / k)
    q[target] += 1.0 - label_smoothing
    loss = float(-(q * log_probs).sum())
    grad = np.exp(log_probs) - q
    return loss, grad


def batch_label_smoothed_ce(
    logits: np.ndarray, targets: np.ndarray, label_smoothing: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean loss, mean-logit gradient, and per-sample true-class probability."""
    if not np.all(np.isfinite(logits)):
        raise TrainerError("NON_FINITE_INPUT", "logits must be finite")
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
        return features.repeat(factor, axis=1).repeat(factor, axis=2).reshape(len(features), -1)

    def forward(self, features: np.ndarray, resolution: Resolution) -> np.ndarray:
        return self.inputs_at(features, resolution) @ self.weights.T + self.bias

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


def _class_means(
    num_classes: int,
    grid: int,
    rng: np.random.Generator,
    coarse_scale: float,
    mid_scale: float,
    fine_scale: float,
) -> np.ndarray:
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
    return coarse_scale * coarse + mid_scale * mid + fine_scale * fine


def make_synthetic_task(
    num_samples: int,
    num_classes: int = 10,
    grid: int = 8,
    seed: int = 0,
    eval_samples: int = 2000,
    coarse_scale: float = 0.6,
    mid_scale: float = 0.8,
    fine_scale: float = 0.8,
    noise_scale: float = 1.15,
) -> tuple[SyntheticDataset, SyntheticDataset]:
    """Train and eval splits drawn from one class-mean draw.

    The noise level is chosen so a linear model separates most but not
    all samples: confidences near the threshold keep drifting as the
    parameters move, which is what exercises removal and re-adding.
    """
    means = _class_means(
        num_classes,
        grid,
        np.random.default_rng(derive_seed(seed, 1)),
        coarse_scale,
        mid_scale,
        fine_scale,
    )

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
    active_count: int
    forward_passes: int


@dataclass
class RunReport:
    """Everything a training run produced, deterministic given seeds."""

    per_epoch: list[EpochStats]
    total_updates: int
    total_forward_passes: int
    final_params: np.ndarray
    ema_params: np.ndarray
    transitions: list[EpochTransition] = field(default_factory=list)
    removed_count: int = 0
    readded_count: int = 0

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
    clip_specs: list[VideoClipSpec] | None = None,
    base_clip: VideoClipSpec | None = None,
) -> RunReport:
    """Drive the sampler, optimizer, and (optionally) sample filtering.

    Per epoch: plan batches over the active ids, take one SGD-M step per
    batch with the warmup/cosine learning rate, maintain the parameter
    EMA, record each trained sample's correctness and confidence, give
    removed samples and the active ids a ``drop_last`` schedule left out a
    forward-only evaluation at the base resolution, then apply the
    removal/re-add rules.

    Any of the four strategies works; the video variant needs
    ``clip_specs`` and ``base_clip``, and the model sees each clip's
    spatial resolution (frames/clips only shape the batch sizes).
    """
    ensure_valid(sampler_config)
    video = sampler_config.strategy is Strategy.VIDEO_VBS
    if video and (not clip_specs or base_clip is None):
        raise TrainerError("MISSING_CLIP_SPECS", "video training needs clip_specs and base_clip")
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

    pooled: dict[int, np.ndarray] = {}  # the train set pooled once per factor
    def pooled_at(resolution: Resolution) -> np.ndarray:
        factor = model.pool_factor(resolution)
        if factor not in pooled:
            pooled[factor] = _pool(dataset.features, factor)
        return pooled[factor]

    base = sampler_config.base_resolution
    eval_inputs = _pool(eval_dataset.features, model.pool_factor(base)) if eval_dataset else None
    state = SetState(len(dataset), set_config) if set_config else None
    velocity = np.zeros_like(model.theta)
    shadow = model.theta.copy()
    per_epoch: list[EpochStats] = []
    transitions: list[EpochTransition] = []
    total_updates = 0
    forward_passes = 0

    for epoch in range(trainer_config.total_epochs):
        active_ids = state.active_samples() if state else None
        if video:
            schedule: EpochSchedule = plan_video_vbs(
                sampler_config, clip_specs, base_clip, epoch, active_ids
            )
        else:
            schedule = plan_epoch(sampler_config, epoch, active_ids)
        batch_losses = []
        for plan in schedule.plans:
            fraction = epoch + plan.iteration / schedule.total_updates
            lr = lr_at_epoch_fraction(fraction, trainer_config)
            ids = plan.sample_ids
            loss, grad, correct, confidences = model.loss_and_grad(
                pooled_at(plan.resolution)[ids],
                dataset.labels[ids],
                plan.resolution,
                trainer_config.label_smoothing,
            )
            if state:
                state.record_batch(ids, correct, confidences)
            else:
                forward_passes += len(ids)
            model.theta, velocity = sgd_momentum_step(
                model.theta,
                grad,
                velocity,
                lr,
                trainer_config.momentum,
                trainer_config.weight_decay,
            )
            shadow = ema_update(shadow, model.theta, trainer_config.ema_decay)
            batch_losses.append(loss)
            total_updates += 1

        if state:
            reeval = state.reevaluation_plan()
            if schedule.total_samples < len(active_ids):
                # active ids in the dropped tail still owe this epoch a record
                tail = np.setdiff1d(active_ids, schedule.ids, assume_unique=True)
                reeval = np.concatenate([reeval, tail])
            if len(reeval):
                logits = model.forward(pooled_at(base)[reeval], base)
                _, _, probs = batch_label_smoothed_ce(
                    logits, dataset.labels[reeval], trainer_config.label_smoothing
                )
                correct = logits.argmax(axis=1) == dataset.labels[reeval]
                state.record_batch(reeval, correct, probs)
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
                active_count=len(active_ids) if active_ids is not None else len(dataset),
                forward_passes=state.forward_passes if state else forward_passes,
            )
        )

    return RunReport(
        per_epoch=per_epoch,
        total_updates=total_updates,
        total_forward_passes=state.forward_passes if state else forward_passes,
        final_params=model.theta.copy(),
        ema_params=shadow,
        transitions=transitions,
        removed_count=state.removed_count if state else 0,
        readded_count=state.readded_count if state else 0,
    )


# -- artifacts ----------------------------------------------------------


def save_params(fp: IO[bytes], theta: np.ndarray, num_classes: int, grid: int) -> None:
    """Versioned flat binary: magic, version, dims, then float64 LE."""
    fp.write(CHECKPOINT_MAGIC)
    fp.write(struct.pack("<III Q", CHECKPOINT_VERSION, num_classes, grid, theta.size))
    fp.write(np.ascontiguousarray(theta, dtype="<f8").tobytes())


def load_params(fp: IO[bytes]) -> tuple[np.ndarray, int, int]:
    magic = fp.read(4)
    if magic != CHECKPOINT_MAGIC:
        raise TrainerError("BAD_CHECKPOINT", f"bad magic {magic!r}")
    header = fp.read(20)
    if len(header) != 20:
        raise TrainerError("BAD_CHECKPOINT", f"truncated header: {len(header)} of 20 bytes")
    version, num_classes, grid, count = struct.unpack("<III Q", header)
    if version != CHECKPOINT_VERSION:
        raise TrainerError("BAD_CHECKPOINT", f"unsupported checkpoint version {version}")
    body = fp.read(count * 8)
    if len(body) != count * 8 or fp.read(1):
        raise TrainerError(
            "BAD_CHECKPOINT", f"header says {count} parameters, body does not hold exactly that"
        )
    theta = np.frombuffer(body, dtype="<f8").astype(np.float64)
    return theta, num_classes, grid


def run_report_payload(report: RunReport) -> dict:
    return {
        "schema_version": 1,
        "kind": "run_report",
        "total_updates": report.total_updates,
        "total_forward_passes": report.total_forward_passes,
        "removed_count": report.removed_count,
        "readded_count": report.readded_count,
        "final_eval_accuracy": report.final_eval_accuracy,
        "param_checksum": float(np.abs(report.final_params).sum()),
        "per_epoch": [
            {
                "epoch": row.epoch,
                "mean_loss": row.mean_loss,
                "eval_accuracy": row.eval_accuracy,
                "updates": row.updates,
                "active": row.active_count,
                "forward_passes": row.forward_passes,
            }
            for row in report.per_epoch
        ],
        "set_transitions": [
            {
                "epoch": t.epoch,
                "active": t.active_count,
                "removed": len(t.newly_removed),
                "readded": len(t.readded),
                "forward_passes": t.forward_passes,
            }
            for t in report.transitions
        ],
    }


def write_run_report_json(fp: IO[str], report: RunReport, header: dict | None = None) -> None:
    payload = run_report_payload(report)
    if header:
        payload["config"] = header
    json.dump(payload, fp, indent=2)
    fp.write("\n")


def write_run_report_csv(fp: IO[str], report: RunReport) -> None:
    fp.write("epoch,mean_loss,eval_accuracy,updates,active,forward_passes\n")
    for row in report.per_epoch:
        fp.write(
            f"{row.epoch},{row.mean_loss!r},{row.eval_accuracy!r},"
            f"{row.updates},{row.active_count},{row.forward_passes}\n"
        )
