"""batchforge: deterministic multi-scale batch schedules, sample filtering,
and training-cost accounting."""

from .analysis import (
    CostReport,
    MemoryProxy,
    UpdateCount,
    UpdateSimulation,
    compare_strategies,
    count_updates,
    input_memory_proxy,
    simulate_updates,
)
from .core import (
    BatchforgeError,
    BatchRounding,
    ConfigValidationError,
    Resolution,
    ResolutionSet,
    SamplerConfig,
    Strategy,
    ensure_valid,
    validate_config,
)
from .presets import load_preset, preset_names
from .rng import StreamKey
from .samplers import (
    BatchPlan,
    EpochSchedule,
    VideoClipSpec,
    plan_epoch,
    plan_video_vbs,
    shard_for_rank,
)
from .set_training import SetConfig, SetState
from .trainer import (
    PooledLinearModel,
    RunReport,
    TrainerConfig,
    ema_update,
    label_smoothed_ce,
    make_synthetic_task,
    sgd_momentum_step,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "BatchforgeError",
    "BatchPlan",
    "BatchRounding",
    "ConfigValidationError",
    "CostReport",
    "EpochSchedule",
    "MemoryProxy",
    "PooledLinearModel",
    "Resolution",
    "ResolutionSet",
    "RunReport",
    "SamplerConfig",
    "SetConfig",
    "SetState",
    "Strategy",
    "StreamKey",
    "TrainerConfig",
    "UpdateCount",
    "UpdateSimulation",
    "VideoClipSpec",
    "compare_strategies",
    "count_updates",
    "ema_update",
    "ensure_valid",
    "input_memory_proxy",
    "label_smoothed_ce",
    "load_preset",
    "make_synthetic_task",
    "plan_epoch",
    "plan_video_vbs",
    "preset_names",
    "sgd_momentum_step",
    "shard_for_rank",
    "simulate_updates",
    "train",
    "validate_config",
]
