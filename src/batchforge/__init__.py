"""batchforge: deterministic multi-scale batch schedules, sample filtering,
and training-cost accounting."""

import types

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

# The names imported above; the imports also bind the submodules, which are not public names.
__all__ = [name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, types.ModuleType)]
