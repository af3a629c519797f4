"""Shipped training recipes.

Each preset carries the epochs/batch/optimizer numbers of one published
simple-recipe configuration, paired with the standard five-entry
resolution set anchored at 224. The training-set size defaults to the
ImageNet-1k cardinality (1,281,167); it is plain config and can be
overridden like any other field.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import BatchforgeError, BatchRounding, Resolution, ResolutionSet, SamplerConfig, Strategy
from .trainer import TrainerConfig

IMAGENET_TRAIN_SIZE = 1_281_167

STANDARD_RESOLUTIONS = ResolutionSet.squares([128, 192, 224, 288, 320])
STANDARD_BASE = Resolution(224, 224)


@dataclass(frozen=True)
class Preset:
    name: str
    sampler: SamplerConfig
    trainer: TrainerConfig


def _recipe(name: str, epochs: int, batch: int, weight_decay: float) -> Preset:
    sampler = SamplerConfig(
        strategy=Strategy.MSC_VBS,
        dataset_size=IMAGENET_TRAIN_SIZE,
        base_batch=batch,
        base_resolution=STANDARD_BASE,
        resolutions=STANDARD_RESOLUTIONS,
        epochs=epochs,
        world_size=1,
        seed=0,
        drop_last=True,
        batch_rounding=BatchRounding.MULTIPLE_OF_WORLD,
    )
    trainer = TrainerConfig(
        max_lr=0.4,
        warmup_epochs=5,
        total_epochs=epochs,
        min_lr=0.0,
        momentum=0.9,
        weight_decay=weight_decay,
        label_smoothing=0.1,
        ema_decay=0.9995,
    )
    return Preset(name, sampler, trainer)


_PRESETS = {
    "resnet50": _recipe("resnet50", epochs=150, batch=1024, weight_decay=1e-4),
    "resnet50_adv": _recipe("resnet50_adv", epochs=600, batch=1024, weight_decay=1e-4),
    "mobilenetv1": _recipe("mobilenetv1", epochs=300, batch=512, weight_decay=4e-5),
    "mobilenetv2": _recipe("mobilenetv2", epochs=300, batch=1024, weight_decay=4e-5),
    "mobilenetv3": _recipe("mobilenetv3", epochs=300, batch=2048, weight_decay=4e-5),
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def load_preset(name: str) -> Preset:
    try:
        return _PRESETS[name]
    except KeyError:
        raise BatchforgeError(
            "UNKNOWN_PRESET", f"no preset named {name!r} (known: {', '.join(preset_names())})"
        ) from None
