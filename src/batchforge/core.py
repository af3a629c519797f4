"""Shared domain types, configuration validation, and flat config parsing.

Everything here is immutable after construction. Validation never raises on
bad field values while building a config; :func:`validate_config` returns
the complete violation list so callers (and the CLI) can report every
problem at once.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Callable, Iterable, Mapping, TypeVar

from .rng import MAX_PERMUTATION_SIZE

_MAX_SEED = (1 << 64) - 1

_T = TypeVar("_T")


class Strategy(str, Enum):
    """Batch scheduling strategies."""

    SSC_FBS = "ssc_fbs"  # single scale, fixed batch
    MSC_FBS = "msc_fbs"  # multi scale, fixed batch
    MSC_VBS = "msc_vbs"  # multi scale, variable batch
    VIDEO_VBS = "video_vbs"  # variably-sized video clips

    @classmethod
    def parse(cls, text: str) -> "Strategy":
        return _parse_member(cls, text, "strategy")


class BatchRounding(str, Enum):
    """How a rescaled batch size is snapped to an integer."""

    FLOOR = "floor"
    NEAREST = "nearest"
    MULTIPLE_OF_WORLD = "multiple_of_world"

    @classmethod
    def parse(cls, text: str) -> "BatchRounding":
        return _parse_member(cls, text, "batch_rounding")


def _parse_member(cls: type[Enum], text: str, what: str):
    try:
        return cls(text.strip().lower())
    except ValueError:
        known = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown {what} {text!r} (known: {known})") from None


@dataclass(frozen=True, order=True)
class Resolution:
    """A spatial size in pixels."""

    height: int
    width: int

    def pixel_count(self) -> int:
        return self.height * self.width

    def __str__(self) -> str:
        return f"{self.height}x{self.width}"

    @classmethod
    def parse(cls, text: str) -> "Resolution":
        """Parse '224x224' (or bare '224' for a square)."""
        text = text.strip().lower()
        if "x" in text:
            h, _, w = text.partition("x")
            return cls(int(h), int(w))
        side = int(text)
        return cls(side, side)


@dataclass(frozen=True)
class ResolutionSet:
    """Ordered collection of resolutions, ascending by pixel count."""

    entries: tuple[Resolution, ...]

    def __init__(self, entries: Iterable[Resolution]):
        object.__setattr__(self, "entries", tuple(entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, index: int) -> Resolution:
        return self.entries[index]

    def max(self) -> Resolution:
        return self.entries[-1]

    def index_of(self, resolution: Resolution) -> int:
        return self.entries.index(resolution)

    def is_sorted(self) -> bool:
        counts = [r.pixel_count() for r in self.entries]
        return all(a < b for a, b in zip(counts, counts[1:]))

    @classmethod
    def squares(cls, sides: Iterable[int]) -> "ResolutionSet":
        return cls(Resolution(s, s) for s in sides)

    @classmethod
    def parse(cls, text: str) -> "ResolutionSet":
        return cls(Resolution.parse(part) for part in text.split(",") if part.strip())

    def __str__(self) -> str:
        return ",".join(str(r) for r in self.entries)


@dataclass(frozen=True)
class VideoClipSpec:
    """Shape of one video sample: frames x clips x spatial size."""

    num_frames: int
    clips_per_video: int
    resolution: Resolution

    def volume(self) -> int:
        return self.num_frames * self.clips_per_video * self.resolution.pixel_count()

    def __str__(self) -> str:
        return f"{self.num_frames}x{self.clips_per_video}x{self.resolution}"

    @classmethod
    def parse(cls, text: str) -> "VideoClipSpec":
        """Parse '8x1x112x112': frames x clips per video x resolution."""
        frames, clips, resolution = text.strip().lower().split("x", 2)
        return cls(int(frames), int(clips), Resolution.parse(resolution))


@dataclass(frozen=True)
class SamplerConfig:
    """Everything a planner needs to emit a deterministic schedule.

    ``base_batch`` is the per-replica batch at ``base_resolution``; one
    iteration of the global schedule consumes ``base_batch * world_size``
    sample ids, which :func:`batchforge.samplers.shard_for_rank` then
    splits evenly across ranks. Video draws its shapes from ``clips``, and
    ``base_batch`` is the batch at ``base_clip``; other strategies ignore both.
    """

    strategy: Strategy
    dataset_size: int
    base_batch: int
    base_resolution: Resolution
    resolutions: ResolutionSet
    epochs: int
    world_size: int = 1
    seed: int = 0
    drop_last: bool = True
    batch_rounding: BatchRounding = BatchRounding.MULTIPLE_OF_WORLD
    min_batch: int | None = None
    clips: tuple[VideoClipSpec, ...] = ()
    base_clip: VideoClipSpec | None = None

    def __post_init__(self):
        if self.min_batch is None:
            object.__setattr__(self, "min_batch", self.world_size)
        object.__setattr__(self, "clips", tuple(self.clips))

    def with_strategy(self, strategy: Strategy) -> "SamplerConfig":
        return replace(self, strategy=strategy)

    def effective_batch(self) -> int:
        """Global ids consumed per iteration at the base resolution."""
        return self.base_batch * self.world_size


@dataclass(frozen=True)
class ConfigViolation:
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class ConfigValidationError(ValueError):
    """Raised by ensure_valid; carries the full violation list."""

    def __init__(self, violations: list[ConfigViolation]):
        super().__init__("; ".join(str(v) for v in violations))
        self.violations = violations

    @property
    def codes(self) -> list[str]:
        return [v.code for v in self.violations]


def validate_config(config: SamplerConfig) -> list[ConfigViolation]:
    """Check every SamplerConfig invariant; return all violations found."""
    bad = []

    def flag(code: str, message: str):
        bad.append(ConfigViolation(code, message))

    for res in (config.base_resolution, *config.resolutions):
        if res.height < 1 or res.width < 1:
            flag("NONPOSITIVE_RESOLUTION", f"resolution {res} has a dimension < 1")

    if len(config.resolutions) == 0:
        flag("EMPTY_RESOLUTION_SET", "resolutions must contain at least one entry")
    elif not config.resolutions.is_sorted():
        flag(
            "UNSORTED_RESOLUTIONS",
            "resolutions must be strictly ascending by pixel count with no duplicates",
        )

    if len(config.resolutions) > 0 and config.base_resolution not in config.resolutions.entries:
        flag(
            "BASE_RES_NOT_IN_SET",
            f"base resolution {config.base_resolution} is not in the resolution set",
        )

    if config.strategy is Strategy.VIDEO_VBS:
        if not config.clips:
            flag("EMPTY_SPEC_SET", "video_vbs needs at least one clip spec in clips")
        elif config.base_clip not in config.clips:
            flag("BASE_SPEC_NOT_IN_SET", f"base_clip {config.base_clip} is not in clips")
        if any(min(c.num_frames, c.clips_per_video) < 1 for c in config.clips):
            flag("NONPOSITIVE_CLIP", "every clip spec needs at least one frame and one clip per video")
        outside = [str(c) for c in config.clips if c.resolution not in config.resolutions.entries]
        if outside:
            flag("CLIP_RES_NOT_IN_SET", f"clips {', '.join(outside)} have a resolution outside the resolution set")

    if config.base_batch < 1 or (config.min_batch or 0) < 1:
        flag("ZERO_BATCH", "base_batch and min_batch must be >= 1")
    elif config.world_size >= 1 and config.effective_batch() < config.min_batch:
        flag(
            "BATCH_BELOW_MIN",
            f"effective batch {config.effective_batch()} < min_batch {config.min_batch}",
        )

    if config.epochs < 1:
        flag("ZERO_EPOCHS", "epochs must be >= 1")
    if config.world_size < 1:
        flag("ZERO_WORLD", "world_size must be >= 1")
    if not (0 <= config.seed <= _MAX_SEED):
        flag("SEED_OUT_OF_RANGE", "seed must fit in 64 unsigned bits")

    if config.dataset_size < 1:
        flag("DATASET_TOO_SMALL", "dataset_size must be >= 1")
    elif config.dataset_size > MAX_PERMUTATION_SIZE:
        flag("DATASET_TOO_LARGE", f"dataset_size must be <= {MAX_PERMUTATION_SIZE} (2**24)")
    elif config.drop_last and config.world_size >= 1 and config.dataset_size < config.effective_batch():
        flag(
            "DATASET_TOO_SMALL",
            f"dataset_size {config.dataset_size} < one full iteration "
            f"({config.base_batch} x {config.world_size}) with drop_last",
        )

    # With drop_last the largest batch of the table must fit in the dataset, or an epoch whose
    # first draw is that batch plans nothing; with several ranks every batch must split evenly,
    # whatever the active set.
    world = config.world_size
    if not bad and (config.drop_last or world > 1):
        from .samplers import batch_table  # samplers imports this module

        sizes = batch_table(config)[1]
        if config.drop_last and config.dataset_size < sizes.max():
            flag(
                "DATASET_TOO_SMALL",
                f"dataset_size {config.dataset_size} < the largest batch {sizes.max()} of the table with drop_last",
            )
        if world > 1 and (sizes % world).any():
            flag("UNSHARDABLE_BATCH", f"batch sizes {sizes.tolist()} are not all multiples of world_size {world}")
    if world > 1 and not config.drop_last:
        flag("UNSHARDABLE_TAIL", f"drop_last=false leaves a last batch that world_size {world} need not divide")

    return bad


def ensure_valid(config: SamplerConfig) -> SamplerConfig:
    """Return the config unchanged, or raise with the full violation list."""
    violations = validate_config(config)
    if violations:
        raise ConfigValidationError(violations)
    return config


# --- flat key/value config files ----------------------------------------

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def parse_flat_config(text: str) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            message = f"line {lineno}: expected 'key = value', got {raw!r}"
            raise ConfigValidationError([ConfigViolation("BAD_CONFIG_LINE", message)])
        key, _, value = line.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in _BOOL_TRUE:
        return True
    if low in _BOOL_FALSE:
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def parse_value(key: str, parser: Callable[[str], _T], text: object) -> _T:
    """``parser(str(text))``; a value it rejects is a ``BAD_VALUE`` config error naming ``key``."""
    try:
        return parser(str(text))
    except ValueError as err:
        raise ConfigValidationError([ConfigViolation("BAD_VALUE", f"{key}: {err}")]) from None


SAMPLER_PARSERS: dict[str, Callable[[str], object]] = {
    "strategy": Strategy.parse,
    "dataset_size": int,
    "base_batch": int,
    "base_resolution": Resolution.parse,
    "resolutions": ResolutionSet.parse,
    "epochs": int,
    "world_size": int,
    "seed": int,
    "drop_last": _parse_bool,
    "batch_rounding": BatchRounding.parse,
    "min_batch": int,
    "clips": lambda text: tuple(VideoClipSpec.parse(part) for part in text.split(",") if part.strip()),
    "base_clip": lambda text: VideoClipSpec.parse(text) if text.strip() else None,
}


def sampler_config_from_mapping(
    mapping: Mapping[str, str], base: SamplerConfig | None = None
) -> SamplerConfig:
    """Build a SamplerConfig from flat string keys, over optional defaults.

    Keys match the SamplerConfig field names exactly; other keys are
    ignored, so one mapping can also hold trainer settings. A value that
    does not parse raises ``BAD_VALUE`` (:func:`parse_value`); without
    ``base``, a missing required key raises ``MISSING_KEY``.
    """
    kwargs: dict[str, object] = {}
    for key, parser in SAMPLER_PARSERS.items():
        if key in mapping and mapping[key] is not None:
            kwargs[key] = parse_value(key, parser, mapping[key])
    if base is not None:
        return replace(base, **kwargs)
    missing = [k for k in ("strategy", "dataset_size", "base_batch", "base_resolution", "resolutions", "epochs") if k not in kwargs]
    if missing:
        raise ConfigValidationError([ConfigViolation("MISSING_KEY", f"config is missing required keys: {', '.join(missing)}")])
    return SamplerConfig(**kwargs)  # type: ignore[arg-type]


def sampler_config_to_mapping(config: SamplerConfig) -> dict[str, object]:
    """Flat representation with keys matching the field names; an empty clip table and an unset base clip are ``""``."""
    out: dict[str, object] = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, (Strategy, BatchRounding)):
            out[f.name] = value.value
        elif isinstance(value, (Resolution, ResolutionSet, VideoClipSpec)):
            out[f.name] = str(value)
        elif f.name == "clips":
            out[f.name] = ",".join(str(c) for c in value)
        elif f.name == "base_clip":  # unset
            out[f.name] = ""
        else:
            out[f.name] = value
    return out
