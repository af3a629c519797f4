"""Shared domain types, configuration validation, and flat config parsing.

Everything here is immutable after construction. Validation never raises on
bad field values while building a config; :func:`validate_config` returns
the complete violation list so callers (and the CLI) can report every
problem at once.
"""

from __future__ import annotations

import base64
import math
import operator
from dataclasses import MISSING, dataclass, fields, replace
from enum import Enum
from typing import Callable, Iterable, Mapping, NamedTuple, TypeVar

import numpy as np

# Largest n :func:`batchforge.rng.permutation` accepts (so the largest dataset_size); see its docstring for why.
MAX_PERMUTATION_SIZE = 1 << 24

_MAX_SEED = (1 << 64) - 1

_T = TypeVar("_T")


def as_integer(value) -> int | None:
    """``value`` as a Python int through ``operator.index``; None for a bool or a non-integer."""
    if type(value) is int:  # the common case, checked first: validate_config runs this on every side of every shape
        return value
    if isinstance(value, (bool, np.bool_)):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def check_integer(value, what: str, code: str, least: int = 0, below: int = 1 << 63, low_code: str | None = None) -> int:
    """``value`` as a Python int in ``[least, below)``, through :func:`as_integer`.

    A bool, a non-integer or a value out of range raises ``BatchforgeError(code)``; with ``low_code``, an
    integer below ``least`` raises ``low_code`` instead.
    """
    number = as_integer(value)
    if number is not None and least <= number < below:
        return number
    if low_code is not None and number is not None and number < least:
        code = low_code
    bound = f"2**{below.bit_length() - 1}" if below > 1 << 32 and below & (below - 1) == 0 else below
    raise BatchforgeError(code, f"{what} must be an integer in [{least}, {bound}), got {value!r}")


def check_real(value, what: str, code: str, least: float = -math.inf, most: float = math.inf, open_top: bool = False) -> float:
    """``value`` as a finite float in ``[least, most]`` (``[least, most)`` with ``open_top``); a bool, a string, what
    ``float`` does not take, a NaN, an infinity or a value out of range raises ``BatchforgeError(code)``."""
    try:
        number = math.nan if isinstance(value, (bool, np.bool_, str, bytes)) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if math.isfinite(number) and least <= number and (number < most if open_top else number <= most):
        return number
    span = "" if least == -math.inf and most == math.inf else f" in [{least:g}, {most:g}{')' if open_top else ']'}"
    raise BatchforgeError(code, f"{what} must be a finite number{span}, got {value!r}")


def fields_equal(record, other):
    """Whether ``other`` holds ``record``'s dataclass fields, arrays compared by value; ``NotImplemented`` for another type."""
    if not isinstance(other, type(record)):
        return NotImplemented
    pairs = ((getattr(record, f.name), getattr(other, f.name)) for f in fields(record))
    return all(np.array_equal(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else a == b for a, b in pairs)


def pack_array(array: np.ndarray) -> str:
    """``array`` as base64 text: a bool array as ``np.packbits`` of its bits, any other as its little-endian bytes."""
    array = np.asarray(array)
    raw = np.packbits(array) if array.dtype == bool else np.ascontiguousarray(array, array.dtype.newbyteorder("<"))
    return base64.b64encode(raw.tobytes()).decode("ascii")


def unpack_array(text, dtype, count: int, what: str, code: str) -> np.ndarray:
    """The ``count`` values of ``dtype`` that :func:`pack_array` wrote as ``text``.

    Text that is not a base64 string of exactly the array's bytes, or a mask with a padding bit set past its
    last value, raises ``BatchforgeError(code)``. A numeric array is a read-only view of the decoded bytes.
    """
    dtype = np.dtype(dtype)
    mask = dtype == bool
    size = (count + 7) // 8 if mask else count * dtype.itemsize
    try:
        raw = base64.b64decode(text, validate=True) if isinstance(text, str) else None
    except ValueError:  # not ASCII, or not base64
        raw = None
    if raw is None or len(raw) != size:
        raise BatchforgeError(code, f"{what} must be base64 of {size} bytes, {count} {dtype.name} values")
    if not mask:
        return np.frombuffer(raw, dtype.newbyteorder("<"))
    packed = np.frombuffer(raw, np.uint8)
    if count % 8 and packed[-1] & (0xFF >> count % 8):
        raise BatchforgeError(code, f"{what} has bits set past its {count} values")
    return np.unpackbits(packed, count=count).view(bool)


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
        """Parse '224x224' (or bare '224' for a square); any other text raises a ValueError naming the form."""
        height, cross, width = text.strip().lower().partition("x")
        try:
            return cls(int(height), int(width if cross else height))
        except ValueError:
            raise ValueError(f"expected HxW (or one side for a square), such as 224x224, got {text!r}") from None


class ResolutionSet(tuple):
    """A tuple of resolutions, valid when strictly ascending by pixel count; ``str`` is the form :meth:`parse` reads."""

    __slots__ = ()

    def is_sorted(self) -> bool:
        counts = [r.pixel_count() for r in self]
        return all(a < b for a, b in zip(counts, counts[1:]))

    @classmethod
    def squares(cls, sides: Iterable[int]) -> "ResolutionSet":
        return cls(Resolution(s, s) for s in sides)

    @classmethod
    def parse(cls, text: str) -> "ResolutionSet":
        return cls(Resolution.parse(part) for part in text.split(",") if part.strip())

    def __str__(self) -> str:
        return ",".join(map(str, self))


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
        """Parse '8x1x112x112': frames x clips per video x resolution; any other text raises a ValueError naming the form."""
        try:
            frames, clips, resolution = text.strip().lower().split("x", 2)
            return cls(int(frames), int(clips), Resolution.parse(resolution))
        except ValueError:
            raise ValueError(f"expected frames x clips x HxW, such as 8x1x224x224, got {text!r}") from None


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
        for name, field in SAMPLER_FIELDS.items():  # a numpy integer is stored as its Python int
            if field.integer and isinstance(getattr(self, name), np.integer):
                object.__setattr__(self, name, int(getattr(self, name)))
        if isinstance(self.drop_last, np.bool_):  # and a numpy bool as its Python bool
            object.__setattr__(self, "drop_last", bool(self.drop_last))
        if self.min_batch is None:
            object.__setattr__(self, "min_batch", self.world_size)
        object.__setattr__(self, "clips", tuple(self.clips))

    def with_strategy(self, strategy: Strategy) -> "SamplerConfig":
        return replace(self, strategy=strategy)

    def effective_batch(self) -> int:
        """Global ids consumed per iteration at the base resolution."""
        return self.base_batch * self.world_size


class BatchforgeError(ValueError):
    """The package's one coded error: ``str(err)`` is ``"CODE: message"``."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class ConfigValidationError(BatchforgeError):
    """Raised by ensure_valid and the config readers: ``violations`` lists the coded errors, ``code`` is the first one's."""

    def __init__(self, violations: list[BatchforgeError]):
        first, *rest = violations
        super().__init__(first.code, "; ".join([first.message, *map(str, rest)]))
        self.violations = violations

    @property
    def codes(self) -> list[str]:
        return [v.code for v in self.violations]


def validate_config(config: SamplerConfig) -> list[BatchforgeError]:
    """Check every SamplerConfig invariant; return a :class:`BatchforgeError` per violation found, none raised."""
    bad = []

    def flag(code: str, message: str):
        bad.append(BatchforgeError(code, message))

    # Every check below compares or multiplies these integers, so a value of another type ends them.
    for name, field in SAMPLER_FIELDS.items():
        if field.integer and as_integer(getattr(config, name)) is None:
            flag("NOT_INTEGER", f"{name} must be an integer, got {getattr(config, name)!r}")
    clips = (*config.clips, config.base_clip) if config.base_clip is not None else config.clips
    for shape in (config.base_resolution, *config.resolutions, *clips):
        sides = (shape.height, shape.width) if isinstance(shape, Resolution) else (
            shape.num_frames, shape.clips_per_video, shape.resolution.height, shape.resolution.width)
        if None in map(as_integer, sides):
            flag("NOT_INTEGER", f"{shape!r} must hold integers")
    if not isinstance(config.drop_last, bool):
        flag("NOT_BOOL", f"drop_last must be a bool, got {config.drop_last!r}")
    if bad:
        return bad

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

    if len(config.resolutions) > 0 and config.base_resolution not in config.resolutions:
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
        outside = [str(c) for c in config.clips if c.resolution not in config.resolutions]
        if outside:
            flag("CLIP_RES_NOT_IN_SET", f"clips {', '.join(outside)} have a resolution outside the resolution set")

    if config.base_batch < 1 or config.min_batch < 1:
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

        sizes = batch_table(config)
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
            raise ConfigValidationError([BatchforgeError("BAD_CONFIG_LINE", message)])
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
        raise ConfigValidationError([BatchforgeError("BAD_VALUE", f"{key}: {err}")]) from None


class SamplerField(NamedTuple):
    """One SamplerConfig field: ``parse`` reads its flag or file text (:func:`parse_value`), ``format`` gives its
    flat-mapping entry, and an ``integer`` field holds an integer (``NOT_INTEGER``; a numpy one is stored as an int)."""

    parse: Callable[[str], object]
    format: Callable[[object], object] = lambda value: value
    integer: bool = False


_INTEGER = SamplerField(int, integer=True)
_MEMBER = operator.attrgetter("value")

# One row per SamplerConfig field, in field order: the order of the mapping's keys and of every header.
SAMPLER_FIELDS: dict[str, SamplerField] = {
    "strategy": SamplerField(Strategy.parse, _MEMBER),
    "dataset_size": _INTEGER,
    "base_batch": _INTEGER,
    "base_resolution": SamplerField(Resolution.parse, str),
    "resolutions": SamplerField(ResolutionSet.parse, str),
    "epochs": _INTEGER,
    "world_size": _INTEGER,
    "seed": _INTEGER,
    "drop_last": SamplerField(_parse_bool),
    "batch_rounding": SamplerField(BatchRounding.parse, _MEMBER),
    "min_batch": _INTEGER,
    "clips": SamplerField(lambda text: tuple(VideoClipSpec.parse(part) for part in text.split(",") if part.strip()),
                          lambda clips: ",".join(map(str, clips))),
    "base_clip": SamplerField(lambda text: VideoClipSpec.parse(text) if text.strip() else None,
                              lambda clip: "" if clip is None else str(clip)),
}


def sampler_config_from_mapping(
    mapping: Mapping[str, str], base: SamplerConfig | None = None
) -> SamplerConfig:
    """Build a SamplerConfig from flat string keys, over optional defaults.

    Keys match the SamplerConfig field names exactly; other keys are
    ignored, so one mapping can also hold trainer settings. A value that
    does not parse raises ``BAD_VALUE`` (:func:`parse_value`); without
    ``base``, a missing key of a field with no default raises ``MISSING_KEY``.
    """
    kwargs = {key: parse_value(key, field.parse, mapping[key]) for key, field in SAMPLER_FIELDS.items()
              if mapping.get(key) is not None}
    if base is not None:
        return replace(base, **kwargs)
    missing = [f.name for f in fields(SamplerConfig) if f.default is MISSING and f.name not in kwargs]
    if missing:
        raise ConfigValidationError([BatchforgeError("MISSING_KEY", f"config is missing required keys: {', '.join(missing)}")])
    return SamplerConfig(**kwargs)  # type: ignore[arg-type]


def sampler_config_to_mapping(config: SamplerConfig) -> dict[str, object]:
    """Flat representation with keys matching the field names; an empty clip table and an unset base clip are ``""``."""
    return {name: field.format(getattr(config, name)) for name, field in SAMPLER_FIELDS.items()}
