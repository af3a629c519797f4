"""Command-line interface.

Subcommands: ``plan`` (emit a JSONL schedule), ``analyze`` (strategy cost
table), ``train`` (toy synthetic-task training run; its one artifact is
the JSON run report), ``set-report`` (the run report's per-epoch CSV, or a
summary of a state checkpoint), and ``export`` (re-emit a schedule file).

Configuration precedence, highest first: explicit flags, then a
``--config`` file of flat ``key = value`` pairs, then a ``--preset``,
then the ``BATCHFORGE_SEED`` environment variable (seed only), then
built-in defaults. Every setting is one row of :data:`SETTINGS`; its
sampler rows, the video ``clips`` and ``base_clip`` among them, come from
:data:`batchforge.core.SAMPLER_FIELDS`, one per ``SamplerConfig`` field,
so a sampler setting parses the same from a flag, a file and a header.
Every artifact embeds the effective configuration in its header. Exit codes:
0 success, 2 invalid configuration or arguments, 1 runtime failure.
A file a command cannot open is the runtime failure ``BAD_PATH``. With
``--errors-json``, every :class:`~batchforge.core.BatchforgeError` is
printed to stderr as ``{"errors": [{"code", "message"}]}``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import warnings
from dataclasses import fields, replace
from typing import Callable, Iterator, NamedTuple

from . import analysis, schedule_io
from .core import (
    SAMPLER_FIELDS,
    BatchforgeError,
    ConfigValidationError,
    SamplerConfig,
    Strategy,
    ensure_valid,
    parse_flat_config,
    parse_value,
    sampler_config_from_mapping,
    sampler_config_to_mapping,
)
from .presets import load_preset, preset_names
from .samplers import EpochSchedule, plan_epoch
from .set_training import SetConfig, SetState
from .trainer import (
    PooledLinearModel,
    TrainerConfig,
    make_synthetic_task,
    read_run_report,
    train,
    write_epoch_csv,
    write_run_report_json,
)

SEED_ENV_VAR = "BATCHFORGE_SEED"


class Setting(NamedTuple):
    """One value a command reads.

    ``parse`` turns the flag or file text into the value (``BAD_VALUE`` on
    failure). ``commands`` take it as a ``--key-with-dashes`` flag, and
    ``in_file`` says whether a ``--config`` file may set it. ``default`` is
    used when neither gives a value (sampler rows have none: the preset or
    the command's defaults do); a value below ``least`` is ``OUT_OF_RANGE``.
    """

    parse: Callable[[str], object]
    commands: tuple[str, ...]
    in_file: bool = False
    default: object = None
    least: int | None = None
    help: str | None = None


_PLAN, _TRAIN, _ANALYZE = ("plan", "analyze"), ("train",), ("analyze",)
_ALL = _PLAN + _TRAIN
# ``train`` plans for one rank, so it takes no flag for these sampler fields.
_PLAN_ONLY = ("world_size", "drop_last", "batch_rounding", "min_batch")
_SAMPLER_HELP = {
    "strategy": "ssc_fbs | msc_fbs | msc_vbs | video_vbs",
    "base_resolution": "e.g. 224x224",
    "resolutions": "comma list, e.g. 128x128,192x192,224x224",
    "drop_last": "drop the final short batch: true | false",
    "batch_rounding": "floor | nearest | multiple_of_world",
    "clips": "video_vbs clip table, comma list of frames x clips per video x resolution, e.g. 8x1x128x128,16x2x224x224",
    "base_clip": "the clip base_batch is given at, e.g. 8x1x224x224",
}

SETTINGS: dict[str, Setting] = {
    "preset": Setting(load_preset, _PLAN, help=f"start from a shipped recipe: {' | '.join(preset_names())}"),
    "config": Setting(str, _ALL, help="flat key=value config file"),
    # the sampler: one row per SamplerConfig field, from core's table
    **{key: Setting(field.parse, _PLAN if key in _PLAN_ONLY else _ALL, in_file=True, help=_SAMPLER_HELP.get(key))
       for key, field in SAMPLER_FIELDS.items()},
    # the synthetic task
    "classes": Setting(int, _TRAIN, default=10),
    "grid": Setting(int, _TRAIN, default=8, help="2 or a multiple of 4"),
    "eval_samples": Setting(int, _TRAIN, default=2000, least=1),
    "noise_scale": Setting(float, _TRAIN, default=1.15),
    # the sample filter (SetConfig)
    "tau": Setting(float, _TRAIN, default=1.0, help="sample-filtering confidence threshold; 1.0 removes nothing"),
    "window": Setting(int, _TRAIN, default=2),
    "start_epoch": Setting(int, _TRAIN),
    "reeval_stride": Setting(int, _TRAIN, default=1),
    # the optimizer (TrainerConfig)
    "max_lr": Setting(float, _TRAIN, in_file=True, default=0.2),
    "warmup_epochs": Setting(int, _TRAIN, in_file=True),  # unset: min(3, epochs - 1), see _cmd_train
    "min_lr": Setting(float, _TRAIN, in_file=True, default=0.0),
    "momentum": Setting(float, _TRAIN, in_file=True, default=0.9),
    "weight_decay": Setting(float, _TRAIN, in_file=True, default=1e-4),
    "label_smoothing": Setting(float, _TRAIN, in_file=True, default=0.1),
    "ema_decay": Setting(float, _TRAIN, in_file=True, default=0.999),
    # the cost table
    "strategies": Setting(
        lambda text: tuple(Strategy.parse(s) for s in text.split(",") if s.strip()), _ANALYZE,
        default=(Strategy.SSC_FBS, Strategy.MSC_FBS, Strategy.MSC_VBS), help="comma list of strategies to compare",
    ),
    "channels": Setting(int, _ANALYZE, default=3, least=1),
    "bytes_per_element": Setting(int, _ANALYZE, default=4, least=1),
    "trials": Setting(int, _ANALYZE, default=0, least=0, help="add a Monte-Carlo update-count section (--format json only)"),
}
# Flags that are not settings: paths and switches a command takes only on its command line.
_FLAG_ONLY = ("output", "schedule", "run_report", "state", "errors_json")
# ``train`` names these sampler flags after the task.
_TRAIN_FLAGS = {"dataset_size": "--samples", "base_batch": "--batch"}

# The desk-scale run ``train`` does when neither flags nor file say otherwise.
_TRAIN_DEFAULTS = {
    "dataset_size": "10000",
    "base_batch": "128",
    "base_resolution": "16x16",
    "resolutions": "8x8,16x16,32x32",
    "epochs": "30",
    "drop_last": "false",
}


def _default_sampler() -> SamplerConfig:
    """The resnet50 recipe's sampler for one epoch, seeded from ``BATCHFORGE_SEED``."""
    seed = parse_value(SEED_ENV_VAR, int, os.environ.get(SEED_ENV_VAR, "0"))
    return replace(load_preset("resnet50").sampler, epochs=1, seed=seed)


def _read_config(args: argparse.Namespace) -> dict[str, str]:
    """The ``--config`` file's keys ({} without one); a key no file may set is ``UNKNOWN_KEY``."""
    if not args.config:
        return {}
    with _open("--config", args.config) as fp:
        mapping = parse_flat_config(fp.read())
    unknown = [key for key in mapping if not (key in SETTINGS and SETTINGS[key].in_file)]
    if unknown:
        raise ConfigValidationError([BatchforgeError("UNKNOWN_KEY", _unknown_key_message(key)) for key in unknown])
    return mapping


def _unknown_key_message(key: str) -> str:
    """Name the flag that sets ``key``, when it is a setting or path flag some command takes."""
    if key in SETTINGS or key in _FLAG_ONLY:
        return f"{key}: not a config-file key; pass the --{key.replace('_', '-')} flag"
    return f"{key}: not a config-file key of any command"


def _values(args: argparse.Namespace, mapping: dict[str, str], *keys: str) -> dict[str, object]:
    """Each key's flag, else its ``--config`` value, else its default, parsed and range-checked."""
    values = {}
    for key in keys:
        row = SETTINGS[key]
        text = getattr(args, key, None)
        text = mapping.get(key) if text is None else text
        value = values[key] = row.default if text is None else parse_value(key, row.parse, text)
        if row.least is not None and value < row.least:
            raise ConfigValidationError([BatchforgeError("OUT_OF_RANGE", f"{key}: must be >= {row.least}, got {value}")])
    return values


def _sampler(args: argparse.Namespace, mapping: dict[str, str], defaults: dict[str, str] | None = None) -> SamplerConfig:
    """Flags over the ``--config`` ``mapping`` over ``defaults`` over a preset or the default sampler."""
    preset = _values(args, mapping, "preset")["preset"]
    config = preset.sampler if preset else _default_sampler()
    flags = {key: getattr(args, key) for key in SAMPLER_FIELDS if getattr(args, key, None) is not None}
    given = {**(defaults or {}), **mapping, **flags}
    if config.min_batch == config.world_size:  # a min_batch tied to world_size moves with it
        given.setdefault("min_batch", given.get("world_size"))
    return ensure_valid(sampler_config_from_mapping(given, base=config))


def _config_header(config: dict) -> str:
    """The ``# schema_version=1 config=...`` first line of CSV artifacts."""
    return f"# schema_version=1 config={json.dumps(config, separators=(',', ':'))}\n"


def _open(flag: str, path: str | None, mode: str = "r"):
    """The file at ``path``, or standard output for an output of no path or ``-``; an ``OSError`` is ``BAD_PATH``.

    A regular or new output file is written to a temporary file beside it (in the mode a plain open leaves the file
    in), which replaces it only when the command succeeds.
    """
    if mode == "w" and path in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    try:
        target = os.path.realpath(path)  # through a link, the file it names is replaced
        if mode == "w" and (os.path.isfile(target) or not os.path.exists(target)):
            fp = open(os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.{os.urandom(6).hex()}"), "x")
            if os.path.exists(target):
                os.chmod(fp.name, os.stat(target).st_mode & 0o7777)
            return _replacing(fp, target)
        return open(path, mode)
    except OSError as err:
        raise BatchforgeError("BAD_PATH", f"{flag}: cannot open {path!r}: {err.strerror or err}") from None


@contextlib.contextmanager
def _replacing(fp, target: str):
    """``fp``, a temporary file that replaces ``target`` when the block succeeds and is removed otherwise."""
    try:
        with fp:
            yield fp
        os.replace(fp.name, target)
    except BaseException:
        os.unlink(fp.name)
        raise


@contextlib.contextmanager
def _schedule_file(path: str) -> Iterator[tuple[dict, SamplerConfig, Iterator[EpochSchedule]]]:
    """The header config of the ``--schedule`` file, as read and as a valid config, and an iterator that re-plans its
    epochs one at a time while the file is open."""
    with _open("--schedule", path) as fp:
        schedules = schedule_io.iter_schedules(fp)
        header = next(schedules)
        if not isinstance(header, dict):
            raise BatchforgeError("MISSING_HEADER", "schedule file has no config header to re-plan or cost against")
        yield header, ensure_valid(sampler_config_from_mapping(header)), schedules


# -- subcommand handlers --------------------------------------------------


def _cmd_plan(args: argparse.Namespace) -> int:
    config = _sampler(args, _read_config(args))
    with _open("--output", args.output, "w") as fp:
        schedule_io.write_schedules(fp, (plan_epoch(config, epoch) for epoch in range(config.epochs)), config=config)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    # A schedule file is costed under its own header config, so a flag that would choose another is refused.
    flags = ("preset", "config", *SAMPLER_FIELDS, "strategies") if args.schedule else ()
    ignored = [f"--{key.replace('_', '-')}" for key in flags if getattr(args, key) is not None]
    if ignored:
        message = f"{', '.join(ignored)}: --schedule costs the file's own header config, which these flags would not change"
        raise ConfigValidationError([BatchforgeError("IGNORED_FLAG", message)])
    values = _values(args, {}, "strategies", "channels", "bytes_per_element", "trials")
    if values["trials"] and args.output_format == "csv":
        message = "--trials: the CSV table has no simulation section; pass --format json to write it"
        raise ConfigValidationError([BatchforgeError("IGNORED_FLAG", message)])
    if args.schedule:
        with _schedule_file(args.schedule) as (_, config, schedules):
            row = analysis.schedule_cost(schedules, config.strategy, channels=values["channels"])
        baseline = analysis.strategy_cost(config.with_strategy(Strategy.SSC_FBS), channels=values["channels"])
        reports = analysis.with_ratios([row], baseline=baseline)
    else:
        config = _sampler(args, _read_config(args))
        strategies = values["strategies"]
        if values["trials"] and config.strategy not in strategies:
            strategies = (*strategies, config.strategy)  # the simulated strategy's row
        reports = analysis.compare_strategies(config, strategies, channels=values["channels"])
    config_echo = sampler_config_to_mapping(config)

    with _open("--output", args.output, "w") as fp:
        if args.output_format == "json":
            payload = analysis.cost_reports_payload(reports, values["bytes_per_element"])
            payload["config"] = config_echo
            if values["trials"]:
                sim = analysis.simulate_updates(config, values["trials"])
                payload["simulation"] = {
                    "strategy": config.strategy.value,
                    "trials": sim.trials,
                    "mean_updates": sim.mean,
                    "stderr": sim.stderr,
                }
            json.dump(payload, fp, indent=2)
            fp.write("\n")
        else:
            fp.write(_config_header(config_echo))
            analysis.write_cost_csv(fp, reports, values["bytes_per_element"])
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    mapping = _read_config(args)
    sampler = _sampler(args, mapping, _TRAIN_DEFAULTS)
    task = {"samples": sampler.dataset_size, **_values(args, mapping, "classes", "grid", "eval_samples", "noise_scale")}
    set_values = _values(args, mapping, *(f.name for f in fields(SetConfig)))
    trainer_values = _values(args, mapping, *(f.name for f in fields(TrainerConfig) if f.name != "total_epochs"))
    if trainer_values["warmup_epochs"] is None:  # three warmup epochs, fewer when the run is shorter than four
        trainer_values["warmup_epochs"] = min(3, sampler.epochs - 1)
    try:
        trainer_config = TrainerConfig(total_epochs=sampler.epochs, **trainer_values)
        set_config = SetConfig(**set_values)
        dataset, eval_dataset = make_synthetic_task(
            sampler.dataset_size, task["classes"], task["grid"], sampler.seed, task["eval_samples"],
            noise_scale=task["noise_scale"],
        )
        model = PooledLinearModel(task["classes"], task["grid"], sampler.resolutions)
    except BatchforgeError as err:  # bad settings, not a failed run
        raise ConfigValidationError([err]) from err
    # The output opens before the run, so a bad path fails before any epoch is trained.
    with _open("--output", args.output, "w") as fp:
        report = train(model, dataset, sampler, trainer_config, set_config, eval_dataset)
        header = {
            "sampler": sampler_config_to_mapping(sampler),
            "trainer": trainer_config.__dict__,
            "set": set_config.__dict__,
            "task": task,
        }
        write_run_report_json(fp, report, header=header)
    print(
        f"trained {sampler.epochs} epochs: {report.total_updates} updates, "
        f"{report.total_forward_passes} forward passes, "
        f"final eval accuracy {report.final_eval_accuracy:.4f}",
        file=sys.stderr,
    )
    return 0


def _cmd_set_report(args: argparse.Namespace) -> int:
    """CSV of a run report's per-epoch rows (``--run-report``) or JSON summary of a state checkpoint (``--state``)."""
    if args.run_report:
        with _open("--run-report", args.run_report) as rf:
            header, rows = read_run_report(rf)
        with _open("--output", args.output, "w") as fp:
            if header is not None:
                fp.write(_config_header(header))
            write_epoch_csv(fp, rows)
        return 0
    with _open("--state", args.state) as sf:
        state = SetState.load(sf)
    summary = {
        "epoch": state.epoch,
        "active": int(len(state.active_samples())),
        "removed": int(len(state.removed_samples())),
        "removed_count": state.removed_count,
        "readded_count": state.readded_count,
        "forward_passes": state.forward_passes,
    }
    with _open("--output", args.output, "w") as fp:
        json.dump(summary, fp, indent=2)
        fp.write("\n")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    # each epoch is written as it is read; a fault found late leaves the target as it was (_open's temporary file)
    with _schedule_file(args.schedule) as (header, config, schedules), _open("--output", args.output, "w") as fp:
        if args.output_format == "csv":
            fp.write(_config_header(header))
            video = config.strategy is Strategy.VIDEO_VBS
            fp.write(f"epoch,iteration,height,width,{'frames,clips_per_video,' if video else ''}batch_size\n")
            for schedule in schedules:
                for p in schedule.plans:
                    clip = "" if p.clip is None else f"{p.clip.num_frames},{p.clip.clips_per_video},"
                    fp.write(f"{schedule.epoch},{p.iteration},{p.resolution.height},{p.resolution.width},{clip}{p.batch_size}\n")
        else:
            schedule_io.write_schedules(fp, schedules, config=config)
    return 0


# -- parser ---------------------------------------------------------------


# Each command: its help, its handler, and the choices of its --format flag (the first is the default).
_COMMANDS = {
    "plan": ("generate a schedule and write it as JSONL", _cmd_plan, ()),
    "analyze": ("update counts and input-memory proxies per strategy", _cmd_analyze, ("csv", "json")),
    "train": ("train the synthetic task with the toy learner", _cmd_train, ()),
    "set-report": ("per-epoch filtering report from a run report or state file", _cmd_set_report, ()),
    "export": ("re-emit an exported schedule (jsonl or csv)", _cmd_export, ("jsonl", "csv")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="batchforge",
        description="Deterministic multi-scale batch schedules, cost accounting, and sample-efficient training.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    commands = {name: sub.add_parser(name, help=about) for name, (about, _, _) in _COMMANDS.items()}
    # Value flags stay strings and parse like config-file values (``_values``, ``_sampler``).
    for key, row in SETTINGS.items():
        for name in row.commands:
            flag = _TRAIN_FLAGS.get(key) if name == "train" else None
            commands[name].add_argument(flag or f"--{key.replace('_', '-')}", dest=key, help=row.help)
    commands["analyze"].add_argument("--schedule", help="analyze an exported schedule file instead of generating")
    commands["export"].add_argument("--schedule", required=True)
    group = commands["set-report"].add_mutually_exclusive_group(required=True)
    group.add_argument("--run-report", dest="run_report", help="run report JSON from `train` (writes its per-epoch CSV)")
    group.add_argument("--state", help="filter-state checkpoint JSON (writes a JSON summary)")
    for name, (_, handler, formats) in _COMMANDS.items():
        command = commands[name]
        command.add_argument("--output", "-o", help="output path (default: stdout)")
        if formats:
            command.add_argument("--format", dest="output_format", choices=formats, default=formats[0])
        command.add_argument("--errors-json", action="store_true", help="emit coded errors as JSON on stderr")
        command.set_defaults(handler=handler)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            code = args.handler(args)
        for w in caught:  # a failed command drops its warnings: its error alone goes to stderr
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
        return code
    except BatchforgeError as err:  # exit 2 for invalid settings, 1 for a coded runtime failure
        invalid = isinstance(err, ConfigValidationError)
        errors = err.violations if invalid else [err]
        if args.errors_json:
            print(json.dumps({"errors": [{"code": e.code, "message": e.message} for e in errors]}), file=sys.stderr)
        elif invalid:
            for e in errors:
                print(f"config error [{e.code}] {e.message}", file=sys.stderr)
        else:
            print(f"error: {err}", file=sys.stderr)
        return 2 if invalid else 1
    except BrokenPipeError:
        return 1
    except Exception as err:  # uncoded runtime failures: exit 1 with a diagnostic
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
