"""Command-line interface.

Subcommands: ``plan`` (emit a JSONL schedule), ``analyze`` (strategy cost
table), ``train`` (toy synthetic-task training run; its one artifact is
the JSON run report), ``set-report`` (the run report's per-epoch CSV, or a
summary of a state checkpoint), and ``export`` (re-emit a schedule file).

Configuration precedence, highest first: explicit flags, then a
``--config`` file of flat ``key = value`` pairs, then a ``--preset``,
then the ``BATCHFORGE_SEED`` environment variable (seed only), then
built-in defaults. Every setting is one row of :data:`SETTINGS`. Every
artifact embeds the effective configuration in its header. Exit codes:
0 success, 2 invalid configuration or arguments, 1 runtime failure.
With ``--errors-json``, configuration errors and runtime errors that carry
a code are printed to stderr as ``{"errors": [{"code", "message"}]}``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import Callable, NamedTuple

from . import analysis, schedule_io
from .core import (
    SAMPLER_PARSERS,
    ConfigValidationError,
    ConfigViolation,
    SamplerConfig,
    Strategy,
    VideoClipSpec,
    ensure_valid,
    parse_flat_config,
    parse_value,
    sampler_config_from_mapping,
    sampler_config_to_mapping,
)
from .presets import IMAGENET_TRAIN_SIZE, STANDARD_BASE, STANDARD_RESOLUTIONS, load_preset, preset_names
from .samplers import ScheduleError, plan_epoch
from .set_training import SetConfig, SetError, SetState
from .trainer import (
    PooledLinearModel,
    TrainerConfig,
    TrainerError,
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

SETTINGS: dict[str, Setting] = {
    "preset": Setting(load_preset, _PLAN, help=f"start from a shipped recipe: {' | '.join(preset_names())}"),
    "config": Setting(str, _ALL, help="flat key=value config file"),
    # the sampler; ``train`` plans for one rank, so it takes no world_size, drop_last, batch_rounding or min_batch flag
    "strategy": Setting(SAMPLER_PARSERS["strategy"], _ALL, in_file=True, help="ssc_fbs | msc_fbs | msc_vbs"),
    "dataset_size": Setting(SAMPLER_PARSERS["dataset_size"], _ALL, in_file=True),
    "base_batch": Setting(SAMPLER_PARSERS["base_batch"], _ALL, in_file=True),
    "base_resolution": Setting(SAMPLER_PARSERS["base_resolution"], _ALL, in_file=True, help="e.g. 224x224"),
    "resolutions": Setting(SAMPLER_PARSERS["resolutions"], _ALL, in_file=True, help="comma list, e.g. 128x128,192x192,224x224"),
    "epochs": Setting(SAMPLER_PARSERS["epochs"], _ALL, in_file=True),
    "world_size": Setting(SAMPLER_PARSERS["world_size"], _PLAN, in_file=True),
    "seed": Setting(SAMPLER_PARSERS["seed"], _ALL, in_file=True),
    "drop_last": Setting(SAMPLER_PARSERS["drop_last"], _PLAN, in_file=True, help="drop the final short batch: true | false"),
    "batch_rounding": Setting(SAMPLER_PARSERS["batch_rounding"], _PLAN, in_file=True, help="floor | nearest | multiple_of_world"),
    "min_batch": Setting(SAMPLER_PARSERS["min_batch"], _PLAN, in_file=True),
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
    "warmup_epochs": Setting(int, _TRAIN, in_file=True, default=3),
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
    "trials": Setting(int, _ANALYZE, default=0, least=0, help="add a Monte-Carlo update-count section (json only)"),
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
    seed = parse_value(SEED_ENV_VAR, int, os.environ.get(SEED_ENV_VAR, "0"))
    return SamplerConfig(
        strategy=Strategy.MSC_VBS,
        dataset_size=IMAGENET_TRAIN_SIZE,
        base_batch=1024,
        base_resolution=STANDARD_BASE,
        resolutions=STANDARD_RESOLUTIONS,
        epochs=1,
        seed=seed,
    )


def _read_config(args: argparse.Namespace) -> dict[str, str]:
    """The ``--config`` file's keys ({} without one); a key no file may set is ``UNKNOWN_KEY``."""
    if not args.config:
        return {}
    mapping = parse_flat_config(Path(args.config).read_text())
    unknown = [key for key in mapping if not (key in SETTINGS and SETTINGS[key].in_file)]
    if unknown:
        raise ConfigValidationError([ConfigViolation("UNKNOWN_KEY", _unknown_key_message(key)) for key in unknown])
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
            raise ConfigValidationError([ConfigViolation("OUT_OF_RANGE", f"{key}: must be >= {row.least}, got {value}")])
    return values


def _sampler(args: argparse.Namespace, mapping: dict[str, str], defaults: dict[str, str] | None = None) -> SamplerConfig:
    """Flags over the ``--config`` ``mapping`` over ``defaults`` over a preset or the default sampler."""
    preset = _values(args, mapping, "preset")["preset"]
    config = preset.sampler if preset else _default_sampler()
    flags = {key: getattr(args, key) for key in SAMPLER_PARSERS if getattr(args, key, None) is not None}
    given = {**(defaults or {}), **mapping, **flags}
    if config.min_batch == config.world_size:  # a min_batch tied to world_size moves with it
        given.setdefault("min_batch", given.get("world_size"))
    return ensure_valid(sampler_config_from_mapping(given, base=config))


def _config_header(config: dict) -> str:
    """The ``# schema_version=1 config=...`` first line of CSV artifacts."""
    return f"# schema_version=1 config={json.dumps(config, separators=(',', ':'))}\n"


@contextlib.contextmanager
def _output(path: str | None):
    """Standard output for no path or ``-``, else the file at ``path``."""
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w") as fp:
            yield fp


def _emit_json_errors(errors: list[tuple[str, str]]) -> None:
    print(json.dumps({"errors": [{"code": code, "message": message} for code, message in errors]}), file=sys.stderr)


def _emit_config_errors(err: ConfigValidationError, as_json: bool) -> None:
    if as_json:
        _emit_json_errors([(v.code, v.message) for v in err.violations])
    else:
        for violation in err.violations:
            print(f"config error [{violation.code}] {violation.message}", file=sys.stderr)


# -- subcommand handlers --------------------------------------------------


def _cmd_plan(args: argparse.Namespace) -> int:
    config = _sampler(args, _read_config(args))
    with _output(args.output) as fp:
        schedule_io.write_schedules(fp, (plan_epoch(config, epoch) for epoch in range(config.epochs)), config=config)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    values = _values(args, {}, "strategies", "channels", "bytes_per_element", "trials")
    if args.schedule:
        with open(args.schedule) as fp:
            header, schedules = schedule_io.read_schedules(fp)
        if header is None:
            raise ScheduleError("MISSING_HEADER", "schedule file has no config header to analyze against")
        config = ensure_valid(sampler_config_from_mapping(header))
        row = analysis.schedule_cost(schedules, config.strategy, channels=values["channels"])
        baseline = analysis.strategy_cost(config.with_strategy(Strategy.SSC_FBS), channels=values["channels"])
        reports = analysis.with_ratios([row], baseline=baseline)
    else:
        config = _sampler(args, _read_config(args))
        reports = analysis.compare_strategies(config, values["strategies"], channels=values["channels"])
    config_echo = sampler_config_to_mapping(config)

    with _output(args.output) as fp:
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
    try:
        trainer_config = TrainerConfig(total_epochs=sampler.epochs, **trainer_values)
        set_config = SetConfig(**set_values)
        dataset, eval_dataset = make_synthetic_task(
            sampler.dataset_size, task["classes"], task["grid"], sampler.seed, task["eval_samples"],
            noise_scale=task["noise_scale"],
        )
    except (TrainerError, SetError) as err:  # bad settings, not a failed run
        message = str(err).removeprefix(f"{err.code}: ")
        raise ConfigValidationError([ConfigViolation(err.code, message)]) from err
    model = PooledLinearModel(task["classes"], task["grid"], sampler.resolutions)
    report = train(model, dataset, sampler, trainer_config, set_config, eval_dataset)

    header = {
        "sampler": sampler_config_to_mapping(sampler),
        "trainer": trainer_config.__dict__,
        "set": set_config.__dict__,
        "task": task,
    }
    with _output(args.output) as fp:
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
        with open(args.run_report) as rf:
            header, rows = read_run_report(rf)
        with _output(args.output) as fp:
            if header is not None:
                fp.write(_config_header(header))
            write_epoch_csv(fp, rows)
        return 0
    with open(args.state) as sf:
        state = SetState.load(sf)
    summary = {
        "epoch": state.epoch,
        "active": int(len(state.active_samples())),
        "removed": int(len(state.removed_samples())),
        "removed_count": state.removed_count,
        "readded_count": state.readded_count,
        "forward_passes": state.forward_passes,
    }
    with _output(args.output) as fp:
        json.dump(summary, fp, indent=2)
        fp.write("\n")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    with open(args.schedule) as fp:
        header, schedules = schedule_io.read_schedules(fp)
    config = sampler_config_from_mapping(header) if header is not None else None
    with _output(args.output) as fp:
        if args.output_format == "csv":
            if header:
                fp.write(_config_header(header))
            video = any(isinstance(shape, VideoClipSpec) for schedule in schedules for shape in schedule.shapes)
            fp.write(f"epoch,iteration,height,width,{'frames,clips_per_video,' if video else ''}batch_size\n")
            for schedule in schedules:
                for plan in schedule.plans:
                    res, clip = plan.resolution, plan.clip
                    shape = f"{res.height},{res.width}" + (f",{clip.num_frames},{clip.clips_per_video}" if video else "")
                    fp.write(f"{schedule.epoch},{plan.iteration},{shape},{plan.batch_size}\n")
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
        return args.handler(args)
    except ConfigValidationError as err:
        _emit_config_errors(err, getattr(args, "errors_json", False))
        return 2
    except BrokenPipeError:
        return 1
    except Exception as err:  # runtime failures: exit 1 with a diagnostic
        code = getattr(err, "code", None)
        if code is not None and getattr(args, "errors_json", False):
            _emit_json_errors([(code, str(err).removeprefix(f"{code}: "))])
        else:
            print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
