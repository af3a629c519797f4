"""Command-line interface.

Subcommands: ``plan`` (emit a JSONL schedule), ``analyze`` (strategy cost
table), ``train`` (toy synthetic-task training run), ``set-report``
(per-epoch filtering CSV from a run report or state checkpoint), and
``export`` (re-emit a schedule file).

Configuration precedence, highest first: explicit flags, then a
``--config`` file of flat ``key = value`` pairs, then a ``--preset``,
then the ``BATCHFORGE_SEED`` environment variable (seed only), then
built-in defaults. Every artifact embeds the effective configuration in
its header. Exit codes: 0 success, 2 invalid configuration or arguments,
1 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable

from . import analysis, schedule_io
from .core import (
    SAMPLER_PARSERS,
    ConfigValidationError,
    ConfigViolation,
    SamplerConfig,
    Strategy,
    ensure_valid,
    parse_flat_config,
    parse_value,
    sampler_config_from_mapping,
    sampler_config_to_mapping,
)
from .presets import IMAGENET_TRAIN_SIZE, STANDARD_BASE, STANDARD_RESOLUTIONS, load_preset, preset_names
from .samplers import plan_epoch
from .set_training import SetConfig, SetError, SetState
from .trainer import (
    PooledLinearModel,
    TrainerConfig,
    TrainerError,
    make_synthetic_task,
    save_params,
    train,
    write_run_report_csv,
    write_run_report_json,
)

SEED_ENV_VAR = "BATCHFORGE_SEED"


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


def _add_sampler_flags(parser: argparse.ArgumentParser) -> None:
    """Sampler flags; their values stay strings and parse like config-file values."""
    parser.add_argument("--preset", choices=preset_names(), help="start from a shipped recipe")
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--strategy", help="ssc_fbs | msc_fbs | msc_vbs")
    parser.add_argument("--dataset-size", dest="dataset_size")
    parser.add_argument("--base-batch", dest="base_batch")
    parser.add_argument("--base-resolution", dest="base_resolution", help="e.g. 224x224")
    parser.add_argument("--resolutions", help="comma list, e.g. 128x128,192x192,224x224")
    parser.add_argument("--epochs")
    parser.add_argument("--world-size", dest="world_size")
    parser.add_argument("--seed")
    parser.add_argument(
        "--drop-last",
        dest="drop_last",
        choices=["true", "false"],
        help="drop the final short batch (default from config source)",
    )
    parser.add_argument("--batch-rounding", dest="batch_rounding", help="floor | nearest | multiple_of_world")
    parser.add_argument("--min-batch", dest="min_batch")


def _add_output_flags(parser: argparse.ArgumentParser, formats: list[str]) -> None:
    parser.add_argument("--output", "-o", help="output path (default: stdout)")
    parser.add_argument("--format", dest="output_format", choices=formats, default=formats[0])
    parser.add_argument(
        "--errors-json",
        action="store_true",
        help="emit configuration errors as JSON on stderr",
    )


# The desk-scale run ``train`` does when neither flags nor file say otherwise.
_TRAIN_DEFAULTS = {
    "dataset_size": "10000",
    "base_batch": "128",
    "base_resolution": "16x16",
    "resolutions": "8x8,16x16,32x32",
    "epochs": "30",
    "drop_last": "false",
}


# Trainer keys a config file may set: parser and the value ``train`` uses without one.
_TRAINER_KEYS = {
    "max_lr": (float, 0.2),
    "warmup_epochs": (int, 3),
    "min_lr": (float, 0.0),
    "momentum": (float, 0.9),
    "weight_decay": (float, 1e-4),
    "label_smoothing": (float, 0.1),
    "ema_decay": (float, 0.999),
}


def _read_config(args: argparse.Namespace) -> dict[str, str]:
    """The ``--config`` file's keys ({} without one); a key no command reads is an error."""
    if not args.config:
        return {}
    mapping = parse_flat_config(Path(args.config).read_text())
    unknown = [key for key in mapping if key not in SAMPLER_PARSERS and key not in _TRAINER_KEYS]
    if unknown:
        raise ConfigValidationError([ConfigViolation("UNKNOWN_KEY", _unknown_key_message(key)) for key in unknown])
    return mapping


def _unknown_key_message(key: str) -> str:
    """Name the flag that sets ``key``, when some command has one."""
    commands = next(action for action in build_parser()._actions if action.dest == "subcommand")
    for command in commands.choices.values():
        for action in command._actions:
            if action.dest == key and action.option_strings:
                return f"{key}: not a config-file key; pass the {action.option_strings[0]} flag"
    return f"{key}: not a config-file key of any command"


def _sampler_from_args(
    args: argparse.Namespace, mapping: dict[str, str], defaults: SamplerConfig | None = None
) -> SamplerConfig:
    """Flags over the ``--config`` ``mapping`` over a preset or ``defaults``."""
    preset = getattr(args, "preset", None)
    config = load_preset(preset).sampler if preset else (defaults or _default_sampler())
    config = sampler_config_from_mapping(mapping, base=config)
    # Flags parse like config-file keys; unset (None) flags are skipped.
    flags = dict(vars(args))
    if flags.get("min_batch") is None and config.min_batch == config.world_size:
        flags["min_batch"] = flags.get("world_size")  # a min_batch tied to world_size moves with it
    config = sampler_config_from_mapping(flags, base=config)
    _image_strategy(config.strategy)
    return ensure_valid(config)


def _image_strategy(strategy: Strategy) -> Strategy:
    """Commands plan images only: none of them takes the clip table video needs."""
    if strategy is Strategy.VIDEO_VBS:
        raise ConfigValidationError(
            [ConfigViolation("UNSUPPORTED_STRATEGY", "video_vbs needs a clip table, which no command takes")]
        )
    return strategy


def _parse_flags(args: argparse.Namespace, parsers: dict[str, Callable[[str], object]]) -> None:
    """Parse these flags in place like config-file values (``BAD_VALUE`` on failure); unset ones stay None."""
    for key, parser in parsers.items():
        if getattr(args, key) is not None:
            setattr(args, key, parse_value(key, parser, getattr(args, key)))


def _config_header(config: dict) -> str:
    """The ``# schema_version=1 config=...`` first line of CSV artifacts."""
    return f"# schema_version=1 config={json.dumps(config, separators=(',', ':'))}\n"


def _open_output(path: str | None):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w"), True


def _emit_config_errors(err: ConfigValidationError, as_json: bool) -> None:
    if as_json:
        payload = {"errors": [{"code": v.code, "message": v.message} for v in err.violations]}
        print(json.dumps(payload), file=sys.stderr)
    else:
        for violation in err.violations:
            print(f"config error [{violation.code}] {violation.message}", file=sys.stderr)


# -- subcommand handlers --------------------------------------------------


def _cmd_plan(args: argparse.Namespace) -> int:
    config = _sampler_from_args(args, _read_config(args))
    schedules = (plan_epoch(config, epoch) for epoch in range(config.epochs))
    fp, close = _open_output(args.output)
    try:
        schedule_io.write_schedules(fp, schedules, config=config)
    finally:
        if close:
            fp.close()
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    _parse_flags(args, {"channels": int, "bytes_per_element": int, "trials": int})
    if args.schedule:
        with open(args.schedule) as fp:
            header, schedules = schedule_io.read_schedules(fp)
        if header is None:
            raise ValueError("schedule file has no config header to analyze against")
        config = ensure_valid(sampler_config_from_mapping(header))
        row = analysis.schedule_cost(schedules, config.strategy, channels=args.channels)
        baseline = analysis.strategy_cost(
            config.with_strategy(Strategy.SSC_FBS), channels=args.channels
        )
        reports = analysis.with_ratios([row], baseline=baseline)
        config_echo = sampler_config_to_mapping(config)
    else:
        config = _sampler_from_args(args, _read_config(args))
        strategies = [_image_strategy(Strategy.parse(s)) for s in args.strategies.split(",") if s.strip()]
        reports = analysis.compare_strategies(config, strategies, channels=args.channels)
        config_echo = sampler_config_to_mapping(config)

    fp, close = _open_output(args.output)
    try:
        if args.output_format == "json":
            payload = analysis.cost_reports_payload(reports, args.bytes_per_element)
            payload["config"] = config_echo
            if args.trials:
                sim = analysis.simulate_updates(config, args.trials)
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
            analysis.write_cost_csv(fp, reports, args.bytes_per_element)
    finally:
        if close:
            fp.close()
    return 0


# The sample-filter flags; they are not config-file keys.
_FILTER_FLAGS = {"tau": float, "window": int, "start_epoch": int, "reeval_stride": int}


def _trainer_from_args(args: argparse.Namespace, mapping: dict[str, str], epochs: int) -> TrainerConfig:
    """Trainer flags over the ``--config`` ``mapping`` over the defaults; flags parse like file values."""
    given = {**mapping, **{key: value for key, value in vars(args).items() if value is not None}}
    values = {k: parse_value(k, parser, given.get(k, default)) for k, (parser, default) in _TRAINER_KEYS.items()}
    return TrainerConfig(total_epochs=epochs, **values)


def _cmd_train(args: argparse.Namespace) -> int:
    mapping = _read_config(args)
    defaults = sampler_config_from_mapping(_TRAIN_DEFAULTS, base=_default_sampler())
    sampler = _sampler_from_args(args, mapping, defaults)
    _parse_flags(args, {"classes": int, "grid": int, "eval_samples": int, "noise_scale": float, **_FILTER_FLAGS})
    try:
        trainer_config = _trainer_from_args(args, mapping, sampler.epochs)
        set_config = SetConfig(**{key: getattr(args, key) for key in _FILTER_FLAGS})
        dataset, eval_dataset = make_synthetic_task(
            sampler.dataset_size, args.classes, args.grid, sampler.seed, args.eval_samples, noise_scale=args.noise_scale
        )
    except (TrainerError, SetError) as err:  # bad settings, not a failed run
        message = str(err).removeprefix(f"{err.code}: ")
        raise ConfigValidationError([ConfigViolation(err.code, message)]) from err
    model = PooledLinearModel(args.classes, args.grid, sampler.resolutions)
    report = train(model, dataset, sampler, trainer_config, set_config, eval_dataset)

    header = {
        "sampler": sampler_config_to_mapping(sampler),
        "trainer": trainer_config.__dict__,
        "set": set_config.__dict__,
        "task": {
            "samples": sampler.dataset_size,
            "classes": args.classes,
            "grid": args.grid,
            "eval_samples": args.eval_samples,
            "noise_scale": args.noise_scale,
        },
    }
    fp, close = _open_output(args.output)
    try:
        write_run_report_json(fp, report, header=header)
    finally:
        if close:
            fp.close()
    if args.csv:
        with open(args.csv, "w") as cf:
            cf.write(_config_header(header))
            write_run_report_csv(cf, report)
    if args.checkpoint:
        with open(args.checkpoint, "wb") as ck:
            save_params(ck, report.final_params, args.classes, args.grid)
    print(
        f"trained {sampler.epochs} epochs: {report.total_updates} updates, "
        f"{report.total_forward_passes} forward passes, "
        f"final eval accuracy {report.final_eval_accuracy:.4f}",
        file=sys.stderr,
    )
    return 0


def _cmd_set_report(args: argparse.Namespace) -> int:
    if args.run_report:
        payload = json.loads(Path(args.run_report).read_text())
        rows = payload.get("set_transitions", [])
        fp, close = _open_output(args.output)
        try:
            if "config" in payload:
                fp.write(_config_header(payload["config"]))
            fp.write("epoch,active,removed,readded,forward_passes\n")
            for row in rows:
                fp.write(
                    f"{row['epoch']},{row['active']},{row['removed']},"
                    f"{row['readded']},{row['forward_passes']}\n"
                )
        finally:
            if close:
                fp.close()
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
    fp, close = _open_output(args.output)
    try:
        json.dump(summary, fp, indent=2)
        fp.write("\n")
    finally:
        if close:
            fp.close()
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    with open(args.schedule) as fp:
        header, schedules = schedule_io.read_schedules(fp)
    config = sampler_config_from_mapping(header) if header else None
    fp, close = _open_output(args.output)
    try:
        if args.output_format == "csv":
            if header:
                fp.write(_config_header(header))
            fp.write("epoch,iteration,height,width,batch_size\n")
            for schedule in schedules:
                for plan in schedule.plans:
                    fp.write(
                        f"{schedule.epoch},{plan.iteration},{plan.resolution.height},"
                        f"{plan.resolution.width},{plan.batch_size}\n"
                    )
        else:
            schedule_io.write_schedules(fp, schedules, config=config)
    finally:
        if close:
            fp.close()
    return 0


# -- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="batchforge",
        description="Deterministic multi-scale batch schedules, cost accounting, and sample-efficient training.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_plan = sub.add_parser("plan", help="generate a schedule and write it as JSONL")
    _add_sampler_flags(p_plan)
    _add_output_flags(p_plan, ["jsonl"])
    p_plan.set_defaults(handler=_cmd_plan)

    p_an = sub.add_parser("analyze", help="update counts and input-memory proxies per strategy")
    _add_sampler_flags(p_an)
    p_an.add_argument(
        "--strategies",
        default="ssc_fbs,msc_fbs,msc_vbs",
        help="comma list of strategies to compare",
    )
    p_an.add_argument("--schedule", help="analyze an exported schedule file instead of generating")
    p_an.add_argument("--channels", default=3)
    p_an.add_argument("--bytes-per-element", dest="bytes_per_element", default=4)
    p_an.add_argument("--trials", default=0, help="add a Monte-Carlo update-count section (json only)")
    _add_output_flags(p_an, ["csv", "json"])
    p_an.set_defaults(handler=_cmd_analyze)

    p_tr = sub.add_parser("train", help="train the synthetic task with the toy learner")
    p_tr.add_argument("--config", help="flat key=value config file")
    # Every value flag stays a string and parses like a config-file value.
    p_tr.add_argument("--samples", dest="dataset_size")
    p_tr.add_argument("--classes", default=10)
    p_tr.add_argument("--grid", default=8, help="2 or a multiple of 4")
    p_tr.add_argument("--eval-samples", dest="eval_samples", default=2000)
    p_tr.add_argument("--noise-scale", dest="noise_scale", default=1.15)
    p_tr.add_argument("--epochs")
    p_tr.add_argument("--batch", dest="base_batch")
    p_tr.add_argument("--strategy")
    p_tr.add_argument("--resolutions")
    p_tr.add_argument("--base-resolution", dest="base_resolution")
    p_tr.add_argument("--seed")
    p_tr.add_argument("--max-lr", dest="max_lr")
    p_tr.add_argument("--warmup-epochs", dest="warmup_epochs")
    p_tr.add_argument("--min-lr", dest="min_lr")
    p_tr.add_argument("--momentum")
    p_tr.add_argument("--weight-decay", dest="weight_decay")
    p_tr.add_argument("--label-smoothing", dest="label_smoothing")
    p_tr.add_argument("--ema-decay", dest="ema_decay")
    p_tr.add_argument("--tau", default=1.0, help="sample-filtering confidence threshold; 1.0 removes nothing")
    p_tr.add_argument("--window", default=2)
    p_tr.add_argument("--start-epoch", dest="start_epoch")
    p_tr.add_argument("--reeval-stride", dest="reeval_stride", default=1)
    p_tr.add_argument("--csv", help="also write the per-epoch CSV here")
    p_tr.add_argument("--checkpoint", help="write final parameters to this binary file")
    _add_output_flags(p_tr, ["json"])
    p_tr.set_defaults(handler=_cmd_train)

    p_sr = sub.add_parser("set-report", help="per-epoch filtering report from a run report or state file")
    group = p_sr.add_mutually_exclusive_group(required=True)
    group.add_argument("--run-report", dest="run_report", help="run report JSON from `train`")
    group.add_argument("--state", help="filter-state checkpoint JSON")
    _add_output_flags(p_sr, ["csv", "json"])
    p_sr.set_defaults(handler=_cmd_set_report)

    p_ex = sub.add_parser("export", help="re-emit an exported schedule (jsonl or csv)")
    p_ex.add_argument("--schedule", required=True)
    _add_output_flags(p_ex, ["jsonl", "csv"])
    p_ex.set_defaults(handler=_cmd_export)

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
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
