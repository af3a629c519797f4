import argparse
import base64
import json
import os
import stat
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import batchforge
import batchforge.cli as cli
import batchforge.schedule_io as schedule_io
from batchforge.cli import build_parser, run
from batchforge.core import BatchforgeError, Resolution, ResolutionSet, SamplerConfig, Strategy, VideoClipSpec
from batchforge.presets import load_preset, preset_names
from batchforge.samplers import plan_epoch
from batchforge.schedule_io import write_schedules
from batchforge.set_training import SetConfig, SetState


def run_cli(args):
    return run(args)


def test_plan_is_byte_identical_across_runs(tmp_path):
    common = [
        "plan",
        "--strategy",
        "msc_vbs",
        "--dataset-size",
        "4096",
        "--base-batch",
        "256",
        "--epochs",
        "1",
        "--seed",
        "7",
    ]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run_cli(common + ["-o", str(a)]) == 0
    assert run_cli(common + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    first = json.loads(a.read_text().splitlines()[0])
    assert first["kind"] == "header" and first["config"]["seed"] == 7


def test_plan_rejects_empty_resolution_set(tmp_path, capsys):
    code = run_cli(
        ["plan", "--resolutions", "", "--dataset-size", "100", "--base-batch", "10", "-o", str(tmp_path / "x")]
    )
    assert code == 2
    assert "EMPTY_RESOLUTION_SET" in capsys.readouterr().err


def test_plan_errors_json_is_machine_readable(capsys):
    code = run_cli(["plan", "--resolutions", "", "--dataset-size", "100", "--base-batch", "10", "--errors-json"])
    assert code == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["errors"][0]["code"] == "EMPTY_RESOLUTION_SET"


@pytest.mark.parametrize(
    "argv",
    [
        ["plan", "--strategy", "video_vbs"],
        ["analyze", "--strategy", "video_vbs"],
        ["analyze", "--strategies", "ssc_fbs,video_vbs"],
        ["train", "--strategy", "video_vbs"],
    ],
    ids=["plan", "analyze", "analyze_strategies", "train"],
)
def test_video_strategy_is_a_config_error(argv, capsys):
    # Given no --clips table, the contract rejects video_vbs before any work.
    assert run_cli(argv + ["--errors-json"]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert [e["code"] for e in payload["errors"]] == ["EMPTY_SPEC_SET"]


@pytest.mark.parametrize(
    "flags, code",
    [
        (["--epochs", "2", "--warmup-epochs", "2"], "BAD_WARMUP"),  # a warmup that is set is not clamped
        (["--tau", "1.5"], "TAU_OUT_OF_RANGE"),
        (["--tau", "0.7", "--window", "0"], "ZERO_WINDOW"),
        (["--grid", "3"], "BAD_GRID"),
        (["--grid", "6"], "BAD_GRID"),
        (["--classes", "0"], "BAD_CLASSES"),
        (["--classes", "1"], "BAD_CLASSES"),
        (["--max-lr", "nan"], "NON_FINITE_SETTING"),
        (["--momentum", "nan"], "NON_FINITE_SETTING"),
        (["--noise-scale", "nan"], "NON_FINITE_SETTING"),
    ],
)
def test_bad_trainer_and_filter_settings_are_config_errors(flags, code, tmp_path, capsys):
    argv = ["train", "--samples", "200", "-o", str(tmp_path / "run.json")] + flags
    assert run_cli(argv) == 2
    assert capsys.readouterr().err.startswith(f"config error [{code}] ")
    assert run_cli(argv + ["--errors-json"]) == 2
    assert [e["code"] for e in json.loads(capsys.readouterr().err)["errors"]] == [code]
    assert not (tmp_path / "run.json").exists()


@pytest.mark.parametrize("epochs, warmup", [(1, 0), (3, 2), (5, 3)])
def test_an_unset_warmup_is_three_epochs_or_one_less_than_the_run(epochs, warmup, tmp_path):
    report = tmp_path / "run.json"
    argv = ["train", "--epochs", str(epochs), "--tau", "0.7", "--samples", "200", "--eval-samples", "50"]
    assert run_cli(argv + ["-o", str(report)]) == 0
    assert json.loads(report.read_text())["config"]["trainer"]["warmup_epochs"] == warmup


_SMALL_TRAIN = ["--samples", "200", "--epochs", "4", "--batch", "20", "--warmup-epochs", "1"]


@pytest.mark.parametrize(
    "argv, file_text, code, named",
    [
        (["plan"], "epochs = 2.5\n", "BAD_VALUE", "epochs: "),
        (["plan", "--strategy", "bogus"], None, "BAD_VALUE", "strategy: "),
        (["plan", "--resolutions", "12y12"], None, "BAD_VALUE", "resolutions: "),
        (["plan", "--epochs", "2.5"], None, "BAD_VALUE", "epochs: "),
        (["train", "--max-lr", "fast"], None, "BAD_VALUE", "max_lr: "),
        (["train", "--samples", "200"], "warmup_epochs = 2.5\n", "BAD_VALUE", "warmup_epochs: "),
        (["train", "--samples", "200"], "tau = 0.7\n", "UNKNOWN_KEY", "--tau"),
        (["train", "--samples", "200"], "bogus_key = 1\n", "UNKNOWN_KEY", "bogus_key: "),
        (["plan"], "bogus_key = 1\n", "UNKNOWN_KEY", "bogus_key: "),
        (["plan"], "epochs 3\n", "BAD_CONFIG_LINE", "line 1: "),
        (["train", "--tau", "abc"], None, "BAD_VALUE", "tau: "),
        (["train", "--window", "2.5"], None, "BAD_VALUE", "window: "),
        (["train", "--start-epoch", "x"], None, "BAD_VALUE", "start_epoch: "),
        (["train", "--reeval-stride", "x"], None, "BAD_VALUE", "reeval_stride: "),
        (["train", "--classes", "x"], None, "BAD_VALUE", "classes: "),
        (["train", "--grid", "8.0"], None, "BAD_VALUE", "grid: "),
        (["train", "--eval-samples", "x"], None, "BAD_VALUE", "eval_samples: "),
        (["train", "--noise-scale", "x"], None, "BAD_VALUE", "noise_scale: "),
        (["analyze", "--channels", "x"], None, "BAD_VALUE", "channels: "),
        (["analyze", "--bytes-per-element", "x"], None, "BAD_VALUE", "bytes_per_element: "),
        (["analyze", "--trials", "x"], None, "BAD_VALUE", "trials: "),
        (["train", *_SMALL_TRAIN, "--eval-samples", "0"], None, "OUT_OF_RANGE", "eval_samples: "),
        (["train", *_SMALL_TRAIN, "--eval-samples", "-5"], None, "OUT_OF_RANGE", "eval_samples: "),
        (["analyze", "--trials", "-1", "--format", "json"], None, "OUT_OF_RANGE", "trials: "),
        (["analyze", "--channels", "-3"], None, "OUT_OF_RANGE", "channels: "),
        (["analyze", "--bytes-per-element", "0"], None, "OUT_OF_RANGE", "bytes_per_element: "),
        (["analyze", "--dataset-size", "1000", "--base-batch", "100", "--strategies", "ssc_fbs,bogus"], None,
         "BAD_VALUE", "strategies: "),
        (["plan", "--drop-last", "maybe"], None, "BAD_VALUE", "drop_last: "),
        (["plan", "--preset", "bogus"], None, "BAD_VALUE", "preset: "),
        (["plan"], "output = x.json\n", "UNKNOWN_KEY", "pass the --output flag"),
        (["train", "--samples", "200"], "csv = r.csv\n", "UNKNOWN_KEY", "csv: not a config-file key of any command"),
        (["train", "--samples", "200"], "checkpoint = p.bin\n", "UNKNOWN_KEY", "checkpoint: not a config-file key of any command"),
        (["analyze"], "schedule = s.jsonl\n", "UNKNOWN_KEY", "pass the --schedule flag"),
        (["plan"], "run_report = r.json\n", "UNKNOWN_KEY", "pass the --run-report flag"),
        (["plan"], "state = s.json\n", "UNKNOWN_KEY", "pass the --state flag"),
        (["plan"], "errors_json = true\n", "UNKNOWN_KEY", "pass the --errors-json flag"),
        (["analyze", "--trials", "2"], None, "IGNORED_FLAG", "--trials: "),
    ],
    ids=[
        "plan_file", "strategy_flag", "resolutions_flag", "epochs_flag", "max_lr_flag", "train_file", "train_tau",
        "train_bogus", "plan_bogus", "plan_bad_line", "tau_flag", "window_flag", "start_epoch_flag",
        "reeval_stride_flag", "classes_flag", "grid_flag", "eval_samples_flag", "noise_scale_flag",
        "channels_flag", "bytes_per_element_flag", "trials_flag", "zero_eval_samples", "negative_eval_samples",
        "negative_trials", "negative_channels", "zero_bytes_per_element", "strategies_flag", "drop_last_flag",
        "preset_flag", "output_key", "csv_key", "checkpoint_key", "schedule_key", "run_report_key", "state_key",
        "errors_json_key", "trials_with_csv",
    ],
)
def test_bad_config_values_and_keys_exit_2(argv, file_text, code, named, tmp_path, capsys):
    if file_text is not None:
        (tmp_path / "f.cfg").write_text(file_text)
        argv = argv + ["--config", str(tmp_path / "f.cfg")]
    argv = argv + ["-o", str(tmp_path / "out"), "--errors-json"]
    assert run_cli(argv) == 2
    errors = json.loads(capsys.readouterr().err)["errors"]
    assert [e["code"] for e in errors] == [code]
    assert named in errors[0]["message"]
    assert not (tmp_path / "out").exists()


def test_analyze_with_a_dataset_below_the_largest_batch_is_a_config_error(capsys):
    # resnet50's variable-batch table reaches 3,136 ids at 128x128; with drop_last an epoch
    # that draws it first over 1,024 ids plans nothing.
    argv = ["analyze", "--preset", "resnet50", "--dataset-size", "1024", "--epochs", "1", "--seed", "0"]
    assert run_cli(argv + ["--strategies", "msc_vbs", "--errors-json"]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert [e["code"] for e in payload["errors"]] == ["DATASET_TOO_SMALL"]


def test_failure_while_training_exits_1(tmp_path, capsys):
    argv = ["train", "--samples", "200", "--epochs", "3", "--warmup-epochs", "1", "--max-lr", "1e300"]
    with np.errstate(all="ignore"):
        assert run_cli(argv + ["-o", str(tmp_path / "run.json")]) == 1
    assert "NON_FINITE_INPUT" in capsys.readouterr().err


def test_an_uncoded_failure_exits_1_with_one_error_line(monkeypatch, capsys):
    def handler(args):
        raise RuntimeError("the handler broke")

    monkeypatch.setitem(cli._COMMANDS, "plan", ("plan", handler, ()))
    for flags in ([], ["--errors-json"]):
        assert run_cli(["plan", *flags]) == 1
        assert capsys.readouterr().err == "error: the handler broke\n"


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["plan", "--bogus-flag", "1"])
    assert exc.value.code == 2


def test_analyze_preset_reproduces_published_updates(tmp_path):
    out = tmp_path / "table.csv"
    assert run_cli(["analyze", "--preset", "resnet50", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# schema_version=1 config=")
    assert lines[1] == "strategy,updates,updates_ratio,peak_input_bytes,peak_ratio"
    rows = {line.split(",")[0]: line.split(",") for line in lines[2:]}
    assert rows["ssc_fbs"][1] == "187650"
    assert rows["msc_fbs"][1] == "187650"
    assert 141_000 <= int(rows["msc_vbs"][1]) <= 146_000
    assert 0.755 <= float(rows["msc_vbs"][2]) <= 0.775
    assert abs(float(rows["msc_fbs"][4]) - 2.0408) < 0.01


def test_analyze_json_with_simulation(tmp_path):
    out = tmp_path / "table.json"
    code = run_cli(
        [
            "analyze",
            "--preset",
            "resnet50",
            "--dataset-size",
            "65536",
            "--epochs",
            "2",
            "--trials",
            "3",
            "--format",
            "json",
            "-o",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["dataset_size"] == 65536
    assert payload["simulation"]["trials"] == 3
    assert {row["strategy"] for row in payload["rows"]} == {"ssc_fbs", "msc_fbs", "msc_vbs"}


_VIDEO = ["--strategy", "video_vbs", "--clips", "8x1x128x128,8x1x224x224", "--base-clip", "8x1x224x224"]


def test_analyze_json_has_a_row_for_the_simulated_strategy(tmp_path):
    out = tmp_path / "table.json"
    argv = ["analyze", "--preset", "resnet50", "--epochs", "10", *_VIDEO, "--trials", "3", "--format", "json"]
    assert run_cli(argv + ["-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert [row["strategy"] for row in payload["rows"]] == ["ssc_fbs", "msc_fbs", "msc_vbs", "video_vbs"]
    assert payload["simulation"]["strategy"] == "video_vbs"
    expected = payload["rows"][-1]["expected_updates"]
    assert abs(payload["simulation"]["mean_updates"] / expected - 1) < 0.01
    # a simulated strategy among the compared ones keeps its place, and without a simulation no row is added
    for extra in (["--strategies", "video_vbs,ssc_fbs"], ["--trials", "0"]):
        assert run_cli(argv + extra + ["-o", str(out)]) == 0
        rows = [row["strategy"] for row in json.loads(out.read_text())["rows"]]
        assert rows == (["video_vbs", "ssc_fbs"] if "--strategies" in extra else ["ssc_fbs", "msc_fbs", "msc_vbs"])


@pytest.mark.parametrize(
    "flag, text, form",
    [
        ("--clips", "8x1", "frames x clips x HxW"),
        ("--clips", "8x1x224x224,8", "frames x clips x HxW"),
        ("--clips", "8x1x224x22x", "frames x clips x HxW"),
        ("--base-clip", "axbx224", "frames x clips x HxW"),
        ("--base-resolution", "22y", "HxW"),
        ("--resolutions", "128,x", "HxW"),
        ("--resolutions", "128x128x3", "HxW"),
    ],
    ids=["two_clip_parts", "second_clip_short", "clip_side_text", "clip_frames_text", "resolution_text",
         "resolutions_bare_x", "resolution_three_parts"],
)
def test_a_malformed_shape_names_the_form_it_expects(flag, text, form, tmp_path, capsys):
    argv = ["plan", "--strategy", "video_vbs", flag, text, "-o", str(tmp_path / "out"), "--errors-json"]
    assert run_cli(argv) == 2
    [error] = json.loads(capsys.readouterr().err)["errors"]
    assert error["code"] == "BAD_VALUE" and form in error["message"]
    assert "unpack" not in error["message"] and "literal" not in error["message"]
    assert not (tmp_path / "out").exists()


def test_round_trip_plan_export_import_analyze(tmp_path):
    sched1 = tmp_path / "direct.jsonl"
    common = [
        "--strategy",
        "msc_vbs",
        "--dataset-size",
        "8192",
        "--base-batch",
        "128",
        "--epochs",
        "2",
        "--seed",
        "3",
    ]
    assert run_cli(["plan", *common, "-o", str(sched1)]) == 0

    # export re-emits the schedule, which must import back losslessly
    sched2 = tmp_path / "roundtrip.jsonl"
    assert run_cli(["export", "--schedule", str(sched1), "-o", str(sched2)]) == 0
    sched3 = tmp_path / "expanded.jsonl"
    assert run_cli(["export", "--schedule", str(sched2), "-o", str(sched3)]) == 0
    assert sched3.read_bytes() == sched1.read_bytes()

    direct = tmp_path / "direct.csv"
    via_file = tmp_path / "via_file.csv"
    assert run_cli(["analyze", *common, "--strategies", "msc_vbs", "-o", str(direct)]) == 0
    assert run_cli(["analyze", "--schedule", str(sched2), "-o", str(via_file)]) == 0
    assert direct.read_bytes() == via_file.read_bytes()


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--seed", "99"], ["--seed"]),
        (["--preset", "mobilenetv3"], ["--preset"]),
        (["--strategies", "msc_fbs"], ["--strategies"]),
        (["--clips", "8x1x128x128"], ["--clips"]),
        (["--seed", "99", "--epochs", "7", "--strategies", "msc_fbs", "--preset", "mobilenetv3"],
         ["--preset", "--epochs", "--seed", "--strategies"]),
        (["--config", "absent.cfg", "--drop-last", "true"], ["--config", "--drop-last"]),
    ],
    ids=["seed", "preset", "strategies", "clips", "four_flags", "config_file"],
)
def test_analyze_schedule_refuses_flags_it_would_ignore(flags, named, tmp_path, capsys):
    sched = tmp_path / "s.jsonl"
    assert run_cli(["plan", *_SMALL_PLAN, "-o", str(sched)]) == 0
    out = tmp_path / "cost.csv"
    assert run_cli(["analyze", "--schedule", str(sched), *flags, "-o", str(out), "--errors-json"]) == 2
    errors = json.loads(capsys.readouterr().err)["errors"]
    assert [e["code"] for e in errors] == ["IGNORED_FLAG"]
    assert errors[0]["message"].startswith(", ".join(named) + ": ")
    assert not out.exists()


def test_analyze_schedule_takes_its_output_flags(tmp_path):
    sched = tmp_path / "s.jsonl"
    assert run_cli(["plan", *_SMALL_PLAN, "--strategy", "msc_vbs", "-o", str(sched)]) == 0
    plain, scaled = tmp_path / "plain.json", tmp_path / "scaled.json"
    assert run_cli(["analyze", "--schedule", str(sched), "--format", "json", "-o", str(plain)]) == 0
    argv = ["--channels", "1", "--bytes-per-element", "2", "--trials", "2", "--format", "json", "--errors-json"]
    assert run_cli(["analyze", "--schedule", str(sched), *argv, "-o", str(scaled)]) == 0
    plain, scaled = json.loads(plain.read_text()), json.loads(scaled.read_text())
    assert scaled["bytes_per_element"] == 2 and scaled["simulation"]["trials"] == 2 and "simulation" not in plain
    assert scaled["rows"][0]["peak_input_bytes"] * 3 * 4 == plain["rows"][0]["peak_input_bytes"] * 2


def test_set_report_state_refuses_a_run_report(tmp_path, capsys):
    report = tmp_path / "run.json"
    assert run_cli(["train", "--samples", "200", "--epochs", "2", "-o", str(report)]) == 0
    capsys.readouterr()
    assert run_cli(["set-report", "--state", str(report), "--errors-json"]) == 1
    errors = json.loads(capsys.readouterr().err)["errors"]
    assert [e["code"] for e in errors] == ["BAD_SCHEMA"] and "'run_report'" in errors[0]["message"]


def test_export_csv_lists_iterations(tmp_path):
    sched = tmp_path / "s.jsonl"
    run_cli(["plan", "--dataset-size", "2048", "--base-batch", "128", "--epochs", "1", "-o", str(sched)])
    out = tmp_path / "s.csv"
    assert run_cli(["export", "--schedule", str(sched), "--format", "csv", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "epoch,iteration,height,width,batch_size"
    assert lines[2].startswith("0,0,")


def _video_schedule_file(path):
    """A two-epoch video schedule whose clips 8x1x16x16 and 16x2x16x16 share a resolution."""
    clips = (VideoClipSpec.parse("8x1x16x16"), VideoClipSpec.parse("16x2x16x16"))
    config = SamplerConfig(
        strategy=Strategy.VIDEO_VBS,
        dataset_size=200,
        base_batch=16,
        base_resolution=Resolution(16, 16),
        resolutions=ResolutionSet.squares([16]),
        epochs=2,
        clips=clips,
        base_clip=clips[0],
    )
    with open(path, "w") as fp:
        write_schedules(fp, (plan_epoch(config, epoch) for epoch in range(config.epochs)), config=config)


def test_export_csv_of_a_video_schedule_keeps_the_clip_shape(tmp_path):
    _video_schedule_file(tmp_path / "v.jsonl")
    out = tmp_path / "v.csv"
    assert run_cli(["export", "--schedule", str(tmp_path / "v.jsonl"), "--format", "csv", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "epoch,iteration,height,width,frames,clips_per_video,batch_size"
    rows = {tuple(line.split(",")[2:]) for line in lines[2:]}
    assert {row[:4] for row in rows} == {("16", "16", "8", "1"), ("16", "16", "16", "2")}
    assert ("16", "16", "8", "1", "16") in rows and ("16", "16", "16", "2", "4") in rows


def test_analyze_a_video_schedule_leaves_its_peak_ratio_unset(tmp_path):
    _video_schedule_file(tmp_path / "v.jsonl")
    as_json, as_csv = tmp_path / "cost.json", tmp_path / "cost.csv"
    assert run_cli(["analyze", "--schedule", str(tmp_path / "v.jsonl"), "--format", "json", "-o", str(as_json)]) == 0
    (row,) = json.loads(as_json.read_text())["rows"]
    assert row["strategy"] == "video_vbs" and row["peak_ratio"] is None and row["updates_ratio"] > 0
    assert run_cli(["analyze", "--schedule", str(tmp_path / "v.jsonl"), "-o", str(as_csv)]) == 0
    assert as_csv.read_text().splitlines()[2].endswith(",")


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "strategy = ssc_fbs\n"
        "dataset_size = 1000\n"
        "base_batch = 100\n"
        "base_resolution = 224x224\n"
        "resolutions = 224x224\n"
        "epochs = 1\n"
        "seed = 5\n"
        "max_lr = 0.1\n"  # one file may hold trainer keys too
    )
    out1 = tmp_path / "file.jsonl"
    assert run_cli(["plan", "--config", str(cfg), "-o", str(out1)]) == 0
    header = json.loads(out1.read_text().splitlines()[0])["config"]
    assert header["seed"] == 5 and header["base_batch"] == 100

    out2 = tmp_path / "flag.jsonl"
    assert run_cli(["plan", "--config", str(cfg), "--seed", "9", "-o", str(out2)]) == 0
    assert json.loads(out2.read_text().splitlines()[0])["config"]["seed"] == 9


def test_env_seed_is_lowest_precedence(tmp_path, monkeypatch):
    monkeypatch.setenv("BATCHFORGE_SEED", "77")
    out = tmp_path / "env.jsonl"
    assert run_cli(["plan", "--dataset-size", "1000", "--base-batch", "100", "--drop-last", "false", "-o", str(out)]) == 0
    assert json.loads(out.read_text().splitlines()[0])["config"]["seed"] == 77

    out2 = tmp_path / "flag.jsonl"
    assert run_cli(
        ["plan", "--dataset-size", "1000", "--base-batch", "100", "--drop-last", "false", "--seed", "3", "-o", str(out2)]
    ) == 0
    assert json.loads(out2.read_text().splitlines()[0])["config"]["seed"] == 3

    monkeypatch.setenv("BATCHFORGE_SEED", "seven")
    assert run_cli(["plan", "--dataset-size", "1000", "--base-batch", "100", "-o", str(tmp_path / "bad")]) == 2


def test_train_writes_all_artifacts(tmp_path, capsys):
    # One artifact: the run report. Its per-epoch CSV comes from set-report, its parameters decode from it.
    report = tmp_path / "run.json"
    set_csv = tmp_path / "set.csv"
    argv = ["train", "--samples", "1000", "--eval-samples", "300", "--epochs", "6", "--tau", "0.7", "-o", str(report)]
    assert run_cli(argv) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]
    payload = json.loads(report.read_text())
    assert payload["schema_version"] == 2
    assert payload["total_updates"] > 0
    assert len(payload["per_epoch"]) == 6
    assert payload["config"]["set"]["tau"] == 0.7
    theta = np.frombuffer(base64.b64decode(payload["final_params"]), dtype="<f8")
    assert len(theta) == 10 * 8 * 8 + 10 and np.all(np.isfinite(theta))

    assert run_cli(["set-report", "--run-report", str(report), "-o", str(set_csv)]) == 0
    lines = set_csv.read_text().splitlines()
    assert lines[0] == f"# schema_version=1 config={json.dumps(payload['config'], separators=(',', ':'))}"
    assert lines[1] == "epoch,mean_loss,eval_accuracy,updates,active,removed,readded,forward_passes"
    assert lines[2:] == [",".join(str(value) for value in row.values()) for row in payload["per_epoch"]]
    assert sum(int(line.split(",")[5]) for line in lines[2:]) == payload["removed_count"] > 0


def test_unfiltered_train_is_a_tau_one_run(tmp_path):
    report, set_csv = tmp_path / "run.json", tmp_path / "set.csv"
    assert run_cli(["train", "--samples", "500", "--eval-samples", "100", "--epochs", "4", "-o", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["config"]["set"] == {"tau": 1.0, "window": 2, "start_epoch": 2, "reeval_stride": 1}
    assert [row["removed"] + row["readded"] for row in payload["per_epoch"]] == [0] * 4
    assert run_cli(["set-report", "--run-report", str(report), "-o", str(set_csv)]) == 0
    rows = [line.split(",") for line in set_csv.read_text().splitlines()[2:]]
    assert [",".join(row[:1] + row[4:]) for row in rows] == [f"{epoch},500,0,0,{500 * (epoch + 1)}" for epoch in range(4)]


def test_train_reads_sampler_keys_from_config(tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("strategy = ssc_fbs\nbase_batch = 64\ndataset_size = 600\nepochs = 2\nwarmup_epochs = 1\n")
    out = tmp_path / "file.json"
    assert run_cli(["train", "--config", str(cfg), "--eval-samples", "50", "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    sampler = payload["config"]["sampler"]
    assert (sampler["strategy"], sampler["base_batch"], sampler["dataset_size"]) == ("ssc_fbs", 64, 600)
    assert payload["config"]["task"]["samples"] == 600
    assert payload["config"]["trainer"]["warmup_epochs"] == 1
    assert [row["updates"] for row in payload["per_epoch"]] == [10, 10]  # ceil(600 / 64)

    flags = tmp_path / "flags.json"
    args = ["train", "--config", str(cfg), "--batch", "100", "--samples", "500", "--eval-samples", "50"]
    assert run_cli([*args, "-o", str(flags)]) == 0
    sampler = json.loads(flags.read_text())["config"]["sampler"]
    assert (sampler["strategy"], sampler["base_batch"], sampler["dataset_size"]) == ("ssc_fbs", 100, 500)


def test_train_determinism_across_invocations(tmp_path):
    outs = []
    for name in ("one.json", "two.json"):
        path = tmp_path / name
        assert run_cli(["train", "--samples", "500", "--eval-samples", "100", "--epochs", "4", "--seed", "11", "-o", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_preset_values_match_published_recipes():
    resnet = load_preset("resnet50")
    assert resnet.sampler.epochs == 150
    assert resnet.sampler.base_batch == 1024
    assert resnet.trainer.max_lr == 0.4
    assert resnet.trainer.warmup_epochs == 5
    assert resnet.trainer.weight_decay == 1e-4
    assert resnet.trainer.label_smoothing == 0.1
    assert [r.height for r in resnet.sampler.resolutions] == [128, 192, 224, 288, 320]

    mnv2 = load_preset("mobilenetv2")
    assert mnv2.sampler.epochs == 300
    assert mnv2.sampler.base_batch == 1024
    assert mnv2.trainer.weight_decay == 4e-5

    mnv3 = load_preset("mobilenetv3")
    assert mnv3.sampler.base_batch == 2048

    assert load_preset("mobilenetv1").sampler.base_batch == 512
    assert set(preset_names()) == {
        "resnet50",
        "resnet50_adv",
        "mobilenetv1",
        "mobilenetv2",
        "mobilenetv3",
    }


def test_unknown_preset():
    with pytest.raises(BatchforgeError) as err:
        load_preset("bogus")
    assert err.value.code == "UNKNOWN_PRESET"


def test_set_report_state_summary(tmp_path):
    from batchforge.set_training import SetConfig, SetState

    state = SetState(10, SetConfig(tau=0.5, window=1, start_epoch=0))
    for sid in range(10):
        state.record_prediction(sid, sid < 4, 0.9)
    state.finalize_epoch()
    path = tmp_path / "state.json"
    with open(path, "w") as fp:
        state.dump(fp)
    out = tmp_path / "summary.json"
    assert run_cli(["set-report", "--state", str(path), "-o", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert summary == {
        "epoch": 1,
        "active": 6,
        "removed": 4,
        "removed_count": 4,
        "readded_count": 0,
        "forward_passes": 10,
    }


def test_option_strings_of_each_command():
    # Every value flag comes from the settings table; this pins what each command takes.
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: sorted(s for a in p._actions for s in a.option_strings) for name, p in sub.choices.items()}
    common = ["--base-clip", "--clips", "--config", "--epochs", "--errors-json", "--output", "--resolutions", "--seed",
              "--strategy", "-h", "-o"]
    sampler = common + ["--base-batch", "--base-resolution", "--batch-rounding", "--dataset-size", "--drop-last",
                        "--help", "--min-batch", "--preset", "--world-size"]
    assert options == {
        "plan": sorted(sampler),
        "analyze": sorted(sampler + ["--bytes-per-element", "--channels", "--format", "--schedule", "--strategies", "--trials"]),
        "train": sorted(common + [
            "--base-resolution", "--batch", "--classes", "--ema-decay", "--eval-samples",
            "--grid", "--help", "--label-smoothing", "--max-lr", "--min-lr", "--momentum", "--noise-scale",
            "--reeval-stride", "--samples", "--start-epoch", "--tau", "--warmup-epochs", "--weight-decay", "--window",
        ]),
        "set-report": ["--errors-json", "--help", "--output", "--run-report", "--state", "-h", "-o"],
        "export": ["--errors-json", "--format", "--help", "--output", "--schedule", "-h", "-o"],
    }


def test_run_report_is_strict_json_when_filtering_removes_every_sample(tmp_path):
    # tau 0 removes every sample once it is judged, so later epochs train nothing and have no mean loss.
    argv = ["train", "--samples", "200", "--epochs", "8", "--batch", "20", "--warmup-epochs", "1", "--eval-samples", "50"]
    assert run_cli(argv + ["--tau", "0.0", "--window", "1", "--noise-scale", "0.01", "-o", str(tmp_path / "run.json")]) == 0

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    payload = json.loads((tmp_path / "run.json").read_text(), parse_constant=reject)
    assert [row["mean_loss"] for row in payload["per_epoch"]].count(None) == 5

    # set-report writes the same rows, with each null as an empty field
    assert run_cli(["set-report", "--run-report", str(tmp_path / "run.json"), "-o", str(tmp_path / "epochs.csv")]) == 0
    rows = [line.split(",") for line in (tmp_path / "epochs.csv").read_text().splitlines()[2:]]
    assert rows == [["" if v is None else str(v) for v in row.values()] for row in payload["per_epoch"]]
    assert [row[1] for row in rows].count("") == 5


@pytest.mark.parametrize(
    "base_batch, file_text, flags",
    [
        ("16", "world_size = 8\n", ["--world-size", "8"]),
        ("1", "world_size = 8\nbatch_rounding = floor\n", ["--world-size", "8", "--batch-rounding", "floor"]),
    ],
    ids=["min_batch", "floor_table"],
)
def test_world_size_from_a_file_ties_min_batch_like_the_flag(base_batch, file_text, flags, tmp_path, capsys):
    (tmp_path / "w.cfg").write_text(file_text)
    common = ["plan", "--dataset-size", "4096", "--base-batch", base_batch, "--errors-json"]
    results = []
    for extra, out in ((["--config", str(tmp_path / "w.cfg")], "file.jsonl"), (flags, "flag.jsonl")):
        code = run_cli(common + extra + ["-o", str(tmp_path / out)])
        written = (tmp_path / out).read_text() if code == 0 else None
        results.append((code, written, capsys.readouterr().err))
    assert results[0] == results[1]
    code, written, err = results[0]
    if code == 0:
        assert json.loads(written.splitlines()[0])["config"]["min_batch"] == 8
    else:  # with min_batch tied to the world size, floor rounding stops at 8
        assert "[24, 10, 8, 8, 8]" in err


@pytest.mark.parametrize("command", [["export", "--format", "csv"], ["analyze"]])
def test_reader_errors_are_coded_json_with_errors_json(tmp_path, capsys, command):
    sched = tmp_path / "s.jsonl"
    # three epochs are three replan lines after the header, so the file has a line 4
    assert run_cli(["plan", "--dataset-size", "2048", "--base-batch", "128", "--epochs", "3", "-o", str(sched)]) == 0
    lines = sched.read_text().splitlines(keepends=True)
    cut = tmp_path / "cut.jsonl"
    cut.write_text("".join(lines[:3]) + lines[3][: len(lines[3]) // 2])
    argv = [*command, "--schedule", str(cut), "-o", str(tmp_path / "out")]
    capsys.readouterr()
    assert run_cli(argv + ["--errors-json"]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload == {"errors": [{"code": "BAD_JSON", "message": payload["errors"][0]["message"]}]}
    assert payload["errors"][0]["message"].startswith("line 4 ")
    assert run_cli(argv) == 1
    assert capsys.readouterr().err.startswith("error: BAD_JSON: line 4 ")


_V2_ROW = {"epoch": 0, "mean_loss": 2.0, "eval_accuracy": None, "updates": 3, "active": 10, "removed": 0, "readded": 0,
           "forward_passes": 10}


def _report_file(tmp_path, case):
    """A file ``set-report --run-report`` must reject, and the code it must give."""
    path = tmp_path / "in.json"
    good = json.dumps({"schema_version": 2, "kind": "run_report", "per_epoch": [_V2_ROW]})
    if case == "cost_report":
        assert run_cli(["analyze", "--dataset-size", "1000", "--base-batch", "100", "--format", "json", "-o", str(path)]) == 0
        return path, "BAD_SCHEMA"
    if case == "set_state":
        with open(path, "w") as fp:
            SetState(4, SetConfig(tau=0.7, window=1)).dump(fp)
        return path, "BAD_SCHEMA"
    text, code = {
        "not_json": ("epoch,mean_loss\n", "BAD_JSON"),
        "empty": ("", "BAD_JSON"),
        "truncated": (good[:-7], "BAD_JSON"),
        "list": ("[1]", "BAD_SCHEMA"),
        "v1_report": (json.dumps({"schema_version": 1, "kind": "run_report", "per_epoch": [], "set_transitions": []}),
                      "BAD_SCHEMA"),
        "row_without_a_column": (good.replace('"removed": 0, ', ""), "BAD_SCHEMA"),
        "row_with_text": (good.replace('"updates": 3', '"updates": "3"'), "BAD_SCHEMA"),
        "rows_not_a_list": (good.replace('"per_epoch": [', '"per_epoch": {"rows": [').replace("]}", "]}}"), "BAD_SCHEMA"),
    }[case]
    path.write_text(text)
    return path, code


@pytest.mark.parametrize(
    "case",
    ["not_json", "empty", "truncated", "list", "cost_report", "set_state", "v1_report", "row_without_a_column",
     "row_with_text", "rows_not_a_list"],
)
def test_set_report_rejects_what_is_not_a_run_report_before_writing(case, tmp_path, capsys):
    path, code = _report_file(tmp_path, case)
    out = tmp_path / "epochs.csv"
    capsys.readouterr()
    assert run_cli(["set-report", "--run-report", str(path), "-o", str(out), "--errors-json"]) == 1
    assert [e["code"] for e in json.loads(capsys.readouterr().err)["errors"]] == [code]
    assert not out.exists()


def test_set_report_state_claiming_a_huge_num_samples_is_coded_json(tmp_path, capsys):
    payload = SetState(4, SetConfig(tau=0.7, window=1)).to_payload()
    payload["num_samples"] = 2**40
    (tmp_path / "state.json").write_text(json.dumps(payload))
    out = tmp_path / "summary.json"
    assert run_cli(["set-report", "--state", str(tmp_path / "state.json"), "-o", str(out), "--errors-json"]) == 1
    assert [e["code"] for e in json.loads(capsys.readouterr().err)["errors"]] == ["BAD_STATE"]
    assert not out.exists()


@pytest.mark.parametrize("text", ["", '{"schema_version": 2, "kind": "set_st', "[1, 2]", '"x"'],
                         ids=["empty", "truncated", "list", "string"])
def test_set_report_state_errors_are_coded_json(text, tmp_path, capsys):
    (tmp_path / "state.json").write_text(text)
    out = tmp_path / "summary.json"
    assert run_cli(["set-report", "--state", str(tmp_path / "state.json"), "-o", str(out), "--errors-json"]) == 1
    assert [e["code"] for e in json.loads(capsys.readouterr().err)["errors"]] == ["BAD_STATE"]
    assert not out.exists()


@pytest.mark.parametrize(
    "damage, command, exit_code, code",
    [
        ("no_header", ["analyze"], 1, "MISSING_HEADER"),
        ("no_strategy", ["analyze"], 2, "MISSING_KEY"),
        ("no_strategy", ["export", "--format", "csv"], 2, "MISSING_KEY"),
        ("no_strategy", ["export"], 2, "MISSING_KEY"),
        ("empty_config", ["export"], 2, "MISSING_KEY"),
    ],
)
def test_schedule_header_errors_are_coded_json(damage, command, exit_code, code, tmp_path, capsys):
    sched = tmp_path / "s.jsonl"
    assert run_cli(["plan", "--dataset-size", "1000", "--base-batch", "100", "--epochs", "1", "-o", str(sched)]) == 0
    header, *plans = sched.read_text().splitlines(keepends=True)
    record = json.loads(header)
    record["config"] = {} if damage == "empty_config" else {k: v for k, v in record["config"].items() if k != "strategy"}
    sched.write_text(("" if damage == "no_header" else json.dumps(record) + "\n") + "".join(plans))
    out = tmp_path / "out"
    assert run_cli([*command, "--schedule", str(sched), "-o", str(out), "--errors-json"]) == exit_code
    errors = json.loads(capsys.readouterr().err)["errors"]
    assert [e["code"] for e in errors] == [code] and ("strategy" in errors[0]["message"]) == (damage != "no_header")
    assert not out.exists()


@pytest.mark.parametrize(
    "text",
    [
        '{"schema_version":2,"kind":"header"}\n{"kind":"end","records":0}\n',
        '{"kind":"end","records":0}\n',  # no header and no records
        '{"schema_version":2,"kind":"header","config":[1]}\n{"kind":"end","records":0}\n',
    ],
    ids=["header_only", "empty", "config_a_list"],
)
@pytest.mark.parametrize("command", [["export"], ["export", "--format", "csv"], ["analyze"]], ids=" ".join)
def test_export_and_analyze_need_a_header_config(text, command, tmp_path, capsys):
    sched = tmp_path / "s.jsonl"
    sched.write_text(text)
    out = tmp_path / "out"
    assert run_cli([*command, "--schedule", str(sched), "-o", str(out), "--errors-json"]) == 1
    assert [e["code"] for e in json.loads(capsys.readouterr().err)["errors"]] == ["MISSING_HEADER"]
    assert not out.exists()


@pytest.mark.parametrize("command", [["analyze"], ["export"], ["export", "--format", "csv"]], ids=" ".join)
def test_schedule_file_commands_hold_about_two_epochs_of_ids(command, tmp_path):
    # analyze --schedule and export re-plan one epoch at a time: an 8-epoch file peaks about one epoch of ids
    # (200,000 int64 ids, 1.6 MB) above a 1-epoch file, where holding every epoch would add seven
    epoch_bytes, peaks = 200_000 * 8, []
    for epochs in (1, 8):
        sched = tmp_path / f"p{epochs}.jsonl"
        assert run_cli(["plan", "--dataset-size", "200000", "--base-batch", "1000", "--epochs", str(epochs), "-o", str(sched)]) == 0
        tracemalloc.start()
        try:
            assert run_cli([*command, "--schedule", str(sched), "-o", str(tmp_path / "out")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 1.5 * epoch_bytes, [peak / epoch_bytes for peak in peaks]


def test_export_of_a_file_truncated_late_leaves_the_target_as_it_was(tmp_path, capsys, monkeypatch):
    # export writes each epoch as it reads it, into a temporary file beside the target; TRUNCATED at the end of the
    # file removes that file, and an existing target keeps its bytes
    sched, target = tmp_path / "s.jsonl", tmp_path / "out"
    assert run_cli(["plan", "--dataset-size", "1000", "--base-batch", "100", "--epochs", "4", "-o", str(sched)]) == 0
    lines = sched.read_text().splitlines(keepends=True)
    assert len(lines) == 6
    sched.write_text("".join(lines[:-1]))  # four epochs, no end line
    target.write_bytes(b"an earlier export\n")
    beside, replan = [], schedule_io._replan
    def spy(*args):
        beside.append(len(list(tmp_path.iterdir())))
        return replan(*args)

    monkeypatch.setattr(schedule_io, "_replan", spy)
    for fmt in ("jsonl", "csv"):
        assert run_cli(["export", "--schedule", str(sched), "--format", fmt, "-o", str(target), "--errors-json"]) == 1
        [error] = json.loads(capsys.readouterr().err)["errors"]
        assert error["code"] == "TRUNCATED" and "after 4 records" in error["message"]
        assert target.read_bytes() == b"an earlier export\n"
        assert sorted(tmp_path.iterdir()) == [target, sched]
    assert beside == [3] * 8  # the schedule file, the target and the temporary file open while each epoch is read


def test_train_opens_its_output_before_any_epoch(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("train ran although its output cannot be opened")

    monkeypatch.setattr("batchforge.cli.train", no_run)
    out = tmp_path / "missing" / "run.json"
    assert run_cli(["train", "--samples", "200", "-o", str(out), "--errors-json"]) == 1
    [error] = json.loads(capsys.readouterr().err)["errors"]
    assert error["code"] == "BAD_PATH" and error["message"].startswith("--output: ")
    # bad settings are still found first, and exit 2
    assert run_cli(["train", "--samples", "200", "--tau", "2", "-o", str(out), "--errors-json"]) == 2
    assert [e["code"] for e in json.loads(capsys.readouterr().err)["errors"]] == ["TAU_OUT_OF_RANGE"]


@pytest.fixture
def artifacts(tmp_path):
    """A schedule file and a run report that every command can read."""
    sched, report = tmp_path / "s.jsonl", tmp_path / "run.json"
    assert run_cli(["plan", "--dataset-size", "1000", "--base-batch", "100", "--epochs", "1", "-o", str(sched)]) == 0
    assert run_cli(["train", "--samples", "200", "--epochs", "2", "--warmup-epochs", "1", "--eval-samples", "50", "-o", str(report)]) == 0
    return {"schedule": str(sched), "report": str(report)}


_MISSING = "missing/x"
_SMALL_PLAN = ["--dataset-size", "1000", "--base-batch", "100", "--epochs", "1"]


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--config", ["plan", "--config", _MISSING]),
        ("--config", ["train", "--config", _MISSING]),
        ("--schedule", ["analyze", "--schedule", _MISSING]),
        ("--schedule", ["export", "--schedule", _MISSING]),
        ("--run-report", ["set-report", "--run-report", _MISSING]),
        ("--state", ["set-report", "--state", _MISSING]),
        ("--output", ["plan", *_SMALL_PLAN, "-o", _MISSING]),
        ("--output", ["analyze", *_SMALL_PLAN, "-o", _MISSING]),
        ("--output", ["analyze", "--schedule", "{schedule}", "-o", _MISSING]),
        ("--output", ["train", "--samples", "200", "-o", _MISSING]),
        ("--output", ["set-report", "--run-report", "{report}", "-o", _MISSING]),
        ("--output", ["export", "--schedule", "{schedule}", "-o", _MISSING]),
    ],
)
def test_a_path_that_cannot_be_opened_is_bad_path(flag, argv, artifacts, tmp_path, capsys):
    argv = [str(tmp_path / arg) if arg == _MISSING else arg.format(**artifacts) for arg in argv]
    capsys.readouterr()
    assert run_cli(argv + ["--errors-json"]) == 1
    [error] = json.loads(capsys.readouterr().err)["errors"]
    assert error["code"] == "BAD_PATH"
    assert error["message"] == f"{flag}: cannot open {str(tmp_path / _MISSING)!r}: No such file or directory"
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == f"error: BAD_PATH: {error['message']}\n"
    assert not (tmp_path / "missing").exists()


def test_plan_and_export_write_one_replan_line_per_epoch(tmp_path):
    plan, copy = tmp_path / "plan.jsonl", tmp_path / "copy.jsonl"
    assert run_cli(["plan", "--preset", "resnet50", "--dataset-size", "50000", "--epochs", "3", "-o", str(plan)]) == 0
    header, *records, end = [json.loads(line) for line in plan.read_text().splitlines()]
    assert header["config"]["dataset_size"] == 50000
    assert [(r["kind"], r["epoch"]) for r in records] == [("replan", 0), ("replan", 1), ("replan", 2)]
    assert end == {"kind": "end", "records": 3}
    assert run_cli(["export", "--schedule", str(plan), "-o", str(copy)]) == 0
    assert copy.read_bytes() == plan.read_bytes()
    assert run_cli(["analyze", "--schedule", str(plan), "-o", str(tmp_path / "cost.csv")]) == 0


def test_plan_plans_each_epoch_once(tmp_path, monkeypatch):
    epochs = []

    def recording(config, epoch, active_ids=None):
        epochs.append(epoch)
        return plan_epoch(config, epoch, active_ids)

    for name in ("batchforge.cli.plan_epoch", "batchforge.samplers.plan_epoch"):
        monkeypatch.setattr(name, recording)
    assert run_cli(["plan", "--preset", "resnet50", "--epochs", "3", "-o", str(tmp_path / "plan.jsonl")]) == 0
    assert epochs == [0, 1, 2]


_DIVERGING = ["train", "--samples", "200", "--epochs", "3", "--warmup-epochs", "1", "--max-lr", "1e300"]


def test_a_failed_command_leaves_its_old_output(tmp_path, capsys):
    out = tmp_path / "fail.json"
    out.write_bytes(b'{"previous":1}')
    out.chmod(0o640)
    with np.errstate(all="ignore"):
        assert run_cli([*_DIVERGING, "-o", str(out), "--errors-json"]) == 1
    assert [e["code"] for e in json.loads(capsys.readouterr().err)["errors"]] == ["NON_FINITE_INPUT"]
    assert out.read_bytes() == b'{"previous":1}'
    assert [p.name for p in tmp_path.iterdir()] == ["fail.json"]  # no temporary file is left behind
    # a run that succeeds replaces the file, which keeps its mode
    assert run_cli(["train", "--samples", "200", "--epochs", "2", "--warmup-epochs", "1", "--eval-samples", "50",
                    "-o", str(out)]) == 0
    assert json.loads(out.read_text())["schema_version"] == 2
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert [p.name for p in tmp_path.iterdir()] == ["fail.json"]


def test_outputs_are_created_as_a_plain_open_creates_them(tmp_path):
    old = os.umask(0o027)
    try:
        assert run_cli(["plan", *_SMALL_PLAN, "-o", str(tmp_path / "new.jsonl")]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "new.jsonl").stat().st_mode) == 0o640
    # through a link, the file it names is replaced and the link stays
    (tmp_path / "link.jsonl").symlink_to(tmp_path / "new.jsonl")
    assert run_cli(["plan", *_SMALL_PLAN, "--seed", "5", "-o", str(tmp_path / "link.jsonl")]) == 0
    assert (tmp_path / "link.jsonl").is_symlink()
    assert json.loads((tmp_path / "new.jsonl").read_text().splitlines()[0])["config"]["seed"] == 5
    # a target that is not a regular file is written in place
    assert run_cli(["plan", *_SMALL_PLAN, "-o", os.devnull]) == 0


def test_warnings_of_a_failed_command_are_dropped_and_of_a_good_one_kept(monkeypatch):
    def warn_then(outcome):
        def handler(args):
            warnings.warn("overflow in a step", RuntimeWarning)
            if outcome == "fail":
                raise BatchforgeError("NON_FINITE_INPUT", "the run diverged")
            return 0
        return handler

    for outcome, code, shown in (("fail", 1, 0), ("succeed", 0, 1)):
        monkeypatch.setitem(cli._COMMANDS, "plan", ("plan", warn_then(outcome), ()))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(["plan", "--errors-json"]) == code
        assert [str(w.message) for w in caught] == ["overflow in a step"] * shown


def test_stderr_of_a_diverging_run_is_only_its_error():
    env = {**os.environ, "PYTHONPATH": str(Path(batchforge.__file__).parents[1])}
    for flags in (["--errors-json"], []):
        done = subprocess.run([sys.executable, "-m", "batchforge.cli", *_DIVERGING, "-o", os.devnull, *flags],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 1
        if flags:
            assert [e["code"] for e in json.loads(done.stderr)["errors"]] == ["NON_FINITE_INPUT"]
        else:
            assert done.stderr.startswith("error: NON_FINITE_INPUT: ") and done.stderr.count("\n") == 1
