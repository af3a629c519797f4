import argparse
import base64
import json

import numpy as np
import pytest

from batchforge.cli import build_parser, run
from batchforge.core import Resolution, ResolutionSet, SamplerConfig, Strategy, VideoClipSpec
from batchforge.presets import PresetError, load_preset, preset_names
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
    # No flag or file key sets a clip table, so the contract rejects video_vbs before any work.
    assert run_cli(argv + ["--errors-json"]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert [e["code"] for e in payload["errors"]] == ["EMPTY_SPEC_SET"]


@pytest.mark.parametrize(
    "flags, code",
    [
        (["--epochs", "2"], "BAD_WARMUP"),  # the default warmup is 3 epochs; it is not clamped
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
    ],
    ids=[
        "plan_file", "strategy_flag", "resolutions_flag", "epochs_flag", "max_lr_flag", "train_file", "train_tau",
        "train_bogus", "plan_bogus", "plan_bad_line", "tau_flag", "window_flag", "start_epoch_flag",
        "reeval_stride_flag", "classes_flag", "grid_flag", "eval_samples_flag", "noise_scale_flag",
        "channels_flag", "bytes_per_element_flag", "trials_flag", "zero_eval_samples", "negative_eval_samples",
        "negative_trials", "negative_channels", "zero_bytes_per_element", "strategies_flag", "drop_last_flag",
        "preset_flag", "output_key", "csv_key", "checkpoint_key", "schedule_key", "run_report_key", "state_key",
        "errors_json_key",
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
    with pytest.raises(PresetError) as err:
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
    common = ["--config", "--epochs", "--errors-json", "--output", "--resolutions", "--seed", "--strategy", "-h", "-o"]
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
    assert run_cli(["plan", "--dataset-size", "2048", "--base-batch", "128", "--epochs", "1", "-o", str(sched)]) == 0
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
