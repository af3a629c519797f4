"""The benchmark's four workloads.

Each workload builds its inputs from the workload seed in its constructor
(part of set-up), then runs one op per :meth:`op` call. ``op(0)`` is the
warm-up op of set-up; timed ops start at 1. Ops are grouped in cycles of
``cycle`` ops so that every cycle does the same mix of work (both epoch
kinds, all five presets). :meth:`check` inspects an op's output outside
the timed region, in a forked child, and returns the problems it found;
it may allocate freely, but state it changes is lost. ``outputs``, where
defined, gives an op's exact outputs, which the runner requires to repeat
at the same cycle position.

The program is called through module attributes (``samplers.plan_epoch``,
not a name imported from ``batchforge``) so that the traced run's wrappers
see the calls.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import replace

import numpy as np

from batchforge import analysis, presets, samplers, schedule_io, set_training, trainer
from batchforge.core import (
    Resolution,
    ResolutionSet,
    SamplerConfig,
    Strategy,
    sampler_config_to_mapping,
)


def _digest(ids: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(ids, dtype=np.int64).tobytes()).hexdigest()


def _schedule_ids(schedule) -> np.ndarray:
    return np.concatenate([p.sample_ids for p in schedule.plans])


class PlanImagenet:
    """One op: plan_epoch over ImageNet ids, then shard_for_rank for all 8 ranks.

    Even ops plan all 1,281,167 ids; odd ops plan a seeded ~70 % subset,
    the kind of active set filtering leaves behind.
    """

    cycle = 2
    world_size = 8

    def __init__(self, seed: int):
        base = presets.load_preset("resnet50").sampler
        self.config = replace(
            base,
            strategy=Strategy.MSC_VBS,
            world_size=self.world_size,
            base_batch=128,
            min_batch=self.world_size,
            seed=seed,
        )
        n = self.config.dataset_size
        self.subset = np.flatnonzero(np.random.default_rng(seed).random(n) < 0.7)
        # drop_last leaves fewer ids than the largest batch unscheduled.
        cfg = self.config
        self.max_batch = math.ceil(
            cfg.effective_batch() * cfg.base_resolution.pixel_count() / cfg.resolutions[0].pixel_count()
        )

    def _active(self, i: int):
        return None if i % 2 == 0 else self.subset

    def op(self, i: int):
        schedule = samplers.plan_epoch(self.config, i, self._active(i))
        shards = [samplers.shard_for_rank(schedule, r, self.world_size) for r in range(self.world_size)]
        return schedule, shards

    def items(self, i: int) -> int:
        return self.config.dataset_size if i % 2 == 0 else len(self.subset)

    def check(self, i: int, out) -> list[str]:
        schedule, shards = out
        problems = []
        expected = np.arange(self.config.dataset_size) if i % 2 == 0 else self.subset
        ids = np.sort(np.concatenate([p.sample_ids for s in shards for p in s.plans]))
        if len(ids) > 1 and not np.all(ids[1:] > ids[:-1]):
            problems.append("an id appears in more than one shard slot")
        pos = np.minimum(np.searchsorted(expected, ids), len(expected) - 1)
        if not np.array_equal(expected[pos], ids):
            problems.append("a sharded id is not in the active set")
        dropped = len(expected) - len(ids)
        if not 0 <= dropped < self.max_batch:
            problems.append(f"{dropped} active ids unscheduled, more than the drop_last tail")
        global_shapes = [(p.iteration, p.resolution, p.batch_size // self.world_size) for p in schedule.plans]
        for rank, shard in enumerate(shards):
            if [(p.iteration, p.resolution, p.batch_size) for p in shard.plans] != global_shapes:
                problems.append(f"rank {rank} iterations or resolutions differ from the global schedule")
        replanned = samplers.plan_epoch(self.config, i, self._active(i))
        if _digest(_schedule_ids(replanned)) != _digest(_schedule_ids(schedule)):
            problems.append("re-planning the same epoch gave a different id digest")
        return problems


class CostPresets:
    """One op: compare_strategies over the three image strategies, then
    simulate_updates, for one preset; a cycle covers all five presets."""

    PRESETS = ("resnet50", "resnet50_adv", "mobilenetv1", "mobilenetv2", "mobilenetv3")
    STRATEGIES = (Strategy.SSC_FBS, Strategy.MSC_FBS, Strategy.MSC_VBS)
    TRIALS = 20
    cycle = len(PRESETS)

    def __init__(self, seed: int):
        self.configs = [
            replace(presets.load_preset(name).sampler, strategy=Strategy.MSC_VBS, seed=seed)
            for name in self.PRESETS
        ]

    def op(self, i: int):
        config = self.configs[i % self.cycle]
        reports = analysis.compare_strategies(config, list(self.STRATEGIES))
        return reports, analysis.simulate_updates(config, self.TRIALS)

    def items(self, i: int) -> int:
        return self.configs[i % self.cycle].epochs * (len(self.STRATEGIES) + self.TRIALS)

    def check(self, i: int, out) -> list[str]:
        reports, sim = out
        name = self.PRESETS[i % self.cycle]
        config = self.configs[i % self.cycle]
        if [r.strategy for r in reports] != list(self.STRATEGIES):
            return [f"{name}: report rows are not ssc_fbs, msc_fbs, msc_vbs"]
        ssc, msc, vbs = reports
        problems = []
        fixed = config.epochs * (config.dataset_size // config.effective_batch())
        if ssc.total_updates != fixed or msc.total_updates != fixed:
            problems.append(f"{name}: fixed-batch updates {ssc.total_updates}/{msc.total_updates} != {fixed}")
        ratio = vbs.total_updates / ssc.total_updates
        if not 0.755 <= ratio <= 0.775:
            problems.append(f"{name}: variable/fixed update ratio {ratio:.4f} outside [0.755, 0.775]")
        rel = abs(sim.mean - vbs.expected_updates) / vbs.expected_updates
        if rel >= 0.01:
            problems.append(f"{name}: Monte-Carlo mean {sim.mean} is {rel:.2%} from the closed form")
        if name == "resnet50" and (
            ssc.total_updates != 187_650 or not 141_000 <= vbs.total_updates <= 146_000
        ):
            problems.append(f"resnet50: updates {ssc.total_updates}/{vbs.total_updates}, pinned 187650/141k-146k")
        return problems


class TrainFiltered:
    """One op: the desk-scale filtered training run (acceptance criterion 4's settings).

    How much filtering saves depends on the task, so a cycle trains
    ``TASKS`` tasks drawn from seeds derived from the workload seed; this
    keeps the work per cycle close across workload seeds.
    """

    TASKS = 3
    cycle = TASKS
    N = 10_000
    EPOCHS = 30

    def __init__(self, seed: int):
        self.configs = [
            SamplerConfig(
                strategy=Strategy.MSC_VBS,
                dataset_size=self.N,
                base_batch=128,
                base_resolution=Resolution(16, 16),
                resolutions=ResolutionSet.parse("8x8,16x16,32x32"),
                epochs=self.EPOCHS,
                seed=seed * self.TASKS + task,
                drop_last=False,
            )
            for task in range(self.TASKS)
        ]
        self.trainer_config = trainer.TrainerConfig(
            max_lr=0.2,
            warmup_epochs=3,
            total_epochs=self.EPOCHS,
            weight_decay=1e-4,
            label_smoothing=0.1,
            ema_decay=0.999,
        )
        self.set_config = set_training.SetConfig(tau=0.7, window=2)
        self.tasks = [
            trainer.make_synthetic_task(self.N, num_classes=10, grid=8, seed=s.seed) for s in self.configs
        ]

    def op(self, i: int):
        sampler = self.configs[i % self.TASKS]
        dataset, eval_dataset = self.tasks[i % self.TASKS]
        model = trainer.PooledLinearModel(10, 8, sampler.resolutions)
        return trainer.train(model, dataset, sampler, self.trainer_config, self.set_config, eval_dataset)

    def items(self, i: int) -> int:
        return self.EPOCHS * self.N

    def outputs(self, report) -> dict:
        return {
            "updates": report.total_updates,
            "eval_acc": report.final_eval_accuracy,
            "params": _digest(report.final_params.view(np.int64)),
        }

    def check(self, i: int, report) -> list[str]:
        problems = []
        if report.total_forward_passes != self.EPOCHS * self.N:
            problems.append(f"{report.total_forward_passes} forward passes, expected {self.EPOCHS * self.N}")
        if not all(math.isfinite(loss) for loss in report.losses()):
            problems.append("a non-finite epoch loss")
        if report.removed_count <= 0 or report.readded_count <= 0:
            problems.append(f"removed={report.removed_count} readded={report.readded_count}, both must be > 0")
        return problems


class ArtifactIO:
    """One op: write then read one ImageNet epoch's JSONL schedule, then dump
    then load a filter-state checkpoint."""

    cycle = 1
    FILTER_SAMPLES = 20_000
    FILTER_EPOCHS = 6

    def __init__(self, seed: int, workdir: str):
        self.config = replace(presets.load_preset("resnet50").sampler, strategy=Strategy.MSC_VBS, seed=seed)
        self.schedule = samplers.plan_epoch(self.config, 0)
        self.state = self._filter_state(seed)
        self.op_items = sum(len(p.sample_ids) for p in self.schedule.plans) + self.FILTER_SAMPLES
        self.schedule_path = os.path.join(workdir, "schedule.jsonl")
        self.state_path = os.path.join(workdir, "set_state.json")

    def _filter_state(self, seed: int):
        """A filter state after a seeded prediction stream: some samples
        removed, some re-added, the rest with full windows."""
        rng = np.random.default_rng(seed)
        state = set_training.SetState(self.FILTER_SAMPLES, set_training.SetConfig(tau=0.7, window=2))
        ease = rng.random(self.FILTER_SAMPLES)
        for _ in range(self.FILTER_EPOCHS):
            ids = np.concatenate([state.active_samples(), state.reevaluation_plan()])
            confidence = np.clip(ease[ids] + 0.15 * rng.standard_normal(len(ids)), 0.0, 1.0)
            state.record_batch(ids, confidence > 0.3, confidence)
            state.finalize_epoch()
        if state.removed_count == 0 or state.readded_count == 0:
            raise RuntimeError("the prediction stream removed or re-added no samples")
        return state

    def op(self, i: int):
        with open(self.schedule_path, "w") as fp:
            schedule_io.write_schedules(fp, [self.schedule], self.config)
        with open(self.schedule_path) as fp:
            header, schedules = schedule_io.read_schedules(fp)
        with open(self.state_path, "w") as fp:
            self.state.dump(fp)
        with open(self.state_path) as fp:
            loaded = set_training.SetState.load(fp)
        return header, schedules, loaded

    def items(self, i: int) -> int:
        return self.op_items

    def outputs(self, out) -> dict:
        return {"artifact_bytes": os.path.getsize(self.schedule_path) + os.path.getsize(self.state_path)}

    def check(self, i: int, out) -> list[str]:
        header, schedules, loaded = out
        problems = []
        if header != sampler_config_to_mapping(self.config):
            problems.append("the schedule header's config differs from the written config")
        shapes = [(p.iteration, p.resolution, p.batch_size, len(p.sample_ids)) for p in self.schedule.plans]
        if len(schedules) != 1 or schedules[0].epoch != self.schedule.epoch:
            problems.append(f"read back {len(schedules)} schedules, wrote one")
        else:
            got = schedules[0]
            if [(p.iteration, p.resolution, p.batch_size, len(p.sample_ids)) for p in got.plans] != shapes:
                problems.append("read-back iterations, resolutions or batch sizes differ")
            elif not np.array_equal(_schedule_ids(got), _schedule_ids(self.schedule)):
                problems.append("read-back sample ids differ")
        if loaded.to_payload() != self.state.to_payload():
            problems.append("the loaded filter state differs from the dumped one")
        return problems


WORKLOADS = {
    "plan_imagenet": PlanImagenet,
    "cost_presets": CostPresets,
    "train_filtered": TrainFiltered,
    "artifact_io": ArtifactIO,
}
