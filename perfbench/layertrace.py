"""Span tracer for the benchmark's traced run.

The tracer wraps batchforge's public functions at the names their callers
look up: a module attribute such as ``batchforge.trainer.plan_epoch`` (the
name ``train`` resolves at call time) or a class attribute such as
``SetState.record_batch``. Each call becomes one span (layer, parent span,
op id, start, end) kept in memory; :meth:`Tracer.write_spans` writes them
out when the run ends. Self time is a span's duration minus the durations
of its direct children. Per-sample calls (``record_prediction``) are not
wrapped: their cost stays in the self time of the layer that loops over
them.

Nothing in ``src/`` is edited. A wrap target that no longer exists is
reported as absent instead of failing the run, so the benchmark keeps
working while later changes rename or delete functions.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable

# Counter hooks run after a wrapped call returns: hook(args, result) -> {counter: amount}.
# Amounts are summed per op.


def _plans(args, result):
    return {"samplers.plans": len(result.plans)}


def _records(args, result):
    return {"set_training.records": len(args[1])}


def _transition(args, result):
    return {
        "set_training.removed": len(result.newly_removed),
        "set_training.readded": len(result.readded),
    }


def _monitored(args, result):
    return {"set_training.monitored": len(result)}


def _schedule_bytes(args, result):
    return {"schedule_io.bytes": args[0].tell()}


def _checkpoint_bytes(args, result):
    return {"set_training.checkpoint_bytes": args[1].tell()}


def _run_outputs(args, result):
    return {"trainer.updates": result.total_updates, "trainer.eval_acc": result.final_eval_accuracy}


COUNTERS = (
    "samplers.plans",
    "set_training.records",
    "set_training.removed",
    "set_training.readded",
    "set_training.monitored",
    "schedule_io.bytes",
    "set_training.checkpoint_bytes",
    "trainer.updates",
    "trainer.eval_acc",
)

# layer name -> (wrap targets as "module:attr" or "module:Class.attr", counter hook)
LAYERS: dict[str, tuple[tuple[str, ...], Callable | None]] = {
    "rng.permutation": (("batchforge.samplers:permutation",), None),
    "rng.stream_fill": (("batchforge.rng:stream_fill",), None),
    "rng.choice_at": (("batchforge.samplers:choice_at",), None),
    "samplers.plan_epoch": (
        ("batchforge.samplers:plan_epoch", "batchforge.trainer:plan_epoch"),
        _plans,
    ),
    "samplers.shard_for_rank": (("batchforge.samplers:shard_for_rank",), None),
    "samplers.epoch_batch_shapes": (
        ("batchforge.samplers:epoch_batch_shapes", "batchforge.analysis:epoch_batch_shapes"),
        None,
    ),
    "core.ensure_valid": (
        (
            "batchforge.samplers:ensure_valid",
            "batchforge.analysis:ensure_valid",
            "batchforge.trainer:ensure_valid",
        ),
        None,
    ),
    "analysis.count_updates": (("batchforge.analysis:count_updates",), None),
    "analysis.simulate_updates": (("batchforge.analysis:simulate_updates",), None),
    "analysis.strategy_cost": (("batchforge.analysis:strategy_cost",), None),
    "analysis.compare_strategies": (("batchforge.analysis:compare_strategies",), None),
    "set_training.init": (("batchforge.set_training:SetState.__init__",), None),
    "set_training.record_batch": (("batchforge.set_training:SetState.record_batch",), _records),
    "set_training.finalize_epoch": (
        ("batchforge.set_training:SetState.finalize_epoch",),
        _transition,
    ),
    "set_training.active_samples": (("batchforge.set_training:SetState.active_samples",), None),
    "set_training.reevaluation_plan": (
        ("batchforge.set_training:SetState.reevaluation_plan",),
        _monitored,
    ),
    "set_training.dump": (("batchforge.set_training:SetState.dump",), _checkpoint_bytes),
    "set_training.load": (("batchforge.set_training:SetState.load",), None),
    "trainer.train": (("batchforge.trainer:train",), _run_outputs),
    "trainer.loss_and_grad": (("batchforge.trainer:PooledLinearModel.loss_and_grad",), None),
    "trainer.forward": (("batchforge.trainer:PooledLinearModel.forward",), None),
    "trainer.sgd_momentum_step": (("batchforge.trainer:sgd_momentum_step",), None),
    "trainer.ema_update": (("batchforge.trainer:ema_update",), None),
    "trainer.make_synthetic_task": (("batchforge.trainer:make_synthetic_task",), None),
    "schedule_io.write_schedules": (("batchforge.schedule_io:write_schedules",), _schedule_bytes),
    "schedule_io.read_schedules": (("batchforge.schedule_io:read_schedules",), None),
}

# Layers that run only while the workload is set up; they are reported per
# set-up instead of per timed op.
SETUP_LAYERS = ("trainer.make_synthetic_task",)

SETUP_OP = 0


def _resolve(target: str):
    """(owner object, attribute name) for "module:attr" or "module:Class.attr"."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise AttributeError(f"{target} does not exist")
    return owner, attr


class Tracer:
    """Installs span-recording wrappers and turns spans into layer metrics."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, parent index, op id, start ns, end ns]
        self.counters: dict[tuple[int, str], float] = {}
        self.absent: list[str] = []
        self.hook_errors: set[str] = set()  # layers whose counters could not be read
        self._stack: list[int] = []
        self._op = SETUP_OP
        self._patches: list[tuple[object, str, object, object]] = []
        for layer, (targets, hook) in LAYERS.items():
            for target in targets:
                try:
                    owner, attr = _resolve(target)
                except (ImportError, AttributeError):
                    self.absent.append(target)
                    continue
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(layer, original.__func__, hook))
                else:
                    wrapped = self._wrap(layer, original, hook)
                self._patches.append((owner, attr, original, wrapped))

    def _wrap(self, layer: str, fn: Callable, hook: Callable | None) -> Callable:
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, stack[-1] if stack else -1, self._op, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if hook is not None:
                try:
                    amounts = hook(args, result)
                except (AttributeError, IndexError, TypeError):
                    # The call's signature or result changed: keep the span, drop the counter.
                    self.hook_errors.add(layer)
                    amounts = {}
                for name, amount in amounts.items():
                    key = (span[2], name)
                    counters[key] = counters.get(key, 0) + amount
            return result

        return traced

    def install(self, op: int) -> None:
        """Route calls through the wrappers, attributing spans to ``op``."""
        self._op = op
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def layer_metrics(self, ops: list[int]) -> dict[str, float]:
        """Per-op means over ``ops`` of each layer's self time, calls and counters.

        Set-up-only layers are totals over the set-up spans instead.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for layer, parent, _, start, end in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        wanted = set(ops)
        self_ns: dict[tuple[str, bool], int] = {}
        calls: dict[str, int] = {}
        shape_walks = 0
        for i, (layer, parent, op, start, end) in enumerate(spans):
            timed = op in wanted
            if not timed and op != SETUP_OP:
                continue
            key = (layer, timed)
            self_ns[key] = self_ns.get(key, 0) + (end - start - child_ns[i])
            if timed:
                calls[layer] = calls.get(layer, 0) + 1
                if layer == "samplers.epoch_batch_shapes" and self._under_analysis(parent):
                    shape_walks += 1
        n = max(len(ops), 1)
        out: dict[str, float] = {}
        for layer in LAYERS:
            if layer in SETUP_LAYERS:
                out[f"{layer}.self_ms"] = self_ns.get((layer, False), 0) / 1e6
            else:
                out[f"{layer}.self_ms"] = self_ns.get((layer, True), 0) / 1e6 / n
            out[f"{layer}.calls"] = calls.get(layer, 0) / n
        totals = dict.fromkeys(COUNTERS, 0)
        for (op, name), amount in self.counters.items():
            if op in wanted:
                totals[name] = totals.get(name, 0) + amount
        for name, amount in totals.items():
            out[name] = amount / n
        out["analysis.shape_walks"] = shape_walks / n
        removed, records = out["set_training.removed"], out["set_training.records"]
        out["set_training.readd_ratio"] = out["set_training.readded"] / removed if removed else 0.0
        out["set_training.monitor_share"] = out["set_training.monitored"] / records if records else 0.0
        return out

    def _under_analysis(self, index: int) -> bool:
        while index >= 0:
            layer, parent = self.spans[index][0], self.spans[index][1]
            if layer.startswith("analysis."):
                return True
            index = parent
        return False

    def write_spans(self, path) -> None:
        with open(path, "w") as fp:
            fp.write("index,layer,parent,op,start_ns,end_ns\n")
            for i, (layer, parent, op, start, end) in enumerate(self.spans):
                fp.write(f"{i},{layer},{parent},{op},{start},{end}\n")
