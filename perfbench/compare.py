"""Compare two result sets from ``sweep.py``: parent against change.

    python3 perfbench/compare.py perfbench/out/parent perfbench/out/change

Collect both sets with the same benchmark code and seeds, alternating
which side runs first; ``sweep.py`` runs each for ``BENCHMARK.json``'s
``run_seconds``. The sets are refused (exit 2) if their runs differ in
run length or benchmark code (``bench_digest``), or in the seeds of a
workload. Per workload and end-to-end metric this prints each side's
median and quartiles, the change's pair wins (pairs are runs with the same
seed; ties count for neither side) and a verdict:

* ``improved``: at least ten pairs, no more failed ops than the parent, the
  change wins at least nine tenths of the pairs and the medians differ, in
  its favour, by more than the parent's quartile distance;
* ``no worse``: the change's median is not worse than the parent's by more
  than the metric's bound;
* ``unresolved``: the parent's own spread is wider than the bound, and not
  every change run reads better than every parent run;
* ``worse``: the change's median is worse by more than the bound.

Exits 1 if any pairing is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from sweep import ROOT, load_set, quartiles


MIN_PAIRS = 10


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            metric: dict, more_failures: bool) -> tuple[str, int]:
    higher = metric["better"] == "higher"

    def better(a: float, b: float) -> bool:
        return a > b if higher else a < b

    wins = sum(better(c, p) for p, c in pairs)
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    worse_by = (p_med - c_med) / p_med if higher else (c_med - p_med) / p_med
    if (
        len(pairs) >= MIN_PAIRS
        and not more_failures
        and wins >= 0.9 * len(pairs)
        and better(c_med, p_med)
        and abs(c_med - p_med) > p_q3 - p_q1
    ):
        return "improved", wins
    every_better = all(better(c, p) for c in change for p in parent)
    if (p_q3 - p_q1) / p_med > metric["bound"] and not every_better:
        return "unresolved", wins
    if worse_by > metric["bound"]:
        return "worse", wins
    return "no worse", wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_set, change_set = load_set(args.parent), load_set(args.change)
    settings = {
        (run["report"]["provenance"]["seconds"], run["report"]["provenance"]["bench_digest"])
        for runs in (*parent_set.values(), *change_set.values())
        for run in runs.values()
    }
    if len(settings) > 1:
        print(f"refused: the runs differ in (seconds, bench_digest): {sorted(settings)}", file=sys.stderr)
        return 2
    bad = False
    for workload in [w["name"] for w in spec["workloads"]]:
        parent, change = parent_set.get(workload, {}), change_set.get(workload, {})
        if not parent or not change:
            print(f"{workload}: missing from {'parent' if not parent else 'change'} set")
            continue
        if set(parent) != set(change):
            print(f"refused: {workload} seeds differ: parent {sorted(parent)}, change {sorted(change)}",
                  file=sys.stderr)
            return 2
        seeds = sorted(parent)
        failed = [sum(r["result"]["failed"] for r in side.values()) for side in (parent, change)]
        print(f"{workload}: {len(parent)} parent runs, {len(change)} change runs, {len(seeds)} pairs; "
              f"failed ops parent {failed[0]}, change {failed[1]}")
        for metric in spec["end_to_end"]:
            name = metric["name"]

            def value(record):
                return record["result"]["metrics"][name]["value"]

            p_vals = [value(r) for r in parent.values()]
            c_vals = [value(r) for r in change.values()]
            pairs = [(value(parent[s]), value(change[s])) for s in seeds]
            outcome, wins = verdict(p_vals, c_vals, pairs, metric, failed[1] > failed[0])
            bad = bad or outcome in ("worse", "unresolved")
            p_q1, p_med, p_q3 = quartiles(p_vals)
            c_q1, c_med, c_q3 = quartiles(c_vals)
            print(
                f"  {name:12s} parent {p_med:12.4f} [{p_q1:.4f}, {p_q3:.4f}]  "
                f"change {c_med:12.4f} [{c_q1:.4f}, {c_q3:.4f}] {metric['unit']}  "
                f"{(c_med - p_med) / p_med:+7.2%}  wins {wins}/{len(pairs)}  {outcome}"
            )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
