"""Run the benchmark over several seeds and save one result set.

    python3 perfbench/sweep.py --out perfbench/out/change --seeds 1-10
    python3 perfbench/sweep.py --out perfbench/out/change --workloads cost_presets --seeds 1-5

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time,
from the repository root, for ``BENCHMARK.json``'s ``run_seconds``, and
stores each run's report and result line in ``<out>/<workload>/seed<n>.json``.
Then prints, per workload and metric, the median, the quartiles and the
spread (quartile distance over median) against a third of the metric's
bound, and exits 3 if any spread is wider. ``compare.py`` compares two
such sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def load_set(directory: Path) -> dict[str, dict[int, dict]]:
    """{workload: {seed: {"report": ..., "result": ...}}}."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*/seed*.json")):
        record = json.loads(path.read_text())
        runs.setdefault(path.parent.name, {})[record["report"]["provenance"]["seed"]] = record
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(runs: dict[str, dict[int, dict]], spec: dict) -> bool:
    """Print spreads; True when every spread is below a third of its bound."""
    steady = True
    for workload, by_seed in runs.items():
        records = list(by_seed.values())
        failed = sum(r["result"]["failed"] for r in records)
        attempted = sum(r["result"]["attempted"] for r in records)
        print(f"{workload}: {len(records)} runs, {failed}/{attempted} ops failed")
        for metric in spec["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in records]
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median
            ok = spread < metric["bound"] / 3
            steady = steady and ok
            print(
                f"  {metric['name']:14s} median {median:14.4f} {metric['unit']:4s} "
                f"q1 {q1:14.4f} q3 {q3:14.4f} spread {spread:7.2%} "
                f"(bound {metric['bound']:.0%}){'' if ok else '  > bound/3'}"
            )
        outputs = {json.dumps(r["report"]["outputs"], sort_keys=True) for r in records}
        if outputs != {"[]"}:
            print(f"  outputs by seed: {[r['report']['outputs'] for r in records]}")
    return steady


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)

    for workload in args.workloads.split(","):
        target = args.out / workload
        target.mkdir(parents=True, exist_ok=True)
        for seed in parse_seeds(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            start = time.perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
            record = {"report": json.loads(lines[-2])["report"], "result": json.loads(lines[-1])}
            (target / f"seed{seed}.json").write_text(json.dumps(record, indent=1))
            print(f"{workload} seed {seed}: {time.perf_counter() - start:.1f}s wall", flush=True)
    return 0 if summarize(load_set(args.out), spec) else 3


if __name__ == "__main__":
    sys.exit(main())
