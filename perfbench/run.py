"""batchforge benchmark: one workload per process, a closed loop of one caller.

    python3 perfbench/run.py --workload plan_imagenet --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``. One
caller on one thread issues an op only after the previous one returned,
starting whole cycles of the workload's op mix until ``--seconds`` have passed.
Each op's output is checked outside the timed region, in a forked child;
an op whose check fails, or that raises, counts as failed.

``--trace 0`` measures the end-to-end metrics. ``setup_s`` is the median
of three set-ups, each in a fresh process: imports, inputs built from the
seed and one warm-up op. ``--trace 1`` alternates traced and untraced
cycles, reports per-layer metrics from the traced ones and the tracing
overhead from the pair, and writes the spans to ``perfbench/out/``.

Standard output ends with two JSON lines: a report with provenance and
every metric, then the result line ``{"correct", "attempted", "failed",
"metrics"}`` with the metrics ``BENCHMARK.json`` lists for the mode.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_PROCESSES = 3


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; must run before numpy loads."""
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(cap)
    return cap


def _git_sha():
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _files_digest(paths) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted(paths):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _provenance(args, blas_cap: int) -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "src_digest": _files_digest((SRC / "batchforge").rglob("*.py")),
        "bench_digest": _files_digest([ROOT / "BENCHMARK.json", *HERE.glob("*.py")]),
        "interpreter": f"{sys.implementation.name} {sys.version.split()[0]}",
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_cap,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "closed_loop_callers": 1,
    }


def _build(workloads, name: str, seed: int, workdir: Path):
    cls = workloads.WORKLOADS[name]
    return cls(seed, str(workdir)) if name == "artifact_io" else cls(seed)


def _setup_in_fresh_process(args) -> float:
    """Set-up seconds measured by a fresh interpreter running this script."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _check_in_child(workload, i: int, out) -> list[str]:
    """Run ``workload.check(i, out)`` in a forked child; return its problems.

    The child sees the op's output copy-on-write, so what the check allocates
    (a re-plan, sorted copies, read-back payloads) stays out of this
    process's peak RSS, which then holds the program's memory and the
    workload's inputs only.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                problems = workload.check(i, out)
            except BaseException:
                problems = [f"check raised:\n{traceback.format_exc()}"]
            with os.fdopen(write_fd, "w") as fp:
                json.dump(problems, fp)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as fp:
        text = fp.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not text:
        return [f"the check process ended with wait status {status}"]
    return json.loads(text)


def _check(workload, i: int, out, reference: dict) -> list[str]:
    """Problems with op ``i``'s output. ``reference`` maps a cycle position
    to the exact outputs of its first op, which later ops there must repeat."""
    problems = _check_in_child(workload, i, out)
    if hasattr(workload, "outputs"):
        got = workload.outputs(out)
        first = reference.setdefault(i % workload.cycle, got)
        if got != first:
            problems.append(f"outputs {got} differ from the first op's {first}")
    return problems


def _run_op(workload, i: int, reference: dict, tracer=None):
    """Time one op (traced if a tracer is given), then check it untraced.

    Returns (seconds, problems); seconds is None if the op raised.
    """
    if tracer:
        tracer.install(op=i)
    try:
        start = time.perf_counter()
        out = workload.op(i)
        elapsed = time.perf_counter() - start
    except Exception:  # a failing op is counted, and the loop goes on
        return None, [f"raised:\n{traceback.format_exc()}"]
    finally:
        if tracer:
            tracer.uninstall()
    return elapsed, _check(workload, i, out, reference)


def _measure(workload, seconds: float, reference: dict, tracer=None):
    """Start whole cycles until ``seconds`` have passed; with a tracer,
    alternate traced and untraced cycles (at least one of each)."""
    failures: list[str] = []
    op_s: dict[int, list[float]] = {}  # cycle position -> latencies of ok ops
    items_done = 0  # items of ok ops
    cycles: list[tuple[bool, float]] = []  # (traced, op seconds) of whole, ok cycles
    traced_ops: list[int] = []
    i = 1
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(cycles) % 2 == 0
        cycle_s, ok = 0.0, True
        for _ in range(workload.cycle):
            elapsed, problems = _run_op(workload, i, reference, tracer if traced else None)
            if problems:
                failures.append(f"op {i}: " + "; ".join(problems))
                ok = False
            else:
                op_s.setdefault(i % workload.cycle, []).append(elapsed)
                cycle_s += elapsed
                items_done += workload.items(i)
                if traced:
                    traced_ops.append(i)
            i += 1
        if ok:
            cycles.append((traced, cycle_s))
        wall = time.perf_counter() - start
        need_more = tracer is not None and len({t for t, _ in cycles}) < 2
        if (wall >= seconds and not need_more) or wall > 4 * seconds:
            break
    return {
        "attempted": i - 1,
        "failures": failures,
        "op_s": op_s,
        "items": items_done,
        "cycles": cycles,
        "traced_ops": traced_ops,
    }


def _result_line(spec_metrics, values: dict, attempted: int, failed: int) -> dict:
    metrics = {}
    for spec in spec_metrics:
        if spec["name"] not in values:
            raise KeyError(f"the benchmark computed no value for {spec['name']}")
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = _parse_args(argv)
    blas_cap = _cap_blas_threads()
    if not (SRC / "batchforge").is_dir():
        print(f"error: no program source at {SRC / 'batchforge'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layertrace
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (known: {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fp:
        spec = json.load(fp)

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tracer = layertrace.Tracer() if args.trace else None
        if tracer:
            tracer.install(op=layertrace.SETUP_OP)
        try:
            workload = _build(workloads, args.workload, args.seed, workdir)
            warm = workload.op(0)
            setup_s = time.perf_counter() - _T0
        finally:
            if tracer:
                tracer.uninstall()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        reference: dict = {}
        problems = _check(workload, 0, warm, reference)
        del warm
        if problems:
            print("error: the warm-up op failed its check: " + "; ".join(problems), file=sys.stderr)
            return 1
        setups = [setup_s]
        if not args.trace:
            setups += [_setup_in_fresh_process(args) for _ in range(SETUP_PROCESSES - 1)]

        run = _measure(workload, args.seconds, reference, tracer)
        attempted, failed = run["attempted"], len(run["failures"])
        for failure in run["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
        if not run["cycles"]:
            print("error: no whole cycle succeeded", file=sys.stderr)
            return 1
        values: dict = {}
        report = {"provenance": _provenance(args, blas_cap), "setup_runs_s": setups}
        if tracer:
            untraced = [s for t, s in run["cycles"] if not t]
            traced = [s for t, s in run["cycles"] if t]
            values = tracer.layer_metrics(run["traced_ops"])
            values["trace.overhead_pct"] = (
                (statistics.median(traced) / statistics.median(untraced) - 1) * 100
                if traced and untraced else 0.0
            )
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
            tracer.write_spans(spans_path)
            report.update(absent=tracer.absent, hook_errors=sorted(tracer.hook_errors), spans_file=str(spans_path.relative_to(ROOT)),
                          traced_ops=len(run["traced_ops"]), spans=len(tracer.spans))
            wanted = spec["per_layer"]
        else:
            # The ops of a cycle differ in size (epoch kinds, presets, tasks),
            # so the median is taken over cycles of their mean op latency.
            values["op_p50_ms"] = statistics.median(s / workload.cycle for _, s in run["cycles"]) * 1000
            values["items_per_s"] = run["items"] / sum(sum(v) for v in run["op_s"].values())
            values["setup_s"] = statistics.median(setups)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            wanted = spec["end_to_end"]
        report.update(
            ops=attempted,
            op_ms={pos: [round(s * 1000, 3) for s in v] for pos, v in sorted(run["op_s"].items())},
            cycles=len(run["cycles"]),
            fail_ratio=failed / attempted,
            outputs=[reference[k] for k in sorted(reference)],
            metrics=values,
        )
        print(json.dumps({"report": report}))
        print(json.dumps(_result_line(wanted, values, attempted, failed)))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
