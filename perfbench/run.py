"""modham benchmark: one workload per process, single-threaded BLAS.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 35 --trace 0

Run from the root of a modham checkout; the package is imported from
``./src``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the environment, the failures by exception type and the negative
controls.  ``--trace 1`` reports per-layer metrics instead of end-to-end
ones.  See perfbench/README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # numpy is imported later, in import_modham
    os.environ[_var] = "1"

MIN_ROUNDS = 3  # whole rounds per run, whatever --seconds says
MIN_TRACED_ROUNDS = 5  # untraced and traced rounds alternate, untraced first
SETUP_PROBES = 4  # extra processes that repeat imports and input generation


def process_age() -> float:
    """Seconds since this process started (10 ms resolution)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_modham(root: Path):
    src = root / "src"
    if not (src / "modham" / "__init__.py").is_file():
        raise SystemExit(f"error: no modham package under {src}; run from a modham checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import mpmath  # noqa: F401
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    import modham

    if Path(modham.__file__).resolve().parent != (src / "modham").resolve():
        raise SystemExit(f"error: imported modham from {modham.__file__}, not {src}")


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_round(workload, round_dir: Path, outputs: list, failures: list, tracer=None) -> tuple:
    """Run every operation once; returns (round wall seconds, op seconds).

    Each failed operation appends ``(label, exception kind, message)`` to
    ``failures`` and ``None`` to ``outputs``.
    """
    op_times = []
    start = time.perf_counter()
    for op in workload.ops:
        if tracer is not None:
            tracer.op_id += 1
        t0 = time.perf_counter()
        try:
            out = op.fn(round_dir)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = None
            failures.append((op.label, getattr(exc, "kind", type(exc).__name__), str(exc)[:200]))
        op_times.append(time.perf_counter() - t0)
        outputs.append(out)
    return time.perf_counter() - start, op_times


def measure(workload, seconds: float, tracer=None):
    """Repeat whole rounds for ``seconds``; round 0 is kept for the checks.

    With a tracer, rounds alternate untraced / traced (the tracer's wrappers
    are installed only during traced rounds).
    """
    from workloads import output_bytes

    work = workload.workdir
    first_outputs = None
    failures, check_failures, rounds = [], [], []
    deadline = time.perf_counter() + seconds
    min_rounds = MIN_TRACED_ROUNDS if tracer else MIN_ROUNDS
    # start another round only if a typical round still ends before the deadline
    while len(rounds) < min_rounds or (
        time.perf_counter() + statistics.median(r["wall"] for r in rounds) <= deadline
    ):
        index = len(rounds)
        traced = tracer is not None and index % 2 == 1
        # every round writes to the same place, so the config echoed into the
        # data files is the same; round 0's files are moved aside for the checks
        round_dir = work / "out"
        outputs, round_failures = [], []
        span_start = len(tracer.spans) if tracer else 0
        if traced:
            tracer.install()
            tracer.quad_evals = 0
        try:
            wall, op_times = run_round(workload, round_dir, outputs, round_failures, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        failures += round_failures
        info = {"traced": traced, "wall": wall, "op_times": op_times}
        info["failed"] = {label for label, *_ in round_failures}
        if workload.files_on_disk:
            info["output_bytes"] = sum(output_bytes(o) for o in outputs if o is not None)
        if traced:
            info["spans"] = (span_start, len(tracer.spans))
            info["quad_evals"] = tracer.quad_evals
        rounds.append(info)
        if first_outputs is None:
            if workload.files_on_disk:
                round_dir.rename(work / "round0")
                outputs = [None if o is None else work / "round0" / o.name for o in outputs]
            first_outputs = outputs
        else:
            for op, first, later in zip(workload.ops, first_outputs, outputs):
                if first is None or later is None:  # failures are counted already
                    continue
                if not workload.same(first, later):
                    check_failures.append((op.label, f"round{index}_differs_from_round0"))
                workload.discard(later)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return rounds, failures, check_failures, first_outputs, peak_rss


def setup_probes(args) -> list:
    """Repeat imports and input generation in fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def end_to_end(rounds, setup_samples, peak_rss) -> dict:
    op_times = [t for r in rounds for t in r["op_times"]]
    return {
        "wall_s": {"value": statistics.median(r["wall"] for r in rounds), "unit": "s"},
        "op_p50_ms": {"value": 1000.0 * statistics.median(op_times), "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "peak_rss_mib": {"value": peak_rss, "unit": "MiB"},
    }


def per_layer(tracer, rounds, spec) -> dict:
    """Median over traced rounds of each layer metric named in BENCHMARK.json."""
    from tracing import metric_prefix

    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    per_round = []
    for r in traced:
        totals = tracer.self_times(*r["spans"])
        values = {"subspace.quad_evals": r["quad_evals"], "runner.output_bytes": r.get("output_bytes", 0)}
        self_sum = 0.0
        for name, (seconds, calls, inclusive) in totals.items():
            layer = metric_prefix(name.split(".", 1)[0])
            key = metric_prefix(name)
            values[f"{key}.self_s"] = seconds
            values[f"{key}.total_s"] = inclusive
            values[f"{key}.calls"] = calls
            values[f"{layer}.self_s"] = values.get(f"{layer}.self_s", 0.0) + seconds
            values[f"{layer}.calls"] = values.get(f"{layer}.calls", 0) + calls
            self_sum += seconds
        values["trace.coverage"] = self_sum / r["wall"]
        values["trace.spans"] = r["spans"][1] - r["spans"][0]
        per_round.append(values)
    traced_wall = statistics.median(r["wall"] for r in traced)
    untraced_wall = statistics.median(r["wall"] for r in untraced)
    metrics = {}
    for entry in spec:
        name = entry["name"]
        if name == "trace.overhead_s":
            value = traced_wall - untraced_wall
        elif name == "trace.wall_s":
            value = traced_wall
        elif name == "trace.untraced_wall_s":
            value = untraced_wall
        else:
            value = statistics.median(v.get(name, 0) for v in per_round)
            if entry["unit"] != "s" and value == int(value):
                value = int(value)
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return metrics


def top_spans(tracer, rounds, limit=25) -> list:
    """The largest self times (name, self s, calls, span s) of one traced round."""
    r = next(r for r in rounds if r["traced"])
    totals = tracer.self_times(*r["spans"])
    ranked = sorted(totals.items(), key=lambda kv: -kv[1][0])[:limit]
    return [[name, round(seconds, 6), calls, round(inclusive, 6)] for name, (seconds, calls, inclusive) in ranked]


def run_checks(workload, outputs: dict, round0_failed: set) -> list:
    """(label, check name) of every failed check of round 0's outputs.

    A check that raises, on an output of a form it does not expect, fails.
    """
    failed = []
    for op in workload.ops:
        if op.label in round0_failed:  # counted as a failed operation already
            continue
        try:
            failed += [(op.label, name) for name in workload.check(op, outputs[op.label])]
        except Exception as exc:
            failed.append((op.label, f"check_raised_{type(exc).__name__}"))
    return failed


def run_controls(workload, outputs: dict) -> dict:
    """The negative controls; each must be True.  None can run without their target."""
    target = outputs[workload.control_target]
    if target is None:
        return {f"{workload.control_target}_failed": False}
    try:
        return workload.controls(target)
    except Exception as exc:
        return {f"controls_raised_{type(exc).__name__}": False}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    import_modham(root)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    # relative and free of the pid: modham echoes the output path into its data files
    work_name = f"{args.workload}-probe{os.getpid()}" if args.setup_probe else args.workload
    workdir = Path(".perfbench_work") / work_name
    shutil.rmtree(workdir, ignore_errors=True)  # left by an interrupted run
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup_own = process_age()
        if args.setup_probe:
            print(setup_own)
            return 0
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        rounds, failures, check_failures, first_outputs, peak_rss = measure(workload, args.seconds, tracer)
        outputs = {op.label: out for op, out in zip(workload.ops, first_outputs)}
        check_failures += run_checks(workload, outputs, rounds[0]["failed"])
        controls = run_controls(workload, outputs)
        setup_samples = [setup_own] + setup_probes(args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    n_ops = len(workload.ops)
    attempted = n_ops * len(rounds)
    # a failed check marks its operation failed in every round it stands for
    bad_checks = {label for label, _ in check_failures}
    failed = sum(len(r["failed"] | bad_checks) for r in rounds)
    correct = not check_failures and all(controls.values())
    by_type: dict = {}
    for label, kind, _ in failures:
        by_type.setdefault(kind, set()).add(label)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "ops_per_round": n_ops,
        "failures_by_type": {k: sorted(v) for k, v in by_type.items()},
        "check_failures": check_failures,
        "negative_controls_rejected": controls,
        "round_wall_s": [r["wall"] for r in rounds],
        "op_median_ms": {
            op.label: 1000.0 * statistics.median(r["op_times"][k] for r in rounds)
            for k, op in enumerate(workload.ops)
        },
        "setup_samples_s": setup_samples,
        "environment": environment(),
    }
    if tracer is not None:
        spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]
        metrics = per_layer(tracer, rounds, spec)
        details["top_self_times"] = top_spans(tracer, rounds)
    else:
        metrics = end_to_end(rounds, setup_samples, peak_rss)
    print(json.dumps(details))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
