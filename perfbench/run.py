"""Benchmark of dvrvqe: one workload, one seed, one run.

    python3 perfbench/run.py --workload vqe_search --seed 9 --seconds 40 --trace 0

Workloads are defined in workloads.py and described in README.md. A run
times three set-ups in fresh processes (``setup_s`` is their median), makes
the inputs itself, then repeats the workload's steps in this process, one
caller and one step at a time, until the next step would end after
``--seconds``. Every step's output is checked. Between steps the run times
a fixed reference computation, and it reports the workload's times at the
host speed where that reference takes ``REFERENCE_S``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
traced and untraced passes and reports the per-layer metrics of the first
traced pass. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable report. A record of the run, and in traced runs
the spans, are written to ``.perfbench/``.
"""

import time

START = time.perf_counter()

import os

# One BLAS thread: the benchmark is a single caller, and the thread count
# must be the same in every run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
# Other tenants of the machine change its speed by up to 2x for minutes at a
# time, and between runs the raw step times spread by up to 32% (IQR over
# median). A LAPACK eigensolve that does not touch dvrvqe, timed between
# steps, tracks that speed: dividing by it cut the spread of the time
# metrics over ten runs to at most 14% (see README.md).
REFERENCE_S = 0.033
PROBE_SIZE = 700
PROBE_EVERY_S = 0.5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help="make the inputs in DIR and exit")
    return parser.parse_args(argv)


def load_workloads():
    """Import the benchmark's modules against the package in this checkout's src/."""
    if not (SRC / "dvrvqe" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dvrvqe package in {SRC}")
    sys.path.insert(0, str(SRC))
    import dvrvqe
    import workloads

    if Path(dvrvqe.__file__).resolve().parent != (SRC / "dvrvqe").resolve():
        sys.exit(f"perfbench: imported dvrvqe from {dvrvqe.__file__}, not from {SRC}")
    return workloads.WORKLOADS


def time_setup(args, scratch: Path) -> float:
    """Median time a fresh process takes to import the package and make the inputs.

    Each process reports its own time from the start of this script.
    """
    times = []
    for i in range(SETUP_REPEATS):
        target = scratch / f"setup{i}"
        target.mkdir()
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only", str(target),
        ]
        done = subprocess.run(command, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up process exited with code {done.returncode}: {done.stderr}")
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


class HostSpeed:
    """Times a fixed eigensolve, independent of dvrvqe, at most every PROBE_EVERY_S."""

    def __init__(self):
        import numpy
        import scipy.linalg

        matrix = numpy.random.default_rng(0).standard_normal((PROBE_SIZE, PROBE_SIZE))
        self._matrix = matrix + matrix.T
        self._eigvalsh = scipy.linalg.eigvalsh
        self._last = -PROBE_EVERY_S
        self.times: list[float] = []

    def probe(self) -> None:
        if time.perf_counter() - self._last < PROBE_EVERY_S:
            return
        start = time.perf_counter()
        self._eigvalsh(self._matrix)
        self._last = time.perf_counter()
        self.times.append(self._last - start)

    def scale(self) -> float:
        """Factor that turns a time measured in this run into one at REFERENCE_S speed."""
        return REFERENCE_S / statistics.median(self.times)


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "commit": git_commit(),
    }


def run_step(step, spans):
    start = time.perf_counter()
    try:
        if spans is not None and step.cli:
            with spans.span(step.name):
                result = step.run()
        else:
            result = step.run()
    except Exception as exc:  # a failed operation is counted, not fatal
        return None, time.perf_counter() - start, f"{step.name}: {type(exc).__name__}: {exc}"
    return result, time.perf_counter() - start, None


def measure(workload, seconds: float, trace: bool):
    """Run one whole pass, then more until the next step would end after ``seconds``.

    Returns (durations keyed by (step, traced), attempted, failure messages,
    tracers of the complete traced passes, host speed).
    """
    speed = HostSpeed()
    speed.probe()
    durations = defaultdict(list)
    attempted = 0
    failures = []
    traced_passes = []
    deadline = time.perf_counter() + seconds
    pass_index = 0
    out_of_time = False
    while not out_of_time:
        spans = tracer.Tracer() if trace and pass_index % 2 == 0 else None
        traced = spans is not None
        if traced:
            spans.install()
        try:
            for step in workload.steps:
                seen = durations.get((step.name, traced)) or durations.get((step.name, not traced))
                if pass_index > 0 and time.perf_counter() + statistics.median(seen) > deadline:
                    out_of_time = True
                    break
                attempted += step.attempted
                result, elapsed, error = run_step(step, spans)
                durations[(step.name, traced)].append(elapsed)
                if error is not None:
                    failures += [error] * step.attempted
                else:
                    failures += step.check(result)
                speed.probe()
            else:
                if traced:
                    traced_passes.append(spans)
        finally:
            if traced:
                spans.uninstall()
        pass_index += 1
    return durations, attempted, failures, traced_passes, speed


def end_to_end(workload, durations, setup_s, speed):
    """Gated metrics and the workload's own; step times are at REFERENCE_S host speed."""
    scale = speed.scale()
    medians = {name: scale * statistics.median(values) for (name, traced), values in durations.items()}
    report, task1_s, task2_s = workload.tasks(medians)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (workload.pass_s(medians), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "task1_s": (task1_s, "s"),
        "task2_s": (task2_s, "s"),
    }
    report = {name: (value, workload.UNITS[name]) for name, value in report.items()}
    report["host.reference_s"] = (statistics.median(speed.times), "s")
    report["host.scale"] = (scale, "factor")
    return metrics, report


def per_layer(workload, durations, traced_passes):
    values = tracer.layer_metrics(traced_passes[0])
    # Compare traced and untraced time over the steps that ran both ways.
    both = {name for (name, traced) in durations if durations.get((name, not traced))}
    traced_s = workload.pass_s({n: statistics.median(durations[(n, True)]) for n in both})
    plain_s = workload.pass_s({n: statistics.median(durations[(n, False)]) for n in both})
    values["trace.overhead_frac"] = traced_s / plain_s - 1.0 if plain_s else 0.0
    return {name: (value, tracer.unit_of(name)) for name, value in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    WORKLOADS = load_workloads()
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; expected one of {', '.join(WORKLOADS)}")
    workload_class = WORKLOADS[args.workload]
    if args.setup_only:
        workload_class(Path(args.setup_only), args.seed)
        print(time.perf_counter() - START)
        return 0

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"work-{args.workload}-{os.getpid()}"
    scratch.mkdir()
    try:
        setup_s = 0.0 if args.trace else time_setup(args, scratch)
        inputs = scratch / "run"
        inputs.mkdir()
        workload = workload_class(inputs, args.seed)
        durations, attempted, failures, traced_passes, speed = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = [f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"]
    env = environment()
    lines.append(f"environment: {json.dumps(env, sort_keys=True)}")
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        metrics = per_layer(workload, durations, traced_passes)
        report = {}
        first = tracer.work_counts(traced_passes[0])
        for later in traced_passes[1:]:
            if tracer.work_counts(later) != first:
                failures.append("work counts differ between traced passes with the same seed")
        good, total = tracer.gradient_selfcheck(traced_passes[0])
        lines.append(
            f"tracer self-check: {good} of {total} vqe.gradient spans enclose 2 x n_slots simulator.run spans"
        )
        lines.append(f"work counts compared over {len(traced_passes)} complete traced passes")
        traced_passes[0].write_csv(OUT / f"{stem}-spans.csv")
    else:
        metrics, report = end_to_end(workload, durations, setup_s, speed)
    failed = len(failures)
    report["failed_frac"] = (failed / attempted, "fraction")
    for name, (value, unit) in {**metrics, **report}.items():
        lines.append(f"  {name:<40} {value:>16.6g} {unit}")
    counts = ", ".join(
        f"{name}{' traced' if traced else ''} x{len(values)}" for (name, traced), values in durations.items()
    )
    lines.append(f"samples: {counts}; {attempted} operations, {failed} failed")
    for message in failures[:20]:
        print(f"perfbench: {message}", file=sys.stderr)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "args": vars(args),
        "environment": env,
        "result": result,
        "report": {name: {"value": value, "unit": unit} for name, (value, unit) in report.items()},
        "durations": {f"{name}{'#traced' if traced else ''}": values for (name, traced), values in durations.items()},
        "failures": failures,
    }
    if args.trace:
        record["work_counts"] = first
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
