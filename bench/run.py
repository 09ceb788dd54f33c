"""Benchmark of the tfp CLI: one workload, one seed, one result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  ``--trace 0`` measures the end-to-end metrics, ``--trace
1`` alternates untraced and traced passes and reports per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give tail percentiles, machine facts and where the full result went.
"""

import os

# Single-threaded BLAS, set before numpy loads: the benchmark measures one
# client on one core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

# Fresh interpreters started per run to time start-up plus import.
SETUP_REPEATS = 7
IMPORT_PROGRAM = "import sys; sys.path.insert(0, 'src'); import tfp.cli; tfp.cli.build_parser()"


def _die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package() -> None:
    if not (SRC / "tfp" / "__init__.py").is_file():
        _die(f"no tfp package under {SRC}; run from the root of a tfp source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import tfp

    if Path(tfp.__file__).resolve().parent != (SRC / "tfp").resolve():
        _die(f"imported tfp from {tfp.__file__}, not from {SRC}")


def setup_seconds() -> float:
    """Median time, scaled to the reference speed, of a fresh interpreter
    importing the CLI."""
    import harness

    times = []
    before = harness.probe()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROGRAM], cwd=ROOT, check=True)
        wall = time.perf_counter() - start
        after = harness.probe()
        times.append(harness.scaled(wall, before, after))
        before = after
    return statistics.median(times)


_OPENBLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas_threads() -> object:
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in _OPENBLAS_THREAD_QUERIES:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def machine_facts() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_vendor = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_vendor,
        "blas_threads": _blas_threads(),
        "commit": commit,
    }


def end_to_end(run, setup: float) -> tuple[dict, list[str]]:
    """The end-to-end metrics of an untraced run, and notes on the tails."""
    import harness

    by_command: dict[str, list] = {"check": [], "solve": [], "plot": []}
    for record in run.records:
        by_command[record.command].append(record)
    secs = {cmd: [r.seconds for r in recs] for cmd, recs in by_command.items()}
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (len(run.records) / sum(r.seconds for r in run.records), "1/s"),
        "solve_p50_ms": (1e3 * statistics.median(secs["solve"]), "ms"),
        "check_p50_ms": (1e3 * statistics.median(secs["check"]), "ms"),
        "plot_p50_ms": (1e3 * statistics.median(secs["plot"]), "ms"),
        "iters_per_s": (sum(r.iterations for r in by_command["solve"]) / sum(secs["solve"]), "1/s"),
        "samples_per_s": (sum(r.samples for r in by_command["check"]) / sum(secs["check"]), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = []
    for cmd in ("solve", "check"):
        value, pct = harness.tail(secs[cmd])
        metrics[f"{cmd}_tail_ms"] = (1e3 * value, "ms")
        notes.append(f"{cmd}_tail_ms is p{pct} of {min(len(secs[cmd]), harness.TAIL_SAMPLES)} samples")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}, notes


_LAYER_UNITS = {
    ".calls": "count",
    ".self_s": "s",
    ".s": "s",
    ".samples": "count",
    ".rows": "count",
    ".bytes": "B",
    "iterations": "count",
    "step_ms": "ms",
    "eig_per_iter": "eig/iter",
    "eig_per_sample": "eig/sample",
    "eig_per_trace_row": "eig/row",
    "eig_recomputed_ratio": "ratio",
}


def per_layer(run) -> tuple[dict, list[str], dict]:
    """Per-layer metrics of a traced run: exact counts of one traced pass
    (every traced pass must agree), times as medians over traced passes,
    each scaled to the reference speed by its pass's mean scale."""
    import tracing

    passes = run.passes()
    profiles = []
    for index, profile in tracing.pass_profiles(run.tracer, run.ops).items():
        scale = passes[index]["seconds"] / passes[index]["wall_seconds"]
        for kind in ("self_s", "incl_s"):
            profile[kind] = {name: scale * value for name, value in profile[kind].items()}
        profiles.append(profile)
    problems = []
    counts = tracing.work_counts(profiles[0])
    if any(tracing.work_counts(p) != counts for p in profiles[1:]):
        problems.append("work counts differ between traced passes")
    seconds = {}
    for kind in ("self_s", "incl_s"):
        names = set().union(*(p[kind] for p in profiles))
        seconds[kind] = {name: statistics.median(p[kind].get(name, 0.0) for p in profiles) for name in names}
    values = tracing.layer_metrics(profiles[0], seconds)
    traced = [p["seconds"] for p in passes.values() if p["traced"]]
    untraced = [p["seconds"] for p in passes.values() if not p["traced"]]
    values["tracing_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics = {}
    for name, value in values.items():
        unit = next((u for suffix, u in _LAYER_UNITS.items() if name.endswith(suffix)), "s")
        metrics[name] = {"value": value, "unit": unit}
    return metrics, problems, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    import harness
    import workloads
    from tfp.fixtures import fixture_path

    if args.workload not in workloads.WORKLOADS:
        _die(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    facts = machine_facts()
    setup = setup_seconds() if not args.trace else None
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        fixtures = fixture_path("example_4_1.json").parent
        ops = workloads.WORKLOADS[args.workload](work, fixtures, args.seed)
        run = harness.run_passes(ops, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [(r.key, r.pass_index, p) for r in run.records for p in r.problems]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "machine": facts}
    if args.trace:
        metrics, count_problems, counts = per_layer(run)
        failures += [("run", -1, p) for p in count_problems]
        spans = RESULTS / f"{stem}.spans.csv.gz"
        run.tracer.write(spans, run.ops)
        detail["work_counts_per_pass"] = counts
        notes = [f"spans written to {spans}"]
    else:
        metrics, notes = end_to_end(run, setup)
    detail.update(
        metrics=metrics,
        passes=run.passes(),
        ops=[vars(r) for r in run.records],
        failures=failures,
    )
    result_path = RESULTS / f"{stem}.json"
    result_path.write_text(json.dumps(detail, indent=1, default=str) + "\n")

    for key, pass_index, problem in failures[:20]:
        print(f"FAILED {key} (pass {pass_index}): {problem}")
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    for note in notes:
        print(note)
    print(f"machine: {json.dumps(facts)}")
    print(f"passes: {len(run.passes())}, operations: {len(run.records)}; details in {result_path}")
    failed = sum(1 for r in run.records if r.problems)
    result = {
        "correct": not failures,
        "attempted": len(run.records),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
