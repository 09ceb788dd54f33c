"""Runs workload passes in-process through ``tfp.cli.main`` and records them.

Times are scaled to a reference machine speed.  On a shared machine the
speed of one core was seen to switch between two levels about 1.6x apart,
in phases of 1-10 s, so raw wall times of two runs differ by up to that
much.  A short probe of fixed interpreter and small-array numpy work runs
between operations; an operation's time is its wall time times
``PROBE_REF_S`` over the mean of the probes just before and just after
it.  That is the time it would take on a machine where the probe takes
``PROBE_REF_S``.  Wall times are kept in every record as well.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
import tfp.cli

from tracing import Tracer
from workloads import Op, gate

# Probe time of the reference machine.  On the 2-core Xeon the benchmark
# was tuned on, the probe took 0.7-1.3 ms as the speed phases changed.
PROBE_REF_S = 1e-3
_PROBE_LOOPS = 300
_PROBE_REPEATS = 3
_PROBE_MATRIX = np.eye(4, dtype=np.complex128)


def probe() -> float:
    """Median seconds of three runs of a fixed slice of work, like the
    package's own mix of interpreter steps and small numpy operations."""
    times = []
    for _ in range(_PROBE_REPEATS):
        start = time.perf_counter()
        acc = 0.0
        for _ in range(_PROBE_LOOPS):
            b = _PROBE_MATRIX * 1.0001
            acc += abs(b[1, 2]) + float(np.abs(b).max())
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaled(wall: float, probe_before: float, probe_after: float) -> float:
    """Wall time at the reference speed."""
    return wall * PROBE_REF_S / (0.5 * (probe_before + probe_after))


@dataclass
class OpRecord:
    """One executed operation; ``seconds`` is scaled, ``wall_seconds`` raw."""

    key: str
    command: str
    pass_index: int
    traced: bool
    seconds: float
    wall_seconds: float
    code: object
    problems: list[str]
    iterations: int = 0
    samples: int = 0


@dataclass
class Run:
    """Everything one run measured, in the order it happened."""

    records: list[OpRecord] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    tracer: Tracer = field(default_factory=Tracer)
    last_probe: float | None = None

    @property
    def ops(self) -> list[dict]:
        return [{"key": r.key, "command": r.command, "pass": r.pass_index} for r in self.records]

    def passes(self) -> dict[int, dict]:
        """Per pass, complete or not: traced flag, scaled and wall seconds."""
        out: dict[int, dict] = {}
        for r in self.records:
            p = out.setdefault(r.pass_index, {"traced": r.traced, "seconds": 0.0, "wall_seconds": 0.0})
            p["seconds"] += r.seconds
            p["wall_seconds"] += r.wall_seconds
        return out


def _digest(op: Op) -> str:
    h = hashlib.sha256()
    for path in op.outputs:
        h.update(path.read_bytes())
    return h.hexdigest()


def run_op(op: Op, run: Run, pass_index: int, traced: bool) -> OpRecord:
    """Execute one command, time it, and gate its result."""
    before = run.last_probe if run.last_probe is not None else probe()
    tracer = run.tracer
    if traced:
        tracer.current_op = len(run.records)
        span = tracer.open(f"op.{op.command}")
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tfp.cli.main(list(op.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed operation, not a failed run
        code = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    if traced:
        tracer.close(span)
        tracer.current_op = -1
    run.last_probe = probe()

    problems = gate(op, code)
    record = OpRecord(
        op.key, op.command, pass_index, traced, scaled(wall, before, run.last_probe), wall, code, problems
    )
    if not problems and op.outputs:
        digest = _digest(op)
        first = run.digests.setdefault(op.key, digest)
        if digest != first:
            problems.append("outputs differ from the first pass of this run")
        if op.command == "solve":
            record.iterations = json.loads(op.outputs[1].read_text())["metadata"]["iterations"]
        elif op.command == "check":
            record.samples = op.samples
    run.records.append(record)
    return record


def run_passes(ops: list[Op], seconds: float, trace: bool) -> Run:
    """Repeat passes over ``ops`` until ``seconds`` have gone by.

    Untraced runs complete the first pass, then stop at the first
    operation that ends after the deadline.  Traced runs alternate whole untraced and traced passes,
    starting untraced, and run at least one of each, so that every traced
    pass does the same work.
    """
    run = Run()
    deadline = time.perf_counter() + seconds
    pass_index = 0
    while True:
        traced = trace and pass_index % 2 == 1
        if traced:
            run.tracer.install()
        try:
            for op in ops:
                run_op(op, run, pass_index, traced)
                if not trace and pass_index > 0 and time.perf_counter() >= deadline:
                    return run
        finally:
            if traced:
                run.tracer.uninstall()
        pass_index += 1
        if time.perf_counter() >= deadline and (not trace or pass_index >= 2):
            return run


# The tail uses at most this many samples of a command, the first ones
# of the run, so that its percentile (p66 at 30) does not move when a
# faster program completes more commands: on fixtures-cli, whose samples
# cluster by fixture, a moving percentile would jump between clusters.
# Every fixtures-cli and check-sampling run reaches 30 samples.
TAIL_SAMPLES = 30


def harrell_davis(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta((n+1)q, (n+1)(1-q))
    weighted mean of the order statistics.  It varies far less from run to
    run than the single order statistic at rank qn."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    grid = np.linspace(0.0, 1.0, 500 * n + 1)
    with np.errstate(divide="ignore"):
        log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf[np.isfinite(log_pdf)].max())
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]))))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ x)


def tail(values: list[float]) -> tuple[float, int]:
    """Estimate and percentile of the highest percentile with at least ten
    samples beyond it (nearest rank), over the first ``TAIL_SAMPLES``
    values.  Below 20 samples no percentile above the median qualifies,
    and the median is reported as percentile 50."""
    values = values[:TAIL_SAMPLES]
    n = len(values)
    if n < 20:
        return statistics.median(values), 50
    pct = math.floor(100 * (n - 10) / n)
    return harrell_davis(values, pct / 100), pct
