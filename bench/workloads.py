"""The operations of one pass of each workload, and the gate each must pass.

Every operation is one ``tfp`` command line.  A pass is a fixed list of
operations; a run repeats passes, so outputs can be compared byte for byte
between passes of one run.  Each workload also runs a few cheap companion
commands, so that every per-command metric is measured on every workload;
the README gives their share of the time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import known_answer

# Documented default of the ``residual_tol`` problem option.
DEFAULT_RESIDUAL_TOL = 1e-10
# A known-answer solve must end this close to its answer (Thompson metric).
ANSWER_TOL = 1e-10

SERIES = ("--series", "gap", "--series", "bound", "--series", "residual")

# Exit codes of the shipped fixtures run as shipped (their own seeds and
# sample counts): (check, solve).  example_4_1 is inconsistent and its
# solve exits 4 by design; check_fail_power's condition (B) fails, so its
# unforced solve exits 3.
FIXTURE_CODES = {
    "check_fail_power": (3, 3),
    "check_pass_constant": (0, 0),
    "example_4_1": (3, 4),
    "example_4_2": (3, 0),
    "quadratic_pass": (0, 0),
}

SOLVE_N = 16
SOLVE_PROBLEMS = 4
CHECK_N = 8
CHECK_PROBLEMS = 4
# A type1 sample costs twice the eigensolves of a type2 sample, so type2
# checks draw twice as many and every check costs about the same.
CHECK_SAMPLES = {"type1": 10, "type2": 20}
# Companion check on the solve workload: constant maps pass every
# condition whatever the seed.
COMPANION_CHECK = ("check_pass_constant", 20)
# Companion solve on the check workload: converges in a few iterations.
COMPANION_SOLVE = "example_4_2"


@dataclass(frozen=True, eq=False)
class Op:
    """One command line, its expected exit code and the files it writes."""

    key: str
    command: str
    argv: tuple[str, ...]
    expect: int
    outputs: tuple[Path, ...]
    residual_tol: float = DEFAULT_RESIDUAL_TOL
    samples: int | None = None
    answer: np.ndarray | None = field(default=None, repr=False)


def _residual_tol(problem: Path) -> float:
    options = json.loads(problem.read_text()).get("options", {})
    return float(options.get("residual_tol", DEFAULT_RESIDUAL_TOL))


def _check(
    key: str, problem: Path, work: Path, expect: int, samples: int | None = None, seed: int | None = None
) -> Op:
    out = work / f"{key}.check.json"
    argv = ["check", str(problem), "--out", str(out)]
    if samples is not None:
        argv += ["--samples", str(samples)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if samples is None:
        samples = json.loads(problem.read_text()).get("options", {}).get("samples", 200)
    return Op(key + ":check", "check", tuple(argv), expect, (out,), samples=samples)


def _solve(key: str, problem: Path, work: Path, expect: int, answer=None) -> Op:
    out = work / f"{key}.trace.csv"
    outputs = (out, out.with_suffix(".json")) if expect in (0, 4) else ()
    return Op(
        key + ":solve", "solve", ("solve", str(problem), "--out", str(out)), expect, outputs,
        residual_tol=_residual_tol(problem), answer=answer,
    )


def _plot(key: str, work: Path) -> Op:
    out = work / f"{key}.svg"
    trace = work / f"{key}.trace.csv"
    return Op(key + ":plot", "plot", ("plot", str(trace), *SERIES, "--out", str(out)), 0, (out,))


def _write_problem(work: Path, key: str, doc: dict) -> Path:
    path = work / f"{key}.problem.json"
    path.write_text(json.dumps(doc, indent=1))
    return path


def fixtures_cli(work: Path, fixtures: Path, seed: int) -> list[Op]:
    """check, solve and plot on every shipped fixture, as shipped."""
    ops = []
    for name, (check_code, solve_code) in FIXTURE_CODES.items():
        problem = fixtures / f"{name}.json"
        ops.append(_check(name, problem, work, check_code))
        ops.append(_solve(name, problem, work, solve_code))
        if solve_code in (0, 4):
            ops.append(_plot(name, work))
    return ops


def solve_manufactured(work: Path, fixtures: Path, seed: int) -> list[Op]:
    """Forced solves of generated n = 16 known-answer problems."""
    ops = []
    companion, samples = COMPANION_CHECK
    for i, (doc, answer) in enumerate(known_answer.problems(SOLVE_N, SOLVE_PROBLEMS, seed)):
        key = f"{doc['kind']}-n{SOLVE_N}-{i}"
        ops.append(_solve(key, _write_problem(work, key, doc), work, 0, answer))
        ops.append(_plot(key, work))
        ops.append(_check(f"{companion}-{i}", fixtures / f"{companion}.json", work, 0, samples, seed))
    return ops


def check_sampling(work: Path, fixtures: Path, seed: int) -> list[Op]:
    """Condition checks of generated n = 8 problems; every check exits 3."""
    ops = []
    for i, (doc, _) in enumerate(known_answer.problems(CHECK_N, CHECK_PROBLEMS, seed)):
        key = f"{doc['kind']}-n{CHECK_N}-{i}"
        problem = _write_problem(work, key, doc)
        ops.append(_check(key, problem, work, 3, CHECK_SAMPLES[doc["kind"]], seed))
        companion = f"{COMPANION_SOLVE}-{i}"
        ops.append(_solve(companion, fixtures / f"{COMPANION_SOLVE}.json", work, 0))
        ops.append(_plot(companion, work))
    return ops


WORKLOADS = {
    "fixtures-cli": fixtures_cli,
    "solve-manufactured": solve_manufactured,
    "check-sampling": check_sampling,
}


# ---------------------------------------------------------------------------
# Correctness gate


def thompson_distance(a: np.ndarray, b: np.ndarray) -> float:
    """d(A, B) = max |log lambda(L^-1 A L^-*)| with B = L L*, in plain numpy."""
    low = np.linalg.cholesky(b)
    inv = np.linalg.inv(low)
    lam = np.linalg.eigvalsh(inv @ a @ inv.conj().T)
    return float(np.abs(np.log(lam)).max())


def _matrix(literal) -> np.ndarray:
    return np.array(
        [[complex(*z) if isinstance(z, list) else complex(z) for z in row] for row in literal],
        dtype=np.complex128,
    )


def gate(op: Op, code) -> list[str]:
    """Reasons the operation failed; empty when it did what it must."""
    if code != op.expect:
        return [f"exit code {code}, expected {op.expect}"]
    problems = []
    missing = [str(path) for path in op.outputs if not path.is_file()]
    if missing:
        return [f"missing output {', '.join(missing)}"]
    if op.command == "check":
        report = json.loads(op.outputs[0].read_text())
        if report["samples"] != op.samples:
            problems.append(f"report has {report['samples']} samples, expected {op.samples}")
        if report["passed"] != (code == 0):
            problems.append("report verdict disagrees with the exit code")
    elif op.command == "solve" and op.outputs:
        doc = json.loads(op.outputs[1].read_text())
        meta = doc["metadata"]
        if code == 0:
            worst = max(meta["residual1"], meta["residual2"])
            if not meta["converged"] or worst > op.residual_tol:
                problems.append(f"certified solve has residual {worst:.3e} > {op.residual_tol:.1e}")
        if op.answer is not None:
            dist = thompson_distance(_matrix(doc["solution"]), op.answer)
            if not dist <= ANSWER_TOL:
                problems.append(f"solution is {dist:.3e} from the known answer")
    elif op.command == "plot":
        if not op.outputs[0].read_text().startswith("<svg"):
            problems.append("plot output is not an SVG document")
    return problems
