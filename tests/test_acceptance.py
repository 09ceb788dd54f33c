"""Acceptance suite: one test per shipped exit criterion.

Each test prints a ``[acceptance] criterion N: PASS/FAIL`` line (run with
``pytest tests/test_acceptance.py -v -s`` to see them all).

Known honest failures: the first shipped example's equation pair is
mutually inconsistent (no matrix solves both equations at once, for any
coefficient matrix), so the alternating iteration settles into a
two-cycle.  Criterion 1 and the first-fixture half of criterion 5 assert
the recorded reproduction targets anyway and therefore fail; the detailed
analysis lives with the project notes, and every other criterion passes.
"""

import json

import numpy as np
import pytest

from helpers import apply_F, random_nonsingular, random_pd, random_pd_in_ball
from tfp import cli, hpd_core, matrix_solver, psi_family, thompson
from tfp.errors import MaxIterationsExceeded
from tfp.fixpoint_engine import error_bound, iterate_pair
from tfp.fixtures import fixture_path

REFERENCE_SOLUTION_4_1 = np.array(
    [
        [5.6933, 2.4413 + 1.3428j, 1.7040 + 0.5152j],
        [2.4413 - 1.3428j, 4.4438, 0.7308 + 0.3634j],
        [1.7040 - 0.5152j, 0.7308 - 0.3634j, 5.0193],
    ]
)
REFERENCE_DISTANCE_4_1 = 2.17614


def load(name):
    return cli.load_problem(fixture_path(name))


def report_criterion(label, checks):
    """Print the verdict line and fail on any unmet sub-check."""
    failing = [f"{name}: {detail}" for name, ok, detail in checks if not ok]
    status = "PASS" if not failing else "FAIL"
    print(f"[acceptance] {label}: {status}")
    for name, ok, detail in checks:
        print(f"    - {name}: {'ok' if ok else 'UNMET'} ({detail})")
    assert not failing, f"{label}: " + "; ".join(failing)


def solve_collecting_partial(problem, x0, options):
    try:
        return matrix_solver.solve(problem, x0=x0, options=options), True
    except MaxIterationsExceeded as exc:
        return exc.result, False


def test_criterion_1_first_example_reproduction():
    problem, _, options = load("example_4_1.json")
    result, converged = solve_collecting_partial(problem, None, options)
    second, _ = solve_collecting_partial(
        problem, random_pd_in_ball(3, 2.0, 202), options
    )
    worst_residual = max(result.residual1, result.residual2)
    entry_err = float(np.abs(result.solution - REFERENCE_SOLUTION_4_1).max())
    checks = [
        (
            "converges in <= 200 iterations",
            converged and result.trace.iterations <= 200,
            f"converged={converged}, iterations={result.trace.iterations}, "
            f"final gap={result.trace.gaps[-1]:.3e}",
        ),
        (
            "both relative residuals <= 1e-8",
            worst_residual <= 1e-8,
            f"residuals=({result.residual1:.3e}, {result.residual2:.3e})",
        ),
        (
            "d(X, I) = 2.17614 within 2e-3",
            abs(result.dist_to_identity - REFERENCE_DISTANCE_4_1) <= 2e-3,
            f"d={result.dist_to_identity:.5f}",
        ),
        (
            "matches reference solution entrywise within 5e-4",
            entry_err <= 5e-4,
            f"max entry error={entry_err:.3e}",
        ),
        (
            "second admissible start reaches the same limit within 1e-8",
            thompson.distance(result.solution, second.solution) <= 1e-8,
            f"d(limit1, limit2)={thompson.distance(result.solution, second.solution):.3e}",
        ),
    ]
    report_criterion("criterion 1 (first example reproduction)", checks)


def test_criterion_2_second_example_reproduction():
    problem, file_x0, options = load("example_4_2.json")
    checks = []
    starts = [
        ("diag(e, 1, 1/e)", file_x0),
        ("seeded ball point of radius 4", random_pd_in_ball(3, 4.0, 77)),
    ]
    for label, start in starts:
        result = matrix_solver.solve(problem, x0=start, options=options)
        entry_err = float(np.abs(result.solution - np.eye(3)).max())
        worst_residual = max(result.residual1, result.residual2)
        checks.append(
            (
                f"identity solution from {label} within 1e-10",
                entry_err <= 1e-10,
                f"max entry error={entry_err:.3e}",
            )
        )
        checks.append(
            (
                f"residuals <= 1e-12 from {label}",
                worst_residual <= 1e-12,
                f"residuals=({result.residual1:.3e}, {result.residual2:.3e})",
            )
        )
    report_criterion("criterion 2 (second example reproduction)", checks)


def test_criterion_3_thompson_metric_suite():
    rng = np.random.default_rng(300)
    triples = 0
    worst = {
        "symmetry": 0.0,
        "triangle": 0.0,
        "inversion": 0.0,
        "congruence": 0.0,
        "power": 0.0,
        "sum": 0.0,
        "diagonal": 0.0,
    }
    for n in (2, 3, 4):
        for _ in range(36):
            triples += 1
            a, b, c, d = (random_pd(rng, n) for _ in range(4))
            dab, dba = thompson.distance(a, b), thompson.distance(b, a)
            assert dab == dba  # exact by construction
            assert thompson.distance(a, a) <= 1e-10
            worst["triangle"] = max(
                worst["triangle"],
                thompson.distance(a, c) - (dab + thompson.distance(b, c)),
            )
            a_point, b_point = hpd_core.pd_point(a), hpd_core.pd_point(b)
            d_inv = thompson.distance(a_point.powered(-1), b_point.powered(-1))
            worst["inversion"] = max(worst["inversion"], abs(d_inv - dab))
            m = random_nonsingular(rng, n)
            d_cong = thompson.distance(m @ a @ m.conj().T, m @ b @ m.conj().T)
            worst["congruence"] = max(worst["congruence"], abs(d_cong - dab))
            for r in (-1.0, -0.5, 1 / 3, 0.5, 1.0):
                d_r = thompson.distance(a_point.powered(r), b_point.powered(r))
                worst["power"] = max(worst["power"], d_r - abs(r) * dab)
            worst["sum"] = max(
                worst["sum"],
                thompson.distance(a + b, c + d)
                - max(thompson.distance(a, c), thompson.distance(b, d)),
                thompson.distance(a + b, a + d)
                - thompson.distance(b, d),
            )
            diag_a = np.exp(rng.uniform(-2, 2, n))
            diag_b = np.exp(rng.uniform(-2, 2, n))
            closed_form = float(np.abs(np.log(diag_a / diag_b)).max())
            worst["diagonal"] = max(
                worst["diagonal"],
                abs(thompson.distance(np.diag(diag_a), np.diag(diag_b)) - closed_form),
            )
    checks = [
        ("at least 100 seeded triples", triples >= 100, f"{triples} triples"),
        ("triangle inequality within 1e-9", worst["triangle"] <= 1e-9, f"worst={worst['triangle']:.2e}"),
        ("inversion invariance within 1e-9", worst["inversion"] <= 1e-9, f"worst={worst['inversion']:.2e}"),
        ("congruence invariance within 1e-9", worst["congruence"] <= 1e-9, f"worst={worst['congruence']:.2e}"),
        ("power inequality within 1e-9", worst["power"] <= 1e-9, f"worst={worst['power']:.2e}"),
        ("sum inequality within 1e-9", worst["sum"] <= 1e-9, f"worst={worst['sum']:.2e}"),
        ("diagonal closed form within 1e-12", worst["diagonal"] <= 1e-12, f"worst={worst['diagonal']:.2e}"),
    ]
    report_criterion("criterion 3 (Thompson metric suite)", checks)


def test_criterion_4_engine_oracle_equivalence():
    alpha = psi_family.alpha_effective(psi_family.linear(0.0, 1 / 3, 1 / 4))
    trace = iterate_pair(
        lambda points: [abs(x - y) for x, y in zip(points, points[1:])],
        lambda x: x / 4,
        lambda x: x / 5,
        1.0,
        bound=lambda x, y: abs(x - y),
    )
    value = 1.0
    step_err = 0.0
    for k in range(1, len(trace.points)):
        value = value / 4 if k % 2 == 1 else value / 5
        step_err = max(step_err, abs(trace.points[k] - value))
    bound_ok = all(
        abs(trace.points[n]) <= error_bound(alpha, trace.gaps[0], n)
        for n in range(1, len(trace.points))
    )
    checks = [
        ("alpha certified as 7/12", alpha == pytest.approx(7 / 12), f"alpha={alpha}"),
        ("iterates match brute-force simulation to 1e-14", step_err <= 1e-14, f"worst={step_err:.2e}"),
        ("a-priori bound holds at every step", bound_ok, f"steps={len(trace.gaps)}"),
        ("limit is 0", abs(trace.points[-1]) <= 1e-12, f"limit={trace.points[-1]:.2e}"),
    ]
    report_criterion("criterion 4 (engine oracle equivalence)", checks)


def test_criterion_5_gap_behavior_on_example_fixtures():
    checks = []
    for name in ("example_4_1.json", "example_4_2.json"):
        problem, file_x0, options = load(name)
        result, _ = solve_collecting_partial(problem, file_x0, options)
        gaps = result.trace.gaps
        violations = sum(1 for i in range(1, len(gaps) - 1) if gaps[i + 1] > gaps[i])
        terminal_ratio = gaps[-1] / gaps[-2]
        checks.append(
            (
                f"{name}: gaps nonincreasing after step 1",
                violations == 0,
                f"{violations} increases over {len(gaps)} gaps",
            )
        )
        checks.append(
            (
                f"{name}: terminal gap ratio < 1",
                terminal_ratio < 1.0,
                f"ratio={terminal_ratio:.6f}",
            )
        )
    report_criterion("criterion 5a (gap behavior on example fixtures)", checks)


def test_criterion_5_type1_map_contraction_on_passing_reports():
    half_power = matrix_solver.problem_type1(
        n=2, A=[np.eye(2)], Q1=np.eye(2), Q2=np.eye(2), s=2,
        F=matrix_solver.power(0.5), G=matrix_solver.power(0.5), a=1, l=0.5,
    )
    cases = [
        ("check_pass_constant", load("check_pass_constant.json")[0]),
        ("quadratic_pass", load("quadratic_pass.json")[0]),
        ("half_power", half_power),
    ]
    rng = np.random.default_rng(500)
    checks = []
    for label, problem in cases:
        report = matrix_solver.check_conditions(problem, samples=40, seed=13)
        assert report.passed
        t1, t2 = matrix_solver.maps_for(problem)
        ratio = problem.l / problem.s
        worst = float("-inf")
        for _ in range(20):
            x = random_pd_in_ball(problem.n, problem.a, rng)
            y = random_pd_in_ball(problem.n, problem.a, rng)
            worst = max(
                worst,
                thompson.distance(t1(x), t2(y)) - ratio * thompson.distance(x, y),
            )
        checks.append(
            (
                f"{label}: d(T1 X, T2 Y) <= (l/s) d(X, Y) + 1e-9",
                worst <= 1e-9,
                f"worst margin={worst:.2e}",
            )
        )
    report_criterion("criterion 5b (type1 map contraction)", checks)


def test_criterion_6_condition_checker_correctness(tmp_path):
    checks = []
    out_pass = tmp_path / "pass.json"
    code_pass = cli.main(
        ["check", str(fixture_path("check_pass_constant.json")), "--out", str(out_pass)]
    )
    checks.append(("constant-function fixture exits 0", code_pass == 0, f"exit={code_pass}"))

    out_fail = tmp_path / "fail.json"
    code_fail = cli.main(
        ["check", str(fixture_path("check_fail_power.json")), "--out", str(out_fail)]
    )
    checks.append(("violating fixture exits 3", code_fail == 3, f"exit={code_fail}"))

    report = json.loads(out_fail.read_text())
    worst = report["conditions"]["B"]["worst"]
    problem, _, _ = load("check_fail_power.json")
    x = hpd_core.matrix_from_literal(worst["X"])
    y = hpd_core.matrix_from_literal(worst["Y"])
    lhs = thompson.distance(
        apply_F(problem.F, x), apply_F(problem.G, y)
    )
    rhs = problem.l * thompson.distance(x, y)
    checks.append(
        (
            "witness violation re-evaluates as genuine",
            lhs > rhs and lhs == pytest.approx(worst["lhs"], rel=1e-9),
            f"recomputed lhs={lhs:.6f} > rhs={rhs:.6f}",
        )
    )

    for name in ("example_4_1.json", "example_4_2.json"):
        outs = []
        for run in range(2):
            out = tmp_path / f"{name}.{run}.json"
            cli.main(["check", str(fixture_path(name)), "--out", str(out)])
            outs.append(out.read_bytes())
        checks.append(
            (f"{name} checker report byte-stable", outs[0] == outs[1], f"{len(outs[0])} bytes")
        )
    report_criterion("criterion 6 (condition checker correctness)", checks)


def test_criterion_7_determinism(tmp_path):
    checks = []
    for name in ("example_4_2.json", "quadratic_pass.json"):
        csvs = []
        for run in range(2):
            out = tmp_path / f"{name}.{run}.csv"
            code = cli.main(["solve", str(fixture_path(name)), "--out", str(out)])
            assert code == 0
            csvs.append(out.read_bytes())
        checks.append((f"{name} trace bytes identical", csvs[0] == csvs[1], f"{len(csvs[0])} bytes"))

    # condition sampling is ordered by sample index, so repeated runs must agree
    problem, _, _ = load("check_fail_power.json")
    r1 = matrix_solver.check_conditions(problem, samples=60, seed=5).to_jsonable()
    r2 = matrix_solver.check_conditions(problem, samples=60, seed=5).to_jsonable()
    checks.append(("checker reports identical across runs", r1 == r2, "60 samples"))
    report_criterion("criterion 7 (determinism)", checks)
