"""The compiled iteration maps and the residuals against their
kernel-by-kernel oracle in ``tests/map_oracle.py``: whole traces, a map of
a stack, the residuals of points and stacks, and the errors of a
right-hand side that overflows or is not positive definite, bit for bit
and message for message."""

import dataclasses

import numpy as np
import pytest

import map_oracle
from helpers import known_answer_files, random_pd_in_ball
from tfp import cli, hpd_core, matrix_solver, thompson
from tfp.errors import NonHermitianInput, NotPositiveDefinite, TfpError
from tfp.fixpoint_engine import iterate_pair
from tfp.fixtures import fixture_path

FIXTURES = ["check_fail_power", "check_pass_constant", "example_4_1", "example_4_2", "quadratic_pass"]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_points(got, want):
    assert same_bits(got.matrix, want.matrix)
    assert same_bits(got.dec.eigenvalues, want.dec.eigenvalues)
    assert same_bits(got.dec.vectors, want.dec.vectors)


def assert_same_traces(got, want):
    assert got.stop_reason == want.stop_reason
    assert same_bits(got.gaps, want.gaps)
    assert len(got.points) == len(want.points)
    for a, b in zip(got.points, want.points):
        assert_same_points(a, b)


def problems(tmp_path):
    """The fixtures and ``known_answer.problems(n, 4, 7)`` for n = 5, 8, 16."""
    paths = [fixture_path(f"{name}.json") for name in FIXTURES]
    for n in (5, 8, 16):
        paths += known_answer_files(tmp_path, n, 4, 7)
    return [cli.load_problem(path) for path in paths]


def oracle_trace(problem, x0, options):
    """The trace of the oracle maps from a start decomposed by eigh."""
    start = hpd_core.pd_point(hpd_core.identity(problem.n) if x0 is None else x0)
    t1, t2 = map_oracle.maps_for(problem)
    kwargs = {"gap_tol": options.gap_tol, "max_iter": options.max_iter}
    return iterate_pair(thompson.gaps, t1, t2, start, bound=thompson.spectral_distance, **kwargs)


def test_solve_traces_match_the_oracle(tmp_path):
    # the compiled maps and the identity start known without an eigensolve
    for problem, x0, options in problems(tmp_path):
        want = oracle_trace(problem, x0, options)
        try:
            got = matrix_solver.solve(problem, x0, dataclasses.replace(options, force=True)).trace
        except TfpError as exc:  # example_4_1 runs to max_iter
            got = exc.result.trace
        assert_same_traces(got, want)


def test_a_map_of_a_stack_is_the_map_of_each_point(tmp_path):
    for problem, x0, options in problems(tmp_path)[:8]:
        points = oracle_trace(problem, x0, dataclasses.replace(options, max_iter=6)).points
        points += [random_pd_in_ball(problem.n, 0.5, seed) for seed in range(3)]
        stack = hpd_core.PDPoint.stacked(points)
        for t, oracle in zip(matrix_solver.maps_for(problem), map_oracle.maps_for(problem)):
            mapped = t(stack)
            assert_same_points(mapped, oracle(stack))
            for i, point in enumerate(points):
                assert_same_points(mapped[i], t(point))
                assert_same_points(t(point), oracle(point))


def test_a_map_of_a_matrix_is_the_map_of_its_point():
    problem, _, _ = cli.load_problem(fixture_path("example_4_2.json"))
    x = random_pd_in_ball(problem.n, 0.5, 2)
    for t in matrix_solver.maps_for(problem):
        assert_same_points(t(x.matrix), t(hpd_core.pd_point(x.matrix)))


def test_residuals_match_the_oracle(tmp_path):
    # the certificate of a map's fixed point does not share its right-hand side
    for problem, x0, options in problems(tmp_path):
        points = oracle_trace(problem, x0, options).points[-4:]
        points += [random_pd_in_ball(problem.n, 0.5, seed) for seed in range(3)]
        stacked = matrix_solver.residuals(problem, hpd_core.PDPoint.stacked(points))
        for i, point in enumerate(points):
            want = map_oracle.residuals(problem, point)
            assert same_bits(matrix_solver.residuals(problem, point), want)
            assert same_bits([r[i] for r in stacked], want)


def raised(t, x):
    with pytest.raises(TfpError) as info:
        t(x)
    return type(info.value), str(info.value)


def test_right_hand_side_errors_keep_their_names_and_messages():
    eye = np.eye(3)
    power_one = dict(s=2, F=matrix_solver.power(1), G=matrix_solver.power(1), a=1, l=1)
    # X with eigenvalues up to e^300 loses the small end of I + X: the
    # right-hand side's smallest eigenvalue falls below the floor
    problem = matrix_solver.problem_type1(n=3, A=[eye], Q1=eye, Q2=eye, **power_one)
    (t, _), (oracle, _) = matrix_solver.maps_for(problem), map_oracle.maps_for(problem)
    for x in [random_pd_in_ball(3, 300, seed) for seed in range(3)] + [
        random_pd_in_ball(3, 300, 0, (3,))
    ]:
        error, message = raised(t, x)
        assert error is NotPositiveDefinite
        assert message.startswith("map right-hand side must be positive definite (min eigenvalue ")
        assert (error, message) == raised(oracle, x)
    # 1e308 I + (2 I)* X (2 I) overflows to inf
    big = 1e308 * eye
    problem = matrix_solver.problem_type1(n=3, A=[2 * eye], Q1=big, Q2=big, **power_one)
    (t, _), (oracle, _) = matrix_solver.maps_for(problem), map_oracle.maps_for(problem)
    with np.errstate(over="ignore", invalid="ignore"):
        error, message = raised(t, hpd_core.pd_point(big))
        assert (error, message) == (NonHermitianInput, "map right-hand side contains non-finite entries")
        assert (error, message) == raised(oracle, hpd_core.pd_point(big))
