"""Work counters of the alternating step, counted while ``iterate_pair``
runs inside ``solve``: eigensolve calls per map application, the points'
matrices formed, and the Python calls made inside the package per
iteration; and of a condition check: witness literals, eigensolves,
point powers and generator draw calls per block.  The counts repeat
exactly from run to run, unlike wall time."""

import contextlib
import io
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import GENERAL_BRANCH, CountingGenerator, general_branch_file, known_answer_files, random_pd_in_ball
from tfp import cli, hpd_core, matrix_solver
from tfp.fixtures import fixture_path

PACKAGE = str(Path(hpd_core.__file__).resolve().parent)
FIXTURES = ["check_fail_power", "check_pass_constant", "example_4_1", "example_4_2", "quadratic_pass"]


@pytest.fixture
def step_work(monkeypatch):
    """Counts, over the iterations of every solve: ``eig`` calls of
    ``eig_hermitian``, ``rhs`` of them on a map's right-hand side, ``maps``
    applied, point matrices ``formed`` from their decompositions,
    ``calls`` of Python functions defined in the package and
    ``iterations`` in the traces."""
    work = dict(eig=0, rhs=0, maps=0, formed=0, calls=0, iterations=0)
    inside = [False]
    eig, iterate, maps_for = hpd_core.eig_hermitian, matrix_solver.iterate_pair, matrix_solver.maps_for
    spectral_matrix = hpd_core._spectral_matrix

    def counting_eig(*args, **kwargs):
        work["eig"] += inside[0]
        work["rhs"] += inside[0] and args[1:2] == ("map right-hand side",)
        return eig(*args, **kwargs)

    def counting_spectral_matrix(*args):
        work["formed"] += inside[0]
        return spectral_matrix(*args)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            work["calls"] += 1

    def counting_iterate(*args, **kwargs):
        inside[0], previous = True, sys.getprofile()
        sys.setprofile(profile)
        try:
            trace = iterate(*args, **kwargs)
        finally:
            sys.setprofile(previous)
            inside[0] = False
        work["iterations"] += trace.iterations
        return trace

    def counted(t):
        def step(x):
            work["maps"] += 1
            return t(x)

        return step

    monkeypatch.setattr(hpd_core, "eig_hermitian", counting_eig)
    monkeypatch.setattr(hpd_core, "_spectral_matrix", counting_spectral_matrix)
    monkeypatch.setattr(matrix_solver, "iterate_pair", counting_iterate)
    monkeypatch.setattr(matrix_solver, "maps_for", lambda problem: tuple(map(counted, maps_for(problem))))
    return work


def solve_files(paths, out, *flags):
    """``tfp solve`` on each problem file, as shipped or with ``flags``."""
    for path in paths:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(["solve", str(path), "--out", str(out), *flags])


def test_eigensolves_per_iteration(step_work, tmp_path):
    # one call per map, for its root, and one stacked call for the pending
    # gaps at each step whose spectra cannot rule it out as the stop; the
    # maps and the gaps read the points' decompositions, so the iteration
    # forms no point's matrix; a constant map's point is decomposed when the
    # map is built, so check_pass_constant's map steps make no eigensolve
    solve_files(known_answer_files(tmp_path, 16, 4, 1), tmp_path / "trace.csv")
    assert (step_work["eig"], step_work["maps"], step_work["formed"]) == (55, 50, 0)
    assert round(step_work["eig"] / step_work["maps"], 2) == 1.1
    step_work.update(eig=0, maps=0)
    solve_files([fixture_path(f"{name}.json") for name in FIXTURES], tmp_path / "trace.csv")
    assert (step_work["eig"], step_work["maps"], step_work["formed"]) == (239, 237, 0)
    assert round(step_work["eig"] / step_work["maps"], 2) == 1.01


def test_a_constant_map_makes_no_eigensolve(step_work, tmp_path):
    # with F and G constant, T1(X) and T2(X) are one point each for every
    # X, decomposed when the maps are built: the forced solve alternates
    # between the two points until its step budget runs out, and its
    # eigensolves are the gaps' alone
    solve_files([general_branch_file(tmp_path, "two-constants")], tmp_path / "trace.csv", "--force")
    assert (step_work["iterations"], step_work["maps"], step_work["rhs"]) == (500, 500, 0)


@pytest.mark.parametrize("name", ["example_4_1", "example_4_2"])
def test_a_map_makes_one_eigensolve(monkeypatch, name):
    problem, _, _ = cli.load_problem(fixture_path(f"{name}.json"))
    point = random_pd_in_ball(problem.n, 0.5, 3)
    calls, eig = [], hpd_core.eig_hermitian
    monkeypatch.setattr(hpd_core, "eig_hermitian", lambda *args, **kwargs: calls.append(args) or eig(*args, **kwargs))
    for t in matrix_solver.maps_for(problem):
        calls.clear()
        t(point)
        assert len(calls) == 1


# Python calls inside the package per iteration, capped at today's counts
# (1630 and 158 calls); with maps built kernel by kernel they read 20.2
# and 18.7, and with the pending gaps taken 16 steps at a time, 9.6 and
# 9.875 (example_4_1's 200 steps made 13 gaps calls, now one)
@pytest.mark.parametrize("name, iterations, per_iteration", [("example_4_1", 200, 8.15), ("example_4_2", 16, 9.875)])
def test_python_calls_per_iteration(step_work, tmp_path, name, iterations, per_iteration):
    solve_files([fixture_path(f"{name}.json")], tmp_path / "trace.csv")
    assert step_work["iterations"] == iterations
    assert step_work["calls"] / iterations <= per_iteration


# Work of one check_conditions run, each a single block of samples:
# matrix_to_literal calls (a witness's X, and Y for a pair condition, built
# for the worst sample only), eig_hermitian calls and the matrices they
# decompose, EigenDecomposition.powered calls, generator draw calls and
# _haar_unitaries calls.  A type2 block reads F's and G's spectra, so it
# powers no point; a type1 block with power F and G powers none either:
# the pencils of d(F(X), G(Y)) and d(X, Y) read the pairs' spectra and W,
# and are decomposed in one call, and the right-hand sides of T1(X) and
# T2(X), for condition (C), are formed from X's eigenvalues ** p and U and
# decomposed in one call.  A constant map's right-hand side is decomposed
# once per check, so check_pass_constant decomposes 202 matrices (600
# when each sample formed both), in one call per map and one for d(X, Y).
# A constant F or G is its own single point, broadcast over the block:
# two distinct constants make one pencil per check, so two-constants
# decomposes 203 matrices, and beside a power one pencil per sample.
# A block draws its spectra and W in two generator calls, and U in a
# third where a term reads it (type1 with a power F or G); W is built
# with the block, in one _haar_unitaries call, and U in a second where it
# is read (constant-F and constant-G read U for G(Y) or F(X) and for the
# power map).  The matrices
# per sample are as many as when X and Y were drawn each with its own
# unitary (4 per type1 sample, 1 per type2 sample, plus the wide pencils'
# second eigensolves), but where F and G are both X -> X**1
# (check_fail_power, quadratic_pass): d(F(X), G(Y)) is then d(X, Y), one
# pencil per sample, so they decompose 600 matrices (800 when both
# pencils were stacked); example_4_1 and example_4_2 decompose 1097 and 285
# matrices (1086 and 276 before): their wide balls (radius 10 and
# r*a = 4) give other samples, and so another count of wide pencils.
CHECK_WORK = {
    "check_fail_power": (5, 2, 600, 0, 3, 2),
    "check_pass_constant": (5, 3, 202, 0, 2, 1),
    "example_4_1": (5, 4, 1097, 0, 3, 2),
    "example_4_2": (3, 2, 285, 0, 2, 1),
    "quadratic_pass": (5, 2, 600, 0, 3, 2),
    "known-type1": (5, 3, 41, 0, 3, 2),
    "known-type2": (3, 1, 20, 0, 2, 1),
    "constant-F": (5, 7, 857, 1, 3, 2),
    "constant-G": (5, 7, 849, 1, 3, 2),
    "two-constants": (5, 4, 203, 0, 2, 1),
    "two-constants-far-Q": (5, 5, 204, 0, 2, 1),
    "type2-constant-F": (3, 2, 285, 0, 2, 1),
}
DRAWS_COLUMN = 4


@pytest.fixture
def check_work(monkeypatch):
    work = dict(literals=0, eig=0, matrices=0, powered=0, generators=[], haar=0)
    literal, eig, powered = matrix_solver.matrix_to_literal, hpd_core.eig_hermitian, hpd_core.EigenDecomposition.powered
    sampler, haar = matrix_solver.sample_ball_pairs, hpd_core._haar_unitaries

    def counting_literal(*args, **kwargs):
        work["literals"] += 1
        return literal(*args, **kwargs)

    def counting_eig(m, *args, **kwargs):
        work["eig"] += 1
        work["matrices"] += math.prod(np.shape(m)[:-2])
        return eig(m, *args, **kwargs)

    def counting_powered(*args, **kwargs):
        work["powered"] += 1
        return powered(*args, **kwargs)

    def counting_haar(z):
        work["haar"] += 1
        return haar(z)

    def counting_sampler(n, radius, streams, count):
        # counting generators on the check's own bit generators draw its
        # streams, so the check's samples do not change; a block draws U
        # after it is returned, so its generators are counted at the end
        counting = tuple(CountingGenerator(stream.bit_generator) for stream in streams)
        work["generators"] += counting
        return sampler(n, radius, counting, count)

    monkeypatch.setattr(matrix_solver, "matrix_to_literal", counting_literal)
    monkeypatch.setattr(matrix_solver, "sample_ball_pairs", counting_sampler)
    monkeypatch.setattr(hpd_core, "eig_hermitian", counting_eig)
    monkeypatch.setattr(hpd_core.EigenDecomposition, "powered", counting_powered)
    monkeypatch.setattr(hpd_core, "_haar_unitaries", counting_haar)
    return work


def draw_calls(work):
    return sum(generator.calls for generator in work["generators"])


def checks(tmp_path):
    """(label, problem, samples, seed) of the fixtures at their shipped
    samples and seeds, of the check-sampling benchmark's seed-1 problems
    at its samples (10 per type1 problem, 20 per type2) and of the
    fixtures with a constant F or G (``GENERAL_BRANCH``)."""
    for name in FIXTURES:
        problem, _, options = cli.load_problem(fixture_path(f"{name}.json"))
        yield name, problem, options.samples, options.seed
    for path in known_answer_files(tmp_path, 8, 4, 1):
        problem, _, _ = cli.load_problem(path)
        yield f"known-{problem.kind}", problem, 10 if problem.kind == matrix_solver.TYPE1 else 20, 1
    for label in GENERAL_BRANCH:
        problem, _, options = cli.load_problem(general_branch_file(tmp_path, label))
        yield label, problem, options.samples, options.seed


def test_condition_check_work(check_work, tmp_path):
    # every check's counts are compared at once, so a failure shows them all
    got = []
    for label, problem, samples, seed in checks(tmp_path):
        assert samples <= hpd_core._block_size(problem.n)
        check_work.update(literals=0, eig=0, matrices=0, powered=0, generators=[], haar=0)
        matrix_solver.check_conditions(problem, samples, seed)
        counts = tuple(check_work[key] for key in ("literals", "eig", "matrices", "powered"))
        got.append((label, (*counts, draw_calls(check_work), check_work["haar"])))
    assert got == [(label, CHECK_WORK[label]) for label, _ in got]
    assert {label for label, _ in got} == set(CHECK_WORK)


def test_draw_calls_per_block(check_work, tmp_path, monkeypatch):
    # blocks of 7 samples: a fixture's 200 samples take 29 blocks; the
    # matrices decomposed do not depend on the blocks, as what is one value
    # for all samples (d(Q1, Q2), a constant map's distance, two constants'
    # d(F(X), G(Y))) is decomposed once per check
    for label, problem, samples, seed in checks(tmp_path):
        monkeypatch.setattr(hpd_core, "_BLOCK_ENTRIES", 7 * problem.n**2)
        check_work.update(matrices=0, generators=[])
        matrix_solver.check_conditions(problem, samples, seed)
        assert draw_calls(check_work) == CHECK_WORK[label][DRAWS_COLUMN] * math.ceil(samples / 7), label
        assert check_work["matrices"] == CHECK_WORK[label][2], label


# Python calls inside the package per condition check (sys.setprofile, as
# test_python_calls_per_iteration counts them), exactly.  The distances'
# logs and the literal forms' powers are numpy's, one C call per array, so
# a check's calls do not grow with its samples; with a Python log and
# power per sample through object ufuncs, a 200-sample check made about
# 400 more (505 on quadratic_pass).
CHECK_CALLS = {
    "check_fail_power": 110,
    "check_pass_constant": 112,
    "example_4_1": 123,
    "example_4_2": 71,
    "quadratic_pass": 108,
    "known-type1": 117,
    "known-type2": 67,
    "constant-F": 149,
    "constant-G": 148,
    "two-constants": 120,
    "two-constants-far-Q": 129,
    "type2-constant-F": 71,
}


def test_python_calls_per_condition_check(tmp_path):
    calls = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls[0] += 1

    got = []
    for label, problem, samples, seed in checks(tmp_path):
        calls[0], previous = 0, sys.getprofile()
        sys.setprofile(profile)
        try:
            matrix_solver.check_conditions(problem, samples, seed)
        finally:
            sys.setprofile(previous)
        got.append((label, calls[0]))
    assert got == [(label, CHECK_CALLS[label]) for label, _ in got]
    assert {label for label, _ in got} == set(CHECK_CALLS)
