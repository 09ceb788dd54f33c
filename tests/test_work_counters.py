"""The ledger of work: every work budget of the package, counted by one
fixture.

Of the alternating step, counted while ``iterate_pair`` runs inside
``solve``: eigensolve calls per map application, the points' matrices
formed, and the Python calls made inside the package per iteration; of
the trace rows: eigensolves per row (none); of a condition check:
witness literals, eigensolves and the matrices they decompose, point
powers, generator draw calls and Python calls, per block and per sample;
and Hermitian checks per solve, per check and per pass of each
benchmark workload.  The counts repeat exactly from run to run, unlike
wall time.
"""

import contextlib
import dataclasses
import io
import json
import math
import sys
from collections import Counter, defaultdict
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import sampling_oracle
from helpers import (
    GENERAL_BRANCH,
    CountingGenerator,
    general_branch_file,
    known_answer_files,
    random_nonsingular,
    random_pd,
    random_pd_in_ball,
    random_unitary,
)
from tfp import cli, hpd_core, matrix_solver
from tfp.errors import MaxIterationsExceeded
from tfp.fixtures import fixture_path

PACKAGE = str(Path(hpd_core.__file__).resolve().parent)
FIXTURES = ["check_fail_power", "check_pass_constant", "example_4_1", "example_4_2", "quadratic_pass"]

# Functions counted call by call, wherever the package holds them by name
COUNTED = (
    hpd_core.eig_hermitian,
    hpd_core.require_hermitian,
    hpd_core.matrix_to_literal,
    hpd_core._spectral_matrix,
    hpd_core._haar_unitaries,
)
# The phases a call is counted in, and in which package Python calls are counted
PHASES = (matrix_solver.iterate_pair, matrix_solver.check_conditions, cli.trace_rows)


class Call(NamedTuple):
    phase: str | None
    args: tuple
    kwargs: dict


class Work:
    """What the counted functions did while a test ran.  ``calls[name]``
    lists each call of ``name`` with the phase running at the call (a
    ``PHASES`` name, or None); "map" names a map's application and
    "powered" ``EigenDecomposition.powered``.  ``python[phase]`` counts
    the Python calls made inside the package in each phase, ``returned``
    lists what each run of a phase returned, and ``generators`` are the
    counting generators that drew the condition checks' blocks."""

    def __init__(self):
        self.calls, self.returned = defaultdict(list), defaultdict(list)
        self.python, self.generators, self.phase = Counter(), [], None

    def clear(self):
        self.__init__()

    def of(self, name, phase=...):
        """The calls of ``name``, in ``phase`` or in any."""
        return [call for call in self.calls[name] if phase is ... or call.phase == phase]

    @property
    def iterations(self):
        return sum(trace.iterations for trace in self.returned["iterate_pair"])

    @property
    def draws(self):
        return sum(generator.calls for generator in self.generators)


def matrices(calls):
    """The matrices that ``eig_hermitian`` calls decomposed, a stack's each."""
    return sum(math.prod(np.shape(call.args[0])[:-2]) for call in calls)


def with_vectors(calls):
    return [call.kwargs.get("vectors", True) for call in calls]


@pytest.fixture
def work(monkeypatch):
    """The ledger ``Work`` of a test: each counted function, phase,
    ``build_map`` and ``sample_ball_pairs`` is wrapped once, in every
    package module that holds it by name, and ``powered`` on its class.
    A check's blocks are drawn by counting generators on the check's own
    bit generators, so its samples do not change."""
    ledger = Work()

    def counted(name, original):
        def call(*args, **kwargs):
            ledger.calls[name].append(Call(ledger.phase, args, kwargs))
            return original(*args, **kwargs)

        return call

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            ledger.python[ledger.phase] += 1

    def phase(original):
        def run(*args, **kwargs):
            outer, previous = ledger.phase, sys.getprofile()
            ledger.phase = original.__name__
            sys.setprofile(profile)
            try:
                result = original(*args, **kwargs)
            finally:
                sys.setprofile(previous)
                ledger.phase = outer
            ledger.returned[original.__name__].append(result)
            return result

        return run

    build_map, sampler = matrix_solver.build_map, matrix_solver.sample_ball_pairs

    def counting_sampler(n, radius, streams, count):
        ledger.generators += (counting := tuple(CountingGenerator(stream.bit_generator) for stream in streams))
        return sampler(n, radius, counting, count)

    wrappers = {original: counted(original.__name__, original) for original in COUNTED}
    wrappers.update((original, phase(original)) for original in PHASES)
    wrappers[build_map] = lambda *args: counted("map", build_map(*args))
    wrappers[sampler] = counting_sampler
    modules = [module for name, module in sys.modules.items() if name.split(".")[0] == "tfp"]
    for original, wrapper in wrappers.items():
        for module in modules:
            if getattr(module, original.__name__, None) is original:
                monkeypatch.setattr(module, original.__name__, wrapper)
    powered = hpd_core.EigenDecomposition.powered
    monkeypatch.setattr(hpd_core.EigenDecomposition, "powered", counted("powered", powered))
    return ledger


def load(name):
    return cli.load_problem(fixture_path(f"{name}.json"))


def run_cli(*argv):
    """``cli.main`` on ``argv``, its output discarded; its exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(map(str, argv)))


def solve_files(paths, out, *flags):
    """``tfp solve`` on each problem file, as shipped or with ``flags``."""
    for path in paths:
        run_cli("solve", path, "--out", out, *flags)


# ---------------------------------------------------------------------------
# The iteration and the trace rows


def test_eigensolves_per_iteration(work, tmp_path):
    # one call per map, for its root, and one stacked call for the pending
    # gaps at each step whose spectra cannot rule it out as the stop; the
    # maps and the gaps read the points' decompositions, so the iteration
    # forms no point's matrix; a constant map's point is decomposed when the
    # map is built, so check_pass_constant's map steps make no eigensolve
    def counts():
        eig, maps = work.of("eig_hermitian", "iterate_pair"), work.of("map", "iterate_pair")
        return len(eig), len(maps), len(work.of("_spectral_matrix", "iterate_pair"))

    solve_files(known_answer_files(tmp_path, 16, 4, 1), tmp_path / "trace.csv")
    eig, maps, formed = counts()
    assert (eig, maps, formed) == (55, 50, 0)
    assert round(eig / maps, 2) == 1.1
    work.clear()
    solve_files([fixture_path(f"{name}.json") for name in FIXTURES], tmp_path / "trace.csv")
    eig, maps, formed = counts()
    assert (eig, maps, formed) == (239, 237, 0)
    assert round(eig / maps, 2) == 1.01


def test_trace_rows_decompose_nothing(work, tmp_path):
    # a trace row reads its point's known spectrum: one row per iteration,
    # and no eigensolve, over the solves of test_eigensolves_per_iteration
    def rows():
        tables = [len(table) for table in work.returned["trace_rows"]]
        assert tables == [trace.iterations for trace in work.returned["iterate_pair"]]
        assert work.of("eig_hermitian", "trace_rows") == []
        return len(tables)

    solve_files(known_answer_files(tmp_path, 16, 4, 1), tmp_path / "trace.csv")
    assert rows() == 4
    work.clear()
    solve_files([fixture_path(f"{name}.json") for name in FIXTURES], tmp_path / "trace.csv")
    assert rows() == 4  # check_fail_power's solve stops at its check


def test_a_constant_map_makes_no_eigensolve(work, tmp_path):
    # with F and G constant, T1(X) and T2(X) are one point each for every
    # X, decomposed when the maps are built: the forced solve alternates
    # between the two points until its step budget runs out, and its
    # eigensolves are the gaps' alone
    solve_files([general_branch_file(tmp_path, "two-constants")], tmp_path / "trace.csv", "--force")
    rhs = [call for call in work.of("eig_hermitian", "iterate_pair") if call.args[1:2] == ("map right-hand side",)]
    assert (work.iterations, len(work.of("map", "iterate_pair")), len(rhs)) == (500, 500, 0)


@pytest.mark.parametrize("name", ["example_4_1", "example_4_2"])
def test_maps_build_without_eigensolves_and_residuals_decompose_a_matrix_once(work, name):
    # every term of both residuals reads X's spectrum
    problem, _, _ = load(name)
    x = random_pd_in_ball(problem.n, 0.5, 4)
    work.clear()  # problem validation decomposes Q1, Q2 and A* A
    matrix_solver.maps_for(problem)
    assert len(work.of("eig_hermitian")) == 0
    matrix_solver.residuals(problem, x.matrix)
    assert len(work.of("eig_hermitian")) == 1
    matrix_solver.residuals(problem, x)
    assert len(work.of("eig_hermitian")) == 1


@pytest.mark.parametrize("name", ["example_4_1", "example_4_2"])
def test_a_map_makes_one_eigensolve(work, name):
    # a map applied makes one eigensolve, of its right-hand side
    problem, _, _ = load(name)
    x = random_pd_in_ball(problem.n, 0.5, 4)
    for t in matrix_solver.maps_for(problem):
        work.clear()
        t(x)
        assert len(work.of("eig_hermitian")) == 1


@pytest.mark.parametrize("name, max_iter", [("example_4_1", 20), ("example_4_2", 200)])
def test_two_eigensolves_per_iteration(work, name, max_iter):
    # matrices decomposed: one for the map's root and one for the gap per
    # iteration, plus x0 and the certificate of the solution; the gaps of
    # a block of steps are decomposed in one stacked call
    problem, x0, options = load(name)
    options = dataclasses.replace(options, force=True, max_iter=max_iter)
    work.clear()
    try:
        result = matrix_solver.solve(problem, x0=x0, options=options)
    except MaxIterationsExceeded as exc:
        result = exc.result
    iterations, eig = result.trace.iterations, work.of("eig_hermitian")
    assert iterations > 1
    # the identity start is known without an eigensolve
    start = 0 if x0 is None else 1
    assert matrices(eig) == 2 * iterations + 1 + start
    # eigenvectors for the map's root only, and for x0 and the certificate
    assert matrices(call for call, vectors in zip(eig, with_vectors(eig)) if vectors) == iterations + 1 + start
    if name == "example_4_1":
        assert len(eig) < 2 * iterations + 2


# Python calls inside the package per iteration, capped at today's counts
# (1630 and 158 calls); with maps built kernel by kernel they read 20.2
# and 18.7, and with the pending gaps taken 16 steps at a time, 9.6 and
# 9.875 (example_4_1's 200 steps made 13 gaps calls, now one)
@pytest.mark.parametrize("name, iterations, per_iteration", [("example_4_1", 200, 8.15), ("example_4_2", 16, 9.875)])
def test_python_calls_per_iteration(work, tmp_path, name, iterations, per_iteration):
    solve_files([fixture_path(f"{name}.json")], tmp_path / "trace.csv")
    assert work.iterations == iterations
    assert work.python["iterate_pair"] / iterations <= per_iteration


# ---------------------------------------------------------------------------
# Hermitian checks: a matrix is checked where it comes in, and nowhere else


def hermitian_names(work):
    return [call.args[1] for call in work.of("require_hermitian")]


def test_forced_solve_checks_do_not_grow_with_iterations(work):
    problem, x0, options = load("example_4_1")
    counts = []
    for max_iter in (10, 20):
        work.clear()
        with pytest.raises(MaxIterationsExceeded):
            matrix_solver.solve(problem, x0=x0, options=dataclasses.replace(options, force=True, max_iter=max_iter))
        counts.append(len(hermitian_names(work)))
    assert counts[0] == counts[1]


def test_condition_check_checks_do_not_grow_with_samples(work):
    problem = load("quadratic_pass")[0]
    counts = []
    for samples in (15, 30):
        work.clear()
        matrix_solver.check_conditions(problem, samples=samples, seed=8)
        counts.append(len(hermitian_names(work)))
    assert counts[0] == counts[1]


def test_certificate_does_not_check_the_solution_again(work):
    # the map's root made the returned matrix exactly Hermitian, so only
    # the start, which comes in from outside (a file x0), is checked
    problem, x0, options = load("example_4_2")
    assert x0 is not None
    work.clear()
    matrix_solver.solve(problem, x0=x0, options=dataclasses.replace(options, force=True))
    assert hermitian_names(work) == ["starting point"]


def test_identity_start_is_neither_checked_nor_decomposed(work, monkeypatch):
    problem, x0, options = load("quadratic_pass")
    assert x0 is None

    class Started(Exception):
        pass

    def started(gaps, t1, t2, u0, **kwargs):
        raise Started(u0)

    monkeypatch.setattr(matrix_solver, "iterate_pair", started)
    work.clear()
    with pytest.raises(Started) as info:
        matrix_solver.solve(problem, options=dataclasses.replace(options, force=True))
    assert hermitian_names(work) == [] and work.of("eig_hermitian") == []
    start = info.value.args[0]
    np.testing.assert_array_equal(start.matrix, np.eye(problem.n))
    np.testing.assert_array_equal(start.dec.eigenvalues, np.ones(problem.n))


def test_gram_check_computes_no_eigenvectors(work):
    # one Gram matrix A_i* A_i per coefficient, eigenvalues only; Q1 and
    # Q2 become points, with eigenvectors
    rng = np.random.default_rng(12)
    matrix_solver.problem_type1(
        n=3, A=[random_nonsingular(rng, 3) for _ in range(2)], Q1=random_pd(rng, 3), Q2=random_pd(rng, 3),
        s=2, F=matrix_solver.power(0.5), G=matrix_solver.power(0.5), a=1, l=1,
    )
    assert with_vectors(work.of("eig_hermitian")) == [False, False, True, True]


# The seed-1 pass of each benchmark workload, command for command as
# bench/workloads.py lists it, with each command's exit code
SERIES = ("--series", "gap", "--series", "bound", "--series", "residual")
# (check, solve) exit codes of the fixtures as shipped
FIXTURE_CODES = {
    "check_fail_power": (3, 3),
    "check_pass_constant": (0, 0),
    "example_4_1": (3, 4),
    "example_4_2": (3, 0),
    "quadratic_pass": (0, 0),
}


def fixtures_cli(out):
    """check, solve and plot on every fixture, as shipped."""
    for name, (check_code, solve_code) in FIXTURE_CODES.items():
        yield ("check", fixture_path(f"{name}.json"), "--out", out / f"{name}.check.json"), check_code
        yield ("solve", fixture_path(f"{name}.json"), "--out", out / f"{name}.csv"), solve_code
        if solve_code in (0, 4):
            yield ("plot", out / f"{name}.csv", *SERIES, "--out", out / f"{name}.svg"), 0


def solve_manufactured(out):
    """A solve and a plot of each n = 16 problem, each with a companion
    check of check_pass_constant at 20 samples."""
    for i, path in enumerate(known_answer_files(out, 16, 4, 1)):
        yield ("solve", path, "--out", out / f"{i}.csv"), 0
        yield ("plot", out / f"{i}.csv", *SERIES, "--out", out / f"{i}.svg"), 0
        companion = fixture_path("check_pass_constant.json")
        yield ("check", companion, "--out", out / f"c{i}.json", "--samples", 20, "--seed", 1), 0


def check_sampling(out):
    """A check of each n = 8 problem, 10 samples for type1 and 20 for
    type2, each with a companion solve and plot of example_4_2."""
    for i, path in enumerate(known_answer_files(out, 8, 4, 1)):
        samples = 10 if json.loads(path.read_text())["kind"] == matrix_solver.TYPE1 else 20
        yield ("check", path, "--out", out / f"{i}.check.json", "--samples", samples, "--seed", 1), 3
        yield ("solve", fixture_path("example_4_2.json"), "--out", out / f"c{i}.csv"), 0
        yield ("plot", out / f"c{i}.csv", *SERIES, "--out", out / f"c{i}.svg"), 0


@pytest.mark.parametrize(
    "workload, count",
    [(fixtures_cli, 23), (solve_manufactured, 24), (check_sampling, 14)],
    ids=["fixtures-cli", "solve-manufactured", "check-sampling"],
)
def test_hermitian_checks_per_pass(work, tmp_path, workload, count):
    for argv, code in workload(tmp_path):
        assert run_cli(*argv) == code, argv
    assert len(work.of("require_hermitian")) == count


# ---------------------------------------------------------------------------
# The condition check

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
# Every condition has a witness, built once: 5 literals per type1 check
# ((A) and (B) show Y), 3 per type2 check.
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


def checks(tmp_path):
    """(label, problem, samples, seed) of the fixtures at their shipped
    samples and seeds, of the check-sampling benchmark's seed-1 problems
    at its samples (10 per type1 problem, 20 per type2) and of the
    fixtures with a constant F or G (``GENERAL_BRANCH``)."""
    for name in FIXTURES:
        problem, _, options = load(name)
        yield name, problem, options.samples, options.seed
    for path in known_answer_files(tmp_path, 8, 4, 1):
        problem, _, _ = cli.load_problem(path)
        yield f"known-{problem.kind}", problem, 10 if problem.kind == matrix_solver.TYPE1 else 20, 1
    for label in GENERAL_BRANCH:
        problem, _, options = cli.load_problem(general_branch_file(tmp_path, label))
        yield label, problem, options.samples, options.seed


def test_condition_check_work(work, tmp_path):
    # every check's counts are compared at once, so a failure shows them all
    got = []
    for label, problem, samples, seed in checks(tmp_path):
        assert samples <= hpd_core._block_size(problem.n)
        work.clear()
        matrix_solver.check_conditions(problem, samples, seed)
        eig = work.of("eig_hermitian")
        counts = len(work.of("matrix_to_literal")), len(eig), matrices(eig), len(work.of("powered"))
        got.append((label, (*counts, work.draws, len(work.of("_haar_unitaries")))))
    assert got == [(label, CHECK_WORK[label]) for label, _ in got]
    assert {label for label, _ in got} == set(CHECK_WORK)


def test_draw_calls_per_block(work, tmp_path, monkeypatch):
    # blocks of 7 samples: a fixture's 200 samples take 29 blocks; the
    # matrices decomposed do not depend on the blocks, as what is one value
    # for all samples (d(Q1, Q2), a constant map's distance, two constants'
    # d(F(X), G(Y))) is decomposed once per check
    for label, problem, samples, seed in checks(tmp_path):
        monkeypatch.setattr(hpd_core, "_BLOCK_ENTRIES", 7 * problem.n**2)
        work.clear()
        matrix_solver.check_conditions(problem, samples, seed)
        assert work.draws == CHECK_WORK[label][DRAWS_COLUMN] * math.ceil(samples / 7), label
        assert matrices(work.of("eig_hermitian")) == CHECK_WORK[label][2], label


# Python calls inside the package per condition check (sys.setprofile, as
# test_python_calls_per_iteration counts them), exactly.  The distances'
# logs and the literal forms' powers are numpy's, one C call per array, so
# a check's calls do not grow with its samples; with a Python log and
# power per sample through object ufuncs, a 200-sample check made about
# 400 more (505 on quadratic_pass).
CHECK_CALLS = {
    "check_fail_power": 93,
    "check_pass_constant": 97,
    "example_4_1": 106,
    "example_4_2": 60,
    "quadratic_pass": 91,
    "known-type1": 100,
    "known-type2": 56,
    "constant-F": 132,
    "constant-G": 131,
    "two-constants": 105,
    "two-constants-far-Q": 114,
    "type2-constant-F": 60,
}


def test_python_calls_per_condition_check(work, tmp_path):
    got = []
    for label, problem, samples, seed in checks(tmp_path):
        work.clear()
        matrix_solver.check_conditions(problem, samples, seed)
        got.append((label, work.python["check_conditions"]))
    assert got == [(label, CHECK_CALLS[label]) for label, _ in got]
    assert {label for label, _ in got} == set(CHECK_CALLS)


@pytest.mark.parametrize("kind, per_sample", [("type1", 4), ("type1-identities", 3), ("type2", 1)])
def test_condition_sample_costs(work, kind, per_sample):
    # matrices decomposed, in stacks: type1: d(F(X), G(Y)), d(X, Y) and
    # the roots of T1(X) and T2(X), where d(F(X), G(Y)) is d(X, Y) when
    # F and G are both X -> X**1 (quadratic_pass's); type2: d(X, Y), with
    # F(X) and G(X) read from X's spectrum
    if kind == "type1-identities":
        problem = load("quadratic_pass")[0]
    elif kind == "type1":
        problem = dataclasses.replace(load("quadratic_pass")[0], G=matrix_solver.power(0.5))
    else:
        problem = matrix_solver.problem_type2(
            n=3, A=[random_unitary(3, 5)], r=2, s=3,
            F=matrix_solver.power(0.5), G=matrix_solver.power(-0.25), a=0.5, l=0.3,
        )
    counts = []
    for samples in (15, 30):
        work.clear()
        matrix_solver.check_conditions(problem, samples=samples, seed=8)
        counts.append(matrices(work.of("eig_hermitian")))
        assert not any(with_vectors(work.of("eig_hermitian")))
    assert counts[1] - counts[0] == per_sample * 15


@pytest.mark.parametrize("name", FIXTURES)
def test_stacked_checker_decomposes_the_oracles_matrices(work, name):
    # the stacked checker decomposes the matrices the sequential oracle
    # decomposes, and every sampled quantity reads eigenvalues only
    problem, _, options = load(name)
    counts = []
    for check in (matrix_solver.check_conditions, sampling_oracle.check_conditions):
        work.clear()
        check(problem, options.samples, options.seed)
        counts.append(matrices(work.of("eig_hermitian")))
        assert not any(with_vectors(work.of("eig_hermitian")))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("name", FIXTURES)
def test_eigensolve_calls_per_check_do_not_grow_with_samples(work, name):
    # type1: d(Q1, Q2), d(F(X), G(Y)) and d(X, Y) (one call for both when
    # F and G are powers), each with a second eigensolve on its wide
    # pencils, and the roots of T1(X) and T2(X) in one call; type2:
    # d(X, Y) and its wide pencils
    problem, _, options = load(name)
    per_check = 8 if problem.kind == matrix_solver.TYPE1 else 2
    for samples in (20, 1000):
        work.clear()
        matrix_solver.check_conditions(problem, samples, options.seed)
        assert len(work.of("eig_hermitian")) <= per_check
