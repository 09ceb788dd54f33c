"""Work counters of the alternating step, counted while ``iterate_pair``
runs inside ``solve``: eigensolve calls per map application, and the
Python calls made inside the package per iteration.  Both counts repeat
exactly from run to run, unlike wall time."""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from helpers import known_answer_files
from tfp import cli, hpd_core, matrix_solver
from tfp.fixtures import fixture_path

PACKAGE = str(Path(hpd_core.__file__).resolve().parent)
FIXTURES = ["check_fail_power", "check_pass_constant", "example_4_1", "example_4_2", "quadratic_pass"]


@pytest.fixture
def step_work(monkeypatch):
    """Counts, over the iterations of every solve: ``eig`` calls of
    ``eig_hermitian``, ``maps`` applied, ``calls`` of Python functions
    defined in the package and ``iterations`` in the traces."""
    work = dict(eig=0, maps=0, calls=0, iterations=0)
    inside = [False]
    eig, iterate, maps_for = hpd_core.eig_hermitian, matrix_solver.iterate_pair, matrix_solver.maps_for

    def counting_eig(*args, **kwargs):
        work["eig"] += inside[0]
        return eig(*args, **kwargs)

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
    monkeypatch.setattr(matrix_solver, "iterate_pair", counting_iterate)
    monkeypatch.setattr(matrix_solver, "maps_for", lambda problem: tuple(map(counted, maps_for(problem))))
    return work


def solve_files(paths, out):
    """``tfp solve`` on each problem file, as shipped."""
    for path in paths:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(["solve", str(path), "--out", str(out)])


def test_eigensolves_per_iteration(step_work, tmp_path):
    # one call per map, for its root, and one stacked call for the pending
    # gaps at each step whose spectra cannot rule it out as the stop
    solve_files(known_answer_files(tmp_path, 16, 4, 1), tmp_path / "trace.csv")
    assert (step_work["eig"], step_work["maps"]) == (55, 50)
    assert round(step_work["eig"] / step_work["maps"], 2) == 1.1
    step_work.update(eig=0, maps=0)
    solve_files([fixture_path(f"{name}.json") for name in FIXTURES], tmp_path / "trace.csv")
    assert (step_work["eig"], step_work["maps"]) == (254, 237)
    assert round(step_work["eig"] / step_work["maps"], 2) == 1.07


@pytest.mark.parametrize("name", ["example_4_1", "example_4_2"])
def test_a_map_makes_one_eigensolve(monkeypatch, name):
    problem, _, _ = cli.load_problem(fixture_path(f"{name}.json"))
    point = hpd_core.random_pd_in_ball(problem.n, 0.5, 3)
    calls, eig = [], hpd_core.eig_hermitian
    monkeypatch.setattr(hpd_core, "eig_hermitian", lambda *args, **kwargs: calls.append(args) or eig(*args, **kwargs))
    for t in matrix_solver.maps_for(problem):
        calls.clear()
        t(point)
        assert len(calls) == 1


# Python calls inside the package per iteration, capped at today's counts;
# with maps built kernel by kernel, as in tests/map_oracle.py, they read
# 20.2 and 18.7
@pytest.mark.parametrize("name, iterations, per_iteration", [("example_4_1", 200, 11.16), ("example_4_2", 16, 10.69)])
def test_python_calls_per_iteration(step_work, tmp_path, name, iterations, per_iteration):
    solve_files([fixture_path(f"{name}.json")], tmp_path / "trace.csv")
    assert step_work["iterations"] == iterations
    assert step_work["calls"] / iterations <= per_iteration
