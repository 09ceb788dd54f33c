"""Hermitian checks per pass of each benchmark workload at seed 1.

A matrix from outside is checked Hermitian once, where it comes in, and
nowhere else: not in the iteration, the sampling, the certificate of a
computed solution or the identity start.  Each pass below is rebuilt
from the fixtures and ``known_answer``, command for command as
``bench/workloads.py`` lists it, and counts ``require_hermitian`` calls
with a wrapper on every package module that imported it by name.  The
counts are today's, and the traced benchmark smoke runs read the same.
"""

import contextlib
import io
import json
import sys

import pytest

from helpers import known_answer
from tfp import cli, hpd_core
from tfp.fixtures import fixture_path

SERIES = ("--series", "gap", "--series", "bound", "--series", "residual")
# (check, solve) exit codes of the fixtures as shipped
FIXTURE_CODES = {
    "check_fail_power": (3, 3),
    "check_pass_constant": (0, 0),
    "example_4_1": (3, 4),
    "example_4_2": (3, 0),
    "quadratic_pass": (0, 0),
}
SEED = 1


def fixtures_cli(work):
    """check, solve and plot on every fixture, as shipped."""
    for name, (check_code, solve_code) in FIXTURE_CODES.items():
        problem = fixture_path(f"{name}.json")
        yield ["check", problem, "--out", work / f"{name}.check.json"], check_code
        yield ["solve", problem, "--out", work / f"{name}.csv"], solve_code
        if solve_code in (0, 4):
            yield ["plot", work / f"{name}.csv", *SERIES, "--out", work / f"{name}.svg"], 0


def problem_files(work, n):
    """The benchmark's four seed-1 known-answer problems of size n."""
    for i, (doc, _) in enumerate(known_answer.problems(n, 4, SEED)):
        path = work / f"{doc['kind']}-n{n}-{i}.problem.json"
        path.write_text(json.dumps(doc, indent=1))
        yield i, path, doc["kind"]


def solve_manufactured(work):
    """A solve and a plot of each n = 16 problem, each with a companion
    check of check_pass_constant at 20 samples."""
    for i, path, _ in problem_files(work, 16):
        yield ["solve", path, "--out", work / f"{i}.csv"], 0
        yield ["plot", work / f"{i}.csv", *SERIES, "--out", work / f"{i}.svg"], 0
        companion = fixture_path("check_pass_constant.json")
        yield ["check", companion, "--out", work / f"c{i}.json", "--samples", 20, "--seed", SEED], 0


def check_sampling(work):
    """A check of each n = 8 problem, 10 samples for type1 and 20 for
    type2, each with a companion solve and plot of example_4_2."""
    for i, path, kind in problem_files(work, 8):
        samples = 10 if kind == "type1" else 20
        yield ["check", path, "--out", work / f"{i}.check.json", "--samples", samples, "--seed", SEED], 3
        companion = fixture_path("example_4_2.json")
        yield ["solve", companion, "--out", work / f"c{i}.csv"], 0
        yield ["plot", work / f"c{i}.csv", *SERIES, "--out", work / f"c{i}.svg"], 0


@pytest.fixture
def hermitian_calls(monkeypatch):
    """The calls of ``require_hermitian``, counted from every package
    module that holds it by name."""
    calls = [0]
    original = hpd_core.require_hermitian

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "tfp" and getattr(module, "require_hermitian", None) is original:
            monkeypatch.setattr(module, "require_hermitian", counting)
    return calls


@pytest.mark.parametrize(
    "workload, count",
    [(fixtures_cli, 23), (solve_manufactured, 24), (check_sampling, 14)],
    ids=["fixtures-cli", "solve-manufactured", "check-sampling"],
)
def test_hermitian_checks_per_pass(hermitian_calls, tmp_path, workload, count):
    for argv, code in workload(tmp_path):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(list(map(str, argv))) == code, argv
    assert hermitian_calls[0] == count
