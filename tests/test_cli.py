"""CLI tests: file formats, exit codes, determinism, and the SVG plotter."""

import csv
import dataclasses
import gc
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tfp
from helpers import known_answer_files
from tfp import cli, hpd_core, matrix_solver, thompson
from tfp.hpd_core import PDPoint, matrix_to_literal
from tfp.errors import ConditionsNotVerified, MaxIterationsExceeded, ProblemFormatError, ResidualToleranceExceeded
from tfp.fixpoint_engine import error_bound, iterate_pair
from tfp.fixtures import fixture_path

EYE3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

ALL_FIXTURES = [
    "check_fail_power.json",
    "check_pass_constant.json",
    "example_4_1.json",
    "example_4_2.json",
    "quadratic_pass.json",
]


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def run_tfp(*argv, as_module=False):
    """``tfp`` in a fresh interpreter, so that stderr shows everything a
    user would see, numpy's warnings included; ``as_module`` runs it as
    ``python -m tfp.cli``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(tfp.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    launch = ["-m", "tfp.cli"] if as_module else ["-c", "import sys; from tfp.cli import main; sys.exit(main(sys.argv[1:]))"]
    return subprocess.run(
        [sys.executable, *launch, *map(str, argv)],
        capture_output=True, text=True, env=env, check=False,
    )


def overflowing_quadratic(tmp_path, scale, a, x0=None):
    """quadratic_pass with A = scale * I and ball radius a: its maps'
    right-hand sides 3I + scale^2 X overflow for X far out on the ball."""
    doc = json.loads(fixture_path("quadratic_pass.json").read_text())
    doc["A"] = [[[scale, 0], [0, scale]]]
    doc["a"] = a
    if x0 is not None:
        doc["x0"] = x0
    return write_problem(tmp_path, doc)


def function_document(spec):
    """A matrix function written back in the problem-file form."""
    if spec.kind == "power":
        return {"kind": "power", "exponent": spec.exponent}
    return {"kind": "constant", "value": matrix_to_literal(spec.value)}


def problem_document(problem, x0, options):
    """A loaded problem written back in the problem-file form."""
    doc = {
        "kind": problem.kind,
        "n": problem.n,
        "m": problem.m,
        "A": [matrix_to_literal(a_i) for a_i in problem.A],
        "s": problem.s,
        "F": function_document(problem.F),
        "G": function_document(problem.G),
        "a": problem.a,
        "l": problem.l,
        "options": dataclasses.asdict(options),
    }
    if problem.kind == matrix_solver.TYPE1:
        doc.update(Q1=matrix_to_literal(problem.Q1), Q2=matrix_to_literal(problem.Q2))
    else:
        doc["r"] = problem.r
    if x0 is not None:
        doc["x0"] = matrix_to_literal(x0)
    return doc


# Single-fault variants of the shipped problems, one per branch of the
# problem-file schema, and the message each gets after the file's name:
# (fixture, location of the fault, value put there or DELETE, message).
DELETE = object()
SCHEMA_ERRORS = [
    ("quadratic_pass.json", ("s",), DELETE, "missing required key 's'"),
    ("example_4_2.json", ("r",), DELETE, "missing required key 'r'"),
    ("quadratic_pass.json", ("r",), 2, "unknown type1 key 'r'"),
    ("example_4_2.json", ("Q1",), [[1]], "unknown type2 key 'Q1'"),
    ("quadratic_pass.json", ("kind",), "type3", "key 'kind' must be 'type1' or 'type2', got 'type3'"),
    ("quadratic_pass.json", ("kind",), None, "key 'kind' must be 'type1' or 'type2', got None"),
    ("quadratic_pass.json", ("n",), "x", "key 'n' must be an integer, got 'x'"),
    ("quadratic_pass.json", ("n",), 2.5, "key 'n' must be an integer, got 2.5"),
    ("quadratic_pass.json", ("n",), 0, "key 'n' must be at least 1, got 0"),
    ("quadratic_pass.json", ("m",), True, "key 'm' must be an integer, got True"),
    ("quadratic_pass.json", ("a",), True, "key 'a' must be a finite number, got True"),
    ("quadratic_pass.json", ("a",), -1, "ball radius must be nonnegative, got -1.0"),
    ("quadratic_pass.json", ("s",), 1, "s must exceed 1, got 1.0"),
    ("example_4_2.json", ("r",), "x", "key 'r' must be a finite number, got 'x'"),
    ("quadratic_pass.json", ("options",), [], "key 'options' must be an object"),
    ("quadratic_pass.json", ("A",), [], "key 'A' must list exactly m=1 matrices"),
    ("quadratic_pass.json", ("A",), {}, "key 'A' must list exactly m=1 matrices"),
    ("quadratic_pass.json", ("A", 0), [[1, 0], [0, 0]], "A[0] is singular to working precision"),
    ("quadratic_pass.json", ("A", 0, 0, 0), 1e308, "A[0]* A[0] contains non-finite entries"),
    (
        "example_4_2.json", ("A", 0), [[2, 0, 0], [0, 1, 0], [0, 0, 1]],
        "A[0] is not unitary: defect 3.000e+00 exceeds 1.0e-10",
    ),
    ("quadratic_pass.json", ("F",), 1, "key 'F' must be an object"),
    ("quadratic_pass.json", ("F",), DELETE, "missing required key 'F'"),
    ("quadratic_pass.json", ("F", "kind"), "exp", "key 'F': unknown matrix function kind 'exp'"),
    ("quadratic_pass.json", ("F", "kind"), DELETE, "key 'F': unknown matrix function kind None"),
    ("quadratic_pass.json", ("F", "value"), [[1, 0], [0, 1]], "key 'F': unknown power field 'value'"),
    ("quadratic_pass.json", ("G", "exponent"), DELETE, "key 'G': missing required key 'exponent'"),
    (
        "quadratic_pass.json", ("G", "exponent"), "0.5",
        "key 'G': key 'exponent' must be a finite number, got '0.5'",
    ),
    (
        "quadratic_pass.json", ("G", "exponent"), 2,
        "key 'G': power exponent must be in [-1, 1] and nonzero, got 2.0",
    ),
    ("check_pass_constant.json", ("G", "exponent"), 1, "key 'G': unknown constant field 'exponent'"),
    ("check_pass_constant.json", ("F", "value"), DELETE, "key 'F': missing required key 'value'"),
    ("check_pass_constant.json", ("F", "value"), 5, "key 'F': value must be a non-empty list of rows"),
    (
        "check_pass_constant.json", ("F", "value"), [[-1, 0], [0, -1]],
        "key 'F': constant function value must be positive definite (min eigenvalue -1.000e+00, floor 0.000e+00)",
    ),
    (
        "check_pass_constant.json", ("G", "value"), [[1, 2], [0, 1]],
        "key 'G': constant function value is not Hermitian: defect 2.000e+00 exceeds tolerance 2.449e-12",
    ),
    ("check_pass_constant.json", ("G", "value", 1), [1], "key 'G': value row 1 has length 1, expected 2"),
    ("quadratic_pass.json", ("options", "gap_tol"), "x", "option 'gap_tol' must be a finite number, got 'x'"),
    (
        "quadratic_pass.json", ("options", "residual_tol"), math.nan,
        "option 'residual_tol' must be a finite number, got nan",
    ),
    ("quadratic_pass.json", ("options", "gap_tol"), -1, "option 'gap_tol' must be at least 0, got -1.0"),
    ("quadratic_pass.json", ("options", "residual_tol"), -1, "option 'residual_tol' must be at least 0, got -1.0"),
    ("quadratic_pass.json", ("options", "max_iter"), 2.5, "option 'max_iter' must be an integer, got 2.5"),
    ("quadratic_pass.json", ("options", "seed"), -1, "option 'seed' must be at least 0, got -1"),
    ("quadratic_pass.json", ("options", "samples"), 0, "option 'samples' must be at least 1, got 0"),
    ("quadratic_pass.json", ("options", "force"), "false", "option 'force' must be true or false, got 'false'"),
    ("quadratic_pass.json", ("options", "turbo"), 1, "unknown option 'turbo'"),
    (
        "example_4_2.json", ("x0",), [[1, 2, 0], [0, 1, 0], [0, 0, 1]],
        "x0 is not Hermitian: defect 2.000e+00 exceeds tolerance 2.646e-12",
    ),
    ("example_4_2.json", ("x0",), [[1, 0], [0, 1]], "x0 has shape (2, 2), expected (3, 3)"),
    ("example_4_2.json", ("x0",), "eye", "x0 must be a non-empty list of rows"),
    ("quadratic_pass.json", ("Q1", 1), [0], "Q1 row 1 has length 1, expected 2"),
    ("quadratic_pass.json", ("Q1", 1), 0, "Q1 must be a non-empty list of rows"),
    (
        "quadratic_pass.json", ("Q2", 1, 0), "oops",
        "Q2 entry [1][0] must be a number or an [re, im] pair, got 'oops'",
    ),
    (
        "quadratic_pass.json", ("A", 0, 0, 0), [1, True],
        "A[0] entry [0][0] must be a number or an [re, im] pair, got [1, True]",
    ),
    ("quadratic_pass.json", ("Q1", 0, 0), 10**400, "Q1 entry [0][0] is an integer beyond the float range"),
    ("quadratic_pass.json", ("A", 0, 1, 1), [0, 10**400], "A[0] entry [1][1] is an integer beyond the float range"),
    ("quadratic_pass.json", ("Q1", 0, 0), math.inf, "Q1 contains non-finite entries"),
]


def schema_case_id(case):
    fixture, location, value, _ = case
    shown = "delete" if value is DELETE else repr(value)[:12]
    return f"{fixture.split('.')[0]}:{'.'.join(map(str, location))}={shown}"


def with_fault(fixture, location, value):
    """The fixture's document with ``value`` put at ``location`` (a path of
    keys and indices), or the item there deleted."""
    doc = json.loads(fixture_path(fixture).read_text())
    target = doc
    for key in location[:-1]:
        target = target[key]
    if value is DELETE:
        del target[location[-1]]
    else:
        target[location[-1]] = value
    return doc


class TestProblemFiles:
    def test_fixture_listing(self):
        shipped = fixture_path(ALL_FIXTURES[0]).parent.glob("*.json")
        assert sorted(path.name for path in shipped) == ALL_FIXTURES

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_round_trip(self, tmp_path, name):
        problem, x0, options = cli.load_problem(fixture_path(name))
        doc = problem_document(problem, x0, options)
        back, back_x0, back_options = cli.load_problem(write_problem(tmp_path, doc))
        assert back.kind == problem.kind
        assert back.n == problem.n and back.m == problem.m
        assert back.s == problem.s and back.a == problem.a and back.l == problem.l
        for ours, theirs in zip(problem.A, back.A):
            assert np.array_equal(ours, theirs)
        if problem.kind == matrix_solver.TYPE1:
            assert np.array_equal(problem.Q1, back.Q1)
            assert np.array_equal(problem.Q2, back.Q2)
        else:
            assert back.r == problem.r
        if x0 is None:
            assert back_x0 is None
        else:
            assert np.array_equal(x0, back_x0)
        assert back_options == options

    def test_missing_key_names_key(self, tmp_path):
        for key in ("Q1", "s"):
            doc = json.loads(fixture_path("quadratic_pass.json").read_text())
            del doc[key]
            path = write_problem(tmp_path, doc)
            with pytest.raises(ProblemFormatError) as excinfo:
                cli.load_problem(path)
            assert str(excinfo.value) == f"{path}: missing required key '{key}'"

    def test_unknown_option_rejected(self, tmp_path, capsys):
        cases = [
            ("quadratic_pass.json", "options", key, f"unknown option '{key}'")
            for key in ("turbo", "exp_radius", "bound_tol")
        ]
        cases += [
            # a typo would silently drop every option
            ("quadratic_pass.json", None, "optoins", "unknown type1 key 'optoins'"),
            ("quadratic_pass.json", None, "r", "unknown type1 key 'r'"),
            ("example_4_2.json", None, "Q1", "unknown type2 key 'Q1'"),
            ("example_4_2.json", None, "Q2", "unknown type2 key 'Q2'"),
            ("quadratic_pass.json", "F", "scale", "key 'F': unknown power field 'scale'"),
            ("check_pass_constant.json", "G", "exponent", "key 'G': unknown constant field 'exponent'"),
        ]
        for fixture, section, key, message in cases:
            doc = json.loads(fixture_path(fixture).read_text())
            (doc if section is None else doc[section])[key] = True
            path = write_problem(tmp_path, doc)
            with pytest.raises(ProblemFormatError, match=message):
                cli.load_problem(path)
            assert cli.main(["check", str(path)]) == 2
            assert message in capsys.readouterr().err

    def test_non_hermitian_constant_near_overflow_exit_two_naming_it(self, tmp_path, capsys):
        # ||Q1||_F overflows when squared; the Hermitian tolerance must not
        doc = json.loads(fixture_path("quadratic_pass.json").read_text())
        doc["Q1"] = [[1e308, 0], [5e307, 1e308]]
        path = write_problem(tmp_path, doc)
        out = tmp_path / "trace.csv"
        with np.errstate(over="ignore"):
            assert cli.main(["check", str(path), "--out", str(tmp_path / "report.json")]) == 2
            assert "Q1 is not Hermitian" in capsys.readouterr().err
            assert cli.main(["solve", str(path), "--force", "--out", str(out)]) == 2
            assert "Q1 is not Hermitian" in capsys.readouterr().err
        assert not out.exists()

    def test_near_overflow_constant_prints_only_the_error_line(self, tmp_path):
        doc = json.loads(fixture_path("quadratic_pass.json").read_text())
        doc["Q1"] = [[1e308, 0], [5e307, 1e308]]
        path = write_problem(tmp_path, doc)
        result = run_tfp("check", path, "--out", tmp_path / "report.json")
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: {path}: Q1 is not Hermitian")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "where, expected",
        [
            (("Q1", 0, 0), "Q1 entry [0][0] is an integer beyond the float range"),
            (("A", 0, 1, 1, 0), "A[0] entry [1][1] is an integer beyond the float range"),
            (("a",), "key 'a' must be a finite number, got an integer beyond the float range"),
        ],
        ids=["matrix-entry", "re-im-pair", "scalar-key"],
    )
    def test_integer_beyond_float_range_exit_two_naming_it(self, tmp_path, capsys, where, expected):
        doc = json.loads(fixture_path("quadratic_pass.json").read_text())
        doc["A"] = [[[1, 0], [0, [1, 0]]]]
        target = doc
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = 10**400
        path = write_problem(tmp_path, doc)
        for command in ("check", "solve"):
            assert cli.main([command, str(path), "--out", str(tmp_path / "out.csv")]) == 2
            assert capsys.readouterr().err == f"error: {path}: {expected}\n"

    def test_bad_matrix_entry_is_located(self, tmp_path):
        doc = json.loads(fixture_path("quadratic_pass.json").read_text())
        doc["Q2"][1][0] = "oops"
        with pytest.raises(ProblemFormatError, match=r"Q2.*\[1\]\[0\]"):
            cli.load_problem(write_problem(tmp_path, doc))

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("options", "force", "false"),
            ("options", "max_iter", 2.9),
            ("options", "gap_tol", True),
            (None, "n", 2.7),
            ("options", "samples", 0),
            ("options", "max_iter", 0),
            ("options", "seed", -1),
            (None, "a", math.nan),
            (None, "s", math.inf),
            ("options", "gap_tol", math.nan),
            ("options", "residual_tol", math.nan),
            ("F", "exponent", "0.5"),
            ("G", "exponent", True),
        ],
    )
    def test_inexact_value_types_exit_two_naming_the_key(self, tmp_path, capsys, section, key, value):
        doc = json.loads(fixture_path("quadratic_pass.json").read_text())
        (doc if section is None else doc[section])[key] = value
        assert cli.main(["check", str(write_problem(tmp_path, doc))]) == 2
        assert f"'{key}' must be" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--samples", "-3"), ("--samples", "0"), ("--seed", "-1")])
    def test_out_of_range_flags_exit_two_naming_the_flag(self, capsys, flag, value):
        assert cli.main(["check", str(fixture_path("quadratic_pass.json")), flag, value]) == 2
        assert f"{flag} must be at least" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, out", [(["check"], "c.json"), (["solve", "--force"], "t.csv")], ids=["check", "solve-force"]
    )
    def test_alpha_rounding_to_one_exit_two_naming_the_file(self, tmp_path, command, out):
        # 3l < rs/(r+s) holds in floating point, but alpha = 3l(1/r + 1/s)
        # rounds to 1.0, which the a-priori bound cannot take
        doc = json.loads(fixture_path("example_4_2.json").read_text())
        doc.update(l=0.610189432575844, r=2.957228580204214, s=4.804828014488629)
        path = write_problem(tmp_path, doc)
        result = run_tfp(command[0], path, *command[1:], "--out", tmp_path / out)
        assert result.returncode == 2
        assert result.stderr == (
            f"error: {path}: contraction exponent must satisfy 0 < 3l < rs/(r+s), "
            "got l=0.610189432575844, r=2.957228580204214, s=4.804828014488629\n"
        )
        assert result.stdout == ""
        assert [p.name for p in tmp_path.iterdir()] == ["problem.json"]

    def test_integral_float_reads_as_integer(self, tmp_path):
        doc = json.loads(fixture_path("example_4_2.json").read_text())
        doc["options"]["max_iter"] = 200.0
        _, _, options = cli.load_problem(write_problem(tmp_path, doc))
        assert options.max_iter == 200 and isinstance(options.max_iter, int)

    def test_zero_tolerances_are_allowed(self, tmp_path):
        doc = json.loads(fixture_path("quadratic_pass.json").read_text())
        doc["options"].update(gap_tol=0, residual_tol=-0.0)
        _, _, options = cli.load_problem(write_problem(tmp_path, doc))
        assert (options.gap_tol, options.residual_tol) == (0.0, 0.0)

    @pytest.mark.parametrize("case", SCHEMA_ERRORS, ids=schema_case_id)
    def test_schema_error_line(self, tmp_path, capsys, case):
        fixture, location, value, message = case
        path = write_problem(tmp_path, with_fault(fixture, location, value))
        assert cli.main(["check", str(path), "--out", str(tmp_path / "report.json")]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "x0, message",
        [
            (
                [[1, 2, 0], [0, 1, 0], [0, 0, 1]],
                "x0 is not Hermitian: defect 2.000e+00 exceeds tolerance 2.646e-12",
            ),
            ([[1, 0], [0, 1]], "x0 has shape (2, 2), expected (3, 3)"),
        ],
        ids=["non-hermitian", "wrong-size"],
    )
    def test_x0_flag_error_line(self, tmp_path, capsys, x0, message):
        start = tmp_path / "start.json"
        start.write_text(json.dumps(x0))
        argv = ["solve", str(fixture_path("example_4_2.json")), "--x0", str(start), "--out", str(tmp_path / "t.csv")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {start}: {message}\n"

    @pytest.mark.parametrize(
        "seed, message",
        [("noise", "TFP_SEED must be an integer, got 'noise'"), ("-1", "TFP_SEED must be at least 0, got -1")],
    )
    def test_tfp_seed_error_line(self, tmp_path, capsys, monkeypatch, seed, message):
        monkeypatch.setenv("TFP_SEED", seed)
        assert cli.main(["check", str(fixture_path("quadratic_pass.json")), "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_file_exit_two_naming_it(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        assert cli.main(["check", str(path)]) == 2
        message = f"cannot read: [Errno 2] No such file or directory: '{path}'"
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_top_level_array_exit_two_naming_the_file(self, tmp_path, capsys):
        path = write_problem(tmp_path, [])
        assert cli.main(["check", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: top level must be an object\n"

    def test_undecodable_file_exit_two_naming_it(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_bytes(b"\xff{}")
        assert cli.main(["check", str(path)]) == 2
        message = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "fixture, key, value, message",
        [
            ("quadratic_pass.json", "Q1", EYE3, "Q1 has shape (3, 3), expected (2, 2)"),
            ("quadratic_pass.json", "Q2", EYE3, "Q2 has shape (3, 3), expected (2, 2)"),
            (
                "quadratic_pass.json", "F", {"kind": "constant", "value": EYE3},
                "F value has shape (3, 3), expected (2, 2)",
            ),
            (
                "example_4_2.json", "G", {"kind": "constant", "value": [[1, 0], [0, 1]]},
                "G value has shape (2, 2), expected (3, 3)",
            ),
        ],
        ids=["Q1", "Q2", "F", "G"],
    )
    def test_matrix_of_wrong_size_exit_two_naming_it(self, tmp_path, capsys, fixture, key, value, message):
        path = write_problem(tmp_path, with_fault(fixture, (key,), value))
        out = tmp_path / "out.csv"
        for argv in (["check", str(path)], ["solve", str(path), "--force"]):
            assert cli.main(argv + ["--out", str(out)]) == 2
            assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not out.exists()

    def test_tfp_seed_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TFP_SEED", "321")
        _, _, options = cli.load_problem(fixture_path("quadratic_pass.json"))
        assert options.seed == 321
        for bad in ("noise", "-1"):
            monkeypatch.setenv("TFP_SEED", bad)
            with pytest.raises(ProblemFormatError, match="TFP_SEED"):
                cli.load_problem(fixture_path("quadratic_pass.json"))



# Every value of a field, as the scalar values a caller might pass.
FIELD_VALUES = [3, 3.0, 3.5, math.inf, math.nan, -1, True, "3", None, np.int64(3), np.float64(3.0)]


def _rebuilt(problem, **changes):
    """The library builder called on a loaded problem's fields, changed."""
    args = dict(n=problem.n, A=problem.A, s=problem.s, F=problem.F, G=problem.G, a=problem.a, l=problem.l)
    if problem.kind == matrix_solver.TYPE1:
        return matrix_solver.problem_type1(**{**args, "Q1": problem.Q1, "Q2": problem.Q2, **changes})
    return matrix_solver.problem_type2(**{**args, "r": problem.r, **changes})


def _halving_run(field, value):
    """The trace of ``iterate_pair`` given ``field=value`` on x -> x/2 from
    6.5, whose gaps 3.25, 1.625, ... tell a tolerance of 3 from one of 3.5;
    a contraction, so no value runs it forever."""
    gaps = lambda points: [abs(x - y) for x, y in zip(points, points[1:])]  # noqa: E731
    halve = lambda x: x / 2  # noqa: E731
    return iterate_pair(gaps, halve, halve, 6.5, bound=lambda x, y: abs(x - y), **{field: value})


def _field_cases():
    """(field, fixture, its place in the file, what the file's messages call
    it, the value the file stores, the library calls that take it and give
    the value they store).  Each fixture is varied with s = 4, so that 3 is
    a valid n, a, l, s and r.  The engine stores no option: for ``gap_tol``
    and ``max_iter``, every stored value is read as the trace of a run given
    it, and ``iterate_pair`` given the value itself must run that trace."""
    for field in ("n", "a", "l", "s"):
        yield (
            field, "example_4_1.json", (field,), f"key '{field}'", lambda loaded, options, f=field: getattr(loaded, f),
            [lambda p, v, f=field: getattr(_rebuilt(p, **{f: v}), f)],
        )
    yield (
        "r", "example_4_2.json", ("r",), "key 'r'", lambda loaded, options: loaded.r,
        [lambda p, v: _rebuilt(p, r=v).r],
    )
    yield (
        "exponent", "example_4_1.json", ("G", "exponent"), "key 'exponent'", lambda loaded, options: loaded.G.exponent,
        [lambda p, v: matrix_solver.power(v).exponent],
    )
    for field in matrix_solver.OPTION_RULES:
        calls = [lambda p, v, f=field: getattr(matrix_solver.SolveOptions(**{f: v}), f)]
        if field in ("samples", "seed"):
            calls.append(lambda p, v, f=field: getattr(matrix_solver.check_conditions(p, **{"samples": 1, f: v}), f))
        stored = lambda loaded, options, f=field: getattr(options, f)  # noqa: E731
        if field in ("gap_tol", "max_iter"):
            calls = [lambda p, v, f=field, c=call: _halving_run(f, c(p, v)) for call in calls]
            calls.append(lambda p, v, f=field: _halving_run(f, v))
            stored = lambda loaded, options, f=field: _halving_run(f, getattr(options, f))  # noqa: E731
        yield field, "example_4_1.json", ("options", field), f"option '{field}'", stored, calls


FIELD_CASES = list(_field_cases())


@pytest.mark.parametrize("case", FIELD_CASES, ids=[case[0] for case in FIELD_CASES])
@pytest.mark.parametrize("value", FIELD_VALUES, ids=repr)
def test_a_file_and_a_library_call_read_a_field_alike(tmp_path, monkeypatch, case, value):
    # one table of field rules: a value is accepted by both entry points and
    # stored alike, or refused by both in the same rule's words, naming the
    # field (its key or option in the file, its bare name in the library);
    # a builder's own range check runs once, after the rule, and gives both
    # the same message.  Not a bare TypeError or OverflowError.
    field, fixture, location, file_name, stored, calls = case
    monkeypatch.delenv("TFP_SEED", raising=False)
    doc = with_fault(fixture, ("s",), 4)
    problem, _, _ = cli.load_problem(write_problem(tmp_path, doc))
    # numpy scalars, inf and nan take their JSON spellings: 3, 3.0, Infinity, NaN
    target = doc
    for key in location[:-1]:
        target = target[key]
    target[location[-1]] = value.item() if isinstance(value, np.generic) else value
    path = write_problem(tmp_path, doc)
    try:
        from_file = (True, stored(*cli.load_problem(path)[::2]))
    except ProblemFormatError as exc:
        from_file = (False, str(exc).removeprefix(f"{path}: ").removeprefix("key 'G': "))
    for call in calls:
        try:
            from_library = (True, call(problem, value))
        except ValueError as exc:
            from_library = (False, str(exc))
        assert from_file[0] == from_library[0], (from_file, from_library)
        if from_file[0]:
            assert from_file[1] == from_library[1]
            continue
        file_message, library_message = from_file[1], from_library[1]
        if isinstance(value, np.generic):  # shown as np.int64(3) in the library, 3 in the file
            file_message, library_message = file_message.partition(", got ")[0], library_message.partition(", got ")[0]
        named = library_message.startswith(f"{field} ") and file_message == file_name + library_message[len(field):]
        assert named or file_message == library_message, (file_message, library_message)


class TestCheckCommand:
    def test_passing_fixture_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main(
            ["check", str(fixture_path("check_pass_constant.json")), "--samples", "60", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert set(report["conditions"]) == {"A", "B", "C"}
        captured = capsys.readouterr().out
        assert "condition A: pass" in captured

    def test_failing_fixture_exit_three_with_witness(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main(
            ["check", str(fixture_path("check_fail_power.json")), "--samples", "60", "--out", str(out)]
        )
        assert code == 3
        report = json.loads(out.read_text())
        assert report["passed"] is False
        assert report["conditions"]["B"]["failures"] > 0
        assert "worst witness" in capsys.readouterr().out

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = cli.main(["check", str(bad)])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [10, 16, 26, 28, 35, 37])
    def test_wide_ball_seeds_report_instead_of_crashing(self, tmp_path, seed):
        # On example_4_1's radius-10 ball the ratio congruences span about
        # e^40, so their smallest eigenvalues fall below the relative floor.
        out = tmp_path / "report.json"
        code = cli.main(["check", str(fixture_path("example_4_1.json")), "--seed", str(seed), "--out", str(out)])
        assert code == 3
        assert json.loads(out.read_text())["seed"] == seed

    @pytest.mark.parametrize(
        "a, cause",
        [
            # two samples of the radius-400 ball are up to e^800 apart
            (400, "Thompson ratio pencil contains non-finite entries"),
            (1000, "ball of radius 1000 is too wide to sample: exp(1000) overflows"),
        ],
    )
    def test_wide_ball_breakdown_exit_three_naming_the_cause(self, tmp_path, capsys, a, cause):
        path = write_problem(tmp_path, with_fault("quadratic_pass.json", ("a",), a))
        out = tmp_path / "out.csv"
        for argv in (["check", str(path)], ["solve", str(path)]):
            assert cli.main(argv + ["--out", str(out)]) == 3
            assert capsys.readouterr() == ("", f"error: condition check broke down: {cause}\n")
        assert not out.exists()

    def test_overflowing_map_in_condition_c_exit_three_naming_it(self, tmp_path):
        # the samples and their distances stay finite on this ball; the
        # right-hand side of T1(X) = (3I + 1e300 X)^(1/2) does not
        path = overflowing_quadratic(tmp_path, 1e150, 20)
        report = tmp_path / "report.json"
        message = "condition check broke down: map right-hand side contains non-finite entries\n"
        result = run_tfp("check", path, "--out", report)
        assert (result.returncode, result.stderr) == (3, "error: " + message)
        assert not report.exists()
        out = tmp_path / "t.csv"
        result = run_tfp("solve", path, "--out", out)
        assert (result.returncode, result.stderr) == (3, "error: " + message)
        assert not out.exists()

    # Three inputs that each ended in a traceback, exit 1: type2's (B)
    # bound over 2**s, which overflows at s = 1024; exp(r*a) beyond the
    # float range, taken before the sampler could name the ball; and
    # d(Q1, Q2) beyond the float range, whose ratio W(Q2/Q1) underflows
    @pytest.mark.parametrize(
        "fixture, changes, cause",
        [
            ("example_4_2.json", {"s": 1024}, None),
            ("example_4_2.json", {"r": 355}, "ball of radius 710 is too wide to sample: exp(710) overflows"),
            (
                "check_pass_constant.json",
                {"Q1": [[1e150, 0], [0, 1e150]], "Q2": [[1e-200, 0], [0, 1e-200]]},
                "Thompson ratio is not a positive number: the distance is beyond the float range",
            ),
        ],
        ids=["two-to-the-s", "exp-of-r-a", "far-constants"],
    )
    def test_out_of_range_input_ends_in_a_named_outcome(self, tmp_path, fixture, changes, cause):
        doc = json.loads(fixture_path(fixture).read_text())
        doc.update(changes)
        path = write_problem(tmp_path, doc)
        report = tmp_path / "report.json"
        result = run_tfp("check", path, "--out", report)
        assert result.returncode == 3
        if cause is None:  # a failing report, all of it finite
            assert result.stderr == ""
            assert "Infinity" not in report.read_text() and "NaN" not in report.read_text()
        else:
            assert result.stderr == f"error: condition check broke down: {cause}\n"
            assert not report.exists()
        # a library call raises the named breakdown, or reports, with no
        # numpy warning (the suite runs with RuntimeWarning as an error)
        problem, _, options = cli.load_problem(path)
        if cause is None:
            assert not matrix_solver.check_conditions(problem, options.samples, options.seed).passed
        else:
            with pytest.raises(ConditionsNotVerified, match=re.escape(cause)):
                matrix_solver.check_conditions(problem, options.samples, options.seed)

    def test_report_bytes_stable(self, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            assert (
                cli.main(
                    ["check", str(fixture_path("example_4_2.json")), "--samples", "40", "--out", str(out)]
                )
                == 3
            )
        assert out1.read_bytes() == out2.read_bytes()


class TestSolveCommand:
    def test_second_example_trace(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = cli.main(["solve", str(fixture_path("example_4_2.json")), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,thompson_gap,error_bound,residual1,residual2,dist_to_identity"
        meta = json.loads(out.with_suffix(".json").read_text())["metadata"]
        assert meta["converged"] is True
        assert meta["stop_reason"] == "gap_tol"
        assert len(lines) - 1 == meta["iterations"]
        assert meta["residual1"] <= 1e-12 and meta["residual2"] <= 1e-12

    def test_trace_bytes_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            assert cli.main(["solve", str(fixture_path("example_4_2.json")), "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.with_suffix(".json").read_bytes() == out2.with_suffix(".json").read_bytes()

    def test_first_example_partial_trace_exit_four(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = cli.main(["solve", str(fixture_path("example_4_1.json")), "--out", str(out)])
        assert code == 4
        meta = json.loads(out.with_suffix(".json").read_text())["metadata"]
        assert meta["converged"] is False
        assert meta["stop_reason"] == "max_iter"
        assert meta["iterations"] == 200
        assert len(out.read_text().splitlines()) == 201
        first_line = capsys.readouterr().err.splitlines()[0]
        assert first_line == "error: no convergence within 200 iterations (last gap 2.284e-01, gap tolerance 1.000e-12)"

    def test_stalled_solve_leaves_no_cycle_holding_its_trace(self, tmp_path, capsys):
        gc.collect()
        gc.disable()
        try:
            cli.main(["solve", str(fixture_path("example_4_1.json")), "--out", str(tmp_path / "t.csv")])
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            held = sum(isinstance(obj, PDPoint) for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert held == 0

    def test_converged_but_not_certified_exit_four(self, tmp_path, capsys):
        path = write_problem(tmp_path, with_fault("quadratic_pass.json", ("options", "residual_tol"), 1e-30))
        out = tmp_path / "t.csv"
        assert cli.main(["solve", str(path), "--out", str(out)]) == 4
        meta = json.loads(out.with_suffix(".json").read_text())["metadata"]
        assert meta["converged"] is False
        assert (meta["stop_reason"], meta["iterations"]) == ("gap_tol", 19)
        assert len(out.read_text().splitlines()) == 20
        worst = max(meta["residual1"], meta["residual2"])
        stdout, stderr = capsys.readouterr()
        assert stdout.startswith("NOT residual-certified: 19 iterations, residuals ")
        assert stderr == (
            f"error: converged in the metric but residual {worst:.3e} exceeds tolerance 1.000e-30; "
            "the equation pair is likely inconsistent\n"
        )

    @pytest.mark.parametrize("blocked, written", [(".json", ".csv"), (".csv", ".json")])
    def test_unwritable_output_leaves_no_file(self, tmp_path, capsys, blocked, written):
        out = tmp_path / "u.csv"
        out.with_suffix(blocked).mkdir()
        assert cli.main(["solve", str(fixture_path("example_4_2.json")), "--out", str(out)]) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr == f"error: cannot write: [Errno 21] Is a directory: '{out.with_suffix(blocked)}'\n"
        assert not out.with_suffix(written).exists()

    def test_out_sharing_the_solution_path_exit_two_before_solving(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(matrix_solver, "solve", lambda *args, **kwargs: pytest.fail("solved"))
        out = tmp_path / "run.json"
        assert cli.main(["solve", str(fixture_path("example_4_2.json")), "--out", str(out)]) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr == f"error: --out {out}: the trace and the solution cannot share one path\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["quadratic_pass.json", "example_4_2.json"])
    def test_error_bound_column_is_the_a_priori_bound(self, tmp_path, name):
        # one type1 and one type2 problem; alpha from the problem file, and
        # the bound alpha**(k-1) * gap_1 / (1 - alpha) from the written files
        out = tmp_path / "t.csv"
        assert cli.main(["solve", str(fixture_path(name)), "--force", "--out", str(out)]) == 0
        problem = json.loads(fixture_path(name).read_text())
        l, s = problem["l"], problem["s"]
        expected_alpha = l / s if problem["kind"] == "type1" else 3 * l * (1 / problem["r"] + 1 / s)
        alpha = json.loads(out.with_suffix(".json").read_text())["metadata"]["alpha_used"]
        assert alpha == expected_alpha and 0 < alpha < 1
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) > 1
        gap_1 = float(rows[0]["thompson_gap"])
        for k, row in enumerate(rows, start=1):
            assert int(row["k"]) == k
            assert float(row["error_bound"]) == alpha ** (k - 1) * gap_1 / (1 - alpha)

    def test_unforced_solve_fails_conditions_exit_three(self, tmp_path):
        out = tmp_path / "t.csv"
        code = cli.main(["solve", str(fixture_path("check_fail_power.json")), "--out", str(out)])
        assert code == 3
        assert not out.exists()

    def test_overflowing_map_during_iteration_exit_four_naming_it(self, tmp_path):
        path = overflowing_quadratic(tmp_path, 1e100, 1000, x0=[[1e200, 0], [0, 1e200]])
        out = tmp_path / "t.csv"
        result = run_tfp("solve", path, "--force", "--out", out)
        assert result.returncode == 4
        assert result.stderr == "error: iteration broke down: map right-hand side contains non-finite entries\n"
        assert result.stdout == "" and not out.exists()

    def test_overflowing_trace_row_exit_four_naming_it(self, tmp_path):
        # the solve converges, but X_1 ** s overflows in the residual of
        # the trace's first row; no file is written and nothing printed
        doc = {
            "kind": "type2", "n": 2, "m": 1, "A": [[[1, 0], [0, 1]]], "r": 1.2, "s": 3,
            "F": {"kind": "power", "exponent": 1}, "G": {"kind": "power", "exponent": 1},
            "a": 260, "l": 0.05, "x0": [[1e130, 0], [0, 2e130]], "options": {"force": True},
        }
        out = tmp_path / "t.csv"
        result = run_tfp("solve", write_problem(tmp_path, doc), "--out", out)
        assert result.returncode == 4
        assert result.stderr == "error: iteration broke down: candidate solution ** 3 contains non-finite entries\n"
        assert result.stdout == ""
        assert not out.exists() and not out.with_suffix(".json").exists()

    def test_non_finite_residual_exit_four_naming_it(self, tmp_path, capsys):
        # X_1 = (3I + A* A)^(1/2), about 1e150 I, is finite, but A* X_1 A,
        # about 1e450 I, is not: the first equation's residual was NaN and
        # went into both files
        doc = json.loads(fixture_path("quadratic_pass.json").read_text())
        doc["A"], doc["options"] = [[[1e150, 0], [0, 1e150]]], {"max_iter": 1}
        out = tmp_path / "t.csv"
        assert cli.main(["solve", str(write_problem(tmp_path, doc)), "--force", "--out", str(out)]) == 4
        stdout, stderr = capsys.readouterr()
        assert stderr == "error: iteration broke down: residual of equation 1 contains non-finite entries\n"
        assert stdout == "" and "nan" not in stderr.lower()
        assert not out.exists() and not out.with_suffix(".json").exists()

    def test_force_flag_overrides(self, tmp_path):
        out = tmp_path / "t.csv"
        code = cli.main(["solve", str(fixture_path("check_fail_power.json")), "--force", "--out", str(out)])
        assert code == 0
        solution = json.loads(out.with_suffix(".json").read_text())["solution"]
        golden = (1 + math.sqrt(5)) / 2
        assert solution[0][0] == pytest.approx(golden, abs=1e-9)

    def test_x0_not_positive_definite_exit_five_stating_it_once(self, tmp_path, capsys):
        x0 = tmp_path / "x0.json"
        x0.write_text(json.dumps([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]))
        out = tmp_path / "t.csv"
        code = cli.main(["solve", str(fixture_path("example_4_2.json")), "--x0", str(x0), "--out", str(out)])
        assert code == 5
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr == "error: starting point must be positive definite (min eigenvalue -1.000e+00, floor 6.661e-16)\n"
        assert not out.exists()

    def test_x0_outside_ball_exit_five(self, tmp_path):
        x0 = tmp_path / "x0.json"
        x0.write_text(json.dumps([[60.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        code = cli.main(
            ["solve", str(fixture_path("example_4_2.json")), "--x0", str(x0), "--out", str(tmp_path / "t.csv")]
        )
        assert code == 5

    @pytest.mark.parametrize(
        "x0",
        [[[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],
        ids=["non-hermitian", "wrong-size"],
    )
    def test_bad_x0_exit_two_naming_x0(self, tmp_path, capsys, x0):
        problem = fixture_path("example_4_2.json")
        start = tmp_path / "start.json"
        start.write_text(json.dumps(x0))
        doc = json.loads(problem.read_text())
        doc["x0"] = x0
        out = str(tmp_path / "t.csv")
        for argv in (["solve", str(problem), "--x0", str(start)], ["solve", str(write_problem(tmp_path, doc))]):
            assert cli.main(argv + ["--out", out]) == 2
            assert ": x0 " in capsys.readouterr().err

    def test_default_output_paths_in_cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["solve", str(fixture_path("example_4_2.json"))]) == 0
        assert (tmp_path / "trace.csv").exists()
        assert (tmp_path / "trace.json").exists()
        assert cli.main(["check", str(fixture_path("check_pass_constant.json")), "--samples", "40"]) == 0
        assert (tmp_path / "check_pass_constant.check.json").exists()
        assert cli.main(["plot", "trace.csv"]) == 0
        assert (tmp_path / "plot.svg").exists()

    def test_x0_identity_override(self, tmp_path):
        out = tmp_path / "t.csv"
        code = cli.main(
            ["solve", str(fixture_path("example_4_2.json")), "--x0", "identity", "--out", str(out)]
        )
        assert code == 0
        # identity is the exact solution, so the run stops immediately
        meta = json.loads(out.with_suffix(".json").read_text())["metadata"]
        assert meta["iterations"] == 1


class TestMain:
    def test_parser_is_built_once_per_process(self, tmp_path, monkeypatch):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                cli.main(["check", str(fixture_path("check_pass_constant.json")), "--samples", "5",
                          "--out", str(tmp_path / "r.json")])
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1

    @pytest.mark.parametrize("command", ["check", "solve", "plot"])
    def test_unwritable_output_exit_two_naming_it(self, tmp_path, capsys, command):
        trace = tmp_path / "t.csv"
        assert cli.main(["solve", str(fixture_path("example_4_2.json")), "--out", str(trace)]) == 0
        capsys.readouterr()
        source = {"check": fixture_path("check_pass_constant.json"), "solve": fixture_path("example_4_2.json")}
        out = tmp_path / "missing" / "out.csv"
        assert cli.main([command, str(source.get(command, trace)), "--out", str(out)]) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr.startswith("error: cannot write: ") and stderr.count("\n") == 1
        assert f"{out}'" in stderr

    def test_successive_calls_are_independent(self, tmp_path):
        trace = tmp_path / "t.csv"
        assert cli.main(["solve", str(fixture_path("example_4_2.json")), "--out", str(trace)]) == 0
        default, residual = tmp_path / "default.svg", tmp_path / "residual.svg"
        assert cli.main(["plot", str(trace), "--out", str(default)]) == 0
        assert cli.main(["plot", str(trace), "--series", "residual", "--out", str(residual)]) == 0
        again = tmp_path / "again.svg"
        assert cli.main(["plot", str(trace), "--out", str(again)]) == 0
        assert again.read_bytes() == default.read_bytes()
        assert residual.read_text().count("<polyline") == 2
        assert again.read_text().count("<polyline") == 1


# Each output of a command: the argv that writes it to ``out`` (a plot
# draws ``trace``), and below, a file name for it.
OUTPUTS = {
    "report": lambda trace, out: ["check", fixture_path("check_pass_constant.json"), "--samples", "5", "--out", out],
    "trace": lambda trace, out: ["solve", fixture_path("example_4_2.json"), "--out", out],
    "solution": lambda trace, out: ["solve", fixture_path("example_4_2.json"), "--out", Path(out).with_suffix(".csv")],
    "svg": lambda trace, out: ["plot", trace, "--out", out],
}
OUTPUT_NAMES = {"report": "o.json", "trace": "o.csv", "solution": "o.json", "svg": "o.svg"}


class TestOutputFiles:
    """Outputs are overwritten in place, through links, and never over an input."""

    @staticmethod
    def write(kind, tmp_path, out):
        """Write the ``kind`` output to ``out``; a plot draws t.csv in ``tmp_path``."""
        trace = tmp_path / "t.csv"
        if kind == "svg" and not trace.exists():
            assert cli.main(["solve", str(fixture_path("example_4_2.json")), "--out", str(trace)]) == 0
        assert cli.main(list(map(str, OUTPUTS[kind](trace, out)))) == 0

    def fresh_bytes(self, tmp_path, kind):
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        self.write(kind, tmp_path, fresh / OUTPUT_NAMES[kind])
        return (fresh / OUTPUT_NAMES[kind]).read_bytes()

    @pytest.mark.parametrize("kind", OUTPUTS)
    def test_longer_file_keeps_exactly_the_new_bytes(self, tmp_path, kind):
        expected = self.fresh_bytes(tmp_path, kind)
        out = tmp_path / OUTPUT_NAMES[kind]
        out.write_bytes(b"x" * (len(expected) + 4096))
        self.write(kind, tmp_path, out)
        assert out.read_bytes() == expected

    @pytest.mark.parametrize("kind", OUTPUTS)
    def test_symlink_rewrites_its_target_and_stays_a_link(self, tmp_path, kind):
        expected = self.fresh_bytes(tmp_path, kind)
        target = tmp_path / "target"
        target.write_bytes(b"x" * (len(expected) + 4096))
        out = tmp_path / OUTPUT_NAMES[kind]
        out.symlink_to(target)
        self.write(kind, tmp_path, out)
        assert out.is_symlink() and target.read_bytes() == expected

    @pytest.mark.parametrize("kind", ["report", "svg"])
    def test_dev_null_is_written_without_truncating(self, tmp_path, kind):
        self.write(kind, tmp_path, os.devnull)

    def refused(self, capsys, argv, out, source):
        """Run ``argv`` in the current directory: exit 2 naming ``out`` and
        ``source``, with every file left as it was."""
        before = {path: path.read_bytes() for path in Path().iterdir()}
        assert cli.main(argv) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr == f"error: output {out} would overwrite the input {source}\n"
        assert {path: path.read_bytes() for path in Path().iterdir()} == before

    @pytest.mark.parametrize(
        "problem, x0, out, clash",
        [
            ("p.json", None, "p.csv", "p.json"),  # the solution over the problem
            ("p.txt", None, "./p.txt", "./p.txt"),  # the trace over the problem
            ("p.json", "x.json", "x.csv", "x.json"),  # the solution over --x0
            ("p.json", "x.txt", "x.txt", "x.txt"),  # the trace over --x0
            ("p.json", None, "link.csv", "link.json"),  # a link to the problem
        ],
    )
    def test_solve_refuses_to_overwrite_an_input(self, tmp_path, capsys, monkeypatch, problem, x0, out, clash):
        monkeypatch.chdir(tmp_path)
        shutil.copy(fixture_path("example_4_2.json"), problem)
        argv = ["solve", problem, "--out", out]
        if x0 is not None:
            Path(x0).write_text(json.dumps(EYE3))
            argv += ["--x0", x0]
        if out == "link.csv":
            Path("link.json").symlink_to(problem)
        monkeypatch.setattr(cli, "load_problem", lambda path: pytest.fail("loaded"))
        self.refused(capsys, argv, Path(clash), x0 if clash.startswith("x") else problem)

    def test_check_refuses_to_overwrite_its_problem(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        shutil.copy(fixture_path("check_pass_constant.json"), "p.json")
        monkeypatch.setattr(cli, "load_problem", lambda path: pytest.fail("loaded"))
        self.refused(capsys, ["check", "p.json", "--out", "./p.json"], Path("p.json"), "p.json")

    def test_plot_refuses_to_overwrite_a_trace(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for trace in ("a.csv", "b.csv"):
            assert cli.main(["solve", str(fixture_path("example_4_2.json")), "--out", trace]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "read_trace_csv", lambda path: pytest.fail("read"))
        self.refused(capsys, ["plot", "a.csv", "b.csv", "--out", "b.csv"], Path("b.csv"), "b.csv")


class TestPlotCommand:
    def solve_trace(self, tmp_path, name="example_4_2.json"):
        out = tmp_path / "t.csv"
        assert cli.main(["solve", str(fixture_path(name)), "--out", str(out)]) == 0
        return out

    def test_two_traces_two_series(self, tmp_path):
        t1 = self.solve_trace(tmp_path)
        t2 = tmp_path / "t2.csv"
        assert cli.main(["solve", str(fixture_path("quadratic_pass.json")), "--out", str(t2)]) == 0
        out = tmp_path / "p.svg"
        code = cli.main(["plot", str(t1), str(t2), "--series", "gap", "--series", "bound", "--out", str(out)])
        assert code == 0
        svg = out.read_text()
        assert svg.count("<polyline") == 4
        assert "1e-13" in svg and "iteration k" in svg

    def test_residual_series_has_two_lines_per_trace(self, tmp_path):
        t1 = self.solve_trace(tmp_path)
        out = tmp_path / "p.svg"
        assert cli.main(["plot", str(t1), "--series", "residual", "--out", str(out)]) == 0
        assert out.read_text().count("<polyline") == 2

    def test_single_row_trace_plots_point(self, tmp_path):
        trace = tmp_path / "one.csv"
        cli.write_trace_csv(trace, [(1, 0.5, 1.0, 0.1, 0.2, 0.3)])
        out = tmp_path / "p.svg"
        assert cli.main(["plot", str(trace), "--out", str(out)]) == 0
        svg = out.read_text()
        assert "<circle" in svg and "<polyline" not in svg

    def test_labels_are_escaped_so_the_svg_parses(self, tmp_path):
        trace = self.solve_trace(tmp_path)
        odd = tmp_path / "a&b<c>.csv"
        odd.write_bytes(trace.read_bytes())
        out = tmp_path / "p.svg"
        assert cli.main(["plot", str(trace), str(odd), "--series", "residual", "--out", str(out)]) == 0
        root = ElementTree.parse(out).getroot()
        labels = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text") if ":" in el.text]
        assert labels == ["t:residual1", "t:residual2", "a&b<c>:residual1", "a&b<c>:residual2"]
        assert "a&amp;b&lt;c&gt;:residual1" in out.read_text()

    def test_undecodable_file_name_is_escaped_in_the_label(self, tmp_path, capsys):
        # not a UnicodeEncodeError traceback on the name's surrogate escape
        trace = self.solve_trace(tmp_path)
        odd = tmp_path / os.fsdecode(b"a\xff.csv")
        odd.write_bytes(trace.read_bytes())
        out = tmp_path / "p.svg"
        assert cli.main(["plot", str(odd), "--out", str(out)]) == 0
        out.read_bytes().decode("utf-8")
        root = ElementTree.parse(out).getroot()
        labels = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text") if ":" in el.text]
        assert labels == ["a\\xff:thompson_gap"]

    def test_zero_gap_clamps_to_floor(self, tmp_path):
        trace = tmp_path / "z.csv"
        cli.write_trace_csv(trace, [(1, 1.0, 1.0, 1.0, 1.0, 1.0), (2, 0.0, 0.5, 0.5, 0.5, 0.5)])
        out = tmp_path / "p.svg"
        assert cli.main(["plot", str(trace), "--out", str(out)]) == 0
        assert "1e-16" in out.read_text()

    def test_malformed_trace_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("k,nope\n1,2\n")
        assert cli.main(["plot", str(bad)]) == 2

    def test_non_integral_k_exit_two_naming_line_and_k(self, tmp_path, capsys):
        trace = tmp_path / "k.csv"
        trace.write_text(",".join(cli.TRACE_COLUMNS) + "\n1,1.0,1.0,1.0,1.0,1.0\n1.5,0.5,0.5,0.5,0.5,0.5\n")
        with pytest.raises(ProblemFormatError, match=r"line 3: 'k' must be an integer, got '1\.5'"):
            cli.read_trace_csv(trace)
        assert cli.main(["plot", str(trace), "--out", str(tmp_path / "p.svg")]) == 2
        assert "'k' must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,0.5,0.5,0.1,0.1,0.2,99", "row at line 2: 7 fields, expected 6"),
            ("1,0.5,0.5,0.1,0.1,0.2,99,98", "row at line 2: 8 fields, expected 6"),
            ("1,0.5,abc,0.1,0.1,0.2", "row at line 2: bad value for 'error_bound'"),
            ("1,0.5,0.5,0.1,0.1", "row at line 2: bad value for 'dist_to_identity'"),
            ("1,0.5,0.5,nan,0.1,0.2", "row at line 2: non-finite 'residual1'"),
            ("1,inf,0.5,0.1,0.1,0.2", "row at line 2: non-finite 'thompson_gap'"),
            (None, "trace has no data rows"),
            # the physical line: a blank line is skipped but counted
            ("1,0.5,0.5,0.1,0.1,0.2\n\n2,0.5,0.5,abc,0.1,0.2", "row at line 4: bad value for 'residual1'"),
        ],
        ids=["extra-field", "extra-fields", "bad-value", "missing-field", "nan", "inf", "no-rows", "after-blank-line"],
    )
    def test_bad_row_exit_two_naming_the_file_and_line(self, tmp_path, capsys, row, message):
        trace = tmp_path / "t.csv"
        trace.write_text(",".join(cli.TRACE_COLUMNS) + "\n" + ("" if row is None else row + "\n"))
        assert cli.main(["plot", str(trace), "--out", str(tmp_path / "p.svg")]) == 2
        assert capsys.readouterr().err == f"error: {trace}: {message}\n"
        assert not (tmp_path / "p.svg").exists()

    def test_single_decade_axis_spans_one_decade(self):
        # all values 0.1: the axis would have no height without the extra decade
        svg = cli.render_svg([("s", (1, 2), (0.1, 0.1))])
        assert ">1e-01</text>" in svg and ">1e+00</text>" in svg

    def test_undecodable_trace_exit_two_naming_it(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_bytes(b"\xff\xfe")
        assert cli.main(["plot", str(trace), "--out", str(tmp_path / "p.svg")]) == 2
        message = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
        assert capsys.readouterr().err == f"error: {trace}: {message}\n"

    def test_run_as_module_writes_nothing_to_stderr(self, tmp_path):
        # an eager import of tfp.cli by the package would make runpy warn
        trace, out = self.solve_trace(tmp_path), tmp_path / "p.svg"
        result = run_tfp("plot", trace, "--out", out, as_module=True)
        assert result.returncode == 0
        assert result.stderr == ""
        assert out.read_text().startswith("<svg")

    def test_plot_bytes_deterministic(self, tmp_path):
        t1 = self.solve_trace(tmp_path)
        out1, out2 = tmp_path / "p1.svg", tmp_path / "p2.svg"
        for out in (out1, out2):
            assert cli.main(["plot", str(t1), "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def forced_trace(path):
    """The problem of a file and the trace of its forced solve."""
    problem, x0, options = cli.load_problem(path)
    try:
        result = matrix_solver.solve(problem, x0=x0, options=dataclasses.replace(options, force=True))
    except (MaxIterationsExceeded, ResidualToleranceExceeded) as exc:
        result = exc.result
    return problem, result.trace


def row_bits(rows):
    return [tuple(float(value).hex() for value in row) for row in rows]


def point_by_point_rows(problem, trace):
    """The trace rows computed from one point at a time."""
    rows = []
    for k in range(1, len(trace.points)):
        point = trace.points[k]
        r1, r2 = matrix_solver.residuals(problem, point)
        bound = error_bound(matrix_solver.alpha_for(problem), trace.gaps[0], k)
        rows.append((k, trace.gaps[k - 1], bound, r1, r2, thompson.distance_to_identity(point)))
    return rows


class TestStackedTraceRows:
    """``trace_rows`` stacks the trace's points; each row must have the bits
    of the same row computed point by point."""

    def assert_rows_match(self, problem, trace):
        rows = cli.trace_rows(problem, trace)
        assert len(rows) == trace.iterations
        assert row_bits(rows) == row_bits(point_by_point_rows(problem, trace))

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_fixtures(self, name):
        self.assert_rows_match(*forced_trace(fixture_path(name)))

    @pytest.mark.parametrize("n", [3, 8, 16])
    def test_known_answer_problems(self, tmp_path, n):
        for path in known_answer_files(tmp_path, n, 4, 7):
            self.assert_rows_match(*forced_trace(path))

    def test_blocks_cross_a_boundary(self, monkeypatch):
        # example_4_1 runs to max_iter: 200 rows in blocks of 7 points
        problem, trace = forced_trace(fixture_path("example_4_1.json"))
        assert trace.iterations == 200
        monkeypatch.setattr(hpd_core, "_BLOCK_ENTRIES", 7 * 3 * 3)
        calls = []
        residuals = matrix_solver.residuals
        monkeypatch.setattr(matrix_solver, "residuals", lambda *args: calls.append(args) or residuals(*args))
        cli.trace_rows(problem, trace)
        assert len(calls) == math.ceil(200 / 7)
        self.assert_rows_match(problem, trace)


JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.floats().map(np.float64), st.text()
)
JSON_DOCUMENTS = st.recursive(
    JSON_LEAVES, lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(), inner, max_size=5)
)
# Floats as matrix literals hold them, the values json spells apart and
# the extremes of the float range among them.
JSON_FLOATS = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([-0.0, np.float64(-0.0), math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-308, -1e-308]),
)
NOT_FLOATS = st.one_of(st.integers(), st.booleans(), st.none(), st.text(max_size=3))
# Depth 1-3, side 1-20, and a last axis of 2 for [re, im] literals.
ARRAY_SHAPES = st.tuples(
    st.lists(st.integers(1, 20), min_size=1, max_size=3), st.booleans()
).map(lambda drawn: drawn[0] + [2] * drawn[1])


def nested(flat, shape):
    """The nested lists of a flat list of values in C order, the values
    themselves (np.float64 stays np.float64)."""
    return np.array(flat, dtype=object).reshape(shape).tolist()


@st.composite
def float_values(draw, shape):
    """A flat list of floats for an array of this shape, drawn from a small
    pool, so that 8000 entries cost a seeded generator, not 8000 draws."""
    pool = draw(st.lists(JSON_FLOATS, min_size=1, max_size=20))
    picks = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(len(pool), size=math.prod(shape))
    return [pool[i] for i in picks]


@st.composite
def float_arrays(draw):
    shape = draw(ARRAY_SHAPES)
    return nested(draw(float_values(shape)), shape)


@st.composite
def almost_float_arrays(draw):
    """Nested lists one defect away from one shape of floats: a value that
    is not a float, a ragged or empty inner list, or a tuple."""
    shape = draw(ARRAY_SHAPES)
    flat = draw(float_values(shape))
    defect = draw(st.sampled_from(["leaf", "ragged", "empty", "tuple"]))
    if defect == "leaf":
        flat[draw(st.integers(0, len(flat) - 1))] = draw(NOT_FLOATS)
        return nested(flat, shape)
    value = nested(flat, shape)
    at = draw(st.integers(0, len(value)))
    if defect == "ragged":
        other = draw(ARRAY_SHAPES)
        if other == shape[1:]:
            other[-1] += 1
        value.insert(at, nested(draw(float_values(other)), other))
    elif defect == "empty":
        value.insert(at, [])
    elif at < len(value) and isinstance(value[at], list):
        value[at] = tuple(value[at])
    else:
        value = tuple(value)
    return value


def in_a_document(values):
    """A value alone, or at the depths of a solution's matrix and a
    report's witness, beside other values."""
    return st.one_of(
        values,
        values.map(lambda value: {"solution": value, "metadata": {"seed": 1, "alpha_used": 0.5}}),
        values.map(lambda value: {"A": {"worst": {"X": value, "Y": [value, None]}}, "B": [1, value, "x"]}),
    )


class TestJsonWriter:
    """The solution and report writer reproduces ``json.dumps(doc,
    indent=2, sort_keys=True)`` byte for byte."""

    @settings(max_examples=150)
    @given(JSON_DOCUMENTS)
    def test_matches_json_dumps(self, doc):
        assert cli._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)

    def test_special_values_and_escapes(self):
        doc = {
            "é☃\n": [math.nan, math.inf, -math.inf, np.float64(-0.0), [], {}, [[1.5, 2]], True, None, "ü\""],
            "b": {"": 1e308},
        }
        assert cli._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)

    @settings(max_examples=150)
    @given(in_a_document(float_arrays()))
    def test_float_arrays_match_json_dumps(self, doc):
        assert cli._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)

    @settings(max_examples=60)
    @given(float_arrays())
    def test_float_arrays_take_the_array_path(self, value):
        assert cli._json_array(value, "\n") == json.dumps(value, indent=2)

    @settings(max_examples=150)
    @given(in_a_document(almost_float_arrays()))
    def test_other_nested_lists_match_json_dumps(self, doc):
        assert cli._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)

    @settings(max_examples=60)
    @given(almost_float_arrays())
    def test_other_nested_lists_fall_back(self, value):
        assert cli._json_array(value, "\n") is None

    @pytest.mark.parametrize(
        "value",
        [[[1.0, 2.0], [3.0, 4]], [[1.0, 2.0], [3.0]], [[1.0], []], [[1.0], (2.0,)], (1.0, 2.0), [1.0, True], [[1.0, None]]],
        ids=["int-last", "ragged", "empty-inner", "inner-tuple", "tuple", "bool", "none"],
    )
    def test_fallback_leaves_no_partial_text(self, value):
        doc = {"m": value, "z": [0.5, -0.0]}
        assert cli._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)

    def test_unserializable_value_is_a_type_error(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._json_text({"x": {1, 2}})

    @staticmethod
    def count_walked_values(monkeypatch):
        """The values ``cli._json_value`` is called on from now on."""
        walked, walk = [], cli._json_value

        def counted(value, newline):
            walked.append(value)
            return walk(value, newline)

        monkeypatch.setattr(cli, "_json_value", counted)
        return walked

    @pytest.mark.parametrize("n", [5, 16])
    def test_a_solution_is_walked_once_per_key(self, tmp_path, monkeypatch, n):
        """A solution's literal is one template fill, not a walk over its
        2 n^2 floats: one call for the document and one per key, at any n."""
        [problem] = known_answer_files(tmp_path, n, 1, 7)
        walked = self.count_walked_values(monkeypatch)
        assert cli.main(["solve", str(problem), "--force", "--out", str(tmp_path / "trace.csv")]) == 0
        doc = json.loads((tmp_path / "trace.json").read_text())
        assert len(doc["solution"]) == n
        assert len(walked) == 1 + len(doc) + len(doc["metadata"]) == 12

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_a_report_is_walked_once_per_key(self, tmp_path, monkeypatch, name):
        """Every witness matrix of a report is one template fill: one call
        for the document and one per key of any of its objects."""
        walked = self.count_walked_values(monkeypatch)
        cli.main(["check", str(fixture_path(name)), "--out", str(tmp_path / "report.json")])
        doc = json.loads((tmp_path / "report.json").read_text())

        def objects(value):
            if isinstance(value, dict):
                yield value
                for item in value.values():
                    yield from objects(item)

        assert len(walked) == 1 + sum(map(len, objects(doc)))

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_written_files_are_json_dumps_output(self, tmp_path, name):
        report, trace = tmp_path / "report.json", tmp_path / "trace.csv"
        cli.main(["check", str(fixture_path(name)), "--out", str(report)])
        cli.main(["solve", str(fixture_path(name)), "--force", "--out", str(trace)])
        for path in (report, trace.with_suffix(".json")):
            text = path.read_text()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
