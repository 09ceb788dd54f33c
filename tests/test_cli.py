"""CLI tests: file formats, exit codes, determinism, and the SVG plotter."""

import json
import math

import numpy as np
import pytest

from tfp import cli, matrix_solver
from tfp.errors import ProblemFormatError
from tfp.fixtures import fixture_path, list_fixtures

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


class TestProblemFiles:
    def test_fixture_listing(self):
        assert list_fixtures() == ALL_FIXTURES

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_round_trip(self, tmp_path, name):
        problem, x0, options = cli.load_problem(fixture_path(name))
        doc = cli.serialize_problem(problem, x0=x0, options=options)
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
        doc = json.loads(fixture_path("quadratic_pass.json").read_text())
        del doc["Q1"]
        with pytest.raises(ProblemFormatError, match="Q1"):
            cli.load_problem(write_problem(tmp_path, doc))

    def test_unknown_option_rejected(self, tmp_path):
        doc = json.loads(fixture_path("quadratic_pass.json").read_text())
        doc["options"]["turbo"] = True
        with pytest.raises(ProblemFormatError, match="turbo"):
            cli.load_problem(write_problem(tmp_path, doc))

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
        ],
    )
    def test_inexact_value_types_exit_two_naming_the_key(self, tmp_path, capsys, section, key, value):
        doc = json.loads(fixture_path("quadratic_pass.json").read_text())
        (doc if section is None else doc[section])[key] = value
        assert cli.main(["check", str(write_problem(tmp_path, doc))]) == 2
        assert f"'{key}' must be" in capsys.readouterr().err

    def test_integral_float_reads_as_integer(self, tmp_path):
        doc = json.loads(fixture_path("example_4_2.json").read_text())
        doc["options"]["max_iter"] = 200.0
        _, _, options = cli.load_problem(write_problem(tmp_path, doc))
        assert options.max_iter == 200 and isinstance(options.max_iter, int)

    def test_tfp_seed_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TFP_SEED", "321")
        _, _, options = cli.load_problem(fixture_path("quadratic_pass.json"))
        assert options.seed == 321
        monkeypatch.setenv("TFP_SEED", "noise")
        with pytest.raises(ProblemFormatError, match="TFP_SEED"):
            cli.load_problem(fixture_path("quadratic_pass.json"))


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

    def test_unforced_solve_fails_conditions_exit_three(self, tmp_path):
        out = tmp_path / "t.csv"
        code = cli.main(["solve", str(fixture_path("check_fail_power.json")), "--out", str(out)])
        assert code == 3
        assert not out.exists()

    def test_force_flag_overrides(self, tmp_path):
        out = tmp_path / "t.csv"
        code = cli.main(["solve", str(fixture_path("check_fail_power.json")), "--force", "--out", str(out)])
        assert code == 0
        solution = json.loads(out.with_suffix(".json").read_text())["solution"]
        golden = (1 + math.sqrt(5)) / 2
        assert solution[0][0] == pytest.approx(golden, abs=1e-9)

    def test_x0_outside_ball_exit_five(self, tmp_path):
        x0 = tmp_path / "x0.json"
        x0.write_text(json.dumps([[60.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        code = cli.main(
            ["solve", str(fixture_path("example_4_2.json")), "--x0", str(x0), "--out", str(tmp_path / "t.csv")]
        )
        assert code == 5

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
        cli.write_trace_csv(
            trace,
            [
                {
                    "k": 1,
                    "thompson_gap": 0.5,
                    "error_bound": 1.0,
                    "residual1": 0.1,
                    "residual2": 0.2,
                    "dist_to_identity": 0.3,
                }
            ],
        )
        out = tmp_path / "p.svg"
        assert cli.main(["plot", str(trace), "--out", str(out)]) == 0
        svg = out.read_text()
        assert "<circle" in svg and "<polyline" not in svg

    def test_zero_gap_clamps_to_floor(self, tmp_path):
        trace = tmp_path / "z.csv"
        rows = [
            {"k": 1, "thompson_gap": 1.0, "error_bound": 1.0, "residual1": 1.0, "residual2": 1.0, "dist_to_identity": 1.0},
            {"k": 2, "thompson_gap": 0.0, "error_bound": 0.5, "residual1": 0.5, "residual2": 0.5, "dist_to_identity": 0.5},
        ]
        cli.write_trace_csv(trace, rows)
        out = tmp_path / "p.svg"
        assert cli.main(["plot", str(trace), "--out", str(out)]) == 0
        assert "1e-16" in out.read_text()

    def test_malformed_trace_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("k,nope\n1,2\n")
        assert cli.main(["plot", str(bad)]) == 2

    def test_plot_bytes_deterministic(self, tmp_path):
        t1 = self.solve_trace(tmp_path)
        out1, out2 = tmp_path / "p1.svg", tmp_path / "p2.svg"
        for out in (out1, out2):
            assert cli.main(["plot", str(t1), "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
