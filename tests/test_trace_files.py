"""Trace files against the cell-by-cell oracle in ``trace_oracle``: the
CSV and SVG bytes, the rows read back and the message of every malformed
trace must be the oracle's.  The one message that differs, the physical
line of a bad row after a blank line, is asserted in ``test_cli``."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trace_oracle as oracle
from helpers import known_answer_files
from tfp import cli, matrix_solver
from tfp.errors import MaxIterationsExceeded, ResidualToleranceExceeded
from tfp.fixtures import fixture_path

FIXTURES = ["check_fail_power", "check_pass_constant", "example_4_1", "example_4_2", "quadratic_pass"]
HEADER = ",".join(cli.TRACE_COLUMNS)


def solved_rows(path):
    """The trace rows of a forced solve of a problem file."""
    problem, x0, options = cli.load_problem(path)
    try:
        result = matrix_solver.solve(problem, x0=x0, options=dataclasses.replace(options, force=True))
    except (MaxIterationsExceeded, ResidualToleranceExceeded) as exc:
        result = exc.result
    return cli.trace_rows(problem, result.trace)


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """Name -> trace rows: the fixtures' (example_4_1's has 200 rows), the
    known-answer problems' for n = 5, 8, 16, one row, and a zero gap."""
    tmp = tmp_path_factory.mktemp("problems")
    found = {name: solved_rows(fixture_path(f"{name}.json")) for name in FIXTURES}
    for n in (5, 8, 16):
        for i, path in enumerate(known_answer_files(tmp, n, 4, 7)):
            found[f"known-{n}-{i}"] = solved_rows(path)
    found["one-row"] = [(1, 0.5, 1.0, 0.1, 0.2, 0.3)]
    found["zero-gap"] = [(1, 1.0, 1.0, 1.0, 1.0, 1.0), (2, 0.0, 0.5, 0.5, 0.5, 0.5)]
    assert len(found["example_4_1"]) == 200
    return found


def as_dicts(rows):
    """Trace rows as the oracle takes and gives them: dicts by column."""
    return [dict(zip(cli.TRACE_COLUMNS, r)) for r in rows]


def is_python_row(r) -> bool:
    """A trace row as the package hands it over: a tuple of an int and
    five floats, in ``TRACE_COLUMNS`` order."""
    return type(r) is tuple and list(map(type, r)) == [int] + [float] * (len(cli.TRACE_COLUMNS) - 1)


def bits(rows):
    """Each value's type and exact bits: -0.0 and 0.0 differ."""
    return [[(type(value), value.hex() if isinstance(value, float) else value) for value in r.values()] for r in rows]


def plot_series(rows, stem, names):
    """The series ``tfp plot`` draws from one trace of the oracle's rows,
    as the oracle takes them: (label, [(k, value), ...])."""
    return [
        (f"{stem}:{column}", [(r["k"], r[column]) for r in rows])
        for name in names
        for column in cli.SERIES_COLUMNS[name]
    ]


def as_columns(series):
    """Oracle series as ``cli.render_svg`` takes them: (label, ks, values)."""
    return [(label, *(zip(*pts) if pts else ((), ()))) for label, pts in series]


def test_csv_bytes_and_rows_match_the_oracle(traces, tmp_path):
    for name, rows in traces.items():
        path = tmp_path / f"{name}.csv"
        cli.write_trace_csv(path, rows)
        assert path.read_bytes() == oracle.trace_csv_text(as_dicts(rows)).encode(), name
        read = cli.read_trace_csv(path)
        assert bits(as_dicts(read)) == bits(oracle.read_trace_csv(path)), name
        assert all(map(is_python_row, rows)) and all(map(is_python_row, read)), name


def test_svg_bytes_match_the_oracle(traces, tmp_path):
    for name, rows in traces.items():
        for names in (["gap"], ["gap", "bound", "residual"]):
            series = plot_series(as_dicts(rows), name, names)
            assert cli.render_svg(as_columns(series)) == oracle.render_svg(series), (name, names)


@pytest.mark.parametrize(
    "series",
    [
        [("s", [(1, 0.1), (2, 0.1)])],  # one decade
        [("s", [(1, 0.0), (2, 1e-300), (3, 5e-324)])],  # all at the floor
        [("s", [(1, 1e300), (2, 1.0)]), ("t", [(7, 1e-20)]), ("u", [])],
        [("%s %r", [(1, 0.5), (2, 0.25)]), ("a&b<c>", [(1, 0.75)])],
    ],
    ids=["one-decade", "floor", "sparse", "percent-and-markup-labels"],
)
def test_svg_of_odd_series_matches_the_oracle(series):
    assert cli.render_svg(as_columns(series)) == oracle.render_svg(series)


def test_plot_of_two_traces_with_odd_labels_matches_the_oracle(traces, tmp_path):
    plain, odd = tmp_path / "t.csv", tmp_path / "a&b<c> %d.csv"
    cli.write_trace_csv(plain, traces["example_4_2"])
    cli.write_trace_csv(odd, traces["quadratic_pass"])
    for names in (["gap"], ["gap", "bound", "residual"]):
        out = tmp_path / "p.svg"
        argv = ["plot", str(plain), str(odd), *(arg for name in names for arg in ("--series", name))]
        assert cli.main([*argv, "--out", str(out)]) == 0
        series = [s for path in (plain, odd) for s in plot_series(oracle.read_trace_csv(path), path.stem, names)]
        assert out.read_bytes() == oracle.render_svg(series).encode()


GOOD = "1,0.5,0.25,0.1,0.2,0.3"


def malformed():
    """(id, file bytes) of traces the reader must refuse or read as the
    oracle does, with no blank line before a bad row."""
    cells = GOOD.split(",")
    cases = []
    for i, col in enumerate(cli.TRACE_COLUMNS):
        for bad in ("abc", "", "nan", "inf", "-inf", "1e999", "0x1p3"):
            cases.append((f"{col}={bad or 'empty'}", ",".join(cells[:i] + [bad] + cells[i + 1 :])))
        if i:  # a row with no field at all is a blank line
            cases.append((f"missing-{col}", ",".join(cells[:i])))
    cases += [
        ("extra-field", GOOD + ",99"),
        ("extra-fields", GOOD + ",99,98"),
        ("extra-empty-field", GOOD + ","),
        ("k=1.5", "1.5" + GOOD[1:]),
        ("k=1e-3", "1e-3" + GOOD[1:]),
        ("k=2.0", "2.0" + GOOD[1:]),
        ("k=-0.0", "-0.0" + GOOD[1:]),
        ("k=1e20", "1e20" + GOOD[1:]),
        ("spaces", " 1 , 0.5 ,0.25,0.1,0.2,0.3 "),
        ("underscores", "1_0,0.5,0.25,0.1,0.2,0.3"),
        ("quoted", '"1","0.5","0.25","0.1","0.2","0.3"'),
        ("quoted-comma", '1,"0,5",0.25,0.1,0.2,0.3'),
        ("quoted-bad", '1,0.5,"x",0.1,0.2,0.3'),
        ("unterminated-quote", '1,0.5,0.25,0.1,0.2,"0.3'),
        ("whitespace-line", " "),
    ]
    texts = [(name, f"{HEADER}\n{GOOD}\n{bad}\n".encode()) for name, bad in cases]
    texts += [
        ("second-row-bad", f"{HEADER}\n{GOOD}\n2,0.5,0.25,0.1,0.2,0.3\n3,0.5,nan,0.1,0.2,0.3\n".encode()),
        ("no-final-newline", f"{HEADER}\n{GOOD}".encode()),
        ("header-only", f"{HEADER}\n".encode()),
        ("header-no-newline", HEADER.encode()),
        ("trailing-blank-lines", f"{HEADER}\n{GOOD}\n\n\n".encode()),
        ("blank-lines-only", f"{HEADER}\n\n\n".encode()),
        ("empty-file", b""),
        ("blank-header", f"\n{HEADER}\n{GOOD}\n".encode()),
        ("wrong-header", b"k,nope\n1,2\n"),
        ("reordered-header", ("thompson_gap,k" + HEADER[len("k,thompson_gap") :] + f"\n{GOOD}\n").encode()),
        ("extra-header-column", f"{HEADER},x\n{GOOD},1\n".encode()),
        ("short-header", HEADER.rsplit(",", 1)[0].encode() + b"\n1,0.5\n"),
        ("quoted-header", (",".join(f'"{c}"' for c in cli.TRACE_COLUMNS) + f"\n{GOOD}\n").encode()),
        ("crlf", f"{HEADER}\r\n{GOOD}\r\n2,0.5,0.25,0.1,0.2,0.3\r\n".encode()),
        ("crlf-bad-row", f"{HEADER}\r\n{GOOD}\r\n2,0.5,0.25,abc,0.2,0.3\r\n".encode()),
        ("cr-only", f"{HEADER}\r{GOOD}\r".encode()),
        ("not-utf8", b"\xff\xfe"),
        ("not-utf8-in-a-row", f"{HEADER}\n{GOOD}\n".encode() + b"1,0.5,\xe9,0.1,0.2,0.3\n"),
        ("nul", f"{HEADER}\n{GOOD}\n1,0.5\x00,0.25,0.1,0.2,0.3\n".encode()),
    ]
    return texts


CASES = malformed()


@pytest.mark.parametrize("data", [data for _, data in CASES], ids=[name for name, _ in CASES])
def test_reader_gives_the_oracle_rows_or_message(tmp_path, data):
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    try:
        expected = bits(oracle.read_trace_csv(path))
    except Exception as exc:  # a csv.Error too: Python 3.10's reader refuses a NUL
        with pytest.raises(type(exc)) as raised:
            cli.read_trace_csv(path)
        assert str(raised.value) == str(exc)
    else:
        assert bits(as_dicts(cli.read_trace_csv(path))) == expected


FINITE = st.floats(allow_nan=False, allow_infinity=False)
ROWS = st.lists(
    st.tuples(st.integers(min_value=-(2**53), max_value=2**53), FINITE, FINITE, FINITE, FINITE, FINITE),
    min_size=1,
    max_size=8,
)
EXTREMES = [(1, -0.0, 5e-324, 1.7976931348623157e308, -5e-324, -1.7976931348623157e308), (2, 0.0, 1e-300, 0.1, 1e16, 2.5)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ROWS, st.booleans())
@example(EXTREMES, False)
@example(EXTREMES, True)
def test_read_of_write_is_the_rows(tmp_path_factory, values, as_numpy):
    # trace_rows hands over Python floats, but the writer's %s prints an
    # np.float64 as it prints a float, so it takes either
    cast = np.float64 if as_numpy else float
    rows = [(k, *map(cast, floats)) for k, *floats in values]
    path = tmp_path_factory.mktemp("roundtrip") / "t.csv"
    cli.write_trace_csv(path, rows)
    assert path.read_bytes() == oracle.trace_csv_text(as_dicts(rows)).encode()
    assert bits(as_dicts(cli.read_trace_csv(path))) == bits(as_dicts(values))
