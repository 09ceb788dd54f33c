"""Command-line front end: check, solve, and plot.

Problem files are JSON documents describing one equation pair; solves
persist a per-iteration CSV trace plus a companion JSON with the final
solution, and the plotter renders static semilog SVG convergence charts
from one or more traces.  All outputs are byte-deterministic for fixed
inputs on one BLAS build and thread count: no timestamps, stable key
order, shortest-round-trip floats.

Exit codes: 0 success, 2 parse or schema error or an output that cannot
be written, 3 condition check failed (or broke down numerically), 4 no
residual-certified convergence (or the iteration or a trace row broke down
numerically), 5 starting point not positive definite or outside the ball.
``main`` is the one place that turns a failure into its exit code and one
``error:`` line naming what failed; a check that breaks down names itself
(``ConditionsNotVerified``).  A numerical breakdown, such as a map's
right-hand side that overflows, or an output that cannot be written (exit
2) leaves no output file.  An output is overwritten in place by
``_write_output``, and a run whose output would overwrite one of its
inputs is refused (exit 2) before anything is read.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import json
import locale
import math
import os
import sys
from collections.abc import Sequence
from itertools import chain, zip_longest
from json.encoder import encode_basestring_ascii
from pathlib import Path
from stat import S_ISREG

import numpy as np

from . import fixpoint_engine, hpd_core, matrix_solver, thompson
from .errors import (
    ConditionsNotVerified,
    MaxIterationsExceeded,
    ProblemFormatError,
    ResidualToleranceExceeded,
    TfpError,
    X0DomainError,
)
from .hpd_core import PDPoint, as_count, as_finite, as_seed, matrix_from_literal, matrix_to_literal, require_hermitian

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_CONDITIONS = 3
EXIT_NOT_CONVERGED = 4
EXIT_X0 = 5

# The exit code of a named failure, by its exact class; any other TfpError
# is a numerical breakdown of the iteration (check and plot raise only these).
_EXIT_CODES = {ProblemFormatError: EXIT_FORMAT, X0DomainError: EXIT_X0, ConditionsNotVerified: EXIT_CONDITIONS}

# Top-level keys of a problem file, by kind.
_COMMON_KEYS = ("kind", "n", "m", "A", "F", "G", "a", "l", "s", "x0", "options")
PROBLEM_KEYS = {
    matrix_solver.TYPE1: frozenset((*_COMMON_KEYS, "Q1", "Q2")),
    matrix_solver.TYPE2: frozenset((*_COMMON_KEYS, "r")),
}

# The columns of a trace file, in order: a trace row is a tuple of these.
TRACE_COLUMNS = ("k", "thompson_gap", "error_bound", "residual1", "residual2", "dist_to_identity")
_TRACE_HEADER = ",".join(TRACE_COLUMNS) + "\n"
_TRACE_ROW = ",".join(["%s"] * len(TRACE_COLUMNS)) + "\n"

SERIES_COLUMNS = {
    "gap": ("thompson_gap",),
    "bound": ("error_bound",),
    "residual": ("residual1", "residual2"),
}

# Log-scale floor for plotting: zeros clamp here instead of breaking the axis.
PLOT_FLOOR = 1e-16

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


# ---------------------------------------------------------------------------
# Problem files


@contextlib.contextmanager
def _prefixed(prefix=None):
    """Re-raise a ``TfpError`` or ``ValueError`` from the block as a
    ``ProblemFormatError`` whose message starts with ``prefix: ``: the one
    place where a file, or a key within it, is named.  With no prefix the
    message is kept, for a flag or a variable that names itself."""
    try:
        yield
    except (TfpError, ValueError) as exc:
        raise ProblemFormatError(str(exc) if prefix is None else f"{prefix}: {exc}") from exc


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise ProblemFormatError(f"cannot read: {exc}") from exc


def _read_json(path: Path):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def _require_key(data: dict, key: str):
    if key not in data:
        raise ProblemFormatError(f"missing required key '{key}'")
    return data[key]


def _reject_unknown(data: dict, known, what: str) -> None:
    """Raise on the first key of ``data`` not in ``known``, naming it."""
    for key in data:
        if key not in known:
            raise ProblemFormatError(f"{what} '{key}'")


def _number(data: dict, key: str) -> float:
    return as_finite(_require_key(data, key), f"key '{key}'")


def _matrix(data: dict, key: str):
    return matrix_from_literal(_require_key(data, key), key)


def _x0(literal, n: int):
    """A starting point from its literal: a Hermitian n-by-n matrix."""
    return require_hermitian(matrix_from_literal(literal, "x0"), "x0", n)


def _function_spec(data: dict, key: str) -> matrix_solver.MatrixFunctionSpec:
    """F or G: a power with a finite exponent or a positive definite constant;
    errors within the object name its key."""
    value = _require_key(data, key)
    if not isinstance(value, dict):
        raise ProblemFormatError(f"key '{key}' must be an object")
    with _prefixed(f"key '{key}'"):
        kind = value.get("kind")
        if kind == "power":
            _reject_unknown(value, ("kind", "exponent"), "unknown power field")
            return matrix_solver.power(_number(value, "exponent"))
        if kind == "constant":
            _reject_unknown(value, ("kind", "value"), "unknown constant field")
            return matrix_solver.constant(_matrix(value, "value"))
        raise ProblemFormatError(f"unknown matrix function kind {kind!r}")


def load_problem(path) -> tuple[matrix_solver.ProblemSpec, object, matrix_solver.SolveOptions]:
    """Parse and validate a problem file.

    Returns the problem, the starting point (``None`` meaning identity)
    and the solve options, with the ``TFP_SEED`` environment variable
    taking precedence over the file's seed.  Every error but a bad
    ``TFP_SEED`` names the file.
    """
    path = Path(path)
    with _prefixed(path):
        data = _read_json(path)
        if not isinstance(data, dict):
            raise ProblemFormatError("top level must be an object")
        kind = _require_key(data, "kind")
        if kind not in (matrix_solver.TYPE1, matrix_solver.TYPE2):
            raise ProblemFormatError(f"key 'kind' must be 'type1' or 'type2', got {kind!r}")
        _reject_unknown(data, PROBLEM_KEYS[kind], f"unknown {kind} key")
        n = as_count(_require_key(data, "n"), "key 'n'")
        m = as_count(_require_key(data, "m"), "key 'm'")
        a_value = _require_key(data, "A")
        if not isinstance(a_value, list) or len(a_value) != m:
            raise ProblemFormatError(f"key 'A' must list exactly m={m} matrices")
        mats = [matrix_from_literal(entry, f"A[{i}]") for i, entry in enumerate(a_value)]
        f_spec, g_spec = _function_spec(data, "F"), _function_spec(data, "G")
        fields = {key: _number(data, key) for key in ("a", "l", "s")}
        if kind == matrix_solver.TYPE1:
            build = matrix_solver.problem_type1
            fields.update(Q1=_matrix(data, "Q1"), Q2=_matrix(data, "Q2"))
        else:
            build = matrix_solver.problem_type2
            fields.update(r=_number(data, "r"))
        problem = build(n=n, A=mats, F=f_spec, G=g_spec, **fields)

        x0 = None
        if "x0" in data and data["x0"] != "identity":
            x0 = _x0(data["x0"], n)

        raw_options = data.get("options", {})
        if not isinstance(raw_options, dict):
            raise ProblemFormatError("key 'options' must be an object")
        rules = matrix_solver.OPTION_RULES
        _reject_unknown(raw_options, rules, "unknown option")
        kwargs = {key: rules[key](value, f"option '{key}'") for key, value in raw_options.items()}
    seed = os.environ.get("TFP_SEED")
    if seed is not None:
        with contextlib.suppress(ValueError):  # text that is no integer is refused as such below
            seed = int(seed)
        with _prefixed():
            kwargs["seed"] = as_seed(seed, "TFP_SEED")
    return problem, x0, matrix_solver.SolveOptions(**kwargs)


# ---------------------------------------------------------------------------
# Output files


def _write_output(path, text: str) -> None:
    """Write ``text`` to ``path`` as ``Path.write_text`` does, in place.

    The text is encoded once, in the encoding ``open`` uses, and its bytes
    written with ``os.write``.  The file is opened without ``O_TRUNC``
    and cut to the new length after the write: truncating a non-empty file
    to zero first costs a block free and a writeback on close (ext4's
    ``auto_da_alloc``), several times the cost of the write.  A run killed
    mid-write leaves the new bytes followed by the old file's tail.  Only a
    regular file is cut; ``/dev/null``, a pipe or a terminal cannot be.
    The mode of a new file and the ``OSError`` of a bad path are
    ``write_text``'s; a newline is written as ``\\n``.
    """
    data = memoryview(text.encode(locale.getpreferredencoding(False)))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        while written < len(data):  # a pipe may take part of it
            written += os.write(fd, data[written:])
        if S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, written)
    finally:
        os.close(fd)


def _refuse_overwriting_inputs(outputs, inputs) -> None:
    """Raise a ``ProblemFormatError`` if an output names an existing input
    file, however spelt or linked (``os.path.samefile``)."""
    for output in outputs:
        for source in inputs:
            try:
                same = os.path.samefile(output, source)
            except OSError:
                continue  # a missing output overwrites nothing; a missing input fails to load
            if same:
                raise ProblemFormatError(f"output {output} would overwrite the input {source}")


# ---------------------------------------------------------------------------
# Trace files


def trace_rows(problem: matrix_solver.ProblemSpec, trace) -> list[tuple]:
    """Expand a trace into CSV rows, tuples of Python numbers in
    ``TRACE_COLUMNS`` order: one per iteration, k starting at 1.

    The points are stacked in blocks of ``hpd_core._block_size``, and one
    ``residuals`` and one ``distance_to_identity`` call per block give its
    rows, reading the points' known spectra: no eigensolve.  Each row has
    the bits it has when its point is taken alone, and the a-priori bound
    for its iterate, one ``error_bound`` call giving every row's bound.
    """
    rows, block, ks = [], hpd_core._block_size(problem.n), range(1, len(trace.points))
    bounds = fixpoint_engine.error_bound(matrix_solver.alpha_for(problem), trace.gaps[0], ks)
    for first in range(0, len(ks), block):
        points = PDPoint.stacked(trace.points[first + 1 : first + 1 + block])
        r1, r2 = matrix_solver.residuals(problem, points)
        dist = thompson.distance_to_identity(points)
        part = slice(first, first + block)
        rows += zip(ks[part], trace.gaps[part], bounds[part], r1.tolist(), r2.tolist(), dist.tolist())
    return rows


def _format_rows(template: str, *columns, sep: str = "\n") -> str:
    """``template`` formatted with each row of the equal-length ``columns``,
    the copies joined by ``sep``: one ``%`` pass over all the values."""
    values = [None] * (len(columns) * len(columns[0]))
    for i, column in enumerate(columns):
        values[i :: len(columns)] = column
    return sep.join([template] * len(columns[0])) % tuple(values)


def write_trace_csv(path, rows) -> None:
    """Write trace rows as CSV: the header, then per row ``k`` and the
    shortest round-trip repr of each float column, all rows in one ``%``
    pass.  ``%s`` prints an ``np.float64`` as it prints a Python float."""
    _write_output(path, _TRACE_HEADER + _TRACE_ROW * len(rows) % tuple(chain.from_iterable(rows)))


def _row_error(fields: list, line: int) -> ProblemFormatError:
    """The error of a trace row that is not a valid one, walked cell by cell
    to name its first bad field."""
    if len(fields) > len(TRACE_COLUMNS):
        return ProblemFormatError(f"row at line {line}: {len(fields)} fields, expected {len(TRACE_COLUMNS)}")
    for col, cell in zip_longest(TRACE_COLUMNS, fields):
        try:
            value = float(cell)
        except (TypeError, ValueError):  # TypeError: a missing field
            return ProblemFormatError(f"row at line {line}: bad value for '{col}'")
        if not math.isfinite(value):
            return ProblemFormatError(f"row at line {line}: non-finite '{col}'")
    return ProblemFormatError(f"row at line {line}: 'k' must be an integer, got {fields[0]!r}")


def read_trace_csv(path) -> list[tuple]:
    """The rows of a trace CSV, as ``trace_rows`` gives them (``k`` an
    int); every error names the file, and a bad row its physical line.
    Blank lines are skipped.

    ``csv.reader`` splits the rows and one ``map(float, ...)`` converts
    each; only a row that fails is walked cell by cell (``_row_error``) to
    name its first bad field.
    """
    path = Path(path)
    with _prefixed(path):
        reader = csv.reader(io.StringIO(_read_text(path)))
        header = next(reader, None)
        if header != list(TRACE_COLUMNS):
            raise ProblemFormatError(f"expected header {','.join(TRACE_COLUMNS)}, got {header}")
        rows = []
        for fields in reader:
            if not fields:
                continue
            try:
                k, gap, bound, r1, r2, dist = map(float, fields)
            except ValueError:  # a bad cell or a wrong number of them
                raise _row_error(fields, reader.line_num) from None
            if not (k.is_integer() and all(map(math.isfinite, (gap, bound, r1, r2, dist)))):
                raise _row_error(fields, reader.line_num)
            rows.append((int(k), gap, bound, r1, r2, dist))
        if not rows:
            raise ProblemFormatError("trace has no data rows")
    return rows


def _json_text(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte.

    One rule lays out every list and object (``_json_container``): its
    items one per line, two spaces deeper than the container, or bare
    brackets when it is empty.  ``_json_value`` walks the document with it
    and returns each value's text.  A non-empty nested list of floats of
    one shape, such as a matrix literal, is instead one ``float.__repr__``
    pass and one ``join`` into a template that the same rule lays out once
    per shape and indent (``_json_array``).  It takes what the CLI writes:
    dicts with str keys, lists, tuples, str, int, bool, None and floats
    (``np.float64`` too, NaN and infinities spelt as json spells them).
    """
    return _json_value(doc, "\n")


def _json_spelling(text: str) -> str:
    """Float reprs as json spells them: NaN, Infinity and -Infinity."""
    # float.__repr__ writes nan, inf and -inf, the only reprs with an "n"
    if "n" in text:
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def _json_container(brackets: str, items: list, inner: str) -> str:
    """A json list or object (``brackets`` "[]" or "{}") of the item texts
    ``items``, each on a line of its own that starts with ``inner``, two
    spaces deeper than the container's own line; bare brackets if none."""
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + inner[:-2] + brackets[1]


def _json_value(value, newline: str) -> str:
    """The json text of ``value`` on a line that starts with ``newline``."""
    if isinstance(value, float):
        return _json_spelling(float.__repr__(value))
    if isinstance(value, (list, tuple)):
        inner = newline + "  "
        return _json_array(value, newline) or _json_container("[]", [_json_value(item, inner) for item in value], inner)
    if isinstance(value, dict):
        inner = newline + "  "
        items = [encode_basestring_ascii(key) + ": " + _json_value(item, inner) for key, item in sorted(value.items())]
        return _json_container("{}", items, inner)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


@functools.lru_cache(maxsize=64)
def _array_template(shape: tuple, newline: str) -> tuple:
    """The text json writes for a nested list of floats of this shape at
    this indent, laid out by ``_json_container`` from the innermost lists
    out, with None in each float's place (the odd places)."""
    text = "\0"  # a float's place
    for depth in reversed(range(len(shape))):
        text = _json_container("[]", [text] * shape[depth], newline + "  " * (depth + 1))
    template = [None] * (2 * text.count("\0") + 1)
    template[::2] = text.split("\0")
    return tuple(template)


def _json_array(value, newline: str) -> str | None:
    """The json text of a non-empty list of equal-length lists of floats,
    at any depth (a flat list of floats too), with one ``float.__repr__``
    pass and one ``join``; None for any other value."""
    shape, level = [], [value]
    while type(level[0]) is list:
        if set(map(type, level)) != {list} or set(map(len, level)) != {len(level[0])} or not level[0]:
            return None
        shape.append(len(level[0]))
        level = list(chain.from_iterable(level))
    if not shape:
        return None
    parts = list(_array_template(tuple(shape), newline))
    try:
        parts[1::2] = map(float.__repr__, level)
    except TypeError:  # a value that is not a float
        return None
    return _json_spelling("".join(parts))


def write_solution_json(path, problem, result, seed, converged: bool) -> None:
    doc = {
        "solution": matrix_to_literal(result.solution),
        "metadata": {
            "alpha_used": matrix_solver.alpha_for(problem),
            "stop_reason": result.trace.stop_reason,
            "seed": seed,
            "iterations": result.trace.iterations,
            "residual1": result.residual1,
            "residual2": result.residual2,
            "dist_to_identity": result.dist_to_identity,
            "kind": problem.kind,
            "converged": converged,
        },
    }
    _write_output(path, _json_text(doc) + "\n")


# ---------------------------------------------------------------------------
# SVG plotting


def _format_tick(exponent: int) -> str:
    return f"1e{exponent:+03d}"


def render_svg(series: list[tuple[str, Sequence[int], Sequence[float]]]) -> str:
    """Render labelled iteration series as a deterministic semilog SVG.

    Each series is (label, ks, values); values are clamped to the log
    floor.  Fixed 800x600 viewbox, log ticks at powers of ten.  Each
    series' coordinates are one list comprehension per axis; the ticks and
    each series' points are one ``%.2f`` template each (``_format_rows``),
    and the circles are the points' text with its separators replaced.
    """
    width, height = 800, 600
    left, right, top, bottom = 80, 30, 30, 60
    plot_w = width - left - right
    plot_h = height - top - bottom

    ks = [k for _, series_ks, _ in series for k in series_ks]
    vals = [max(v, PLOT_FLOOR) for _, _, values in series for v in values]
    k_min, k_max = min(ks), max(ks)
    k_span = max(k_max - k_min, 1)
    e_min = math.floor(math.log10(min(vals)))
    e_max = math.ceil(math.log10(max(vals)))
    if e_max == e_min:
        e_max += 1
    e_span = e_max - e_min

    def sx(ks) -> list:
        return [left + (k - k_min) / k_span * plot_w for k in ks]

    def sy(values) -> list:
        return [top + (e_max - math.log10(max(v, PLOT_FLOOR))) / e_span * plot_h for v in values]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]

    exponents = range(e_min, e_max + 1, max(1, (e_span + 9) // 10))
    ys = sy([10.0**e for e in exponents])
    y_tick = (
        f'<line x1="{left - 5:.2f}" y1="%.2f" x2="{left + plot_w:.2f}" y2="%.2f" '
        'stroke="#cccccc" stroke-width="0.5"/>\n'
        f'<text x="{left - 8:.2f}" y="%.2f" text-anchor="end" '
        'font-family="monospace" font-size="12">%s</text>'
    )
    parts.append(_format_rows(y_tick, ys, ys, [y + 4 for y in ys], list(map(_format_tick, exponents))))
    x_ticks = sorted({k_min, k_max} | {k_min + round(i * k_span / 5) for i in range(1, 5)})
    xs = sx(x_ticks)
    x_tick = (
        f'<line x1="%.2f" y1="{top + plot_h:.2f}" x2="%.2f" y2="{top + plot_h + 5:.2f}" '
        'stroke="#333333" stroke-width="1"/>\n'
        f'<text x="%.2f" y="{top + plot_h + 20:.2f}" text-anchor="middle" '
        'font-family="monospace" font-size="12">%s</text>'
    )
    parts.append(_format_rows(x_tick, xs, xs, xs, x_ticks))
    parts.append(
        f'<text x="{left + plot_w / 2:.2f}" y="{height - 15:.2f}" text-anchor="middle" '
        'font-family="monospace" font-size="13">iteration k</text>'
    )

    for idx, (label, ks, values) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        # xml.sax.saxutils.escape, whose import would load urllib and ssl
        label = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        if ks:
            xs, ys = sx(ks), sy(values)
            points = _format_rows("%.2f,%.2f", xs, ys, sep=" ")
            if len(ks) > 1:
                parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
            # the circles reuse the points' text, which has no comma or
            # space but those that join the coordinates
            circle_end = f'" r="2" fill="{color}"/>'
            circles = points.replace(" ", circle_end + '\n<circle cx="').replace(",", '" cy="')
            parts.append('<circle cx="' + circles + circle_end)
        ly = top + 16 + 16 * idx
        parts.append(
            f'<rect x="{left + plot_w - 180:.2f}" y="{ly - 9:.2f}" width="10" height="10" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{left + plot_w - 165:.2f}" y="{ly:.2f}" '
            f'font-family="monospace" font-size="12">{label}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Commands


def cmd_check(args) -> int:
    out_path = Path(args.out) if args.out else Path.cwd() / (Path(args.problem).stem + ".check.json")
    _refuse_overwriting_inputs([out_path], [args.problem])
    problem, _, options = load_problem(args.problem)
    with _prefixed():
        samples = options.samples if args.samples is None else as_count(args.samples, "--samples")
        seed = options.seed if args.seed is None else as_seed(args.seed, "--seed")
    report = matrix_solver.check_conditions(problem, samples=samples, seed=seed)
    _write_output(out_path, _json_text(report.to_jsonable()) + "\n")

    for name, stat in sorted(report.conditions.items()):
        verdict = "pass" if stat.passed else "FAIL"
        line = (
            f"condition {name}: {verdict}  ({stat.checked - stat.failures}/{stat.checked} samples, "
            f"worst margin {stat.worst_margin:+.3e})"
        )
        print(line)
        if not stat.passed and stat.worst is not None:
            print(
                f"  worst witness: sample {stat.worst['sample']}, "
                f"{stat.worst['inequality']}: lhs={stat.worst['lhs']:.6g} rhs={stat.worst['rhs']:.6g}"
            )
    print(f"report written to {out_path}")
    return EXIT_OK if report.passed else EXIT_CONDITIONS


def _resolve_x0(args, file_x0, n):
    if args.x0 is None:
        return file_x0
    if args.x0 == "identity":
        return None
    with _prefixed(args.x0):
        return _x0(_read_json(Path(args.x0)), n)


def cmd_solve(args) -> int:
    out_csv = Path(args.out) if args.out else Path.cwd() / "trace.csv"
    out_json = out_csv.with_suffix(".json")
    if out_csv == out_json:
        raise ProblemFormatError(f"--out {out_csv}: the trace and the solution cannot share one path")
    inputs = [args.problem] if args.x0 in (None, "identity") else [args.problem, args.x0]
    _refuse_overwriting_inputs([out_csv, out_json], inputs)
    problem, file_x0, options = load_problem(args.problem)
    if args.force:
        options = dataclasses.replace(options, force=True)
    x0 = _resolve_x0(args, file_x0, problem.n)

    try:
        result, failure = matrix_solver.solve(problem, x0=x0, options=options), None
    except (MaxIterationsExceeded, ResidualToleranceExceeded) as exc:
        # a stalled or uncertified run still writes its trace and solution;
        # only the message is kept, since the exception's traceback holds
        # this frame, and a local holding it would make a cycle that keeps
        # the whole trace until the cycle collector runs
        result, failure = exc.result, str(exc)
    converged = failure is None
    write_trace_csv(out_csv, trace_rows(problem, result.trace))
    try:
        write_solution_json(out_json, problem, result, options.seed, converged)
    except OSError:
        out_csv.unlink()  # exit 2 leaves no output file
        raise
    if not converged:
        print(f"error: {failure}", file=sys.stderr)
    status = "converged" if converged else "NOT residual-certified"
    print(
        f"{status}: {result.trace.iterations} iterations, residuals "
        f"({result.residual1:.3e}, {result.residual2:.3e}), "
        f"d(X, I) = {result.dist_to_identity:.6g}"
    )
    print(f"trace written to {out_csv}, solution to {out_json}")
    return EXIT_OK if converged else EXIT_NOT_CONVERGED


def cmd_plot(args) -> int:
    out_path = Path(args.out) if args.out else Path.cwd() / "plot.svg"
    _refuse_overwriting_inputs([out_path], args.traces)
    series_names = args.series or ["gap"]
    series = []
    for trace_path in args.traces:
        columns = dict(zip(TRACE_COLUMNS, zip(*read_trace_csv(trace_path))))
        # a file name's undecodable bytes come as surrogates, which no
        # encoding writes: the label shows them escaped, as \xff
        stem = os.fsencode(Path(trace_path).stem).decode(sys.getfilesystemencoding(), "backslashreplace")
        for name in series_names:
            for column in SERIES_COLUMNS[name]:
                series.append((f"{stem}:{column}", columns["k"], columns[column]))
    _write_output(out_path, render_svg(series))
    print(f"plot written to {out_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfp",
        description="Solve pairs of nonlinear matrix equations by Thompson-metric fixed-point iteration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the sufficiency-condition checker on a problem file")
    p_check.add_argument("problem", help="problem JSON file")
    p_check.add_argument("--samples", type=int, default=None, help="override sample count")
    p_check.add_argument("--seed", type=int, default=None, help="override sampling seed")
    p_check.add_argument("--out", default=None, help="report JSON path (default: <stem>.check.json)")

    p_solve = sub.add_parser("solve", help="solve a problem file and write the iteration trace")
    p_solve.add_argument("problem", help="problem JSON file")
    p_solve.add_argument("--out", default=None, help="trace CSV path (default: trace.csv)")
    p_solve.add_argument("--x0", default=None, help="'identity' or path to a JSON matrix literal")
    p_solve.add_argument("--force", action="store_true", help="iterate even if the condition check fails")

    p_plot = sub.add_parser("plot", help="render trace CSVs as a semilog SVG chart")
    p_plot.add_argument("traces", nargs="+", help="trace CSV files")
    p_plot.add_argument(
        "--series",
        action="append",
        choices=sorted(SERIES_COLUMNS),
        default=None,
        help="series to draw (repeatable; default: gap)",
    )
    p_plot.add_argument("--out", default=None, help="SVG path (default: plot.svg)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # The parser outlives the call, so the command is looked up by name now,
    # not bound when the parser was built.
    command = globals()[f"cmd_{args.command}"]
    try:
        # Every non-finite value a command computes is caught by a finite
        # check and reported as a named error; numpy's floating-point
        # warnings would only repeat it on stderr.
        with np.errstate(all="ignore"):
            return command(args)
    except OSError as exc:
        # reading an input raises ProblemFormatError, so this is an output
        code, message = EXIT_FORMAT, f"cannot write: {exc}"
    except tuple(_EXIT_CODES) as exc:
        code, message = _EXIT_CODES[type(exc)], str(exc)
    except TfpError as exc:
        code, message = EXIT_NOT_CONVERGED, f"iteration broke down: {exc}"
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
