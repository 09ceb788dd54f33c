"""Command-line front end: check, solve, and plot.

Problem files are JSON documents describing one equation pair; solves
persist a per-iteration CSV trace plus a companion JSON with the final
solution, and the plotter renders static semilog SVG convergence charts
from one or more traces.  All outputs are byte-deterministic for fixed
inputs: no timestamps, stable key order, shortest-round-trip floats.

Exit codes: 0 success, 2 parse or schema error or an output that cannot
be written, 3 condition check failed (or broke down numerically), 4 no
residual-certified convergence (or the iteration or a trace row broke down
numerically), 5 starting point not positive definite or outside the ball.
``main`` is the one place that turns a failure into its exit code and one
``error:`` line naming what failed; a check that breaks down names itself
(``ConditionsNotVerified``).  A numerical breakdown, such as a map's
right-hand side that overflows, or an output that cannot be written (exit
2) leaves no output file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import fixpoint_engine, matrix_solver, thompson
from .errors import (
    ConditionsNotVerified,
    MaxIterationsExceeded,
    ProblemFormatError,
    ResidualToleranceExceeded,
    TfpError,
    X0DomainError,
)
from .hpd_core import PDPoint, matrix_from_literal, matrix_to_literal, require_hermitian

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

TRACE_COLUMNS = ("k", "thompson_gap", "error_bound", "residual1", "residual2", "dist_to_identity")

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
def _prefixed(prefix):
    """Re-raise a ``TfpError`` or ``ValueError`` from the block as a
    ``ProblemFormatError`` whose message starts with ``prefix: ``: the one
    place where a file, or a key within it, is named."""
    try:
        yield
    except (TfpError, ValueError) as exc:
        raise ProblemFormatError(f"{prefix}: {exc}") from exc


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


def _as_float(value, what: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            message = f"{what} must be a finite number, got an integer beyond the float range"
            raise ProblemFormatError(message) from None
        if math.isfinite(number):
            return number
    raise ProblemFormatError(f"{what} must be a finite number, got {value!r}")


def _as_int(value, what: str, minimum: int = 1) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProblemFormatError(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        raise ProblemFormatError(f"{what} must be at least {minimum}, got {value}")
    return value


def _as_seed(value, what: str) -> int:
    return _as_int(value, what, minimum=0)


def _as_bool(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise ProblemFormatError(f"{what} must be true or false, got {value!r}")
    return value


def _number(data: dict, key: str) -> float:
    return _as_float(_require_key(data, key), f"key '{key}'")


def _matrix(data: dict, key: str):
    return matrix_from_literal(_require_key(data, key), key)


def _x0(literal, n: int):
    """A starting point from its literal: a Hermitian n-by-n matrix."""
    x0 = require_hermitian(matrix_from_literal(literal, "x0"), "x0")
    if x0.shape[0] != n:
        raise ProblemFormatError(f"x0 has shape {x0.shape}, expected ({n}, {n})")
    return x0


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
        n = _as_int(_require_key(data, "n"), "key 'n'")
        m = _as_int(_require_key(data, "m"), "key 'm'")
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
        known = {
            "gap_tol": _as_float,
            "residual_tol": _as_float,
            "max_iter": _as_int,
            "seed": _as_seed,
            "samples": _as_int,
            "force": _as_bool,
        }
        _reject_unknown(raw_options, known, "unknown option")
        kwargs = {key: known[key](value, f"option '{key}'") for key, value in raw_options.items()}
    env_seed = os.environ.get("TFP_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as exc:
            raise ProblemFormatError(f"TFP_SEED must be an integer, got {env_seed!r}") from exc
        kwargs["seed"] = _as_seed(seed, "TFP_SEED")
    return problem, x0, matrix_solver.SolveOptions(**kwargs)


# ---------------------------------------------------------------------------
# Trace files


def trace_rows(problem: matrix_solver.ProblemSpec, trace) -> list[dict]:
    """Expand a trace into CSV rows: one per iteration, k starting at 1.

    The points are stacked in blocks of ``matrix_solver._block_size``, and
    one ``residuals`` and one ``distance_to_identity`` call per block give
    its rows, reading the points' known spectra: no eigensolve.  Each row
    has the bits it has when its point is taken alone, and the a-priori
    bound for its iterate from the problem's alpha and the first gap.
    """
    rows = []
    block, alpha = matrix_solver._block_size(problem.n), matrix_solver.alpha_for(problem)
    for first in range(1, len(trace.points), block):
        points = PDPoint.stacked(trace.points[first : first + block])
        r1, r2 = matrix_solver.residuals(problem, points)
        dist = thompson.distance_to_identity(points)
        for i, k in enumerate(range(first, first + len(dist))):
            rows.append(
                {
                    "k": k,
                    "thompson_gap": trace.gaps[k - 1],
                    "error_bound": fixpoint_engine.error_bound(alpha, trace.gaps[0], k),
                    "residual1": r1[i],
                    "residual2": r2[i],
                    "dist_to_identity": dist[i],
                }
            )
    return rows


def write_trace_csv(path, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_COLUMNS)
    for row in rows:
        writer.writerow(
            [row["k"]] + [repr(float(row[col])) for col in TRACE_COLUMNS[1:]]
        )
    Path(path).write_text(buf.getvalue())


def read_trace_csv(path) -> list[dict]:
    """The rows of a trace CSV; every error names the file."""
    path = Path(path)
    with _prefixed(path):
        reader = csv.DictReader(io.StringIO(_read_text(path)))
        if reader.fieldnames is None or list(reader.fieldnames) != list(TRACE_COLUMNS):
            raise ProblemFormatError(f"expected header {','.join(TRACE_COLUMNS)}, got {reader.fieldnames}")
        rows = []
        for line_no, raw in enumerate(reader, start=2):
            row = {}
            for col in TRACE_COLUMNS:
                try:
                    value = float(raw[col])
                except (TypeError, ValueError) as exc:
                    raise ProblemFormatError(f"row at line {line_no}: bad value for '{col}'") from exc
                if not math.isfinite(value):
                    raise ProblemFormatError(f"row at line {line_no}: non-finite '{col}'")
                row[col] = value
            if not row["k"].is_integer():
                raise ProblemFormatError(f"row at line {line_no}: 'k' must be an integer, got {raw['k']!r}")
            row["k"] = int(row["k"])
            rows.append(row)
        if not rows:
            raise ProblemFormatError("trace has no data rows")
    return rows


def _json_text(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte.

    json's indented encoder is pure Python, with a generator per
    container and a type dispatch per value; this writer appends the same
    text to one list and writes a list of floats, such as a row of a
    matrix literal, with one ``join``.  It takes what the CLI writes:
    dicts with str keys, lists, str, int, bool, None and floats
    (``np.float64`` too, NaN and infinities spelt as json spells them).
    """
    out = []
    _json_append(doc, out, "\n")
    return "".join(out)


def _json_floats(values, separator: str) -> str:
    """Floats as json writes them, joined; a ``TypeError`` if one is not a
    float."""
    text = separator.join(map(float.__repr__, values))
    # float.__repr__ writes nan, inf and -inf, the only reprs with an "n"
    if "n" in text:
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def _json_append(value, out: list, newline: str) -> None:
    if isinstance(value, float):
        out.append(_json_floats((value,), ""))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        out.append("[" + inner)
        try:
            out.append(_json_floats(value, "," + inner))
        except TypeError:
            for i, item in enumerate(value):
                if i:
                    out.append("," + inner)
                _json_append(item, out, inner)
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        out.append("{" + inner)
        for i, (key, item) in enumerate(sorted(value.items())):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            out.append(("," + inner if i else "") + encode_basestring_ascii(key) + ": ")
            _json_append(item, out, inner)
        out.append(newline + "}")
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def write_solution_json(path, problem, result, seed, converged: bool) -> None:
    doc = {
        "solution": matrix_to_literal(result.solution),
        "metadata": {
            "alpha_used": result.alpha_used,
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
    Path(path).write_text(_json_text(doc) + "\n")


# ---------------------------------------------------------------------------
# SVG plotting


def _format_tick(exponent: int) -> str:
    return f"1e{exponent:+03d}"


def render_svg(series: list[tuple[str, list[tuple[int, float]]]]) -> str:
    """Render labelled iteration series as a deterministic semilog SVG.

    Each series is (label, [(k, value), ...]); values are clamped to the
    log floor.  Fixed 800x600 viewbox, log ticks at powers of ten.
    """
    width, height = 800, 600
    left, right, top, bottom = 80, 30, 30, 60
    plot_w = width - left - right
    plot_h = height - top - bottom

    ks = [k for _, pts in series for k, _ in pts]
    vals = [max(v, PLOT_FLOOR) for _, pts in series for _, v in pts]
    k_min, k_max = min(ks), max(ks)
    k_span = max(k_max - k_min, 1)
    e_min = math.floor(math.log10(min(vals)))
    e_max = math.ceil(math.log10(max(vals)))
    if e_max == e_min:
        e_max += 1
    e_span = e_max - e_min

    def sx(k: float) -> float:
        return left + (k - k_min) / k_span * plot_w

    def sy(v: float) -> float:
        return top + (e_max - math.log10(max(v, PLOT_FLOOR))) / e_span * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]

    tick_step = max(1, (e_span + 9) // 10)
    for e in range(e_min, e_max + 1, tick_step):
        y = sy(10.0**e)
        parts.append(
            f'<line x1="{left - 5:.2f}" y1="{y:.2f}" x2="{left + plot_w:.2f}" y2="{y:.2f}" '
            'stroke="#cccccc" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{left - 8:.2f}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="12">{_format_tick(e)}</text>'
        )
    x_ticks = sorted({k_min, k_max} | {k_min + round(i * k_span / 5) for i in range(1, 5)})
    for k in x_ticks:
        x = sx(k)
        parts.append(
            f'<line x1="{x:.2f}" y1="{top + plot_h:.2f}" x2="{x:.2f}" y2="{top + plot_h + 5:.2f}" '
            'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{top + plot_h + 20:.2f}" text-anchor="middle" '
            f'font-family="monospace" font-size="12">{k}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.2f}" y="{height - 15:.2f}" text-anchor="middle" '
        'font-family="monospace" font-size="13">iteration k</text>'
    )

    for idx, (label, pts) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        # xml.sax.saxutils.escape, whose import would load urllib and ssl
        label = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        coords = " ".join(f"{sx(k):.2f},{sy(v):.2f}" for k, v in pts)
        if len(pts) > 1:
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        for k, v in pts:
            parts.append(f'<circle cx="{sx(k):.2f}" cy="{sy(v):.2f}" r="2" fill="{color}"/>')
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
    problem, _, options = load_problem(args.problem)
    samples = options.samples if args.samples is None else _as_int(args.samples, "--samples")
    seed = options.seed if args.seed is None else _as_seed(args.seed, "--seed")
    report = matrix_solver.check_conditions(problem, samples=samples, seed=seed)
    out_path = Path(args.out) if args.out else Path.cwd() / (Path(args.problem).stem + ".check.json")
    out_path.write_text(_json_text(report.to_jsonable()) + "\n")

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
    problem, file_x0, options = load_problem(args.problem)
    if args.force:
        options = dataclasses.replace(options, force=True)
    x0 = _resolve_x0(args, file_x0, problem.n)

    try:
        result, failure = matrix_solver.solve(problem, x0=x0, options=options), None
    except (MaxIterationsExceeded, ResidualToleranceExceeded) as exc:
        # a stalled or uncertified run still writes its trace and solution
        result, failure = exc.result, exc
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
    series_names = args.series or ["gap"]
    series = []
    for trace_path in args.traces:
        rows = read_trace_csv(trace_path)
        stem = Path(trace_path).stem
        for name in series_names:
            for column in SERIES_COLUMNS[name]:
                label = f"{stem}:{column}"
                series.append((label, [(row["k"], row[column]) for row in rows]))
    svg = render_svg(series)
    out_path = Path(args.out) if args.out else Path.cwd() / "plot.svg"
    out_path.write_text(svg)
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
