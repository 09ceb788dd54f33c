"""Cell-by-cell trace files: the test oracle for ``tfp.cli``'s trace writer,
reader and SVG renderer.

The package handles a trace file in one text pass: one ``%`` template over
all rows, ``csv.reader`` with one ``map(float, ...)`` per row, and one
``%.2f`` template per series.  The code here writes each row through
``csv.writer`` with one ``repr`` per cell, reads through ``DictReader``
cell by cell, and formats each point with its own f-strings.  The
package's bytes must equal these, and its rows and messages these rows
and messages, except that the package names the physical line of a bad
row where this reader counts the rows ``DictReader`` returns, skipping
blank lines.
"""

import csv
import io
import math
from pathlib import Path

from tfp.cli import _PALETTE, PLOT_FLOOR, TRACE_COLUMNS, _format_tick
from tfp.errors import ProblemFormatError


def trace_csv_text(rows) -> str:
    """The text of the trace CSV of ``rows``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_COLUMNS)
    for row in rows:
        writer.writerow([row["k"]] + [repr(float(row[col])) for col in TRACE_COLUMNS[1:]])
    return buf.getvalue()


def read_trace_csv(path) -> list[dict]:
    """The rows of a trace CSV, or the ``ProblemFormatError`` naming the
    file and the first bad row."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ProblemFormatError(f"{path}: cannot read: {exc}") from exc
    except ValueError as exc:
        raise ProblemFormatError(f"{path}: {exc}") from exc
    try:
        return _rows(text)
    except ProblemFormatError as exc:
        raise ProblemFormatError(f"{path}: {exc}") from exc


def _rows(text: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or list(reader.fieldnames) != list(TRACE_COLUMNS):
        raise ProblemFormatError(f"expected header {','.join(TRACE_COLUMNS)}, got {reader.fieldnames}")
    rows = []
    for line_no, raw in enumerate(reader, start=2):
        if None in raw:  # DictReader keeps the fields past the header's under None
            count = len(TRACE_COLUMNS) + len(raw[None])
            raise ProblemFormatError(f"row at line {line_no}: {count} fields, expected {len(TRACE_COLUMNS)}")
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


def render_svg(series: list[tuple[str, list[tuple[int, float]]]]) -> str:
    """The semilog SVG of labelled iteration series, one point at a time."""
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
        label = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        coords = [(f"{sx(k):.2f}", f"{sy(v):.2f}") for k, v in pts]
        if len(pts) > 1:
            points = " ".join(map(",".join, coords))
            parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.extend(f'<circle cx="{x}" cy="{y}" r="2" fill="{color}"/>' for x, y in coords)
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
