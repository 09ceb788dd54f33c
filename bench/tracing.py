"""Span tracing of the ``tfp`` modules, installed from outside the package.

``Tracer.install`` wraps every public function of each traced module.  It
patches the name where the function is defined and in every ``tfp``
module that imported it by name (``matrix_solver`` and ``cli`` import
``eig_hermitian``, ``matrix_power`` and others through ``from .hpd_core
import ...``), so calls inside the package are traced too.  ``uninstall``
puts every original back.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span, or -1, and ``op`` the benchmark operation that caused it.
Spans live in flat arrays until the run ends.  A few wrappers also count
work their spans do not show: the samples a condition check draws, the
rows ``trace_rows`` returns and the bytes the trace writer and the SVG
renderer produce.  The closures ``matrix_solver.maps_for`` returns are
wrapped as ``matrix_solver.map``, one span per map application.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import inspect
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# Modules whose public functions are wrapped.  ``errors`` defines no
# functions, and no CLI path calls ``psi_family`` today.
TRACED_MODULES = ("hpd_core", "thompson", "psi_family", "fixpoint_engine", "matrix_solver", "cli")


class Tracer:
    """Records nested spans and work counts while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.counts: Counter = Counter()
        self.current_op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        return self._open(self._intern(name))

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: int) -> None:
        self.counts[(self.current_op, key)] += amount

    def wrap(self, fn, name: str, post=None):
        """``fn`` recorded as span ``name``; ``post(result, args, kwargs)``
        may count work and returns the result handed to the caller."""
        nid = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            return result if post is None else post(result, args, kwargs)

        return traced

    # -- patching ------------------------------------------------------

    def _post_hooks(self, matrix_solver) -> dict:
        samples_of = inspect.signature(matrix_solver.check_conditions)

        def check_samples(result, args, kwargs):
            bound = samples_of.bind(*args, **kwargs)
            bound.apply_defaults()
            self.count("matrix_solver.check_conditions.samples", int(bound.arguments["samples"]))
            return result

        def traced_maps(result, args, kwargs):
            return tuple(self.wrap(t, "matrix_solver.map") for t in result)

        def rows(result, args, kwargs):
            self.count("cli.trace_rows.rows", len(result))
            return result

        def csv_bytes(result, args, kwargs):
            self.count("cli.write_trace_csv.bytes", Path(args[0]).stat().st_size)
            return result

        def svg_bytes(result, args, kwargs):
            self.count("cli.render_svg.bytes", len(result.encode()))
            return result

        return {
            "matrix_solver.check_conditions": check_samples,
            "matrix_solver.maps_for": traced_maps,
            "cli.trace_rows": rows,
            "cli.write_trace_csv": csv_bytes,
            "cli.render_svg": svg_bytes,
        }

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {short: importlib.import_module(f"tfp.{short}") for short in TRACED_MODULES}
        hooks = self._post_hooks(modules["matrix_solver"])
        wrappers = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    name = f"{short}.{attr}"
                    wrappers[id(obj)] = (obj, self.wrap(obj, name, hooks.get(name)))
        for module in (importlib.import_module("tfp"), *modules.values()):
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------

    def write(self, path: Path, ops: list[dict]) -> None:
        """Spans as gzip CSV; the op column indexes ``ops``."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("span", "name", "start", "end", "parent", "op", "pass", "command"))
            for i in range(len(self.start)):
                op = ops[self.op[i]] if self.op[i] >= 0 else {"pass": -1, "command": ""}
                writer.writerow(
                    (i, self.names[self.name_id[i]], repr(self.start[i]), repr(self.end[i]),
                     self.parent[i], self.op[i], op["pass"], op["command"])
                )


# ---------------------------------------------------------------------------
# Per-layer metrics

_CALLS = (
    "hpd_core.eig_hermitian",
    "hpd_core.require_hermitian",
    "hpd_core.matrix_power",
    "hpd_core.congruence",
    "hpd_core.random_pd_in_ball",
    "thompson.distance",
    "thompson.w_ratio",
    "thompson.distance_to_identity",
    "matrix_solver.map",
    "matrix_solver.residuals",
)
_SELF = _CALLS + ("fixpoint_engine.iterate_pair",)
_INCLUSIVE = {
    "fixpoint_engine.iterate_pair.s": ("fixpoint_engine.iterate_pair",),
    "matrix_solver.check_conditions.s": ("matrix_solver.check_conditions",),
    "matrix_solver.problem_validate.s": ("matrix_solver.problem_type1", "matrix_solver.problem_type2"),
    "matrix_solver.solve.s": ("matrix_solver.solve",),
    "cli.load_problem.s": ("cli.load_problem",),
    "cli.trace_rows.s": ("cli.trace_rows",),
    "cli.write_trace_csv.s": ("cli.write_trace_csv",),
    "cli.write_solution_json.s": ("cli.write_solution_json",),
    "cli.read_trace_csv.s": ("cli.read_trace_csv",),
    "cli.render_svg.s": ("cli.render_svg",),
}
_COUNTED = (
    "matrix_solver.check_conditions.samples",
    "cli.trace_rows.rows",
    "cli.write_trace_csv.bytes",
    "cli.render_svg.bytes",
)

_IN_ITERATE, _IN_CHECK, _IN_ROWS = 1, 2, 4
_FLAG_OF = {
    "fixpoint_engine.iterate_pair": _IN_ITERATE,
    "matrix_solver.check_conditions": _IN_CHECK,
    "cli.trace_rows": _IN_ROWS,
}


def pass_profiles(tracer: Tracer, ops: list[dict]) -> dict[int, dict]:
    """Counts and times of each traced pass, keyed by pass index.

    ``calls`` and ``counts`` are exact work counts; ``self_s`` is span time
    minus the time of child spans and ``incl_s`` plain span time, summed
    per name.  No traced function calls itself, so inclusive sums do not
    double count.
    """
    name_id = np.asarray(tracer.name_id, dtype=np.int64)
    start = np.asarray(tracer.start, dtype=np.float64)
    end = np.asarray(tracer.end, dtype=np.float64)
    parent = np.asarray(tracer.parent, dtype=np.int64)
    op = np.asarray(tracer.op, dtype=np.int64)
    n, n_names = len(name_id), len(tracer.names)
    nid = {name: i for i, name in enumerate(tracer.names)}

    def is_name(name: str) -> np.ndarray:
        return name_id == nid.get(name, -1)

    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    # Parents precede their children, so each round passes flags one level down.
    own = np.zeros(n, dtype=np.int64)
    for name, flag in _FLAG_OF.items():
        own[is_name(name)] = flag
    flags = own.copy()
    while True:
        inherited = own | np.where(has_parent, flags[np.maximum(parent, 0)], 0)
        if np.array_equal(inherited, flags):
            break
        flags = inherited

    op_pass = np.array([o["pass"] for o in ops] + [-1], dtype=np.int64)
    op_solve = np.array([o["command"] == "solve" for o in ops] + [False])
    span_pass = op_pass[op]  # op -1 indexes the trailing -1
    iterate = is_name("fixpoint_engine.iterate_pair")
    iterate_end = np.full(len(ops) + 1, np.inf)
    iterate_end[op[iterate]] = end[iterate]
    eig = is_name("hpd_core.eig_hermitian")
    eig_in_solve = eig & op_solve[op]
    masks = {
        "iterate": eig & ((flags & _IN_ITERATE) > 0),
        "check": eig & ((flags & _IN_CHECK) > 0),
        "rows": eig & ((flags & _IN_ROWS) > 0),
        "solve": eig_in_solve,
        "recomputed": eig_in_solve & (start > iterate_end[op]),
    }
    steps = is_name("matrix_solver.map") & has_parent & iterate[np.maximum(parent, 0)]

    out = {}
    for p in sorted(set(span_pass[span_pass >= 0].tolist())):
        here = span_pass == p
        calls = np.bincount(name_id[here], minlength=n_names)
        self_s = np.bincount(name_id[here], weights=(dur - child)[here], minlength=n_names)
        incl_s = np.bincount(name_id[here], weights=dur[here], minlength=n_names)
        counts: Counter = Counter()
        for (o, key), amount in tracer.counts.items():
            if o >= 0 and ops[o]["pass"] == p:
                counts[key] += amount
        out[p] = {
            "calls": {tracer.names[i]: int(c) for i, c in enumerate(calls) if c},
            "self_s": {tracer.names[i]: float(self_s[i]) for i in range(n_names) if calls[i]},
            "incl_s": {tracer.names[i]: float(incl_s[i]) for i in range(n_names) if calls[i]},
            "eig": {key: int(np.count_nonzero(mask & here)) for key, mask in masks.items()},
            "iterations": int(np.count_nonzero(steps & here)),
            "counts": dict(counts),
        }
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(profile: dict, seconds: dict) -> dict[str, float]:
    """Per-layer metrics of one pass.

    ``profile`` gives the exact counts; ``seconds`` gives the times to
    report, {"self_s": ..., "incl_s": ...} keyed by span name, which may be
    medians over several passes.
    """
    calls, counts, eig = profile["calls"], profile["counts"], profile["eig"]
    self_s, incl_s = seconds["self_s"], seconds["incl_s"]
    out: dict[str, float] = {}
    for name in _CALLS:
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in _SELF:
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for metric, span_names in _INCLUSIVE.items():
        out[metric] = sum(incl_s.get(name, 0.0) for name in span_names)
    for key in _COUNTED:
        out[key] = counts.get(key, 0)
    iterations = profile["iterations"]
    out["fixpoint_engine.iterations"] = iterations
    out["fixpoint_engine.step_ms"] = 1e3 * _ratio(incl_s.get("fixpoint_engine.iterate_pair", 0.0), iterations)
    out["hpd_core.eig_per_iter"] = _ratio(eig.get("iterate", 0), iterations)
    samples = counts.get("matrix_solver.check_conditions.samples", 0)
    out["hpd_core.eig_per_sample"] = _ratio(eig.get("check", 0), samples)
    out["hpd_core.eig_per_trace_row"] = _ratio(eig.get("rows", 0), counts.get("cli.trace_rows.rows", 0))
    out["hpd_core.eig_recomputed_ratio"] = _ratio(eig.get("recomputed", 0), eig.get("solve", 0))
    return out


def work_counts(profile: dict) -> dict:
    """The exact part of a pass profile, for comparing passes and runs."""
    return {key: profile[key] for key in ("calls", "eig", "iterations", "counts")}
