"""Alternating common-fixed-point iteration for a pair of self-maps.

Given two maps on a complete metric space whose cross-application is a
psi-contraction, the sequence u1 = T1(u0), u2 = T2(u1), u3 = T1(u2), ...
(odd steps through T1, even steps through T2) converges to their unique
common fixed point, with the a-priori error bound

    d(u_n, z) <= alpha**(n-1) / (1 - alpha) * d(u0, u1).

The a-priori bound plays no part in the iteration: the engine never
sees alpha, and ``error_bound`` gives the bound to a caller that knows
it (``matrix_solver.alpha_for``).  A metric space is given by ``gaps``,
the distances of the consecutive points of a list, and ``bound``, a
lower bound on the distance of two points; the engine validates no
point, and reads ``gap_tol`` and ``max_iter`` by the field rules of
``hpd_core``.  A step whose bound exceeds the gap tolerance cannot stop
the run, so its gap waits until a step's bound does not, a map raises
or the budget runs out: all the pending gaps are then taken in one
``gaps`` call, which sizes its own stacks.  A run returns its trace,
whose ``stop_reason`` says if the gap tolerance was met or the budget
ran out; the trace, and any error it raises, are those of a run that
takes each gap as soon as its step is made, whatever the bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generic, Iterable, TypeVar

from .hpd_core import as_count, as_tolerance

T = TypeVar("T")

STOP_GAP_TOL = "gap_tol"
STOP_MAX_ITER = "max_iter"


@dataclass
class IterationTrace(Generic[T]):
    """Per-step record of an alternating run.

    ``points`` holds u0..uN and ``gaps[k]`` is d(u_k, u_{k+1}), so
    ``gaps`` is one shorter than ``points``.
    """

    points: list[T] = field(default_factory=list)
    gaps: list[float] = field(default_factory=list)
    stop_reason: str = ""

    @property
    def iterations(self) -> int:
        return len(self.gaps)


def error_bound(alpha: float, d01: float, n):
    """A-priori bound alpha**(n-1) * d01 / (1 - alpha) for iterate n >= 1,
    ``n`` a count by ``hpd_core.as_count``, or the list of the bounds of a
    range ``n`` of iterates (a trace's rows), the inputs checked once."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    if not d01 >= 0.0:
        raise ValueError(f"d01 must be nonnegative, got {d01}")
    block = isinstance(n, range)
    ks = n if block else [as_count(n, "n")]
    as_count(min(ks, default=1), "n")
    bounds = [alpha ** (k - 1) * d01 / (1.0 - alpha) for k in ks]
    return bounds if block else bounds[0]


def _gaps_of(gaps: Callable[[list[T]], list[float]], points: list[T]) -> Iterable[float]:
    """The gaps of consecutive ``points``: one ``gaps`` call, or, when that
    call raises, one call per pair, so that a pair's error is raised only
    after the gaps before it have been read."""
    if len(points) < 2:
        return []
    try:
        return gaps(points)
    except Exception:
        return (gaps(points[i : i + 2])[0] for i in range(len(points) - 1))


def iterate_pair(
    gaps: Callable[[list[T]], list[float]],
    t1: Callable[[T], T],
    t2: Callable[[T], T],
    u0: T,
    *,
    bound: Callable[[T, T], float],
    gap_tol: float = 1e-12,
    max_iter: int = 500,
) -> IterationTrace[T]:
    """Run the alternating scheme until a gap d(u_k, u_{k+1}) <= gap_tol,
    or for ``max_iter`` steps; ``stop_reason`` is ``"gap_tol"`` or
    ``"max_iter"`` accordingly.

    ``gaps(points)`` returns d(points[i], points[i+1]) for each i, and
    ``bound(u, v)`` is at most d(u, v).  The pending gaps are taken in one
    ``gaps`` call at the first step whose bound is <= ``gap_tol``, at a
    map's error or at ``max_iter``; no cap on the pending steps applies,
    so a bound above the distance that never reaches ``gap_tol`` runs the
    maps to ``max_iter`` before any gap is taken.  The trace keeps the
    points and gaps up to the first gap <= ``gap_tol``, so such a bound
    only applies the maps to points it drops.  An
    error of a map or of a gap is raised only when no earlier gap stops the
    run, so a run raises what, and where, a run taking one gap per step
    raises.
    """
    gap_tol, max_iter = as_tolerance(gap_tol, "gap_tol"), as_count(max_iter, "max_iter")

    trace: IterationTrace[T] = IterationTrace(points=[u0])
    while (done := len(trace.gaps)) < max_iter:
        steps, failure = [trace.points[-1]], None
        try:
            for k in range(done + 1, max_iter + 1):
                steps.append(t1(steps[-1]) if k % 2 == 1 else t2(steps[-1]))
                if bound(steps[-2], steps[-1]) <= gap_tol:
                    break
        except Exception as exc:
            failure = exc
        for point, gap in zip(steps[1:], _gaps_of(gaps, steps)):
            trace.points.append(point)
            trace.gaps.append(gap)
            if gap <= gap_tol:
                trace.stop_reason = STOP_GAP_TOL
                return trace
        if failure is not None:
            raise failure
    trace.stop_reason = STOP_MAX_ITER
    return trace
