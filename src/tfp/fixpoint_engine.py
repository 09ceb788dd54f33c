"""Alternating common-fixed-point iteration for a pair of self-maps.

Given two maps on a complete metric space whose cross-application is a
psi-contraction, the sequence u1 = T1(u0), u2 = T2(u1), u3 = T1(u2), ...
(odd steps through T1, even steps through T2) converges to their unique
common fixed point, with the a-priori error bound

    d(u_n, z) <= alpha**(n-1) / (1 - alpha) * d(u0, u1).

The bound plays no part in the iteration: the engine never sees alpha,
and ``error_bound`` gives the bound to a caller that knows it
(``matrix_solver.alpha_for``).  A metric space is given by its ``gaps``
function alone, the distances of the consecutive points of a list, and
the points are whatever that function and the maps accept; the engine
validates none of them.  The maps are applied one step at a time, and the
gaps of a block of steps are taken in one ``gaps`` call, so a metric whose
kernels take stacks pays its per-call cost once a block.  A run returns
its trace, whose ``stop_reason`` says if the gap tolerance was met or the
budget ran out; the trace, and any error it raises, are those of a run
that takes each gap as soon as its step is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Generic, Iterable, TypeVar

T = TypeVar("T")

STOP_GAP_TOL = "gap_tol"
STOP_MAX_ITER = "max_iter"

# Most steps whose gaps are taken in one call.
_MAX_BLOCK = 16


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


def error_bound(alpha: float, d01: float, n: int) -> float:
    """A-priori bound alpha**(n-1) * d01 / (1 - alpha) for iterate n >= 1."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    if d01 < 0.0:
        raise ValueError(f"d01 must be nonnegative, got {d01}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return alpha ** (n - 1) * d01 / (1.0 - alpha)


def _block_steps(gaps: list[float], previous: int, gap_tol: float, remaining: int) -> int:
    """Steps of the next block: one for each of the first three steps;
    then twice the ``previous`` block, but while the gaps shrink no more
    than the steps still needed to reach ``gap_tol`` at the two-step rate
    sqrt(gaps[-1] / gaps[-3]), rounded down; at most ``_MAX_BLOCK`` and
    the ``remaining`` budget.

    Rounding down ends a block at the predicted stop or before it.  The
    doubling keeps a rate read off the first steps, which the start's
    distance from the fixed point can make slower than the later ones,
    from sending a block past the stop."""
    if len(gaps) < 3:
        return 1
    steps = 2 * previous
    rate = math.sqrt(gaps[-1] / gaps[-3]) if gaps[-3] > 0.0 else math.nan
    if 0.0 < rate < 1.0 and gap_tol > 0.0:
        needed = (math.log(gap_tol) - math.log(gaps[-1])) / math.log(rate)
        steps = min(steps, max(1, math.floor(needed)))
    return min(steps, _MAX_BLOCK, remaining)


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
    gap_tol: float = 1e-12,
    max_iter: int = 500,
) -> IterationTrace[T]:
    """Run the alternating scheme until a gap d(u_k, u_{k+1}) <= gap_tol,
    or for ``max_iter`` steps; ``stop_reason`` is ``"gap_tol"`` or
    ``"max_iter"`` accordingly.

    ``gaps(points)`` returns d(points[i], points[i+1]) for each i.  It is
    called once per block of steps (see ``_block_steps``), and the trace
    keeps the points and gaps up to the first gap <= ``gap_tol``; a block
    that ends past it has applied the maps to points it drops.  An error
    of a map or of a gap is raised only when no earlier gap stops the run,
    so a run raises what, and where, a run taking one gap per step raises.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")

    trace: IterationTrace[T] = IterationTrace(points=[u0])
    block = 1
    while trace.iterations < max_iter:
        block = _block_steps(trace.gaps, block, gap_tol, max_iter - trace.iterations)
        steps, failure = [trace.points[-1]], None
        try:
            for k in range(trace.iterations + 1, trace.iterations + block + 1):
                steps.append(t1(steps[-1]) if k % 2 == 1 else t2(steps[-1]))
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
