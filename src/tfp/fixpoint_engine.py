"""Alternating common-fixed-point iteration for a pair of self-maps.

Given two maps on a complete metric space whose cross-application is a
psi-contraction, the sequence u1 = T1(u0), u2 = T2(u1), u3 = T1(u2), ...
(odd steps through T1, even steps through T2) converges to their unique
common fixed point, with the a-priori error bound

    d(u_n, z) <= alpha**(n-1) / (1 - alpha) * d(u0, u1).

The bound plays no part in the iteration: the engine never sees alpha,
and ``error_bound`` gives the bound to a caller that knows it
(``matrix_solver.alpha_for``).  A metric space is given by its distance
function alone, and the points are whatever that function and the maps
accept; the engine validates none of them.  A run returns its trace,
whose ``stop_reason`` says if the gap tolerance was met or the budget ran out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generic, TypeVar

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


def error_bound(alpha: float, d01: float, n: int) -> float:
    """A-priori bound alpha**(n-1) * d01 / (1 - alpha) for iterate n >= 1."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    if d01 < 0.0:
        raise ValueError(f"d01 must be nonnegative, got {d01}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return alpha ** (n - 1) * d01 / (1.0 - alpha)


def iterate_pair(
    distance: Callable[[T, T], float],
    t1: Callable[[T], T],
    t2: Callable[[T], T],
    u0: T,
    *,
    gap_tol: float = 1e-12,
    max_iter: int = 500,
) -> IterationTrace[T]:
    """Run the alternating scheme until a gap d(u_k, u_{k+1}) <= gap_tol,
    or for ``max_iter`` steps; ``stop_reason`` is ``"gap_tol"`` or
    ``"max_iter"`` accordingly."""
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")

    trace: IterationTrace[T] = IterationTrace(points=[u0])
    u = u0
    for k in range(1, max_iter + 1):
        u_next = t1(u) if k % 2 == 1 else t2(u)
        gap = distance(u, u_next)
        trace.points.append(u_next)
        trace.gaps.append(gap)
        u = u_next
        if gap <= gap_tol:
            trace.stop_reason = STOP_GAP_TOL
            return trace
    trace.stop_reason = STOP_MAX_ITER
    return trace
