"""Control functions certifying a contraction constant.

A spec in this family is a continuous map psi(a, b, c) >= 0 with the
property that any b satisfying b <= psi(a, a, b), b <= psi(b, a, a) or
b <= psi(a, b, a) is forced down to b <= alpha * a for a fixed alpha < 1.
``alpha_effective`` gives that certified alpha and ``evaluate`` psi
itself, which the membership check reads on its grid.  No solve reads
this module: the iteration engine takes no alpha, and a problem's alpha
is ``matrix_solver.alpha_for``.

Three parameterized kinds are built in:

* ``scaled_first``  psi(a, b, c) = alpha * a
* ``linear``        psi(a, b, c) = m*a + n*b + o*c,  m + n + o < 1
* ``scaled_max``    psi(a, b, c) = alpha * max(a, b, c)

Membership is certified numerically on a log-spaced grid rather than
symbolically; counterexample points are reported when the implication
fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotInPsiAlpha

# Log-spaced membership grid over [1e-6, 1e3], default 64 points per axis.
GRID_LO = 1e-6
GRID_HI = 1e3
DEFAULT_GRID = 64


@dataclass(frozen=True)
class PsiSpec:
    """A control function: a kind tag plus its parameter tuple."""

    kind: str
    params: tuple[float, ...]


def scaled_first(alpha: float) -> PsiSpec:
    """psi(a, b, c) = alpha * a."""
    alpha = float(alpha)
    if not 0.0 <= alpha < 1.0:
        raise NotInPsiAlpha(f"scaled_first needs alpha in [0, 1), got {alpha}")
    return PsiSpec("scaled_first", (alpha,))


def linear(m: float, n: float, o: float) -> PsiSpec:
    """psi(a, b, c) = m*a + n*b + o*c with nonnegative weights summing below 1."""
    m, n, o = float(m), float(n), float(o)
    if min(m, n, o) < 0.0 or m + n + o >= 1.0:
        raise NotInPsiAlpha(
            f"linear needs nonnegative weights with m + n + o < 1, got ({m}, {n}, {o})"
        )
    return PsiSpec("linear", (m, n, o))


def scaled_max(alpha: float) -> PsiSpec:
    """psi(a, b, c) = alpha * max(a, b, c)."""
    alpha = float(alpha)
    if not 0.0 <= alpha < 1.0:
        raise NotInPsiAlpha(f"scaled_max needs alpha in [0, 1), got {alpha}")
    return PsiSpec("scaled_max", (alpha,))


def evaluate(spec: PsiSpec, a: float, b: float, c: float) -> float:
    """Evaluate the control function at nonnegative arguments."""
    if min(a, b, c) < 0.0:
        raise ValueError(f"arguments must be nonnegative, got ({a}, {b}, {c})")
    if spec.kind == "scaled_first":
        return spec.params[0] * a
    if spec.kind == "linear":
        m, n, o = spec.params
        return m * a + n * b + o * c
    if spec.kind == "scaled_max":
        return spec.params[0] * max(a, b, c)
    raise NotInPsiAlpha(f"unknown control-function kind {spec.kind!r}")


def alpha_effective(spec: PsiSpec) -> float:
    """The contraction constant certified by the implication property.

    For the linear kind each of the three hypothesis branches is solved
    for b/a, giving max{(m+n)/(1-o), (n+o)/(1-m), (m+o)/(1-n)}; the scaled
    kinds certify their own alpha directly.

    Raises ``NotInPsiAlpha`` when the computed constant reaches 1.
    """
    if spec.kind in ("scaled_first", "scaled_max"):
        alpha = float(spec.params[0])
    elif spec.kind == "linear":
        m, n, o = spec.params
        if min(m, n, o) < 0.0 or max(m, n, o) >= 1.0:
            raise NotInPsiAlpha(f"linear weights out of range: {spec.params}")
        alpha = max((m + n) / (1.0 - o), (n + o) / (1.0 - m), (m + o) / (1.0 - n))
    else:
        raise NotInPsiAlpha(f"unknown control-function kind {spec.kind!r}")
    if not 0.0 <= alpha < 1.0:
        raise NotInPsiAlpha(f"certified constant {alpha} is not below 1")
    return alpha


def membership_counterexamples(
    spec: PsiSpec, grid_size: int = DEFAULT_GRID
) -> list[tuple[float, float, str]]:
    """Grid points where a hypothesis branch holds but b <= alpha*a fails.

    Each counterexample is reported as (a, b, branch); an empty list means
    the implication held everywhere on the grid.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be at least 2, got {grid_size}")
    try:
        alpha = alpha_effective(spec)
    except NotInPsiAlpha:
        return [(1.0, 1.0, "no certified constant below 1")]

    grid = np.geomspace(GRID_LO, GRID_HI, grid_size)
    slack = 1e-12
    bad = []
    for a in grid:
        for b in grid:
            conclusion = b <= alpha * a + slack * max(1.0, a, b)
            if conclusion:
                continue
            if b <= evaluate(spec, a, a, b):
                bad.append((float(a), float(b), "b <= psi(a, a, b)"))
            elif b <= evaluate(spec, b, a, a):
                bad.append((float(a), float(b), "b <= psi(b, a, a)"))
            elif b <= evaluate(spec, a, b, a):
                bad.append((float(a), float(b), "b <= psi(a, b, a)"))
    return bad


def validate_membership(spec: PsiSpec, grid_size: int = DEFAULT_GRID) -> bool:
    """Whether the implication property holds on the log-spaced grid."""
    return not membership_counterexamples(spec, grid_size)
