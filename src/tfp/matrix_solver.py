"""Solver for pairs of nonlinear matrix equations on the positive definite cone.

Two problem families are supported, both with coefficient matrices A_i,
matrix functions F and G, and exponents above 1:

* type1:  X**s = Q1 + sum_i A_i* F(X) A_i   and   X**s = Q2 + sum_i A_i* G(X) A_i
          (A_i nonsingular, Q1 and Q2 positive definite, l < s)
* type2:  X**r = sum_i A_i* F(X) A_i        and   X**s = sum_i A_i* G(X) A_i
          (A_i unitary, 3l < rs / (r + s))

Each pair is solved by the alternating fixed-point engine with the maps

    T1(X) = (Q1 + sum_i A_i* F(X) A_i) ** (1/s)     [type2: no Q, power 1/r]
    T2(X) = (Q2 + sum_i A_i* G(X) A_i) ** (1/s)

on the Thompson ball {X : d(X, I) <= a} (radius r*a for type2), with the
contraction constant alpha = l/s (type1) or alpha = 3l(1/r + 1/s) (type2).

Sufficiency conditions are verified by seeded sampling, never exhaustively:
the quantifier ranges over an uncountable ball.  For type1, conditions (A)
and (B) are judged in their metric (proof-level) form

    (A)  d(Q1, Q2) <= d(F(X), G(Y))
    (B)  d(F(X), G(Y)) <= l * d(X, Y)

with the stricter one-sided ratio inequalities recorded per pair as a
secondary diagnostic; condition (C) is the pair of ball constraints
d(T1(X), I) <= a and d(T2(X), I) <= a, with the literal four-term variant
available separately.  Type2 conditions are checked exactly as stated,
eigenvalue bound by eigenvalue bound.

The returned solution is certified by the relative equation residuals,
which are the ground truth of correctness independent of any printed
reference values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import thompson
from .errors import (
    ConditionsNotVerified,
    DimensionMismatch,
    MaxIterationsExceeded,
    NotPositiveDefinite,
    ResidualToleranceExceeded,
    X0DomainError,
)
from .fixpoint_engine import IterationTrace, MetricSpace, StoppingRule, iterate_pair
from .hpd_core import (
    ComplexMatrix,
    _congruence,
    _power,
    as_square_matrix,
    eig_hermitian,
    frobenius_norm,
    identity,
    is_positive_definite,
    matrix_from_literal,
    matrix_to_literal,
    random_pd_in_ball,
    require_hermitian,
    symmetrize,
)

TYPE1 = "type1"
TYPE2 = "type2"

# Numerical slack applied when judging the sampled inequalities.
CONDITION_TOL = 1e-9

# Unitarity tolerance for type2 coefficient matrices.
UNITARY_TOL = 1e-10


# ---------------------------------------------------------------------------
# Matrix function specs


@dataclass(frozen=True, eq=False)
class MatrixFunctionSpec:
    """Either a fractional power X -> X**exponent or a constant map."""

    kind: str
    exponent: float | None = None
    value: ComplexMatrix | None = None

    def to_dict(self) -> dict:
        if self.kind == "power":
            return {"kind": "power", "exponent": self.exponent}
        return {"kind": "constant", "value": matrix_to_literal(self.value)}


def power(exponent: float) -> MatrixFunctionSpec:
    """The map X -> X**exponent with exponent in [-1, 1] \\ {0}."""
    exponent = float(exponent)
    if exponent == 0.0 or not -1.0 <= exponent <= 1.0:
        raise ValueError(f"power exponent must be in [-1, 1] and nonzero, got {exponent}")
    return MatrixFunctionSpec("power", exponent=exponent)


def constant(value) -> MatrixFunctionSpec:
    """The constant map X -> value for a fixed positive definite value."""
    arr = require_hermitian(value, "constant function value")
    ok, min_eig = is_positive_definite(arr)
    if not ok:
        raise NotPositiveDefinite(
            f"constant function value must be positive definite (min eigenvalue {min_eig:.3e})"
        )
    return MatrixFunctionSpec("constant", value=arr)


def function_from_dict(data: dict) -> MatrixFunctionSpec:
    kind = data.get("kind")
    if kind == "power":
        return power(data["exponent"])
    if kind == "constant":
        return constant(matrix_from_literal(data["value"], "constant function value"))
    raise ValueError(f"unknown matrix function kind {kind!r}")


def apply_F(spec: MatrixFunctionSpec, x) -> ComplexMatrix:
    """Evaluate a matrix function spec at a positive definite point."""
    if spec.kind == "power":
        return _power(x, spec.exponent)
    if spec.kind == "constant":
        return spec.value
    raise ValueError(f"unknown matrix function kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# Problem specification


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """One equation pair, fully parameterized.

    ``A`` holds the m coefficient matrices, ``a`` the Thompson ball radius
    and ``l`` the contraction exponent from the sufficiency conditions.
    Type1 problems carry the constant terms Q1 and Q2 and a single
    equation exponent s; type2 problems have no constant terms and two
    exponents r and s.
    """

    kind: str
    n: int
    m: int
    A: tuple[ComplexMatrix, ...]
    s: float
    F: MatrixFunctionSpec
    G: MatrixFunctionSpec
    a: float
    l: float
    Q1: ComplexMatrix | None = None
    Q2: ComplexMatrix | None = None
    r: float | None = None


def _require_pd(m, name: str) -> ComplexMatrix:
    arr = require_hermitian(m, name)
    ok, min_eig = is_positive_definite(arr)
    if not ok:
        raise NotPositiveDefinite(f"{name} must be positive definite (min eigenvalue {min_eig:.3e})")
    return arr


def _validate_coefficients(a_list, n: int) -> tuple[ComplexMatrix, ...]:
    mats = []
    for i, a_i in enumerate(a_list):
        arr = as_square_matrix(a_i, f"A[{i}]")
        if arr.shape[0] != n:
            raise DimensionMismatch(f"A[{i}] has shape {arr.shape}, expected ({n}, {n})")
        mats.append(arr)
    if not mats:
        raise ValueError("at least one coefficient matrix is required")
    return tuple(mats)


def _require_nonsingular(a_i: ComplexMatrix, name: str) -> None:
    gram = eig_hermitian(_congruence(a_i, identity(a_i.shape[0])))
    sq_floor = (a_i.shape[0] * np.finfo(float).eps) ** 2 * max(gram.eigenvalues[-1], 0.0)
    if gram.eigenvalues[0] <= sq_floor:
        raise ValueError(f"{name} is singular to working precision")


def _require_unitary(a_i: ComplexMatrix, name: str) -> None:
    defect = frobenius_norm(a_i.conj().T @ a_i - identity(a_i.shape[0]))
    if defect > UNITARY_TOL:
        raise ValueError(f"{name} is not unitary: defect {defect:.3e} exceeds {UNITARY_TOL:.1e}")


def problem_type1(n, A, Q1, Q2, s, F, G, a, l) -> ProblemSpec:
    """Validated type1 problem: nonsingular coefficients, PD constants, l < s."""
    mats = _validate_coefficients(A, n)
    for i, a_i in enumerate(mats):
        _require_nonsingular(a_i, f"A[{i}]")
    s, a, l = float(s), float(a), float(l)
    if s <= 1.0:
        raise ValueError(f"s must exceed 1, got {s}")
    if a < 0.0:
        raise ValueError(f"ball radius must be nonnegative, got {a}")
    if not 0.0 < l < s:
        raise ValueError(f"contraction exponent must satisfy 0 < l < s, got l={l}, s={s}")
    return ProblemSpec(
        kind=TYPE1,
        n=n,
        m=len(mats),
        A=mats,
        Q1=_require_pd(Q1, "Q1"),
        Q2=_require_pd(Q2, "Q2"),
        s=s,
        F=F,
        G=G,
        a=a,
        l=l,
    )


def problem_type2(n, A, r, s, F, G, a, l) -> ProblemSpec:
    """Validated type2 problem: unitary coefficients, 3l < rs/(r+s)."""
    mats = _validate_coefficients(A, n)
    for i, a_i in enumerate(mats):
        _require_unitary(a_i, f"A[{i}]")
    r, s, a, l = float(r), float(s), float(a), float(l)
    if r <= 1.0 or s <= 1.0:
        raise ValueError(f"r and s must exceed 1, got r={r}, s={s}")
    if a < 0.0:
        raise ValueError(f"ball radius must be nonnegative, got {a}")
    if not 0.0 < l or not 3.0 * l < r * s / (r + s):
        raise ValueError(
            f"contraction exponent must satisfy 0 < 3l < rs/(r+s), got l={l}, r={r}, s={s}"
        )
    return ProblemSpec(kind=TYPE2, n=n, m=len(mats), A=mats, s=s, F=F, G=G, a=a, l=l, r=r)


def ball_radius(problem: ProblemSpec, exponentiated: bool = False) -> float:
    """Admissible Thompson-ball radius around the identity.

    The default follows the self-map construction: radius a for type1 and
    r*a for type2.  ``exponentiated=True`` selects the looser exp(a) /
    exp(r*a) reading of the hypothesis instead.
    """
    base = problem.a if problem.kind == TYPE1 else problem.r * problem.a
    return math.exp(base) if exponentiated else base


def alpha_for(problem: ProblemSpec) -> float:
    """Contraction constant: l/s for type1, 3l(1/r + 1/s) for type2."""
    if problem.kind == TYPE1:
        return problem.l / problem.s
    return 3.0 * problem.l * (1.0 / problem.r + 1.0 / problem.s)


# ---------------------------------------------------------------------------
# Iteration maps and residuals


def sum_congruences(a_list, value: ComplexMatrix) -> ComplexMatrix:
    """sum_i A_i* M A_i for a shared Hermitian middle factor.

    In the Thompson metric this sum is no farther from sum_i A_i* N A_i
    than M is from N, which is what makes the iteration maps contract.
    The operands are not validated: the A_i come from a validated problem
    and M from a matrix function of a validated point.
    """
    acc = _congruence(a_list[0], value)
    for a_i in a_list[1:]:
        acc = acc + _congruence(a_i, value)
    return symmetrize(acc)


def build_map_type1(q, a_list, f_spec: MatrixFunctionSpec, s: float) -> Callable:
    """X -> (Q + sum_i A_i* F(X) A_i) ** (1/s)."""
    q_arr = _require_pd(q, "constant term")
    s = float(s)

    def t(x):
        rhs = symmetrize(q_arr + sum_congruences(a_list, apply_F(f_spec, x)))
        return _power(rhs, 1.0 / s)

    return t


def build_map_type2(a_list, f_spec: MatrixFunctionSpec, rho: float) -> Callable:
    """X -> (sum_i A_i* F(X) A_i) ** (1/rho)."""
    rho = float(rho)

    def t(x):
        return _power(sum_congruences(a_list, apply_F(f_spec, x)), 1.0 / rho)

    return t


def maps_for(problem: ProblemSpec) -> tuple[Callable, Callable]:
    """The pair (T1, T2) realizing the problem's equations as fixed points."""
    if problem.kind == TYPE1:
        return (
            build_map_type1(problem.Q1, problem.A, problem.F, problem.s),
            build_map_type1(problem.Q2, problem.A, problem.G, problem.s),
        )
    return (
        build_map_type2(problem.A, problem.F, problem.r),
        build_map_type2(problem.A, problem.G, problem.s),
    )


def residuals(problem: ProblemSpec, x) -> tuple[float, float]:
    """Relative residuals of both equations at a candidate solution.

    r_j = ||X**s_j - RHS_j(X)||_F / max(1, ||X**s_j||_F), with s_1 = s_2 = s
    for type1 and (s_1, s_2) = (r, s) for type2.
    """
    x_arr = require_hermitian(x, "candidate solution")
    fx = apply_F(problem.F, x_arr)
    gx = apply_F(problem.G, x_arr)
    if problem.kind == TYPE1:
        lhs1 = lhs2 = _power(x_arr, problem.s)
        rhs1 = symmetrize(problem.Q1 + sum_congruences(problem.A, fx))
        rhs2 = symmetrize(problem.Q2 + sum_congruences(problem.A, gx))
    else:
        lhs1 = _power(x_arr, problem.r)
        lhs2 = _power(x_arr, problem.s)
        rhs1 = sum_congruences(problem.A, fx)
        rhs2 = sum_congruences(problem.A, gx)
    r1 = frobenius_norm(lhs1 - rhs1) / max(1.0, frobenius_norm(lhs1))
    r2 = frobenius_norm(lhs2 - rhs2) / max(1.0, frobenius_norm(lhs2))
    return r1, r2


# ---------------------------------------------------------------------------
# Condition checking


@dataclass
class ConditionStat:
    """Sampled outcome of one sufficiency condition."""

    name: str
    checked: int = 0
    failures: int = 0
    worst_margin: float = float("-inf")
    worst: dict | None = None
    literal_failures: int | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def record(self, margin: float, witness: dict) -> None:
        self.checked += 1
        if margin > CONDITION_TOL:
            self.failures += 1
        if margin > self.worst_margin:
            self.worst_margin = margin
            self.worst = witness

    def to_jsonable(self) -> dict:
        out = {
            "name": self.name,
            "checked": self.checked,
            "failures": self.failures,
            "passed": self.passed,
            "pass_ratio": (self.checked - self.failures) / self.checked if self.checked else 0.0,
            "worst_margin": self.worst_margin,
            "worst": self.worst,
        }
        if self.literal_failures is not None:
            out["literal_failures"] = self.literal_failures
        return out


@dataclass
class ConditionReport:
    """Deterministic sampled verdict over all conditions of a problem."""

    kind: str
    samples: int
    seed: int
    radius: float
    conditions: dict[str, ConditionStat] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(stat.passed for stat in self.conditions.values())

    def to_jsonable(self) -> dict:
        return {
            "kind": self.kind,
            "samples": self.samples,
            "seed": self.seed,
            "radius": self.radius,
            "passed": self.passed,
            "conditions": {name: stat.to_jsonable() for name, stat in sorted(self.conditions.items())},
        }


def _witness(sample: int, inequality: str, lhs: float, rhs: float, x, y=None) -> dict:
    out = {
        "sample": sample,
        "inequality": inequality,
        "lhs": float(lhs),
        "rhs": float(rhs),
        "X": matrix_to_literal(x),
    }
    if y is not None:
        out["Y"] = matrix_to_literal(y)
    return out


def check_conditions_type1(problem: ProblemSpec, samples: int = 200, seed: int = 0) -> ConditionReport:
    """Sample the type1 sufficiency conditions over ball pairs.

    Per pair (X, Y) drawn from the radius-a ball:

    * (A) d(Q1, Q2) <= d(F(X), G(Y))
    * (B) d(F(X), G(Y)) <= l * d(X, Y)
    * (C) d(T1(X), I) <= a and d(T2(X), I) <= a

    ``literal_failures`` on (A) and (B) counts pairs violating the
    stricter one-sided ratio form of the same condition.
    """
    if problem.kind != TYPE1:
        raise ValueError(f"expected a type1 problem, got {problem.kind}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    radius = ball_radius(problem)
    report = ConditionReport(kind=TYPE1, samples=samples, seed=seed, radius=radius)
    stat_a = ConditionStat("A", literal_failures=0)
    stat_b = ConditionStat("B", literal_failures=0)
    stat_c = ConditionStat("C")
    t1, t2 = maps_for(problem)

    w_q2q1 = thompson._w_ratio(problem.Q2, problem.Q1)
    w_q1q2 = thompson._w_ratio(problem.Q1, problem.Q2)
    d_q = max(math.log(w_q2q1), math.log(w_q1q2), 0.0)

    rng = np.random.default_rng(seed)
    for i in range(samples):
        x = random_pd_in_ball(problem.n, radius, rng)
        y = random_pd_in_ball(problem.n, radius, rng)
        fx = apply_F(problem.F, x)
        gy = apply_F(problem.G, y)
        w_gf = thompson._w_ratio(gy, fx)
        w_fg = thompson._w_ratio(fx, gy)
        d_fg = max(math.log(w_gf), math.log(w_fg), 0.0)
        w_yx = thompson._w_ratio(y, x)
        w_xy = thompson._w_ratio(x, y)
        d_xy = max(math.log(w_yx), math.log(w_xy), 0.0)

        stat_a.record(d_q - d_fg, _witness(i, "d(Q1,Q2) <= d(F(X),G(Y))", d_q, d_fg, x, y))
        if w_q2q1 > w_gf + CONDITION_TOL or w_q1q2 > w_fg + CONDITION_TOL:
            stat_a.literal_failures += 1

        rhs_b = problem.l * d_xy
        stat_b.record(d_fg - rhs_b, _witness(i, "d(F(X),G(Y)) <= l*d(X,Y)", d_fg, rhs_b, x, y))
        if w_gf > w_yx**problem.l + CONDITION_TOL or w_fg > w_xy**problem.l + CONDITION_TOL:
            stat_b.literal_failures += 1

        d1 = thompson.distance_to_identity(t1(x))
        d2 = thompson.distance_to_identity(t2(x))
        worse = max(d1, d2)
        label = "d(T1(X),I) <= a" if d1 >= d2 else "d(T2(X),I) <= a"
        stat_c.record(worse - problem.a, _witness(i, label, worse, problem.a, x))

    report.conditions = {"A": stat_a, "B": stat_b, "C": stat_c}
    return report


def check_condition_c_literal(problem: ProblemSpec, samples: int = 200, seed: int = 0) -> ConditionStat:
    """Secondary diagnostic: the four-term eigenvalue form of condition (C).

    For each sampled X it checks lambda_max(T_j(X)) <= exp(a) and
    lambda_max(T_j(X) ** (-1/4)) <= exp(a) for j = 1, 2, which is the
    stated form of the ball constraint before it collapses to the pair of
    Thompson-ball memberships.
    """
    if problem.kind != TYPE1:
        raise ValueError(f"expected a type1 problem, got {problem.kind}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    radius = ball_radius(problem)
    bound = math.exp(problem.a)
    stat = ConditionStat("C_literal")
    t1, t2 = maps_for(problem)
    rng = np.random.default_rng(seed)
    for i in range(samples):
        x = random_pd_in_ball(problem.n, radius, rng)
        terms = []
        for j, t in enumerate((t1, t2), start=1):
            lam = eig_hermitian(t(x)).eigenvalues
            terms.append((f"lambda_max(T{j}(X))", float(lam[-1])))
            terms.append((f"lambda_max(T{j}(X)^(-1/4))", float(lam[0] ** -0.25)))
        label, lhs = max(terms, key=lambda item: item[1])
        stat.record(lhs - bound, _witness(i, f"{label} <= exp(a)", lhs, bound, x))
    return stat


def check_conditions_type2(problem: ProblemSpec, samples: int = 200, seed: int = 0) -> ConditionReport:
    """Sample the type2 sufficiency conditions over the radius r*a ball.

    Checked exactly as stated, per sampled X and pair (X, Y):

    * (A) lambda_max(F(X)) <= exp(r*a)/m and lambda_max(F(X)**-1) <= m*exp(r*a),
      and the same pair of bounds for G
    * (B) lambda_max(F(X)) <= w(X/Y)**l / (m*2**r),
      lambda_max(G(X)) <= w(X/Y)**l / (m*2**s), and
      lambda_max(F(X)**-1), lambda_max(G(X)**-1) <= m * w(Y/X)**l

    Note the (B) bounds constrain every sampled pair, including nearly
    coincident ones where w(X/Y) approaches 1; reports on problems whose
    functions genuinely vary are expected to fail (B) and are useful as
    regression fixtures rather than truth assertions.
    """
    if problem.kind != TYPE2:
        raise ValueError(f"expected a type2 problem, got {problem.kind}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    radius = ball_radius(problem)
    report = ConditionReport(kind=TYPE2, samples=samples, seed=seed, radius=radius)
    stat_a = ConditionStat("A")
    stat_b = ConditionStat("B")
    exp_ra = math.exp(problem.r * problem.a)
    m = problem.m

    rng = np.random.default_rng(seed)
    for i in range(samples):
        x = random_pd_in_ball(problem.n, radius, rng)
        y = random_pd_in_ball(problem.n, radius, rng)
        lam_f = eig_hermitian(apply_F(problem.F, x)).eigenvalues
        lam_g = eig_hermitian(apply_F(problem.G, x)).eigenvalues
        max_f, inv_f = float(lam_f[-1]), float(1.0 / lam_f[0])
        max_g, inv_g = float(lam_g[-1]), float(1.0 / lam_g[0])

        terms_a = [
            ("lambda_max(F(X)) <= exp(r*a)/m", max_f, exp_ra / m),
            ("lambda_max(F(X)^-1) <= m*exp(r*a)", inv_f, m * exp_ra),
            ("lambda_max(G(X)) <= exp(r*a)/m", max_g, exp_ra / m),
            ("lambda_max(G(X)^-1) <= m*exp(r*a)", inv_g, m * exp_ra),
        ]
        label, lhs, rhs = max(terms_a, key=lambda item: item[1] - item[2])
        stat_a.record(lhs - rhs, _witness(i, label, lhs, rhs, x))

        w_xy = thompson._w_ratio(x, y)
        w_yx = thompson._w_ratio(y, x)
        terms_b = [
            ("lambda_max(F(X)) <= w(X/Y)^l/(m*2^r)", max_f, w_xy**problem.l / (m * 2.0**problem.r)),
            ("lambda_max(G(X)) <= w(X/Y)^l/(m*2^s)", max_g, w_xy**problem.l / (m * 2.0**problem.s)),
            ("lambda_max(F(X)^-1) <= m*w(Y/X)^l", inv_f, m * w_yx**problem.l),
            ("lambda_max(G(X)^-1) <= m*w(Y/X)^l", inv_g, m * w_yx**problem.l),
        ]
        label, lhs, rhs = max(terms_b, key=lambda item: item[1] - item[2])
        stat_b.record(lhs - rhs, _witness(i, label, lhs, rhs, x, y))

    report.conditions = {"A": stat_a, "B": stat_b}
    return report


def check_conditions(problem: ProblemSpec, samples: int = 200, seed: int = 0) -> ConditionReport:
    """Dispatch to the matching condition checker."""
    if problem.kind == TYPE1:
        return check_conditions_type1(problem, samples, seed)
    return check_conditions_type2(problem, samples, seed)


# ---------------------------------------------------------------------------
# Solving


@dataclass(frozen=True)
class SolveOptions:
    gap_tol: float = 1e-12
    residual_tol: float = 1e-10
    max_iter: int = 500
    samples: int = 200
    seed: int = 0
    force: bool = False
    exp_radius: bool = False
    bound_tol: float | None = None


@dataclass(eq=False)
class SolveResult:
    solution: ComplexMatrix
    trace: IterationTrace
    residual1: float
    residual2: float
    dist_to_identity: float
    alpha_used: float
    report: ConditionReport | None = None


def _result_from(problem, trace, alpha, report) -> SolveResult:
    solution = trace.points[-1]
    r1, r2 = residuals(problem, solution)
    return SolveResult(
        solution=solution,
        trace=trace,
        residual1=r1,
        residual2=r2,
        dist_to_identity=thompson.distance_to_identity(solution),
        alpha_used=alpha,
        report=report,
    )


def solve(problem: ProblemSpec, x0=None, options: SolveOptions | None = None) -> SolveResult:
    """Run the alternating iteration from an admissible starting point.

    The start defaults to the identity.  Unless ``options.force`` is set,
    the sampled condition report must pass before iteration begins.  The
    returned result carries the full trace and is residual-certified to
    ``options.residual_tol``.

    Raises
    ------
    X0DomainError
        Starting point outside the admissible ball.
    ConditionsNotVerified
        Condition report failed and the solve was not forced (the report
        is attached to the exception).
    MaxIterationsExceeded
        Step budget exhausted; the partial result is attached.
    ResidualToleranceExceeded
        Iteration converged in the metric but a residual stayed above the
        certification tolerance; the uncertified result is attached.
    """
    options = options or SolveOptions()
    radius = ball_radius(problem, options.exp_radius)
    x0 = identity(problem.n) if x0 is None else require_hermitian(x0, "starting point")
    if x0.shape[0] != problem.n:
        raise DimensionMismatch(f"starting point has shape {x0.shape}, expected ({problem.n}, {problem.n})")
    d0 = thompson.distance_to_identity(x0)
    if d0 > radius + 1e-12:
        raise X0DomainError(
            f"starting point lies outside the admissible ball: d(X0, I) = {d0:.6g} > {radius:.6g}"
        )

    report = None
    if not options.force:
        report = check_conditions(problem, options.samples, options.seed)
        if not report.passed:
            failing = sorted(name for name, stat in report.conditions.items() if not stat.passed)
            raise ConditionsNotVerified(
                f"condition(s) {', '.join(failing)} failed on sampling; "
                f"pass force=True to iterate anyway",
                report=report,
            )

    t1, t2 = maps_for(problem)
    alpha = alpha_for(problem)
    space = MetricSpace(thompson._distance)
    stop = StoppingRule(gap_tol=options.gap_tol, max_iter=options.max_iter, bound_tol=options.bound_tol)
    try:
        trace = iterate_pair(space, t1, t2, alpha, x0, stop)
    except MaxIterationsExceeded as exc:
        exc.result = _result_from(problem, exc.trace, alpha, report)
        raise

    result = _result_from(problem, trace, alpha, report)
    worst = max(result.residual1, result.residual2)
    if worst > options.residual_tol:
        raise ResidualToleranceExceeded(
            f"converged in the metric but residual {worst:.3e} exceeds "
            f"tolerance {options.residual_tol:.3e}; the equation pair is "
            f"likely inconsistent",
            result=result,
        )
    return result
