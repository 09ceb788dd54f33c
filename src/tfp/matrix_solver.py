"""Solver for pairs of nonlinear matrix equations on the positive definite cone.

Two problem families are supported, both with coefficient matrices A_i,
matrix functions F and G, and exponents above 1:

* type1:  X**s = Q1 + sum_i A_i* F(X) A_i   and   X**s = Q2 + sum_i A_i* G(X) A_i
          (A_i nonsingular, Q1 and Q2 positive definite, l < s)
* type2:  X**r = sum_i A_i* F(X) A_i        and   X**s = sum_i A_i* G(X) A_i
          (A_i unitary, 3l < rs / (r + s))

Both families share the form X**e_j = Q_j + sum_i A_i* F_j(X) A_i with
F_1 = F and F_2 = G: type1 has e_1 = e_2 = s, type2 has (e_1, e_2) = (r, s)
and no Q_j.  ``ProblemSpec.equations`` lists (e_j, Q_j or None, F_j), and
one function, ``_rhs``, forms the right-hand side Q_j + sum_i A_i* F A_i
for the maps, condition (C) and the residuals alike, from F's
decomposition F = V diag(mu) V* as Q_j + sum_i B_i diag(mu) B_i* with
B_i = A_i* V: no matrix F(X) or G(X) is formed.  Each pair is solved by
the alternating fixed-point engine with the maps

    T_j(X) = (Q_j + sum_i A_i* F_j(X) A_i) ** (1/e_j)

on the Thompson ball {X : d(X, I) <= a} (radius r*a for type2), with the
contraction constant alpha = l/s (type1) or alpha = 3l(1/r + 1/s) (type2).
The iterates are ``PDPoint``s: F_j(X), X**e_j and d(X, I) read the known
spectrum, and T_j's one eigensolve, of its right-hand side, decomposes
the new point, whose matrix is formed only where it is read: a step is
one eigensolve and a few products, and the only iterate matrix the
package reads is the solution's, for its certificate.  That root,
``pd_point`` and the certificate of a solution are the only eigensolves
that compute eigenvectors: the Gram check of a type1 coefficient, the
Thompson distances and condition (C), d(T_j(X), I), read eigenvalues
only.
``residuals`` takes a stack of points too, which gives the trace rows of
a solve in a few calls.

Sufficiency conditions are verified by seeded sampling, never exhaustively:
the quantifier ranges over an uncountable ball.  ``check_conditions`` is
the one entry point and the one sampling loop; a family only lists, per
block of samples, each condition's terms (label, lhs, rhs).  The samples
are drawn and evaluated in stacked blocks of at most ``_BLOCK_ENTRIES``
entries per stack: one ``(S, n, n)`` stack per quantity, so a block costs
two or three generator calls, one call of each kernel and one eigensolve
call per decomposition step, whatever its size.  A pair is drawn in X's
eigenbasis, as two spectra and the unitary W between the eigenbases, and
its Thompson pencils are one product each, of W scaled by rows and
columns; X's eigenvectors are drawn only where a term reads them, and X
and Y themselves are formed only for a witness.  For type1,
conditions (A) and (B) are judged in their metric (proof-level) form

    (A)  d(Q1, Q2) <= d(F(X), G(Y))
    (B)  d(F(X), G(Y)) <= l * d(X, Y)

with the stricter one-sided ratio inequalities recorded per pair as a
secondary diagnostic; condition (C) is the pair of ball constraints
d(T1(X), I) <= a and d(T2(X), I) <= a.  Type2 conditions are checked
exactly as stated, eigenvalue bound by eigenvalue bound.  A sample counts
its term of largest margin lhs - rhs (the first on a tie), and a
condition's report keeps its worst sample (the first of the largest
margin) as the witness, with X and Y written out as matrix literals.

The returned solution is certified by the relative equation residuals,
which are the ground truth of correctness independent of any printed
reference values.  ``solve`` builds its one result once the iteration
returns, and raises it attached when the run stalls or is not certified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import thompson
from .errors import (
    ConditionsNotVerified,
    MaxIterationsExceeded,
    NotPositiveDefinite,
    ResidualToleranceExceeded,
    TfpError,
    X0DomainError,
)
from .fixpoint_engine import STOP_MAX_ITER, IterationTrace, iterate_pair
from .hpd_core import (
    BallPairs,
    ComplexMatrix,
    EigenDecomposition,
    PDPoint,
    _pd_eig,
    _require_finite,
    as_bool,
    as_count,
    as_finite,
    as_seed,
    as_square_matrix,
    as_tolerance,
    eig_hermitian,
    frobenius_norm,
    identity,
    matrix_to_literal,
    pd_point,
    sample_ball_pairs,
    symmetrize,
)

TYPE1 = "type1"
TYPE2 = "type2"

# Numerical slack applied when judging the sampled inequalities.
CONDITION_TOL = 1e-9

# Unitarity tolerance for type2 coefficient matrices.
UNITARY_TOL = 1e-10

# Matrix entries per stacked array of a sampling block: 1 MiB of complex128.
_BLOCK_ENTRIES = 1 << 16


# The rule of each ``SolveOptions`` field, which a problem file's options obey.
OPTION_RULES = dict(
    gap_tol=as_tolerance, residual_tol=as_tolerance, max_iter=as_count, samples=as_count, seed=as_seed, force=as_bool
)


# ---------------------------------------------------------------------------
# Matrix function specs


@dataclass(frozen=True, eq=False)
class MatrixFunctionSpec:
    """Either a fractional power X -> X**exponent or a constant map."""

    kind: str
    exponent: float | None = None
    value: PDPoint | None = None


def power(exponent: float) -> MatrixFunctionSpec:
    """The map X -> X**exponent with exponent in [-1, 1] \\ {0}."""
    exponent = as_finite(exponent, "exponent")
    if exponent == 0.0 or not -1.0 <= exponent <= 1.0:
        raise ValueError(f"power exponent must be in [-1, 1] and nonzero, got {exponent}")
    return MatrixFunctionSpec("power", exponent=exponent)


def constant(value) -> MatrixFunctionSpec:
    """The constant map X -> value for a fixed positive definite value."""
    return MatrixFunctionSpec("constant", value=pd_point(value, "constant function value"))


def _sampled(spec: MatrixFunctionSpec, dec: Callable[[], EigenDecomposition]) -> PDPoint:
    """F(X) of each point of a stack known by its decomposition ``dec()``:
    a power is its point, no matrix formed, and a constant its own single
    point, which numpy broadcasts over the stack, without calling ``dec``."""
    return dec().powered(spec.exponent) if spec.kind == "power" else spec.value


def _spectrum(spec: MatrixFunctionSpec, lam):
    """The eigenvalues of F(X), ascending, for X of ascending eigenvalues
    ``lam``, one spectrum per point of a stack, in
    ``EigenDecomposition.powered``'s arithmetic: lambda ** p, reversed and
    copied contiguous for p < 0; a constant's is its own single spectrum,
    which numpy broadcasts over the stack."""
    if spec.kind != "power":
        return spec.value.dec.eigenvalues
    mu = lam**spec.exponent
    return np.ascontiguousarray(mu[..., ::-1]) if spec.exponent < 0.0 else mu


# ---------------------------------------------------------------------------
# Problem specification


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """One equation pair, fully parameterized.

    ``A`` holds the m coefficient matrices, ``a`` the Thompson ball radius
    and ``l`` the contraction exponent from the sufficiency conditions.
    Type1 problems carry the constant terms Q1 and Q2, as points, and a
    single equation exponent s; type2 problems have no constant terms and
    two exponents r and s.
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
    Q1: PDPoint | None = None
    Q2: PDPoint | None = None
    r: float | None = None

    @property
    def equations(self) -> tuple[tuple[float, PDPoint | None, MatrixFunctionSpec], ...]:
        """(e_j, Q_j, F_j) of each equation X**e_j = Q_j + sum_i A_i* F_j(X) A_i.

        Q_j is None for type2, whose equations have no constant term.
        """
        if self.kind == TYPE1:
            return ((self.s, self.Q1, self.F), (self.s, self.Q2, self.G))
        return ((self.r, None, self.F), (self.s, None, self.G))


def _validate_coefficients(a_list, F, G, n: int) -> tuple[ComplexMatrix, ...]:
    """The A_i as n-by-n arrays, once they and the values of constant
    functions F and G are checked to be n-by-n."""
    mats = tuple(as_square_matrix(a_i, f"A[{i}]", n) for i, a_i in enumerate(a_list))
    if not mats:
        raise ValueError("at least one coefficient matrix is required")
    for name, spec in (("F", F), ("G", G)):
        if spec.kind == "constant":
            pd_point(spec.value, f"{name} value", n)
    return mats


def _require_nonsingular(a_i: ComplexMatrix, name: str) -> None:
    gram = eig_hermitian(symmetrize(a_i.conj().T @ a_i), f"{name}* {name}", vectors=False)
    sq_floor = (a_i.shape[0] * np.finfo(float).eps) ** 2 * max(gram.eigenvalues[-1], 0.0)
    if gram.eigenvalues[0] <= sq_floor:
        raise ValueError(f"{name} is singular to working precision")


def _require_unitary(a_i: ComplexMatrix, name: str) -> None:
    defect = frobenius_norm(a_i.conj().T @ a_i - identity(a_i.shape[0]))
    if defect > UNITARY_TOL:
        raise ValueError(f"{name} is not unitary: defect {defect:.3e} exceeds {UNITARY_TOL:.1e}")


def _require_radius(a: float) -> None:
    if a < 0.0:
        raise ValueError(f"ball radius must be nonnegative, got {a}")


def problem_type1(n, A, Q1, Q2, s, F, G, a, l) -> ProblemSpec:
    """Validated type1 problem: nonsingular coefficients, PD constants, l < s."""
    n, s, a, l = as_count(n, "n"), as_finite(s, "s"), as_finite(a, "a"), as_finite(l, "l")
    mats = _validate_coefficients(A, F, G, n)
    for i, a_i in enumerate(mats):
        _require_nonsingular(a_i, f"A[{i}]")
    if s <= 1.0:
        raise ValueError(f"s must exceed 1, got {s}")
    _require_radius(a)
    if not 0.0 < l < s:
        raise ValueError(f"contraction exponent must satisfy 0 < l < s, got l={l}, s={s}")
    q1, q2 = pd_point(Q1, "Q1", n), pd_point(Q2, "Q2", n)
    return ProblemSpec(kind=TYPE1, n=n, m=len(mats), A=mats, Q1=q1, Q2=q2, s=s, F=F, G=G, a=a, l=l)


def problem_type2(n, A, r, s, F, G, a, l) -> ProblemSpec:
    """Validated type2 problem: unitary coefficients, 0 < l, alpha_for < 1."""
    n, r, s, a, l = as_count(n, "n"), as_finite(r, "r"), as_finite(s, "s"), as_finite(a, "a"), as_finite(l, "l")
    mats = _validate_coefficients(A, F, G, n)
    for i, a_i in enumerate(mats):
        _require_unitary(a_i, f"A[{i}]")
    if r <= 1.0 or s <= 1.0:
        raise ValueError(f"r and s must exceed 1, got r={r}, s={s}")
    _require_radius(a)
    problem = ProblemSpec(kind=TYPE2, n=n, m=len(mats), A=mats, s=s, F=F, G=G, a=a, l=l, r=r)
    if not 0.0 < l or not alpha_for(problem) < 1.0:
        raise ValueError(
            f"contraction exponent must satisfy 0 < 3l < rs/(r+s), got l={l}, r={r}, s={s}"
        )
    return problem


def ball_radius(problem: ProblemSpec) -> float:
    """Admissible Thompson-ball radius around the identity: a for type1,
    r*a for type2, as the self-map construction requires."""
    return problem.a if problem.kind == TYPE1 else problem.r * problem.a


def alpha_for(problem: ProblemSpec) -> float:
    """Contraction constant: l/s for type1, 3l(1/r + 1/s) for type2."""
    if problem.kind == TYPE1:
        return problem.l / problem.s
    return 3.0 * problem.l * (1.0 / problem.r + 1.0 / problem.s)


# ---------------------------------------------------------------------------
# Iteration maps and residuals


def _factors(a_list) -> tuple:
    """A_i* of each coefficient, taken once, here."""
    return tuple(a_i.conj().swapaxes(-1, -2) for a_i in a_list)


def _rhs(q: ComplexMatrix | None, a_stars, mu, vectors) -> ComplexMatrix:
    """Q + sum_i A_i* F A_i for F = V diag(mu) V*, or one per decomposition
    (``mu``, ``vectors``) of a stack; ``q`` is Q's matrix, or None for no
    Q.  ``a_stars`` are the A_i* of ``_factors``.

    Every equation's right-hand side is formed here, from F's
    decomposition: the maps', condition (C)'s and the residuals'.  Each
    term is B_i diag(mu) B_i* with B_i = A_i* V, so no matrix F is formed;
    the stacks of ``q``, ``mu`` and ``vectors`` broadcast, and a B_i is
    taken once for every ``mu`` it meets.  In the Thompson metric the sum
    is no farther from sum_i A_i* G A_i than F is from G, which is what
    makes the maps contract.  The operands come from a validated problem
    and the decomposition of a validated point, and are not checked.  The
    sum, Q first, is re-symmetrized once, halved before the sum as in
    ``symmetrize``, so the result is exactly Hermitian.
    """
    rhs = q
    for a_star in a_stars:
        b = a_star @ vectors
        term = (b * mu[..., None, :]) @ b.conj().swapaxes(-1, -2)
        rhs = term if rhs is None else rhs + term
    half = 0.5 * rhs
    return half + half.conj().swapaxes(-1, -2)


def build_map(q, a_list, f_spec: MatrixFunctionSpec, exponent: float) -> Callable:
    """X -> (Q + sum_i A_i* F(X) A_i) ** (1/exponent); no Q when ``q`` is None.

    Maps points, or stacks of points, to points with one eigensolve call,
    of the right-hand side; the root is that decomposition with
    eigenvalues ** (1/exponent), its matrix formed only when it is read.
    Each A_i* is taken once, here, and a constant F's map, one point for
    every X, is formed and decomposed once, here, and broadcast along a
    stack's leading axes.  A power F(X) reaches ``_rhs`` as X's
    eigenvectors and eigenvalues ** p.  The operands come from a
    validated problem and are not checked again, but a right-hand side
    that overflows raises ``NonHermitianInput`` naming it.
    """
    root, a_stars, q = 1.0 / exponent, _factors(a_list), None if q is None else q.matrix
    p = f_spec.exponent if f_spec.kind == "power" else None
    if p is None:
        mu, v = _pd_eig(_rhs(q, a_stars, *f_spec.value.dec), "map right-hand side").powered(root).dec

    def t(x: PDPoint) -> PDPoint:
        lam, vectors = (x if isinstance(x, PDPoint) else pd_point(x)).dec
        if p is None:
            return PDPoint(None, EigenDecomposition(np.broadcast_to(mu, lam.shape), np.broadcast_to(v, vectors.shape)))
        return _pd_eig(_rhs(q, a_stars, lam**p, vectors), "map right-hand side").powered(root)

    return t


def maps_for(problem: ProblemSpec) -> tuple[Callable, Callable]:
    """The pair (T1, T2) realizing the problem's equations as fixed points."""
    return tuple(build_map(q, problem.A, f_spec, e) for e, q, f_spec in problem.equations)


def residuals(problem: ProblemSpec, x) -> tuple:
    """Relative residuals of both equations at a candidate solution, or
    at each point of a stack of points.

    r_j = ||X**e_j - RHS_j(X)||_F / max(1, ||X**e_j||_F).  Every term
    reads X's spectrum: a ``PDPoint`` costs no eigensolve and a matrix
    one.  Type1's shared exponent s is raised to, and its power's norm
    taken, once.  A point of a stack gets the bits it gets on its own.  A
    power that overflows raises ``NonHermitianInput`` instead of giving
    NaN residuals.
    """
    x = pd_point(x, "candidate solution", problem.n)
    a_stars, powers = _factors(problem.A), {}
    for e in {e for e, _, _ in problem.equations}:
        power = _require_finite(x.powered(e).matrix, f"candidate solution ** {e:g}")
        powers[e] = power, np.maximum(1.0, frobenius_norm(power))
    lam, vectors = x.dec
    out = []
    for e, q, f_spec in problem.equations:
        lhs, scale = powers[e]
        f_dec = (lam**f_spec.exponent, vectors) if f_spec.kind == "power" else f_spec.value.dec
        rhs = _rhs(None if q is None else q.matrix, a_stars, *f_dec)
        out.append(frobenius_norm(lhs - rhs) / scale)
    return tuple(out)


# ---------------------------------------------------------------------------
# Condition checking


def _at(side, i: int):
    """Sample ``i``'s value of a side: one value per sample or one for all."""
    return side[i] if np.ndim(side) else side


@dataclass
class ConditionStat:
    """Sampled outcome of one sufficiency condition; ``worst``, the witness
    of the worst sample, is built for that sample only."""

    name: str
    checked: int = 0
    failures: int = 0
    worst_margin: float = float("-inf")
    worst: dict | None = None
    literal_failures: int | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def record(self, samples: range, terms, witness: Callable[[int], dict]) -> None:
        """Count a block of the samples ``samples``.  ``terms`` lists the
        condition's inequalities lhs <= rhs as (label, lhs, rhs), each side
        one value per sample or one for all; a sample counts its term of
        largest margin lhs - rhs, the first in ``terms`` order on a tie.
        The block's worst sample is the first of its largest margin, and
        replaces the witness only when it is strictly worse, as over the
        samples one by one; ``witness(i)`` gives the matrices, by name, of
        the block's sample ``i``, and is called for that sample only.  A
        later term replaces a sample's margin only when it is larger or
        NaN: the first NaN (inf - inf on a very wide ball) wins, as in
        ``np.argmax``."""
        margins = [lhs - rhs for _, lhs, rhs in terms]
        margin = margins[0]
        for later in margins[1:]:
            margin = np.where((later > margin) | np.isnan(later), later, margin)
        if not np.ndim(margin):  # every side is one value for all samples
            margin = np.full(len(samples), margin)
        self.checked += margin.size
        self.failures += int(np.count_nonzero(margin > CONDITION_TOL))
        i = int(np.argmax(margin))
        if margin[i] > self.worst_margin:
            label, lhs, rhs = next(term for term, m in zip(terms, margins) if _at(m, i) == margin[i])
            self.worst_margin = float(margin[i])
            self.worst = {
                "sample": samples[i],
                "inequality": label,
                "lhs": float(_at(lhs, i)),
                "rhs": float(_at(rhs, i)),
            }
            self.worst.update((name, matrix_to_literal(m)) for name, m in witness(i).items())

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


def _block_size(n: int) -> int:
    """Matrices per stack of a block: at most ``_BLOCK_ENTRIES`` entries,
    and at least one matrix."""
    return max(1, _BLOCK_ENTRIES // (n * n))


def _type1_terms(problem: ProblemSpec) -> Callable:
    """The type1 sufficiency conditions, per pair (X, Y) drawn from the
    radius-a ball:

    * (A) d(Q1, Q2) <= d(F(X), G(Y))
    * (B) d(F(X), G(Y)) <= l * d(X, Y)
    * (C) d(T1(X), I) <= a and d(T2(X), I) <= a

    (A) and (B) also flag the pairs violating the stricter one-sided
    ratio form of the same condition, counted as ``literal_failures``.
    d(T_j(X), I) = max_i |log lambda_i(RHS_j(X)) ** (1/s)| needs the
    eigenvalues of the right-hand side only, so its eigensolve computes no
    eigenvectors; one that overflows or is not positive definite raises
    what T_j raises, with the same message.  A constant map's right-hand
    side is formed and decomposed once, when the check starts (T1's
    first), and its distance is one value for all samples; the power maps'
    right-hand sides of a block are one ``_rhs`` call, T1's before T2's,
    from X = U diag(lam_x) U*, whose B_i = A_i* U serve both maps, and one
    eigensolve call.

    A block's pairs are read in X's eigenbasis (``hpd_core.BallPairs``):
    d(X, Y), and d(F(X), G(Y)) for power F and G, come from the spectra
    and W alone (``thompson._frame_ratios``, one call for both, and one
    ``_ratio_distances`` call), so with power F and G a block forms no
    matrix but the right-hand sides; for F = G = X**1 the call stacks
    d(X, Y)'s pencil alone, as d(F(X), G(Y))'s.  The literal forms raise
    ratios to the power l with ``thompson._raised_to``, inf where a power
    overflows.  A constant F or G is its own single point, which numpy
    broadcasts over the block, and U and W form only what its terms read:
    G(Y)'s decomposition for a power G beside a constant F, and nothing,
    and no U, when both are constant: their d(F(X), G(Y)) is one pencil,
    taken when the check starts, and one value for all samples.
    """
    l, a, root, a_stars = problem.l, problem.a, 1.0 / problem.s, _factors(problem.A)
    F, G = problem.F, problem.G
    powers = F.kind == G.kind == "power"
    identities = powers and F.exponent == G.exponent == 1.0
    w_q1q2, w_q2q1 = thompson._ratios(problem.Q1, problem.Q2)
    d_q = thompson._ratio_distances(w_q1q2, w_q2q1)

    def map_distances(rhs):
        lam = _pd_eig(rhs, "map right-hand side", vectors=False).eigenvalues
        return thompson._identity_distance(lam**root)

    fixed = [
        map_distances(_rhs(q.matrix, a_stars, *f.value.dec)) if f.kind == "constant" else None
        for _, q, f in problem.equations
    ]
    varying = [j for j, d in enumerate(fixed) if d is None]  # the power maps, T1 first
    fixed_fg = thompson._ratios(F.value, G.value) if F.kind == G.kind == "constant" else None
    if varying:  # their Q_j as one stack (k, 1, n, n), broadcast over a block
        q_stack = np.array([problem.equations[j][1].matrix for j in varying])[:, None]
        exponents = [problem.equations[j][2].exponent for j in varying]

    def block(pairs: BallPairs) -> dict:
        if powers:  # the distances' pencils share W: one stack of them
            lam_a = np.stack((pairs.lam_x,) if identities else (pairs.lam_x, pairs.lam_x**F.exponent))
            lam_b = np.stack((pairs.lam_y,) if identities else (pairs.lam_y, pairs.lam_y**G.exponent))
            w_ab, w_ba = thompson._frame_ratios(lam_a, lam_b, pairs.w)
            d = thompson._ratio_distances(w_ab, w_ba)
            w_xy, w_yx, d_xy, w_fg, w_gf, d_fg = w_ab[0], w_ba[0], d[0], w_ab[-1], w_ba[-1], d[-1]
        else:
            w_fg, w_gf = fixed_fg or thompson._ratios(_sampled(F, pairs.x_dec), _sampled(G, pairs.y_dec))
            w_xy, w_yx = thompson._frame_ratios(pairs.lam_x, pairs.lam_y, pairs.w)
            d_fg = thompson._ratio_distances(w_fg, w_gf)
            d_xy = thompson._ratio_distances(w_xy, w_yx)
        literal_a = (w_q2q1 > w_gf + CONDITION_TOL) | (w_q1q2 > w_fg + CONDITION_TOL)
        w_xy_l, w_yx_l = thompson._raised_to(w_xy, l), thompson._raised_to(w_yx, l)
        literal_b = (w_gf > w_yx_l + CONDITION_TOL) | (w_fg > w_xy_l + CONDITION_TOL)
        d_maps = list(fixed)
        if varying:
            lam = pairs.lam_x
            mu = lam ** exponents[0] if len(set(exponents)) == 1 else np.stack([lam**e for e in exponents])
            for j, d in zip(varying, map_distances(_rhs(q_stack, a_stars, mu, pairs.x_dec().vectors))):
                d_maps[j] = d
        d1, d2 = d_maps
        return {
            "A": ([("d(Q1,Q2) <= d(F(X),G(Y))", d_q, d_fg)], True, literal_a),
            "B": ([("d(F(X),G(Y)) <= l*d(X,Y)", d_fg, l * d_xy)], True, literal_b),
            "C": ([("d(T1(X),I) <= a", d1, a), ("d(T2(X),I) <= a", d2, a)], False, None),
        }

    return block


def _type2_terms(problem: ProblemSpec) -> Callable:
    """The type2 sufficiency conditions over the radius r*a ball, exactly
    as stated, per sampled X and pair (X, Y):

    * (A) lambda_max(F(X)) <= exp(r*a)/m and lambda_max(F(X)**-1) <= m*exp(r*a),
      and the same pair of bounds for G
    * (B) lambda_max(F(X)) <= w(X/Y)**l / (m*2**r),
      lambda_max(G(X)) <= w(X/Y)**l / (m*2**s), and
      lambda_max(F(X)**-1), lambda_max(G(X)**-1) <= m * w(Y/X)**l

    Note the (B) bounds constrain every sampled pair, including nearly
    coincident ones where w(X/Y) approaches 1; reports on problems whose
    functions genuinely vary are expected to fail (B) and are useful as
    regression fixtures rather than truth assertions.

    Every term reads X's spectrum or d(X, Y), so a block forms no matrix:
    F's and G's spectra come from X's (``_spectrum``), and the ratios of
    X and Y from the spectra and W (``thompson._frame_ratios``).  exp(r*a),
    2**r, 2**s and the powers w**l are numpy's, inf where they overflow:
    a ball too wide for exp(r*a) breaks down by name at its first block,
    and a (B) bound over an infinite 2**r or 2**s is 0.
    """
    exp_ra, two_r, two_s = np.exp(ball_radius(problem)), np.power(2.0, problem.r), np.power(2.0, problem.s)
    m, l = problem.m, problem.l

    def block(pairs: BallPairs) -> dict:
        lam_f, lam_g = _spectrum(problem.F, pairs.lam_x), _spectrum(problem.G, pairs.lam_x)
        max_f, inv_f = lam_f[..., -1], 1.0 / lam_f[..., 0]
        max_g, inv_g = lam_g[..., -1], 1.0 / lam_g[..., 0]
        w_xy, w_yx = thompson._frame_ratios(pairs.lam_x, pairs.lam_y, pairs.w)
        w_xy_l, w_yx_l = thompson._raised_to(w_xy, l), thompson._raised_to(w_yx, l)
        terms_a = [
            ("lambda_max(F(X)) <= exp(r*a)/m", max_f, exp_ra / m),
            ("lambda_max(F(X)^-1) <= m*exp(r*a)", inv_f, m * exp_ra),
            ("lambda_max(G(X)) <= exp(r*a)/m", max_g, exp_ra / m),
            ("lambda_max(G(X)^-1) <= m*exp(r*a)", inv_g, m * exp_ra),
        ]
        terms_b = [
            ("lambda_max(F(X)) <= w(X/Y)^l/(m*2^r)", max_f, w_xy_l / (m * two_r)),
            ("lambda_max(G(X)) <= w(X/Y)^l/(m*2^s)", max_g, w_xy_l / (m * two_s)),
            ("lambda_max(F(X)^-1) <= m*w(Y/X)^l", inv_f, m * w_yx_l),
            ("lambda_max(G(X)^-1) <= m*w(Y/X)^l", inv_g, m * w_yx_l),
        ]
        return {"A": (terms_a, False, None), "B": (terms_b, True, None)}

    return block


def _witness(pairs: BallPairs, with_y: bool) -> Callable[[int], dict]:
    """A condition's witness of a block's pair ``i``: X, and Y if shown."""

    def witness(i: int) -> dict:
        x, y = pairs.matrices(i)
        return {"X": x, "Y": y} if with_y else {"X": x}

    return witness


def check_conditions(problem: ProblemSpec, samples: int = 200, seed: int = 0) -> ConditionReport:
    """Sample the sufficiency conditions of the problem's kind, ``samples``
    pairs drawn with ``seed``: the one entry point of condition checking.

    The pairs (X, Y) are drawn from the ball of ``ball_radius``, sample
    0, 1, ..., in blocks of at most ``_BLOCK_ENTRIES`` entries per stack,
    by ``hpd_core.sample_ball_pairs`` from three streams spawned once per
    check from ``seed``: one for the spectra, one for the Gaussian draws
    of X's eigenvectors U and one for those of W = U* V, V being Y's.
    Each stream is consumed in sample order, and U is drawn in every block
    of a family whose terms read it and in none of another, so the report
    does not depend on how the samples fall into blocks.  The problem's
    family gives, per block of pairs, each condition's terms, whether its
    witness shows Y, and its per-pair literal violations (None when it has
    no literal form); a witness's X and Y are formed for its sample only,
    in X's eigenbasis (X diagonal) when no term reads U: every term is
    then the same for the pair in any common basis.  A check
    that breaks down with a ``TfpError`` (an overflowing ball, say)
    raises ``ConditionsNotVerified`` with no report and that cause.
    """
    samples, seed = as_count(samples, "samples"), as_seed(seed, "seed")
    try:
        n, radius = problem.n, ball_radius(problem)
        block, streams = _block_size(n), tuple(np.random.default_rng(seed).spawn(3))
        stats = {}
        # an overflow, in a sample or in what the family computes once per
        # check, is reported by the named breakdown below
        with np.errstate(all="ignore"):
            block_terms = (_type1_terms if problem.kind == TYPE1 else _type2_terms)(problem)
            for first in range(0, samples, block):
                pairs = sample_ball_pairs(n, radius, streams, min(block, samples - first))
                for name, (terms, with_y, literal) in block_terms(pairs).items():
                    failures = None if literal is None else 0
                    stat = stats.setdefault(name, ConditionStat(name, literal_failures=failures))
                    stat.record(range(first, first + len(pairs)), terms, _witness(pairs, with_y))
                    if literal is not None:  # one value for all samples counts for each
                        found = int(np.count_nonzero(literal))
                        stat.literal_failures += found * len(pairs) if literal.ndim == 0 else found
    except TfpError as exc:
        raise ConditionsNotVerified(f"condition check broke down: {exc}") from exc
    return ConditionReport(problem.kind, samples, seed, radius, stats)


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

    def __post_init__(self) -> None:
        for name, rule in OPTION_RULES.items():
            object.__setattr__(self, name, rule(getattr(self, name), name))


@dataclass(eq=False)
class SolveResult:
    solution: ComplexMatrix
    trace: IterationTrace
    residual1: float
    residual2: float
    dist_to_identity: float
    report: ConditionReport | None = None


def solve(problem: ProblemSpec, x0=None, options: SolveOptions | None = None) -> SolveResult:
    """Run the alternating iteration from an admissible starting point.

    The start, a matrix or a ``PDPoint``, defaults to the identity, a
    point known without an eigensolve; a matrix is checked and decomposed
    once, for d(X0, I) and the iteration.  Unless
    ``options.force`` is set, the sampled condition report must pass
    before iteration begins.  The returned result carries the full trace,
    whose points are ``PDPoint``s, and is residual-certified to
    ``options.residual_tol``.

    Raises
    ------
    X0DomainError
        Starting point not positive definite or outside the admissible ball.
    ConditionsNotVerified
        Condition report failed and the solve was not forced (the report
        is attached to the exception), or ``check_conditions`` broke
        down (no report).
    MaxIterationsExceeded
        Step budget exhausted; the partial result is attached, and its
        trace holds the steps taken.
    ResidualToleranceExceeded
        Iteration converged in the metric but a residual stayed above the
        certification tolerance; the uncertified result is attached.
    """
    options = options or SolveOptions()
    radius = ball_radius(problem)
    if x0 is None:  # the identity is its own eigendecomposition
        x0 = PDPoint(identity(problem.n), EigenDecomposition(np.ones(problem.n), identity(problem.n)))
    try:
        x0 = pd_point(x0, "starting point", problem.n)
    except NotPositiveDefinite as exc:
        raise X0DomainError(str(exc)) from exc
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
    trace = iterate_pair(
        thompson.gaps, t1, t2, x0, bound=thompson.spectral_distance, gap_tol=options.gap_tol, max_iter=options.max_iter
    )

    # A fresh decomposition certifies the returned matrix itself, so the
    # certificate depends only on the solution that is written out; the
    # map's root made it exactly Hermitian, so it is not validated again.
    solution = trace.points[-1].matrix
    certified = PDPoint(solution, _pd_eig(solution, "solution"))
    r1, r2 = residuals(problem, certified)
    result = SolveResult(
        solution=solution,
        trace=trace,
        residual1=r1,
        residual2=r2,
        dist_to_identity=thompson.distance_to_identity(certified),
        report=report,
    )
    if trace.stop_reason == STOP_MAX_ITER:
        raise MaxIterationsExceeded(
            f"no convergence within {options.max_iter} iterations "
            f"(last gap {trace.gaps[-1]:.3e}, gap tolerance {options.gap_tol:.3e})",
            result,
        )
    worst = max(r1, r2)
    if worst > options.residual_tol:
        raise ResidualToleranceExceeded(
            f"converged in the metric but residual {worst:.3e} exceeds "
            f"tolerance {options.residual_tol:.3e}; the equation pair is "
            f"likely inconsistent",
            result,
        )
    return result
