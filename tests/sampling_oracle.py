"""Sequential condition checkers: the test oracle for the stacked sampler.

``matrix_solver.check_conditions`` draws and evaluates its samples in
stacked blocks.  The checkers here draw and judge one sample at a time
from the same three streams (``default_rng(seed).spawn(3)``: spectra,
U's Gaussian draws, W's Gaussian draws) and in the same order, with
Python control flow and scalars for the ratios, the scalar distance and
power rules ``ratio_distance`` and ``ratio_power`` (numpy's ``log`` and
``power`` on one-element arrays, which give an element of a stack its
bits) and the original one-sample
``record`` rule (a sample counts its term of largest margin, the first on
a tie, and replaces the witness when that margin is strictly larger).

A sample is drawn by ``sample_pair`` with four generator calls
(``uniform`` for X's spectrum and for Y's from the spectra stream, two
``standard_normal`` calls for W from the third stream) and, for a
family whose terms read U (type1 with a power F or G), two more for U
from the second, which ``hpd_core.sample_ball_pairs`` must reproduce bit
for bit with its two or three calls per block.  X = U diag(lam_x) U* and
Y = V diag(lam_y) V* with V = U W, U = I when no term reads it (the
witnesses of such a family are written in X's eigenbasis), and the
ratios of a pair known in X's
eigenbasis are taken by ``frame_ratios``, one base at a time, with an
``if`` where the package takes ``np.where`` on a stack; two points go
there in the better-conditioned one's eigenbasis (``point_ratios``).
With F and G both X -> X**1, d(F(X), G(Y)) is d(X, Y), one pencil.
Condition (C) forms each right-hand side with ``map_oracle.rhs``,
independent of the package's ``_rhs``, from X's eigenvalues ** p and U
for a power map, and once per check, before the first sample, for a
constant one; it reads its eigenvalues only, as the package does: those
LAPACK computes without eigenvectors may differ in the last bits from
those of the map's root.  Their reports must match the stacked ones byte
for byte.
"""

import numpy as np

from helpers import apply_F
from map_oracle import rhs
from tfp import hpd_core, thompson
from tfp.hpd_core import EigenDecomposition, PDPoint, _haar_unitaries, _pd_eig, matrix_to_literal, pd_floor, symmetrize
from tfp.matrix_solver import CONDITION_TOL, TYPE1, TYPE2, ConditionReport, ConditionStat, ball_radius


def _haar(rng, n):
    """One Haar unitary from two ``standard_normal`` calls of ``rng``."""
    z = np.empty((2, n, n))
    rng.standard_normal(out=z[0])
    rng.standard_normal(out=z[1])
    return _haar_unitaries(z)


def sample_pair(n, radius, streams, with_u=True):
    """(lam_x, lam_y, W, U) of one sample drawn from the ``(spectra, gauss,
    frame)`` streams: X's and Y's ascending spectra, the unitary W between
    their eigenbases and X's eigenvectors U, or I without ``with_u``."""
    spectra, gauss, frame = streams
    lam_x, lam_y = (np.exp(np.sort(spectra.uniform(-radius, radius, size=n))) for _ in range(2))
    w = _haar(frame, n)
    return lam_x, lam_y, w, _haar(gauss, n) if with_u else np.eye(n, dtype=complex)


def pair_points(lam_x, lam_y, w, u):
    """The points X and Y of a sample, each with the decomposition it was
    built from."""
    v = u @ w
    x = PDPoint(symmetrize((u * lam_x) @ u.conj().T), EigenDecomposition(lam_x, u))
    y = PDPoint(symmetrize((v * lam_y) @ v.conj().T), EigenDecomposition(lam_y, v))
    return x, y


def frame_ratios(lam_a, lam_b, w):
    """(W(A/B), W(B/A)) of A = U diag(lam_a) U* and B = U W diag(lam_b) W* U*:
    the pencil on the better-conditioned base, B's when it is strictly
    better, and a second eigensolve from the other base when the first is
    too wide for 1/mu_min."""

    def spectrum(on_b):
        # K K* for K = D_a^-1/2 W D_b^1/2 on A's base; on B's, K* K for
        # K = D_a^1/2 W D_b^-1/2, whose spectrum is that of K K*
        if on_b:
            k = w * (lam_a**0.5)[:, None] * (lam_b**-0.5)[None, :]
        else:
            k = w * (lam_a**-0.5)[:, None] * (lam_b**0.5)[None, :]
        pencil = symmetrize(k @ k.conj().T)
        return hpd_core.eig_hermitian(pencil, "Thompson ratio pencil", vectors=False).eigenvalues

    swap = lam_b.max() / lam_b.min() < lam_a.max() / lam_a.min()
    mu = spectrum(swap)
    w_other, w_base = float(mu[-1]), float(1.0 / mu[0])
    if pd_floor(mu) > thompson._ONE_SOLVE_REL_TOL * mu[0]:
        w_base = float(spectrum(not swap)[-1])
    return (w_other, w_base) if swap else (w_base, w_other)


def _record(stat, sample, inequality, lhs, rhs, x, y=None):
    """Count one sampled inequality lhs <= rhs, whose margin is lhs - rhs."""
    margin = lhs - rhs
    stat.checked += 1
    if margin > CONDITION_TOL:
        stat.failures += 1
    if margin > stat.worst_margin:
        stat.worst_margin = margin
        stat.worst = {
            "sample": sample,
            "inequality": inequality,
            "lhs": float(lhs),
            "rhs": float(rhs),
            "X": matrix_to_literal(x.matrix),
        }
        if y is not None:
            stat.worst["Y"] = matrix_to_literal(y.matrix)


def ratio_distance(w_ab, w_ba):
    """d(A, B) = max(log W(A/B), log W(B/A), 0) from one ratio pair."""
    return max(float(np.log(np.array([w_ab]))[0]), float(np.log(np.array([w_ba]))[0]), 0.0)


def ratio_power(w, exponent):
    """w ** exponent of one ratio, inf where it overflows."""
    with np.errstate(over="ignore"):
        return float(np.power(np.array([w]), exponent)[0])


def point_ratios(a, b):
    """(W(A/B), W(B/A)) of two points: both 1 for points of one
    decomposition, else ``frame_ratios`` in the eigenbasis of the
    better-conditioned point, B's when it is strictly better."""
    (lam_a, vec_a), (lam_b, vec_b) = a.dec, b.dec
    if np.array_equal(lam_a, lam_b) and np.array_equal(vec_a, vec_b):
        return 1.0, 1.0
    if lam_b.max() / lam_b.min() < lam_a.max() / lam_a.min():
        w_ba, w_ab = frame_ratios(lam_b, lam_a, vec_b.conj().T @ vec_a)
        return w_ab, w_ba
    return frame_ratios(lam_a, lam_b, vec_a.conj().T @ vec_b)


def map_distance_to_identity(e, q, a_list, mu, vectors):
    """d(T(X), I) for T(X) = (Q + sum_i A_i* F(X) A_i) ** (1/e) with
    F(X) = V diag(mu) V*, from the eigenvalues of the right-hand side
    alone."""
    lam = _pd_eig(rhs(q, a_list, mu, vectors), "map right-hand side", vectors=False).eigenvalues
    return float(thompson._identity_distance(lam ** (1.0 / e)))


def check_conditions_type1(problem, samples=200, seed=0):
    radius = ball_radius(problem)
    report = ConditionReport(kind=TYPE1, samples=samples, seed=seed, radius=radius)
    stat_a = ConditionStat("A", literal_failures=0)
    stat_b = ConditionStat("B", literal_failures=0)
    stat_c = ConditionStat("C")

    w_q1q2, w_q2q1 = point_ratios(problem.Q1, problem.Q2)
    d_q = ratio_distance(w_q1q2, w_q2q1)
    powers = problem.F.kind == problem.G.kind == "power"
    identities = powers and problem.F.exponent == problem.G.exponent == 1.0

    reads_u = problem.F.kind == "power" or problem.G.kind == "power"
    # a constant map's distance, one for all samples, T1's first
    fixed = {
        j: map_distance_to_identity(e, q, problem.A, *f_spec.value.dec)
        for j, (e, q, f_spec) in enumerate(problem.equations)
        if f_spec.kind == "constant"
    }
    streams = tuple(np.random.default_rng(seed).spawn(3))
    for i in range(samples):
        lam_x, lam_y, w, u = sample_pair(problem.n, radius, streams, reads_u)
        x, y = pair_points(lam_x, lam_y, w, u)
        w_xy, w_yx = frame_ratios(lam_x, lam_y, w)
        d_xy = ratio_distance(w_xy, w_yx)
        if identities:  # F(X) = X and G(Y) = Y
            w_fg, w_gf = w_xy, w_yx
        elif powers:
            w_fg, w_gf = frame_ratios(lam_x**problem.F.exponent, lam_y**problem.G.exponent, w)
        else:
            w_fg, w_gf = point_ratios(apply_F(problem.F, x), apply_F(problem.G, y))
        d_fg = ratio_distance(w_fg, w_gf)

        _record(stat_a, i, "d(Q1,Q2) <= d(F(X),G(Y))", d_q, d_fg, x, y)
        if w_q2q1 > w_gf + CONDITION_TOL or w_q1q2 > w_fg + CONDITION_TOL:
            stat_a.literal_failures += 1

        _record(stat_b, i, "d(F(X),G(Y)) <= l*d(X,Y)", d_fg, problem.l * d_xy, x, y)
        if w_gf > ratio_power(w_yx, problem.l) + CONDITION_TOL or w_fg > ratio_power(w_xy, problem.l) + CONDITION_TOL:
            stat_b.literal_failures += 1

        d1, d2 = (
            fixed[j] if j in fixed else map_distance_to_identity(e, q, problem.A, lam_x**f_spec.exponent, u)
            for j, (e, q, f_spec) in enumerate(problem.equations)
        )
        terms_c = [("d(T1(X),I) <= a", d1, problem.a), ("d(T2(X),I) <= a", d2, problem.a)]
        _record(stat_c, i, *max(terms_c, key=lambda item: item[1] - item[2]), x)

    report.conditions = {"A": stat_a, "B": stat_b, "C": stat_c}
    return report


def check_conditions_type2(problem, samples=200, seed=0):
    radius = ball_radius(problem)
    report = ConditionReport(kind=TYPE2, samples=samples, seed=seed, radius=radius)
    stat_a = ConditionStat("A")
    stat_b = ConditionStat("B")
    exp_ra = float(np.exp(problem.r * problem.a))
    two_r, two_s = ratio_power(2.0, problem.r), ratio_power(2.0, problem.s)
    m = problem.m

    streams = tuple(np.random.default_rng(seed).spawn(3))
    for i in range(samples):
        lam_x, lam_y, w, u = sample_pair(problem.n, radius, streams, with_u=False)
        x, y = pair_points(lam_x, lam_y, w, u)
        lam_f = apply_F(problem.F, x).dec.eigenvalues
        lam_g = apply_F(problem.G, x).dec.eigenvalues
        max_f, inv_f = float(lam_f[-1]), float(1.0 / lam_f[0])
        max_g, inv_g = float(lam_g[-1]), float(1.0 / lam_g[0])

        terms_a = [
            ("lambda_max(F(X)) <= exp(r*a)/m", max_f, exp_ra / m),
            ("lambda_max(F(X)^-1) <= m*exp(r*a)", inv_f, m * exp_ra),
            ("lambda_max(G(X)) <= exp(r*a)/m", max_g, exp_ra / m),
            ("lambda_max(G(X)^-1) <= m*exp(r*a)", inv_g, m * exp_ra),
        ]
        _record(stat_a, i, *max(terms_a, key=lambda item: item[1] - item[2]), x)

        w_xy, w_yx = frame_ratios(lam_x, lam_y, w)
        w_xy_l, w_yx_l = ratio_power(w_xy, problem.l), ratio_power(w_yx, problem.l)
        terms_b = [
            ("lambda_max(F(X)) <= w(X/Y)^l/(m*2^r)", max_f, w_xy_l / (m * two_r)),
            ("lambda_max(G(X)) <= w(X/Y)^l/(m*2^s)", max_g, w_xy_l / (m * two_s)),
            ("lambda_max(F(X)^-1) <= m*w(Y/X)^l", inv_f, m * w_yx_l),
            ("lambda_max(G(X)^-1) <= m*w(Y/X)^l", inv_g, m * w_yx_l),
        ]
        _record(stat_b, i, *max(terms_b, key=lambda item: item[1] - item[2]), x, y)

    report.conditions = {"A": stat_a, "B": stat_b}
    return report


def check_conditions(problem, samples=200, seed=0):
    if problem.kind == TYPE1:
        return check_conditions_type1(problem, samples, seed)
    return check_conditions_type2(problem, samples, seed)
