"""Sequential condition checkers: the test oracle for the stacked sampler.

``matrix_solver.check_conditions`` draws and evaluates its samples in
stacked blocks.  The checkers here draw and judge one sample at a time,
X then Y, from the same two streams (``default_rng(seed).spawn(2)``) and
in the same order, with the package's kernels on single
points, Python scalars for the ratios, the scalar distance rule
``ratio_distance`` (``math.log`` and ``max``) and the original one-sample
``record`` rule (a sample counts its term of largest margin, the first on
a tie, and replaces the witness when that margin is strictly larger).
They draw through ``random_pd_in_ball`` below, three generator calls per
point (``uniform`` from the spectra stream, then two ``standard_normal``
calls from the Gaussian stream), which ``hpd_core.random_pd_in_ball``
must reproduce bit for bit with its two calls per stack.  Condition (C) forms each right-hand side with
``map_oracle.rhs``, kernel by kernel and independent of the package's
``_rhs``, and reads its eigenvalues only, as the package does: those LAPACK
computes without eigenvectors may differ in the last bits from those of
the map's root.  Their reports must match the stacked ones byte for byte.
"""

import math

import numpy as np

from map_oracle import rhs
from tfp import thompson
from tfp.hpd_core import EigenDecomposition, PDPoint, _haar_unitaries, _pd_eig, matrix_to_literal, symmetrize
from tfp.matrix_solver import CONDITION_TOL, TYPE1, TYPE2, ConditionReport, ConditionStat, apply_F, ball_radius


def random_pd_in_ball(n, radius, seed, shape=()):
    """``hpd_core.random_pd_in_ball`` drawn point by point with three
    generator calls each: ``uniform`` from the spectra stream, then two
    ``standard_normal`` from the Gaussian stream.  ``seed`` is a
    ``(spectra, gauss)`` pair of generators, or an int or a generator that
    is both streams: the recipe as it was first written."""
    spectra, gauss = seed if isinstance(seed, tuple) else (np.random.default_rng(seed),) * 2
    count = math.prod(shape)
    t = np.empty((count, n))
    re, im = np.empty((2, count, n, n))
    for k in range(count):
        t[k] = spectra.uniform(-radius, radius, size=n)
        gauss.standard_normal(out=re[k])
        gauss.standard_normal(out=im[k])
    u = _haar_unitaries((re + 1j * im) / math.sqrt(2))
    lam = np.exp(t)
    order = np.argsort(t, axis=-1)
    matrix = symmetrize((u * lam[:, None, :]) @ u.conj().swapaxes(-1, -2))
    lam, u = np.take_along_axis(lam, order, -1), np.take_along_axis(u, order[:, None, :], -1)
    shape = tuple(shape)
    return PDPoint(
        matrix.reshape(shape + (n, n)),
        EigenDecomposition(lam.reshape(shape + (n,)), u.reshape(shape + (n, n))),
    )


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
            "X": matrix_to_literal(x),
        }
        if y is not None:
            stat.worst["Y"] = matrix_to_literal(y)


def ratio_distance(w_ab, w_ba):
    """d(A, B) = max(log W(A/B), log W(B/A), 0) from one ratio pair."""
    return max(math.log(w_ab), math.log(w_ba), 0.0)


def _ratios(a, b):
    return tuple(float(w) for w in thompson._ratios(a, b))


def map_distance_to_identity(e, q, a_list, f_value):
    """d(T(X), I) for T(X) = (Q + sum_i A_i* F(X) A_i) ** (1/e), from the
    eigenvalues of the right-hand side alone."""
    lam = _pd_eig(rhs(q, a_list, f_value), "map right-hand side", vectors=False).eigenvalues
    return float(thompson._identity_distance(lam ** (1.0 / e)))


def check_conditions_type1(problem, samples=200, seed=0):
    radius = ball_radius(problem)
    report = ConditionReport(kind=TYPE1, samples=samples, seed=seed, radius=radius)
    stat_a = ConditionStat("A", literal_failures=0)
    stat_b = ConditionStat("B", literal_failures=0)
    stat_c = ConditionStat("C")

    w_q1q2, w_q2q1 = _ratios(problem.Q1, problem.Q2)
    d_q = ratio_distance(w_q1q2, w_q2q1)

    streams = tuple(np.random.default_rng(seed).spawn(2))
    for i in range(samples):
        x = random_pd_in_ball(problem.n, radius, streams)
        y = random_pd_in_ball(problem.n, radius, streams)
        w_fg, w_gf = _ratios(apply_F(problem.F, x), apply_F(problem.G, y))
        d_fg = ratio_distance(w_fg, w_gf)
        w_xy, w_yx = _ratios(x, y)
        d_xy = ratio_distance(w_xy, w_yx)

        _record(stat_a, i, "d(Q1,Q2) <= d(F(X),G(Y))", d_q, d_fg, x, y)
        if w_q2q1 > w_gf + CONDITION_TOL or w_q1q2 > w_fg + CONDITION_TOL:
            stat_a.literal_failures += 1

        _record(stat_b, i, "d(F(X),G(Y)) <= l*d(X,Y)", d_fg, problem.l * d_xy, x, y)
        if w_gf > w_yx**problem.l + CONDITION_TOL or w_fg > w_xy**problem.l + CONDITION_TOL:
            stat_b.literal_failures += 1

        d1, d2 = (
            map_distance_to_identity(e, q, problem.A, apply_F(f_spec, x)) for e, q, f_spec in problem.equations
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
    exp_ra = math.exp(problem.r * problem.a)
    m = problem.m

    streams = tuple(np.random.default_rng(seed).spawn(2))
    for i in range(samples):
        x = random_pd_in_ball(problem.n, radius, streams)
        y = random_pd_in_ball(problem.n, radius, streams)
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

        w_xy, w_yx = _ratios(x, y)
        terms_b = [
            ("lambda_max(F(X)) <= w(X/Y)^l/(m*2^r)", max_f, w_xy**problem.l / (m * 2.0**problem.r)),
            ("lambda_max(G(X)) <= w(X/Y)^l/(m*2^s)", max_g, w_xy**problem.l / (m * 2.0**problem.s)),
            ("lambda_max(F(X)^-1) <= m*w(Y/X)^l", inv_f, m * w_yx**problem.l),
            ("lambda_max(G(X)^-1) <= m*w(Y/X)^l", inv_g, m * w_yx**problem.l),
        ]
        _record(stat_b, i, *max(terms_b, key=lambda item: item[1] - item[2]), x, y)

    report.conditions = {"A": stat_a, "B": stat_b}
    return report


def check_conditions(problem, samples=200, seed=0):
    if problem.kind == TYPE1:
        return check_conditions_type1(problem, samples, seed)
    return check_conditions_type2(problem, samples, seed)
