"""Thompson metric tests.

Diagonal pairs have the closed form d = max_i |log(a_i / b_i)|, which
serves as the exact oracle; the inversion/congruence invariance and the
power and sum inequalities are checked on seeded random samples.
"""

import math

import numpy as np
import pytest

from helpers import random_nonsingular, random_pd, random_unitary
from jacobi import jacobi_eig
from tfp import hpd_core, thompson
from tfp.errors import DimensionMismatch, NotPositiveDefinite


def diag_distance(a_diag, b_diag):
    return float(np.abs(np.log(np.asarray(a_diag) / np.asarray(b_diag))).max())


def ratios(a, b):
    """(W(A/B), W(B/A)) of two matrices."""
    return thompson._ratios(hpd_core.pd_point(a), hpd_core.pd_point(b))


def top_ratio(a, b):
    """W(A/B) = lambda_max(B^{-1/2} A B^{-1/2}) in plain numpy."""
    lam, vectors = np.linalg.eigh(b)
    b_inv_half = (vectors * lam**-0.5) @ vectors.conj().T
    return float(np.linalg.eigvalsh(b_inv_half @ a @ b_inv_half)[-1])


class TestWRatio:
    def test_identity_pair(self):
        assert ratios(np.eye(3), np.eye(3)) == (1.0, 1.0)

    def test_scalar_multiple(self):
        assert ratios(2 * np.eye(3), np.eye(3)) == pytest.approx((2.0, 0.5), abs=1e-12)

    def test_commuting_diagonals(self):
        # oracle: max_i a_i / b_i for commuting diagonal matrices
        got = ratios(np.diag([1.0, 4.0]), np.diag([2.0, 1.0]))
        assert got == pytest.approx((max(1 / 2, 4 / 1), max(2 / 1, 1 / 4)), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            thompson.distance(np.eye(2), np.eye(3))


class TestDistance:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(4)
        for n in (2, 3):
            a = random_pd(rng, n)
            assert thompson.distance(a, a) <= 1e-10

    def test_scalar_multiple_of_identity(self):
        assert thompson.distance(2 * np.eye(3), np.eye(3)) == pytest.approx(math.log(2), abs=1e-12)

    def test_diagonal_closed_form(self):
        got = thompson.distance(np.diag([1.0, 4.0]), np.diag([2.0, 1.0]))
        assert got == pytest.approx(math.log(4), abs=1e-12)

    @pytest.mark.parametrize("indefinite", [np.diag([2.0, -1.0]), -np.eye(2)])
    def test_rejects_a_non_positive_definite_argument_either_side(self, indefinite):
        for pair in ((indefinite, np.eye(2)), (np.eye(2), indefinite)):
            with pytest.raises(NotPositiveDefinite):
                thompson.distance(*pair)

    def test_distance_to_identity_shortcut(self):
        rng = np.random.default_rng(6)
        for n in (2, 3, 4):
            a = random_pd(rng, n)
            direct = thompson.distance_to_identity(a)
            assert direct == pytest.approx(thompson.distance(a, np.eye(n)), abs=1e-10)


def jacobi_distance(a, b):
    """d(A, B) = max |log lambda(B^{-1/2} A B^{-1/2})| from the Jacobi oracle alone."""
    lam, vectors = jacobi_eig(b)
    b_inv_half = (vectors * lam**-0.5) @ vectors.conj().T
    mu, _ = jacobi_eig(b_inv_half @ a @ b_inv_half)
    return float(np.abs(np.log(mu)).max())


def point_from_spectrum(u, lam):
    """The point U diag(lam) U* with its construction as decomposition."""
    order = np.argsort(lam)
    matrix = hpd_core.symmetrize((u * lam) @ u.conj().T)
    return hpd_core.PDPoint(matrix, hpd_core.EigenDecomposition(lam[order], u[:, order]))


class TestOneEigensolveDistance:
    """Both ratios from one pencil, A^{-1/2} B A^{-1/2}, on points."""

    def test_agrees_with_closed_form_and_jacobi_oracle(self):
        rng = np.random.default_rng(60)
        for i in range(20):
            n = 2 + i % 5
            a_diag, b_diag = np.exp(rng.uniform(-2, 2, n)), np.exp(rng.uniform(-2, 2, n))
            got = thompson.distance(hpd_core.pd_point(np.diag(a_diag)), hpd_core.pd_point(np.diag(b_diag)))
            assert got == pytest.approx(diag_distance(a_diag, b_diag), abs=1e-12)
            a, b = random_pd(rng, n), random_pd(rng, n)
            got = thompson.distance(hpd_core.pd_point(a), hpd_core.pd_point(b))
            assert got == pytest.approx(jacobi_distance(a, b), abs=1e-12)

    def test_costs_one_eigensolve_on_points(self, monkeypatch):
        rng = np.random.default_rng(61)
        a, b = (hpd_core.random_pd_in_ball(4, 1.0, rng) for _ in range(2))
        calls = []
        eig = hpd_core.eig_hermitian
        monkeypatch.setattr(hpd_core, "eig_hermitian", lambda m, *name: calls.append(m) or eig(m, *name))
        thompson.distance(a, b)
        assert len(calls) == 1
        assert thompson.distance(a, a) == 0.0 and len(calls) == 1

    def test_symmetric(self):
        rng = np.random.default_rng(62)
        for _ in range(20):
            a, b = (hpd_core.random_pd_in_ball(3, 2.0, rng) for _ in range(2))
            assert thompson.distance(a, b) == thompson.distance(b, a)
            w_ab, w_ba = thompson._ratios(a, b)
            assert thompson._ratios(b, a) == (w_ba, w_ab)

    def test_rejects_a_non_positive_definite_point_either_side(self):
        point = hpd_core.pd_point(np.eye(2))
        for pair in ((np.diag([1.0, -1.0]), point), (point, np.diag([1.0, -1.0]))):
            with pytest.raises(NotPositiveDefinite):
                thompson.distance(*pair)

    def test_ratio_product_at_least_one(self):
        # W(A/B) W(B/A) = lambda_max / lambda_min of one pencil
        rng = np.random.default_rng(63)
        for i in range(20):
            a, b = (hpd_core.random_pd_in_ball(2 + i % 3, 1.5, rng) for _ in range(2))
            w_ab, w_ba = thompson._ratios(a, b)
            assert w_ab * w_ba >= 1.0
            assert w_ab == pytest.approx(top_ratio(a.matrix, b.matrix), rel=1e-12)
            assert w_ba == pytest.approx(top_ratio(b.matrix, a.matrix), rel=1e-12)

    def test_wide_pencil_keeps_both_ratios_accurate(self):
        # points far apart on a radius-10 ball: mu_min of one pencil is then
        # below what a single eigensolve resolves.  The oracle takes each
        # ratio as the top eigenvalue of its own pencil, built in numpy from
        # the points' exact spectra.
        def top(g):
            return float(np.linalg.eigvalsh(0.5 * (g + g.conj().T))[-1])

        t, s = np.array([-10.0, 0.5, 10.0]), np.array([-9.5, 1.0, 9.0])
        for seed in range(10):
            u, w = random_unitary(3, 100 + seed), random_unitary(3, 200 + seed)
            c = w.conj().T @ u
            w_ab = top((c * np.exp(t)) @ c.conj().T / np.sqrt(np.outer(np.exp(s), np.exp(s))))
            w_ba = top((c.conj().T * np.exp(s)) @ c / np.sqrt(np.outer(np.exp(t), np.exp(t))))
            got = thompson._ratios(point_from_spectrum(u, np.exp(t)), point_from_spectrum(w, np.exp(s)))
            assert math.log(got[0]) == pytest.approx(math.log(w_ab), abs=1e-12)
            assert math.log(got[1]) == pytest.approx(math.log(w_ba), abs=1e-12)


class TestMetricAxioms:
    def test_symmetry_identity_triangle(self):
        rng = np.random.default_rng(31)
        for i in range(30):
            n = 2 + i % 3
            a, b, c = (random_pd(rng, n) for _ in range(3))
            dab = thompson.distance(a, b)
            assert dab == thompson.distance(b, a)
            assert dab > 1e-10  # distinct random points
            assert thompson.distance(a, c) <= dab + thompson.distance(b, c) + 1e-9


class TestInvarianceProperties:
    def test_inversion_and_congruence_invariance(self):
        rng = np.random.default_rng(32)
        for i in range(20):
            n = 2 + i % 3
            a, b = random_pd(rng, n), random_pd(rng, n)
            d = thompson.distance(a, b)
            d_inv = thompson.distance(hpd_core.pd_point(a).powered(-1), hpd_core.pd_point(b).powered(-1))
            assert d_inv == pytest.approx(d, abs=1e-9)
            m = random_nonsingular(rng, n)
            d_cong = thompson.distance(m @ a @ m.conj().T, m @ b @ m.conj().T)
            assert d_cong == pytest.approx(d, abs=1e-9)

    def test_power_inequality(self):
        rng = np.random.default_rng(33)
        for i in range(12):
            n = 2 + i % 3
            a, b = random_pd(rng, n), random_pd(rng, n)
            d = thompson.distance(a, b)
            for r in (-1.0, -0.5, 1 / 3, 0.5, 1.0):
                dr = thompson.distance(hpd_core.pd_point(a).powered(r), hpd_core.pd_point(b).powered(r))
                assert dr <= abs(r) * d + 1e-9

    def test_sum_inequality(self):
        rng = np.random.default_rng(34)
        for i in range(12):
            n = 2 + i % 3
            a, b, c, d = (random_pd(rng, n) for _ in range(4))
            lhs = thompson.distance(a + b, c + d)
            assert lhs <= max(thompson.distance(a, c), thompson.distance(b, d)) + 1e-9
            lhs2 = thompson.distance(a + b, a + d)
            assert lhs2 <= thompson.distance(b, d) + 1e-9

    def test_diagonal_closed_form_random(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            a_diag = np.exp(rng.uniform(-2, 2, size=3))
            b_diag = np.exp(rng.uniform(-2, 2, size=3))
            got = thompson.distance(np.diag(a_diag), np.diag(b_diag))
            assert got == pytest.approx(diag_distance(a_diag, b_diag), abs=1e-12)
