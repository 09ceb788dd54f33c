"""Thompson metric tests.

Diagonal pairs have the closed form d = max_i |log(a_i / b_i)|, which
serves as the exact oracle; the inversion/congruence invariance and the
power and sum inequalities are checked on seeded random samples.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_nonsingular, random_pd, random_unitary
from jacobi import jacobi_eig
from sampling_oracle import ratio_distance
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
        monkeypatch.setattr(
            hpd_core, "eig_hermitian", lambda m, *name, **kw: calls.append(kw) or eig(m, *name, **kw)
        )
        thompson.distance(a, b)
        assert calls == [{"vectors": False}]
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


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


# radius of the ball whose points have condition numbers up to 1e6
KAPPA_1E6_RADIUS = math.log(1e6) / 2


class TestGaps:
    def test_fewer_than_two_points_have_no_gap(self):
        assert thompson.gaps([]) == [] and thompson.gaps([np.eye(2)]) == []

    def test_points_of_different_shapes_name_both(self):
        points = [np.eye(2), 2 * np.eye(2), np.eye(3)]
        with pytest.raises(DimensionMismatch, match=re.escape("distance shapes differ: (2, 2) vs (3, 3)")):
            thompson.gaps(points)

    def test_a_matrix_that_is_not_a_point_is_named_by_its_place(self):
        with pytest.raises(NotPositiveDefinite, match="point 1 must be positive definite"):
            thompson.distance(np.eye(2), -np.eye(2))
        with pytest.raises(NotPositiveDefinite, match="point 2 must be positive definite"):
            thompson.gaps([np.eye(2), np.eye(2), -np.eye(2)])

    def test_a_stack_of_matrices_is_not_one_point(self):
        stack = np.stack([np.eye(2), np.eye(2)])
        message = "distance_to_identity argument has shape (2, 2, 2), expected (2, 2)"
        with pytest.raises(DimensionMismatch, match=re.escape(message)):
            thompson.distance_to_identity(stack)

    """``gaps`` of a sequence: one stacked call, each gap with the bits
    ``distance`` gives its pair."""

    @settings(max_examples=80)
    @given(
        n=st.integers(min_value=1, max_value=8),
        radius=st.floats(min_value=0.0, max_value=KAPPA_1E6_RADIUS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        plan=st.lists(st.sampled_from(["draw", "repeat", "copy", "root", "inverse"]), min_size=1, max_size=7),
    )
    def test_gaps_match_distance_bit_for_bit(self, n, radius, seed, plan):
        # each next point is a new draw, the last point or an equal copy of
        # it (a gap of exactly 0), its square root (a near point) or its
        # inverse, whose decomposition powered() reverses
        rng = np.random.default_rng(seed)
        points = [hpd_core.random_pd_in_ball(n, radius, rng)]
        for step in plan:
            last = points[-1]
            if step == "draw":
                points.append(hpd_core.random_pd_in_ball(n, radius, rng))
            elif step == "copy":
                points.append(hpd_core.PDPoint(last.matrix.copy(), last.dec))
            else:
                points.append({"repeat": last, "root": last.powered(0.5), "inverse": last.powered(-1)}[step])
        expected = [thompson.distance(a, b) for a, b in zip(points, points[1:])]
        assert bits(thompson.gaps(points)) == bits(expected)

    def test_one_stacked_eigensolve_and_one_for_the_wide_pencils(self, monkeypatch):
        rng = np.random.default_rng(64)
        a, b, c = (hpd_core.random_pd_in_ball(4, KAPPA_1E6_RADIUS, rng) for _ in range(3))
        points = [a, a, b, c, c.powered(0.5)]
        expected = [thompson.distance(u, v) for u, v in zip(points, points[1:])]
        calls = []
        eig = hpd_core.eig_hermitian
        monkeypatch.setattr(
            hpd_core, "eig_hermitian", lambda m, *name, **kw: calls.append(np.shape(m)) or eig(m, *name, **kw)
        )
        gaps = thompson.gaps(points)
        assert bits(gaps) == bits(expected) and gaps[0] == 0.0
        # all four pencils in one call, then the wide ones in a second
        assert calls[0] == (4, 4, 4) and len(calls) == 2 and 1 <= calls[1][0] < 4

    def test_takes_matrices(self):
        rng = np.random.default_rng(65)
        matrices = [random_pd(rng, 3) for _ in range(3)]
        expected = [thompson.distance(a, b) for a, b in zip(matrices, matrices[1:])]
        assert bits(thompson.gaps(matrices)) == bits(expected)

    def test_inverse_has_the_bits_of_its_contiguous_copy(self):
        # a reversed view of the inverse's spectrum took numpy's strided
        # pow loop and gave 1.5588671185559553 here, not 1.558867118555955
        inverse = hpd_core.random_pd_in_ball(2, 1.0, 1).powered(-1)
        other = hpd_core.random_pd_in_ball(2, 1.0, 1000001)
        lam, vectors = inverse.dec
        assert lam.flags.c_contiguous
        copy = hpd_core.PDPoint(inverse.matrix, hpd_core.EigenDecomposition(lam.copy(), vectors.copy()))
        assert bits([thompson.distance(inverse, other)]) == bits([thompson.distance(copy, other)])
        assert bits(thompson.gaps([inverse, other])) == bits([thompson.distance(copy, other)])


def condition(point):
    """lambda_max / lambda_min of a point, or of each point of a stack."""
    lam = point.dec.eigenvalues
    return lam[..., -1] / lam[..., 0]


def pencil_condition(a, b):
    """mu_max / mu_min of B^{-1/2} A B^{-1/2}, in plain numpy."""
    lam, vectors = np.linalg.eigh(b.matrix)
    b_inv_half = (vectors * lam**-0.5) @ vectors.conj().T
    mu = np.linalg.eigvalsh(b_inv_half @ a.matrix @ b_inv_half)
    return mu[-1] / mu[0]


class TestSelectionRule:
    """``_ratios`` picks each pair's base, runs the wide-pencil solve and
    turns the ratios back sample by sample: a pair of a stack gets the bits
    it gets alone, whichever pairs share its stack, and swapped arguments
    get the same bits swapped unless the condition numbers tie."""

    N = 4
    # ten times the mu_max / mu_min above which a pencil takes the second
    # eigensolve (n * eps * mu_max > _ONE_SOLVE_REL_TOL * mu_min): the
    # margin covers the error of the numpy pencil below
    WIDE = 10 * thompson._ONE_SOLVE_REL_TOL / (N * np.finfo(np.float64).eps)

    @staticmethod
    def strided(pairs):
        """The two sides of an (S, 2) stack of the pairs: strided views."""
        stack = hpd_core.PDPoint.stacked([hpd_core.PDPoint.stacked(pair) for pair in pairs])
        return stack[:, 0], stack[:, 1]

    def drawn_pairs(self, seed):
        drawn = hpd_core.random_pd_in_ball(self.N, KAPPA_1E6_RADIUS, seed, shape=(8, 2))
        return [(drawn[i, 0], drawn[i, 1]) for i in range(8)]

    def assert_pairwise_bits(self, x, y):
        w_ab, w_ba = thompson._ratios(x, y)
        alone = [thompson._ratios(x[i], y[i]) for i in range(len(w_ab))]
        assert bits(w_ab) == bits([w for w, _ in alone]) and bits(w_ba) == bits([w for _, w in alone])
        turned_ba, turned_ab = thompson._ratios(y, x)
        differ = condition(x) != condition(y)
        assert bits(turned_ab[differ]) == bits(w_ab[differ]) and bits(turned_ba[differ]) == bits(w_ba[differ])

    def test_a_mixed_stack(self):
        pairs = self.drawn_pairs(67)
        p = pairs[0][0]
        near = p.powered(1.0001)
        pairs += [(p, near), (near, p), (p, hpd_core.PDPoint(p.matrix.copy(), p.dec))]
        x, y = self.strided(pairs)
        swap = condition(y) < condition(x)
        width = np.array([pencil_condition(a, b) for a, b in pairs])
        # unswapped and swapped pairs, each with a wide and a narrow pencil,
        # and an equal pair
        for side in (False, True):
            assert np.any((swap == side) & (width > self.WIDE)) and np.any((swap == side) & (width < 10.0))
        assert np.array_equal(x.matrix[-1], y.matrix[-1])
        self.assert_pairwise_bits(x, y)

    @pytest.mark.parametrize("swapped", [False, True])
    def test_a_stack_that_swaps_no_pair_or_every_pair(self, swapped):
        pairs = [sorted(pair, key=condition, reverse=swapped) for pair in self.drawn_pairs(68)]
        x, y = self.strided(pairs)
        assert np.all((condition(y) < condition(x)) == swapped)
        assert any(pencil_condition(a, b) > self.WIDE for a, b in pairs)
        self.assert_pairwise_bits(x, y)


def log_error(n, *points):
    """A bound on the error of a log-eigenvalue quantity of the points:
    their eigenvalues carry an error of about n * eps * lambda_max, so
    the log of the smallest is off by n * eps * kappa, kappa the largest
    condition number (the factor 8 covers the rest of the arithmetic)."""
    kappa = max(p.dec.eigenvalues[-1] / p.dec.eigenvalues[0] for p in points)
    return 8 * n * np.finfo(np.float64).eps * kappa


class TestSpectralDistance:
    """max_i |log lambda_i(A) - log lambda_i(B)| from the two spectra:
    at most d(A, B) (Weyl's inequality), and equal to it on commuting
    pairs whose eigenvalues are ordered alike."""

    @settings(max_examples=80)
    @given(
        n=st.integers(min_value=1, max_value=8),
        radius=st.floats(min_value=0.0, max_value=3.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_at_most_the_distance(self, n, radius, seed):
        rng = np.random.default_rng(seed)
        a, b = (hpd_core.random_pd_in_ball(n, radius, rng) for _ in range(2))
        tol = log_error(n, a, b)
        assert thompson.spectral_distance(a, b) <= thompson.distance(a, b) + tol
        assert thompson.spectral_distance(b, a) <= thompson.distance(b, a) + tol

    @settings(max_examples=80)
    @given(
        n=st.integers(min_value=1, max_value=8),
        radius=st.floats(min_value=0.0, max_value=3.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_equal_to_the_distance_on_commuting_pairs(self, n, radius, seed):
        # A = U diag(a) U* and B = U diag(b) U*, both diagonals ascending
        rng = np.random.default_rng(seed)
        u = random_unitary(n, rng)
        a_diag, b_diag = (np.sort(np.exp(rng.uniform(-radius, radius, n))) for _ in range(2))
        a, b = (hpd_core.pd_point((u * diag) @ u.conj().T) for diag in (a_diag, b_diag))
        tol = log_error(n, a, b)
        assert thompson.spectral_distance(a, b) == pytest.approx(thompson.distance(a, b), abs=tol)
        assert thompson.spectral_distance(b, a) == pytest.approx(thompson.distance(b, a), abs=tol)
        assert thompson.spectral_distance(a, b) == pytest.approx(diag_distance(a_diag, b_diag), abs=tol)

    def test_unordered_commuting_pair_is_only_a_bound(self):
        # diag(1, 4) and diag(2, 1) are log 4 apart; their ordered spectra
        # (1, 4) and (1, 2) only log 2
        a, b = hpd_core.pd_point(np.diag([1.0, 4.0])), hpd_core.pd_point(np.diag([2.0, 1.0]))
        assert thompson.spectral_distance(a, b) == pytest.approx(math.log(2.0))
        assert thompson.distance(a, b) == pytest.approx(math.log(4.0))

    def test_costs_no_eigensolve(self, monkeypatch):
        rng = np.random.default_rng(66)
        a, b = (hpd_core.random_pd_in_ball(4, 1.0, rng) for _ in range(2))
        monkeypatch.setattr(hpd_core, "eig_hermitian", None)
        assert thompson.spectral_distance(a, b) > 0.0


def scalar_pow(w, exponent):
    """``math.pow``, inf where it overflows."""
    try:
        return math.pow(w, exponent)
    except OverflowError:
        return math.inf


class TestElementwiseRatioMath:
    """The ratio rules give, on a pair and on every element of a stack, the
    bits of the scalar rules: ``math.log`` and ``max`` for distances,
    ``math.pow`` for powers."""

    RATIOS = [1.0, math.nextafter(1.0, 2.0), 1e-300, 1e300]

    def test_distances_match_the_scalar_rule(self):
        pairs = [(u, v) for u in self.RATIOS for v in self.RATIOS]
        w_ab, w_ba = (np.array(side) for side in zip(*pairs))
        expected = np.array([ratio_distance(u, v) for u, v in pairs])
        assert thompson._ratio_distances(w_ab, w_ba).tobytes() == expected.tobytes()
        for u, v in pairs:
            got = thompson._ratio_distances(np.float64(u), np.float64(v))
            assert np.float64(got).tobytes() == np.float64(ratio_distance(u, v)).tobytes()

    # 1e300 ** 2 and 1e-300 ** -1.5 overflow to inf
    @pytest.mark.parametrize("exponent", [0.3, 0.5, -0.7, 2.0, -1.5])
    def test_powers_match_the_scalar_rule(self, exponent):
        expected = np.array([scalar_pow(w, exponent) for w in self.RATIOS])
        assert thompson._ratio_powers(np.array(self.RATIOS), exponent).tobytes() == expected.tobytes()
        for w in self.RATIOS:
            got = thompson._ratio_powers(np.float64(w), exponent)
            assert np.float64(got).tobytes() == np.float64(scalar_pow(w, exponent)).tobytes()

    def test_overflowing_power_is_inf(self):
        assert thompson._ratio_powers(np.array([2.0, 1e300]), 2.0).tolist() == [4.0, math.inf]

    def test_zero_ratio_raises(self):
        with pytest.raises(ValueError):
            thompson._ratio_distances(np.array([2.0, 0.0]), np.array([1.0, 1.0]))


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
