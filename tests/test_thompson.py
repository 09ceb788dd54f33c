"""Thompson metric tests.

Diagonal pairs have the closed form d = max_i |log(a_i / b_i)|, which
serves as the exact oracle; the inversion/congruence invariance and the
power and sum inequalities are checked on seeded random samples.
"""

import math

import numpy as np
import pytest

from helpers import random_nonsingular, random_pd
from tfp import hpd_core, thompson
from tfp.errors import DimensionMismatch, NotPositiveDefinite


def diag_distance(a_diag, b_diag):
    return float(np.abs(np.log(np.asarray(a_diag) / np.asarray(b_diag))).max())


class TestWRatio:
    def test_identity_pair(self):
        assert thompson.w_ratio(np.eye(3), np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_scalar_multiple(self):
        assert thompson.w_ratio(2 * np.eye(3), np.eye(3)) == pytest.approx(2.0, abs=1e-12)

    def test_commuting_diagonals(self):
        # oracle: max_i a_i / b_i for commuting diagonal matrices
        got = thompson.w_ratio(np.diag([1.0, 4.0]), np.diag([2.0, 1.0]))
        assert got == pytest.approx(max(1 / 2, 4 / 1), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            thompson.w_ratio(np.eye(2), np.eye(3))

    def test_only_the_denominator_must_be_positive_definite(self):
        # W reads only the top eigenvalue, so a numerator spanning far more
        # than the relative floor still gives the exact ratio
        assert thompson.w_ratio(np.diag([1e-40, 3.0]), np.eye(2)) == pytest.approx(3.0, abs=1e-12)
        with pytest.raises(NotPositiveDefinite):
            thompson.w_ratio(np.eye(2), np.diag([1.0, -1.0]))


class TestDistance:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(4)
        for n in (2, 3):
            a = random_pd(rng, n)
            assert thompson.distance(a, a) <= thompson.ZERO_TOL

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


class TestMetricAxioms:
    def test_symmetry_identity_triangle(self):
        rng = np.random.default_rng(31)
        for i in range(30):
            n = 2 + i % 3
            a, b, c = (random_pd(rng, n) for _ in range(3))
            dab = thompson.distance(a, b)
            assert dab == thompson.distance(b, a)
            assert dab > thompson.ZERO_TOL  # distinct random points
            assert thompson.distance(a, c) <= dab + thompson.distance(b, c) + 1e-9


class TestInvarianceProperties:
    def test_inversion_and_congruence_invariance(self):
        rng = np.random.default_rng(32)
        for i in range(20):
            n = 2 + i % 3
            a, b = random_pd(rng, n), random_pd(rng, n)
            d = thompson.distance(a, b)
            d_inv = thompson.distance(
                hpd_core.matrix_power(a, -1), hpd_core.matrix_power(b, -1)
            )
            assert d_inv == pytest.approx(d, abs=1e-9)
            m = random_nonsingular(rng, n)
            # M A M* is the congruence by M's conjugate transpose
            d_cong = thompson.distance(
                hpd_core.congruence(m.conj().T, a), hpd_core.congruence(m.conj().T, b)
            )
            assert d_cong == pytest.approx(d, abs=1e-9)

    def test_power_inequality(self):
        rng = np.random.default_rng(33)
        for i in range(12):
            n = 2 + i % 3
            a, b = random_pd(rng, n), random_pd(rng, n)
            d = thompson.distance(a, b)
            for r in (-1.0, -0.5, 1 / 3, 0.5, 1.0):
                dr = thompson.distance(hpd_core.matrix_power(a, r), hpd_core.matrix_power(b, r))
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
