"""Hermitian/PD algebra tests.

The eigensolver (LAPACK eigh) is checked against construction oracles
(matrices built from known factors) and against the cyclic Jacobi solver
in ``jacobi.py`` as an independent reference implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_hermitian, random_nonsingular, random_pd
from jacobi import jacobi_eig
from tfp import hpd_core, thompson
from tfp.errors import ConvergenceFailure, DimensionMismatch, NonHermitianInput, NotPositiveDefinite


def _spectral_projectors(lam, vectors, gap):
    """Orthogonal projectors onto the eigenspaces of clusters of eigenvalues
    separated by more than ``gap``; independent of the basis chosen inside
    a degenerate eigenspace."""
    starts = [0] + [i for i in range(1, len(lam)) if lam[i] - lam[i - 1] > gap] + [len(lam)]
    return [vectors[:, a:b] @ vectors[:, a:b].conj().T for a, b in zip(starts, starts[1:])]


class TestEigHermitian:
    def test_identity(self):
        dec = hpd_core.eig_hermitian(np.eye(3))
        np.testing.assert_allclose(dec.eigenvalues, [1, 1, 1], atol=0)
        rec = (dec.vectors * dec.eigenvalues) @ dec.vectors.conj().T
        np.testing.assert_allclose(rec, np.eye(3), atol=1e-14)

    def test_diagonal(self):
        dec = hpd_core.eig_hermitian(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(dec.eigenvalues, [4, 9], atol=0)

    def test_constructed_spectrum(self):
        # oracle is the construction itself: M = U diag(1,2,5) U*
        u = hpd_core.random_unitary(3, 2024)
        m = hpd_core.symmetrize((u * np.array([1.0, 2.0, 5.0])) @ u.conj().T)
        dec = hpd_core.eig_hermitian(m)
        np.testing.assert_allclose(dec.eigenvalues, [1, 2, 5], atol=1e-10)

    def test_degenerate_spectrum(self):
        u = hpd_core.random_unitary(4, 31)
        m = hpd_core.symmetrize((u * np.array([2.0, 2.0, 2.0, 7.0])) @ u.conj().T)
        dec = hpd_core.eig_hermitian(m)
        np.testing.assert_allclose(dec.eigenvalues, [2, 2, 2, 7], atol=1e-10)
        rec = (dec.vectors * dec.eigenvalues) @ dec.vectors.conj().T
        np.testing.assert_allclose(rec, m, atol=1e-12)

    def test_eigenvalues_sorted_ascending(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            dec = hpd_core.eig_hermitian(random_hermitian(rng, 5))
            assert all(np.diff(dec.eigenvalues) >= 0)

    def test_against_jacobi_oracle(self):
        for n in (1, 2, 3, 8, 16):
            rng = np.random.default_rng(17 + n)
            u = hpd_core.random_unitary(n, 100 + n)
            spectrum = np.array([-1.5] * (n // 4) + [2.0] * (n - n // 4 - n // 3) + [7.0] * (n // 3))
            degenerate = hpd_core.symmetrize((u * spectrum) @ u.conj().T)
            for m in (random_hermitian(rng, n), degenerate):
                norm = np.linalg.norm(m)
                dec = hpd_core.eig_hermitian(m)
                ref_lam, ref_vectors = jacobi_eig(m)
                np.testing.assert_allclose(dec.eigenvalues, ref_lam, rtol=0, atol=1e-10 * norm)
                ours = _spectral_projectors(dec.eigenvalues, dec.vectors, 1e-6 * norm)
                refs = _spectral_projectors(ref_lam, ref_vectors, 1e-6 * norm)
                assert len(ours) == len(refs)
                for p_ours, p_ref in zip(ours, refs):
                    assert np.linalg.norm(p_ours - p_ref) <= 1e-8
                for lam, vectors in ((dec.eigenvalues, dec.vectors), (ref_lam, ref_vectors)):
                    assert np.linalg.norm((vectors * lam) @ vectors.conj().T - m) <= 1e-10 * max(1.0, norm)
                    assert np.linalg.norm(vectors.conj().T @ vectors - np.eye(n)) <= 1e-10

    def test_lapack_failure_is_convergence_failure(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            hpd_core.eig_hermitian(np.eye(2))

    def test_reconstruction_200_seeded(self):
        rng = np.random.default_rng(99)
        for i in range(200):
            n = 1 + i % 6
            m = random_hermitian(rng, n, scale=10.0 ** (i % 3))
            dec = hpd_core.eig_hermitian(m)
            rec = (dec.vectors * dec.eigenvalues) @ dec.vectors.conj().T
            tol = 1e-10 * max(1.0, np.linalg.norm(m))
            assert np.linalg.norm(rec - m) <= tol
            assert np.linalg.norm(dec.vectors.conj().T @ dec.vectors - np.eye(n)) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            hpd_core.eig_hermitian(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(NonHermitianInput):
            hpd_core.eig_hermitian(np.array([[1.0 + 1e-6j, 0.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            hpd_core.eig_hermitian(np.ones((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(NonHermitianInput):
            hpd_core.eig_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestPositiveDefinite:
    def test_identity(self):
        ok, min_eig = hpd_core.is_positive_definite(np.eye(2))
        assert ok and min_eig == pytest.approx(1.0)

    def test_indefinite(self):
        ok, min_eig = hpd_core.is_positive_definite(np.diag([1.0, -1.0]))
        assert not ok and min_eig == pytest.approx(-1.0)

    def test_relative_floor(self):
        # floor = n * eps * lambda_max, computed explicitly
        m = np.diag([1e-20, 1.0])
        floor = 2 * np.finfo(float).eps * 1.0
        assert 1e-20 < floor
        ok, min_eig = hpd_core.is_positive_definite(m)
        assert not ok
        assert min_eig == pytest.approx(1e-20, rel=1e-6)


class TestMatrixPower:
    def test_identity_sqrt(self):
        np.testing.assert_allclose(hpd_core.matrix_power(np.eye(3), 0.5), np.eye(3), atol=1e-14)

    def test_diagonal_sqrt(self):
        out = hpd_core.matrix_power(np.diag([4.0, 9.0]), 0.5)
        np.testing.assert_allclose(out, np.diag([2.0, 3.0]), atol=1e-13)

    def test_cube_root_round_trip(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            p = random_pd(rng, n)
            back = hpd_core.matrix_power(hpd_core.matrix_power(p, 1 / 3), 3)
            assert np.abs(back - p).max() <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        p=st.floats(min_value=-1.5, max_value=1.5).filter(lambda v: abs(v) > 0.05),
        q=st.floats(min_value=-1.5, max_value=1.5).filter(lambda v: abs(v) > 0.05),
    )
    def test_power_homomorphism(self, p, q):
        if abs(p + q) <= 0.05:
            return
        mat = random_pd(np.random.default_rng(8), 3)
        lhs = hpd_core.matrix_power(mat, p) @ hpd_core.matrix_power(mat, q)
        rhs = hpd_core.matrix_power(mat, p + q)
        assert np.abs(lhs - rhs).max() <= 1e-9

    def test_zero_exponent_rejected(self):
        with pytest.raises(ValueError):
            hpd_core.matrix_power(np.eye(2), 0.0)

    def test_requires_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            hpd_core.matrix_power(np.diag([1.0, -1.0]), 0.5)


class TestCongruence:
    def test_identity_factor(self):
        rng = np.random.default_rng(1)
        m = random_hermitian(rng, 3)
        np.testing.assert_allclose(hpd_core.congruence(np.eye(3), m), m, atol=1e-14)

    def test_unitary_on_scalar(self):
        u = hpd_core.random_unitary(4, 7)
        out = hpd_core.congruence(u, 2.5 * np.eye(4))
        np.testing.assert_allclose(out, 2.5 * np.eye(4), atol=1e-12)

    def test_hand_expansion(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        out = hpd_core.congruence(a, np.eye(2))
        np.testing.assert_allclose(out, [[1.0, 1.0], [1.0, 2.0]], atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            hpd_core.congruence(np.eye(2), np.eye(3))

    def test_preserves_positive_definiteness(self):
        rng = np.random.default_rng(12)
        for n in (2, 3, 4):
            a = random_nonsingular(rng, n)
            p = random_pd(rng, n)
            ok, _ = hpd_core.is_positive_definite(hpd_core.congruence(a, p))
            assert ok


class TestElementwiseOps:
    def test_frobenius_norm_identity(self):
        assert hpd_core.frobenius_norm(np.eye(3)) == pytest.approx(np.sqrt(3))


class TestRandomUnitary:
    def test_scalar_case(self):
        u = hpd_core.random_unitary(1, 0)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-14

    def test_deterministic(self):
        assert np.array_equal(hpd_core.random_unitary(3, 42), hpd_core.random_unitary(3, 42))

    def test_orthonormal(self):
        u = hpd_core.random_unitary(3, 42)
        assert np.linalg.norm(u.conj().T @ u - np.eye(3)) <= 1e-10


class TestRandomPdInBall:
    def test_zero_radius_is_identity(self):
        np.testing.assert_allclose(hpd_core.random_pd_in_ball(3, 0.0, 1), np.eye(3), atol=1e-12)

    def test_containment(self):
        rng = np.random.default_rng(21)
        for i in range(25):
            radius = 0.25 * (1 + i % 8)
            x = hpd_core.random_pd_in_ball(2 + i % 3, radius, rng)
            assert thompson.distance(x, np.eye(x.shape[0])) <= radius + 1e-9

    def test_eigenvalue_range(self):
        x = hpd_core.random_pd_in_ball(2, 1.0, 77)
        lam = np.linalg.eigvalsh(x)
        assert lam.min() >= np.exp(-1) - 1e-12
        assert lam.max() <= np.exp(1) + 1e-12

    def test_deterministic(self):
        assert np.array_equal(
            hpd_core.random_pd_in_ball(3, 2.0, 5), hpd_core.random_pd_in_ball(3, 2.0, 5)
        )


class TestMatrixLiterals:
    def test_real_round_trip(self):
        m = np.array([[2.0, -1.0], [-1.0, 2.0]])
        lit = hpd_core.matrix_to_literal(m)
        assert lit == [[2.0, -1.0], [-1.0, 2.0]]
        assert np.array_equal(hpd_core.matrix_from_literal(lit), m)

    def test_complex_round_trip(self):
        m = np.array([[1.0, 2.0 + 3.0j], [2.0 - 3.0j, 5.0]])
        lit = hpd_core.matrix_to_literal(m)
        assert np.array_equal(hpd_core.matrix_from_literal(lit), m)

    def test_mixed_entries_parse(self):
        m = hpd_core.matrix_from_literal([[1, [0, 2]], [[0, -2], 4]])
        assert m[0, 1] == 2j and m[1, 1] == 4

    def test_bad_entry_rejected(self):
        with pytest.raises(DimensionMismatch):
            hpd_core.matrix_from_literal([[1, "x"], [0, 1]])
        with pytest.raises(DimensionMismatch):
            hpd_core.matrix_from_literal([[1, 2], [3]])
