"""Hermitian/PD algebra tests.

The eigensolver (LAPACK eigh) is checked against construction oracles
(matrices built from known factors) and against the cyclic Jacobi solver
in ``jacobi.py`` as an independent reference implementation.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import literal_oracle
import map_oracle
from helpers import known_answer, random_hermitian, random_nonsingular, random_pd, random_pd_in_ball, random_unitary
from jacobi import jacobi_eig
from tfp import hpd_core, thompson
from tfp.errors import ConvergenceFailure, DimensionMismatch, NonHermitianInput, NotPositiveDefinite
from tfp.fixtures import fixture_path


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
        u = random_unitary(3, 2024)
        m = hpd_core.symmetrize((u * np.array([1.0, 2.0, 5.0])) @ u.conj().T)
        dec = hpd_core.eig_hermitian(m)
        np.testing.assert_allclose(dec.eigenvalues, [1, 2, 5], atol=1e-10)

    def test_degenerate_spectrum(self):
        u = random_unitary(4, 31)
        m = hpd_core.symmetrize((u * np.array([2.0, 2.0, 2.0, 7.0])) @ u.conj().T)
        dec = hpd_core.eig_hermitian(m)
        np.testing.assert_allclose(dec.eigenvalues, [2, 2, 2, 7], atol=1e-10)
        rec = (dec.vectors * dec.eigenvalues) @ dec.vectors.conj().T
        np.testing.assert_allclose(rec, m, atol=1e-12)

    def test_identity_is_its_own_decomposition(self):
        # solve starts from the identity as the point (I, (ones, I)), with
        # no eigensolve; eigh gives those bits, signs of zeros included
        for n in range(1, 130):
            lam, vectors = hpd_core.eig_hermitian(hpd_core.identity(n))
            assert lam.tobytes() == np.ones(n).tobytes()
            assert vectors.dtype == np.complex128 and vectors.tobytes() == hpd_core.identity(n).tobytes()

    def test_eigenvalues_sorted_ascending(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            dec = hpd_core.eig_hermitian(random_hermitian(rng, 5))
            assert all(np.diff(dec.eigenvalues) >= 0)

    def test_against_jacobi_oracle(self):
        for n in (1, 2, 3, 8, 16):
            rng = np.random.default_rng(17 + n)
            u = random_unitary(n, 100 + n)
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

    @pytest.mark.parametrize("routine, vectors", [("eigh", True), ("eigvalsh", False)])
    def test_lapack_failure_is_convergence_failure(self, monkeypatch, routine, vectors):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, routine, fail)
        with pytest.raises(ConvergenceFailure, match=f"{routine} did not converge"):
            hpd_core.eig_hermitian(np.eye(2), vectors=vectors)

    def test_eigenvalues_only(self):
        # the same spectrum to rounding, no vectors, the same guards
        rng = np.random.default_rng(98)
        stack = np.stack([random_hermitian(rng, 5) for _ in range(4)])
        full, bare = hpd_core.eig_hermitian(stack), hpd_core.eig_hermitian(stack, vectors=False)
        assert bare.vectors is None and bare.eigenvalues.shape == (4, 5)
        np.testing.assert_allclose(bare.eigenvalues, full.eigenvalues, rtol=0, atol=1e-12)
        with pytest.raises(DimensionMismatch):
            hpd_core.eig_hermitian(np.ones((2, 3)), vectors=False)
        with pytest.raises(NonHermitianInput, match="pencil contains non-finite"):
            hpd_core.eig_hermitian(np.array([[np.inf, 0.0], [0.0, 1.0]]), "pencil", vectors=False)

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
        # symmetry is checked where a matrix comes in, by pd_point
        with pytest.raises(NonHermitianInput):
            hpd_core.pd_point(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(NonHermitianInput):
            hpd_core.pd_point(np.array([[1.0 + 1e-6j, 0.0], [0.0, 1.0]]))

    def test_rejects_non_hermitian_near_overflow(self):
        # the squared entries overflow, the tolerance must not
        m = np.array([[1e308, 0.0], [5e307, 1e308]])
        with np.errstate(over="ignore"):
            assert hpd_core.frobenius_norm(m) == pytest.approx(1.5e308)
            assert hpd_core.hermitian_tolerance(4 * [[1e308] * 4]) == pytest.approx(4e296)
            with pytest.raises(NonHermitianInput, match="defect 5.000e"):
                hpd_core.pd_point(m)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            hpd_core.eig_hermitian(np.ones((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(NonHermitianInput):
            hpd_core.eig_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestPositiveDefinite:
    """``pd_point`` decomposes once and applies the relative floor."""

    def test_identity(self):
        point = hpd_core.pd_point(np.eye(2))
        assert point.dec.eigenvalues[0] == pytest.approx(1.0)
        assert hpd_core.pd_point(point) is point

    def test_indefinite(self):
        with pytest.raises(NotPositiveDefinite, match=r"min eigenvalue -1\.000e\+00"):
            hpd_core.pd_point(np.diag([1.0, -1.0]))

    def test_relative_floor(self):
        # floor = n * eps * lambda_max, computed explicitly
        m = np.diag([1e-20, 1.0])
        floor = 2 * np.finfo(float).eps * 1.0
        assert 1e-20 < floor
        with pytest.raises(NotPositiveDefinite, match=r"min eigenvalue 1\.000e-20"):
            hpd_core.pd_point(m)

    def test_floor_is_inclusive_for_a_matrix_and_a_stack(self):
        # a matrix is a stack of one spectrum: the same product
        # n * eps * lambda_max and comparison, on arrays
        floor = 2 * np.finfo(float).eps
        at, above = np.diag([floor, 1.0]), np.diag([np.nextafter(floor, 1.0), 1.0])
        message = re.escape("X must be positive definite (min eigenvalue 4.441e-16, floor 4.441e-16)")
        with pytest.raises(NotPositiveDefinite, match=message):
            hpd_core._pd_eig(at.astype(complex), "X")
        with pytest.raises(NotPositiveDefinite, match=message):
            hpd_core._pd_eig(np.stack([above, at, at]).astype(complex), "X")
        hpd_core._pd_eig(above.astype(complex), "X")
        hpd_core._pd_eig(np.stack([above, above]).astype(complex), "X")

    @pytest.mark.parametrize("n", [2, 5])
    def test_stack_names_its_first_failing_matrix_in_c_order(self, n):
        # spectra below the floor at [1, 0] and [1, 2] of a (2, 3) stack
        lam = np.tile(np.linspace(1.0, 2.0, n), (2, 3, 1))
        lam[1, 0, 0], lam[1, 2, 0] = -3.0, 0.0
        u = random_unitary(n, n)
        stack = hpd_core.symmetrize((u * lam[..., None, :]) @ u.conj().T)
        with pytest.raises(NotPositiveDefinite) as alone:
            hpd_core._pd_eig(stack[1, 0], "X")
        for vectors in (True, False):
            with pytest.raises(NotPositiveDefinite) as stacked:
                hpd_core._pd_eig(stack, "X", vectors=vectors)
            assert str(stacked.value) == str(alone.value)
            assert "min eigenvalue -3.000e+00" in str(stacked.value)
        lam[1, 0, 0] = lam[1, 2, 0] = 0.5
        passing = hpd_core.symmetrize((u * lam[..., None, :]) @ u.conj().T)
        assert hpd_core._pd_eig(passing, "X").eigenvalues.shape == (2, 3, n)

    def test_point_keeps_matrix_and_ascending_decomposition(self):
        rng = np.random.default_rng(40)
        m = random_pd(rng, 4)
        point = hpd_core.pd_point(m)
        assert point.matrix is m
        assert np.asarray(point) is m
        lam, vectors = point.dec
        assert all(np.diff(lam) >= 0)
        assert np.linalg.norm((vectors * lam) @ vectors.conj().T - m) <= 1e-12 * np.linalg.norm(m)

    @pytest.mark.parametrize("p", [-1.0, -0.5, 1 / 3, 0.5, 2.0])
    def test_powered_point_decomposes_its_own_matrix(self, p):
        point = hpd_core.pd_point(random_pd(np.random.default_rng(41), 4))
        out = point.powered(p)
        lam, vectors = out.dec
        assert all(np.diff(lam) > 0)
        assert np.linalg.norm((vectors * lam) @ vectors.conj().T - out.matrix) <= 1e-12 * np.linalg.norm(out.matrix)
        lam_ref, vectors_ref = np.linalg.eigh(point.matrix)
        np.testing.assert_allclose(out.matrix, (vectors_ref * lam_ref**p) @ vectors_ref.conj().T, atol=1e-12)

    @pytest.mark.parametrize(
        "m, n, shape, expected",
        [
            (np.stack([np.eye(2), np.eye(2)]), None, "(2, 2, 2)", "(2, 2)"),
            (np.zeros((0, 0)), None, "(0, 0)", "(n, n) with n >= 1"),
            (np.ones(2), None, "(2,)", "(2, 2)"),
            (np.eye(3), 2, "(3, 3)", "(2, 2)"),
            (np.eye(2), 0, "(2, 2)", "(n, n) with n >= 1"),
        ],
        ids=["stack", "empty", "vector", "wrong-size", "no-size"],
    )
    def test_rejects_a_bad_shape_naming_the_matrix(self, m, n, shape, expected):
        with pytest.raises(DimensionMismatch, match=re.escape(f"X has shape {shape}, expected {expected}")):
            hpd_core.pd_point(m, "X", n)

    def test_point_passes_unless_its_matrices_have_the_wrong_size(self):
        point = hpd_core.pd_point(np.eye(2))
        stack = hpd_core.PDPoint.stacked([point, point])
        assert hpd_core.pd_point(point, "X", 2) is point and hpd_core.pd_point(stack, "X", 2) is stack
        with pytest.raises(DimensionMismatch, match=re.escape("X has shape (2, 2), expected (3, 3)")):
            hpd_core.pd_point(point, "X", 3)


def power(m, p):
    return hpd_core.pd_point(m).powered(p).matrix


class TestMatrixPower:
    def test_identity_sqrt(self):
        np.testing.assert_allclose(power(np.eye(3), 0.5), np.eye(3), atol=1e-14)

    def test_diagonal_sqrt(self):
        out = power(np.diag([4.0, 9.0]), 0.5)
        np.testing.assert_allclose(out, np.diag([2.0, 3.0]), atol=1e-13)

    def test_cube_root_round_trip(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            p = random_pd(rng, n)
            back = power(power(p, 1 / 3), 3)
            assert np.abs(back - p).max() <= 1e-9

    @settings(max_examples=40)
    @given(
        p=st.floats(min_value=-1.5, max_value=1.5).filter(lambda v: abs(v) > 0.05),
        q=st.floats(min_value=-1.5, max_value=1.5).filter(lambda v: abs(v) > 0.05),
    )
    def test_power_homomorphism(self, p, q):
        if abs(p + q) <= 0.05:
            return
        mat = random_pd(np.random.default_rng(8), 3)
        lhs = power(mat, p) @ power(mat, q)
        rhs = power(mat, p + q)
        assert np.abs(lhs - rhs).max() <= 1e-9

    def test_requires_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            power(np.diag([1.0, -1.0]), 0.5)


def _congruence(a, m):
    """A* M A by the map oracle's right-hand side, `tests/map_oracle.py`,
    from M's eigendecomposition."""
    lam, vectors = np.linalg.eigh(m)
    return map_oracle.rhs(None, [a], lam, vectors)


class TestCongruence:
    """The congruence A* M A of the map oracle's right-hand side."""

    def test_identity_factor(self):
        rng = np.random.default_rng(1)
        m = random_hermitian(rng, 3)
        np.testing.assert_allclose(_congruence(np.eye(3), m), m, atol=1e-14)

    def test_unitary_on_scalar(self):
        u = random_unitary(4, 7)
        out = _congruence(u, 2.5 * np.eye(4))
        np.testing.assert_allclose(out, 2.5 * np.eye(4), atol=1e-12)

    def test_hand_expansion(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        out = _congruence(a, np.eye(2))
        np.testing.assert_allclose(out, [[1.0, 1.0], [1.0, 2.0]], atol=1e-14)

    def test_preserves_positive_definiteness(self):
        rng = np.random.default_rng(12)
        for n in (2, 3, 4):
            a = random_nonsingular(rng, n)
            p = random_pd(rng, n)
            # pd_point raises NotPositiveDefinite below the relative floor
            assert hpd_core.pd_point(_congruence(a, p)).dec.eigenvalues[0] > 0


class TestElementwiseOps:
    def test_frobenius_norm_identity(self):
        norm = hpd_core.frobenius_norm(np.eye(3))
        assert type(norm) is float and norm == pytest.approx(np.sqrt(3))


def _complex_stack(rng, count, n, exponents):
    """``count`` complex Gaussian n-by-n matrices, matrix i scaled by
    10 ** exponents[i]."""
    z = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    return z * (10.0 ** np.asarray(exponents, dtype=float))[:, None, None]


class TestStackedFrobeniusNorm:
    """A stack's norms come from one stacked product, bit for bit the norm
    of each matrix on its own and numpy's."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 33])
    @pytest.mark.parametrize("count", [1, 7, 200])
    @pytest.mark.parametrize("scale", ["-150", "0", "150", "mixed"])
    def test_stack_matches_each_matrix(self, n, count, scale):
        rng = np.random.default_rng([n, count])
        exponents = np.linspace(-150, 150, count) if scale == "mixed" else [float(scale)] * count
        stack = _complex_stack(rng, count, n, exponents)
        norms = hpd_core.frobenius_norm(stack)
        assert norms.shape == (count,)
        for matrix, norm in zip(stack, norms):
            assert norm == hpd_core.frobenius_norm(matrix) == np.linalg.norm(matrix)

    @pytest.mark.parametrize("n", [3, 16])
    def test_stack_in_column_major_layout(self, n):
        # numpy's norm reads each matrix in memory order, and so does the stack
        stack = _complex_stack(np.random.default_rng(n), 9, n, [0.0] * 9).swapaxes(-1, -2)
        norms = hpd_core.frobenius_norm(stack)
        assert norms.tolist() == [np.linalg.norm(matrix) for matrix in stack]

    def test_leading_axes_and_real_input(self):
        stack = _complex_stack(np.random.default_rng(3), 6, 4, [1.0] * 6).reshape(2, 3, 4, 4)
        norms = hpd_core.frobenius_norm(stack)
        assert norms.shape == (2, 3)
        assert norms[1, 2] == hpd_core.frobenius_norm(stack[1, 2])
        real = stack.real
        assert hpd_core.frobenius_norm(real)[0, 1] == np.linalg.norm(real[0, 1])

    @pytest.mark.parametrize("n", [2, 8])
    def test_overflowing_matrix_is_rescaled_on_its_own(self, n):
        # one matrix with a norm above 1e154 overflows the sum of squares
        exponents = [0.0, 160.0, -100.0, 100.0]
        stack = _complex_stack(np.random.default_rng(n), 4, n, exponents)
        norms = hpd_core.frobenius_norm(stack)  # and no overflow warning
        assert norms[1] > 1e154 and math.isfinite(norms[1])
        with np.errstate(over="ignore"):
            assert norms[1] == hpd_core.frobenius_norm(stack[1])
        for i in (0, 2, 3):
            assert norms[i] == np.linalg.norm(stack[i])

    @pytest.mark.parametrize("layout", ["C", "column-major"])
    @pytest.mark.parametrize("n", [2, 8])
    def test_overflowing_and_infinite_matrices_keep_numpys_bits(self, n, layout):
        # two matrices whose sum of squares overflows and one with an inf
        # entry: each norm is numpy's, of the matrix scaled by its largest
        # part when it is finite and numpy's norm overflows
        stack = _complex_stack(np.random.default_rng([n, 5]), 5, n, [0.0, 170.0, -120.0, 155.0, 3.0])
        stack[4, 0, n - 1] = complex(np.inf, 1.0)
        if layout == "column-major":
            stack = stack.swapaxes(-1, -2)
        norms = hpd_core.frobenius_norm(stack)  # and no overflow warning
        expected = []
        with np.errstate(over="ignore"):
            for m in stack:
                norm = np.linalg.norm(m)
                if math.isinf(norm) and np.isfinite(m).all():
                    scale = float(np.maximum(np.abs(m.real), np.abs(m.imag)).max())
                    norm = scale * np.linalg.norm(m / scale)
                expected.append(float(norm))
        assert norms.tolist() == expected
        assert math.isfinite(expected[1]) and math.isfinite(expected[3]) and expected[4] == math.inf
        assert [hpd_core.frobenius_norm(m) for m in stack] == expected


class TestRandomUnitary:
    def test_scalar_case(self):
        u = random_unitary(1, 0)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-14

    def test_deterministic(self):
        assert np.array_equal(random_unitary(3, 42), random_unitary(3, 42))

    def test_orthonormal(self):
        u = random_unitary(3, 42)
        assert np.linalg.norm(u.conj().T @ u - np.eye(3)) <= 1e-10


class TestAsCount:
    """An integral float counts as an integer everywhere, a numpy float of
    any width as well as a Python float."""

    @pytest.mark.parametrize("kind", [float, np.float64, np.float32, np.float16, np.longdouble])
    def test_an_integral_float_reads_as_its_int(self, kind):
        count = hpd_core.as_count(kind(3.0), "n")
        assert type(count) is int and count == 3

    @pytest.mark.parametrize("kind", [float, np.float64, np.float32, np.float16, np.longdouble])
    def test_a_fractional_float_is_refused(self, kind):
        value = kind(2.5)
        with pytest.raises(ValueError, match=f"^n must be an integer, got {re.escape(repr(value))}$"):
            hpd_core.as_count(value, "n")

    @pytest.mark.parametrize("kind", [np.float32, np.float16, np.longdouble])
    def test_an_integral_float_below_the_minimum_is_refused_as_its_int(self, kind):
        with pytest.raises(ValueError, match="^n must be at least 1, got 0$"):
            hpd_core.as_count(kind(0.0), "n")


def ball_streams(seed):
    """The (spectra, gauss, frame) streams a check with ``seed`` draws from."""
    return tuple(np.random.default_rng(seed).spawn(3))


class TestSampleBallPairs:
    def test_rejects_a_dimension_below_one(self):
        # n is a count, read by the field rule a problem file's n obeys
        with pytest.raises(ValueError, match="^n must be at least 1, got 0$"):
            hpd_core.sample_ball_pairs(0, 1.0, ball_streams(3), 2)
        with pytest.raises(ValueError, match="^n must be an integer, got True$"):
            hpd_core.sample_ball_pairs(True, 1.0, ball_streams(3), 2)

    def test_an_integral_float_dimension_reads_as_its_int(self):
        x = hpd_core.sample_ball_pairs(2.0, 1.0, ball_streams(3), 2)
        y = hpd_core.sample_ball_pairs(2, 1.0, ball_streams(3), 2)
        assert x.w.shape == (2, 2, 2)
        for got, want in [(x.lam_x, y.lam_x), (x.lam_y, y.lam_y), (x.w, y.w), (x.x_dec().vectors, y.x_dec().vectors)]:
            assert np.array_equal(got, want)

    def test_zero_radius_is_identity(self):
        pairs = hpd_core.sample_ball_pairs(3, 0.0, ball_streams(1), 4)
        assert np.array_equal(pairs.lam_x, np.ones((4, 3))) and np.array_equal(pairs.lam_y, np.ones((4, 3)))
        for i in range(4):
            for m in pairs.matrices(i):
                np.testing.assert_allclose(m, np.eye(3), atol=1e-12)

    def test_containment(self):
        for i in range(25):
            radius = 0.25 * (1 + i % 8)
            n = 2 + i % 3
            pairs = hpd_core.sample_ball_pairs(n, radius, ball_streams(21 + i), 2)
            for x in (m for j in range(2) for m in pairs.matrices(j)):
                assert thompson.distance(x, np.eye(n)) <= radius + 1e-9

    def test_eigenvalue_range(self):
        pairs = hpd_core.sample_ball_pairs(2, 1.0, ball_streams(77), 5)
        for lam in (pairs.lam_x, pairs.lam_y):
            assert lam.min() >= np.exp(-1) and lam.max() <= np.exp(1)
        for m in pairs.matrices(3):
            lam = np.linalg.eigvalsh(m)
            assert lam.min() >= np.exp(-1) - 1e-12
            assert lam.max() <= np.exp(1) + 1e-12

    def test_deterministic(self):
        x, y = (hpd_core.sample_ball_pairs(3, 2.0, ball_streams(5), 3) for _ in range(2))
        assert all(np.array_equal(a, b) for a, b in zip(x.matrices(2), y.matrices(2)))

    def test_pairs_keep_their_construction(self):
        # the three calls' draws: X's then Y's sorted spectra, W, then U; X
        # is U diag(lam_x) U* and Y is V diag(lam_y) V* with V = U W
        n, radius = 5, 2.0
        pairs = hpd_core.sample_ball_pairs(n, radius, ball_streams(11), 4)
        spectra, gauss, frame = ball_streams(11)
        t = np.sort(spectra.uniform(-radius, radius, size=(4, 2, n)), axis=-1)
        w = hpd_core._haar_unitaries(frame.standard_normal((4, 2, n, n)))
        u = hpd_core._haar_unitaries(gauss.standard_normal((4, 2, n, n)))
        assert np.array_equal(pairs.lam_x, np.exp(t[:, 0])) and np.array_equal(pairs.lam_y, np.exp(t[:, 1]))
        assert np.array_equal(pairs.w, w)
        assert np.array_equal(pairs.x_dec().vectors, u) and np.array_equal(pairs.y_dec().vectors, u @ w)
        eye = np.broadcast_to(np.eye(n), (4, n, n))
        np.testing.assert_allclose(w @ w.conj().swapaxes(-1, -2), eye, atol=1e-12)
        np.testing.assert_allclose(u @ u.conj().swapaxes(-1, -2), eye, atol=1e-12)
        for i in range(4):
            x, y = pairs.matrices(i)
            assert np.array_equal(x, hpd_core.symmetrize((u[i] * pairs.lam_x[i]) @ u[i].conj().T))
            v = u[i] @ w[i]
            assert np.array_equal(y, hpd_core.symmetrize((v * pairs.lam_y[i]) @ v.conj().T))

    def test_a_block_whose_u_is_not_read_gives_its_pairs_in_xs_eigenbasis(self):
        # X = diag(lam_x) and Y = W diag(lam_y) W*, with no draw for U
        pairs = hpd_core.sample_ball_pairs(4, 1.5, ball_streams(12), 3)
        gauss = pairs._gauss.bit_generator.state
        for i in range(3):
            x, y = pairs.matrices(i)
            assert np.array_equal(x, np.diag(pairs.lam_x[i]).astype(complex))
            w = pairs.w[i]
            assert np.array_equal(y, hpd_core.symmetrize((w * pairs.lam_y[i]) @ w.conj().T))
        assert pairs._gauss.bit_generator.state == gauss

    @pytest.mark.parametrize("radius", ["0.5", True, False, None, 1j])
    def test_a_radius_that_is_no_real_number_is_rejected(self, radius):
        with pytest.raises(ValueError, match=f"^radius must be a real number, got {re.escape(repr(radius))}$"):
            hpd_core.sample_ball_pairs(3, radius, ball_streams(1), 2)

    def test_nan_radius_rejected(self):
        with pytest.raises(ValueError, match="radius must be nonnegative, got nan"):
            hpd_core.sample_ball_pairs(3, math.nan, ball_streams(1), 2)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError, match="^radius must be nonnegative, got -0.5$"):
            hpd_core.sample_ball_pairs(3, -0.5, ball_streams(1), 2)
        with pytest.raises(ValueError, match="^radius must be nonnegative, got -inf$"):
            hpd_core.sample_ball_pairs(3, -(10**400), ball_streams(1), 2)

    def test_infinite_radius_too_wide_to_sample(self):
        message = r"^ball of radius inf is too wide to sample: exp\(inf\) overflows$"
        with pytest.raises(NonHermitianInput, match=message):
            hpd_core.sample_ball_pairs(3, math.inf, ball_streams(1), 2)

    @pytest.mark.parametrize("radius, shown", [(710.0, "710"), (1000, "1000"), (10**400, "inf")])
    def test_a_radius_whose_exp_overflows_is_too_wide_to_sample(self, radius, shown):
        # raised before drawing: the points would have infinite eigenvalues
        streams = ball_streams(1)
        states = [s.bit_generator.state for s in streams]
        with pytest.raises(NonHermitianInput, match=rf"^ball of radius {shown} is too wide to sample"):
            hpd_core.sample_ball_pairs(3, radius, streams, 2)
        assert [s.bit_generator.state for s in streams] == states

    def test_the_widest_finite_ball_is_sampled(self):
        pairs = hpd_core.sample_ball_pairs(3, 709.0, ball_streams(1), 2)
        assert np.isfinite(pairs.lam_x).all() and np.isfinite(pairs.lam_y).all()


def _literals(doc):
    """The matrix literals of a problem document, named by where they sit."""
    found = {key: doc[key] for key in ("Q1", "Q2", "x0") if isinstance(doc.get(key), list)}
    found.update((f"A[{i}]", a_i) for i, a_i in enumerate(doc["A"]))
    found.update((key, doc[key]["value"]) for key in ("F", "G") if doc[key]["kind"] == "constant")
    return found


def _fixture_literals():
    """The literals of every shipped fixture."""
    return [
        pytest.param(literal, id=f"{path.name}:{key}")
        for path in sorted(fixture_path("example_4_1.json").parent.glob("*.json"))
        for key, literal in _literals(json.loads(path.read_text())).items()
    ]


def _known_answer_literals():
    return [
        pytest.param(literal, id=f"n{n}-{i}:{key}")
        for n in (5, 8, 16)
        for i, (doc, _) in enumerate(known_answer.problems(n, 4, 7))
        for key, literal in _literals(json.loads(json.dumps(doc))).items()
    ]


def assert_bits_equal(a, b):
    """Same shape, dtype and bits: signs of zeros and NaN payloads too."""
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def assert_same_error(literal):
    with pytest.raises(DimensionMismatch) as expected:
        literal_oracle.matrix_from_literal(literal, "M")
    with pytest.raises(DimensionMismatch) as got:
        hpd_core.matrix_from_literal(literal, "M")
    assert str(got.value) == str(expected.value)
    return str(got.value)


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


class TestLiteralReaderAgainstOracle:
    """The array-at-a-time reader gives the entry-by-entry oracle's arrays
    bit for bit, and its errors message for message."""

    @pytest.mark.parametrize("literal", _fixture_literals())
    def test_fixture_literals(self, literal):
        assert_bits_equal(hpd_core.matrix_from_literal(literal), literal_oracle.matrix_from_literal(literal))

    @pytest.mark.parametrize("literal", _known_answer_literals())
    def test_known_answer_literals(self, literal):
        assert_bits_equal(hpd_core.matrix_from_literal(literal), literal_oracle.matrix_from_literal(literal))

    @pytest.mark.parametrize(
        "literal",
        [
            [[2**53 + 1, 2**63], [2**64 + 1, 10**308]],
            [[-(2**53) - 1, -(2**63) - 1], [-(2**64) - 1, -(10**308)]],
            [[[2**53 + 1, 2**63]], [[2**64 + 1, 10**308]]],
            [[1, [0, 2]], [[0, -2], 4.5]],
            [[-0.0, [-0.0, -0.0]], [[0.0, -0.0], [-0.0, 0.0]]],
            [[-0.0, 0.0], [0, -0.0]],
            [[[-0.0, 0.0], [0.0, -0.0]]],
            [[math.nan, math.inf], [-math.inf, 5e-324]],
            [[1.5]],
            [[], []],
        ],
        ids=["big-ints", "big-negative-ints", "big-ints-in-pairs", "mixed", "mixed-signed-zeros",
             "real-signed-zeros", "complex-signed-zeros", "non-finite", "one-by-one", "empty-rows"],
    )
    def test_edge_literals(self, literal):
        assert_bits_equal(hpd_core.matrix_from_literal(literal), literal_oracle.matrix_from_literal(literal))

    def test_big_ints_round_as_float_does(self):
        m = hpd_core.matrix_from_literal([[2**53 + 1, [2**64 + 1, 10**308]]])
        assert m[0, 0].real == float(2**53 + 1) == 2.0**53
        assert (m[0, 1].real, m[0, 1].imag) == (float(2**64 + 1), float(10**308))

    def test_bare_number_has_positive_zero_imaginary_part(self):
        m = hpd_core.matrix_from_literal([[-0.0, [1.0, -0.0]]])
        assert math.copysign(1.0, m[0, 0].imag) == 1.0
        assert math.copysign(1.0, m[0, 1].imag) == -1.0

    @pytest.mark.parametrize(
        "literal, message",
        [
            ([[1, 2], [3]], "M row 1 has length 1, expected 2"),
            ([[1, 2, 3], [4, 5]], "M row 1 has length 2, expected 3"),
        ],
    )
    def test_row_length_message(self, literal, message):
        assert assert_same_error(literal) == message

    @pytest.mark.parametrize(
        "literal, message",
        [
            ([[1, "x"], [0, 1]], "M entry [0][1] must be a number or an [re, im] pair, got 'x'"),
            ([[1, 0], [True, 1]], "M entry [1][0] must be a number or an [re, im] pair, got True"),
            ([[1, None]], "M entry [0][1] must be a number or an [re, im] pair, got None"),
            ([[[1.0]]], "M entry [0][0] must be a number or an [re, im] pair, got [1.0]"),
            ([[1, [1, 2, 3]]], "M entry [0][1] must be a number or an [re, im] pair, got [1, 2, 3]"),
            ([[[1, "2"], 1]], "M entry [0][0] must be a number or an [re, im] pair, got [1, '2']"),
            ([[[False, 2]]], "M entry [0][0] must be a number or an [re, im] pair, got [False, 2]"),
            ([[1, (1, 2)]], "M entry [0][1] must be a number or an [re, im] pair, got (1, 2)"),
            ([[1.0, []]], "M entry [0][1] must be a number or an [re, im] pair, got []"),
        ],
        ids=["string", "bool", "none", "length-1", "length-3", "string-in-pair", "bool-in-pair", "tuple", "empty"],
    )
    def test_bad_entry_message(self, literal, message):
        assert assert_same_error(literal) == message

    @pytest.mark.parametrize(
        "literal, message",
        [
            ([[1, 10**309]], "M entry [0][1] is an integer beyond the float range"),
            ([[1, -(10**309)]], "M entry [0][1] is an integer beyond the float range"),
            ([[1, 2], [[0, 10**309], 1]], "M entry [1][0] is an integer beyond the float range"),
            ([[[10**309, 0], 1]], "M entry [0][0] is an integer beyond the float range"),
        ],
        ids=["bare", "bare-negative", "imaginary-part", "real-part"],
    )
    def test_integer_beyond_float_range_message(self, literal, message):
        assert assert_same_error(literal) == message

    def test_first_bad_entry_in_reading_order_is_named(self):
        # a bad entry in row 0 comes before row 1's wrong length, and an
        # integer beyond the float range before a later entry of a bad type
        assert assert_same_error([[1, "x"], [1]]) == "M entry [0][1] must be a number or an [re, im] pair, got 'x'"
        assert assert_same_error([[10**309, "x"]]) == "M entry [0][0] is an integer beyond the float range"
        assert assert_same_error([[1, 2], [3], [4, "x"]]) == "M row 1 has length 1, expected 2"

    @pytest.mark.parametrize("literal", [[], "x", [1, 2], [[1], 2], None])
    def test_not_a_list_of_rows(self, literal):
        assert assert_same_error(literal) == "M must be a non-empty list of rows"
